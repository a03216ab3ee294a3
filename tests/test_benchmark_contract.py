"""The benchmark's job lists against the package they drive.

perfbench/jobs.py looks up the functions its traced run wraps by name,
and passes fixed argv lists to the CLI.  A renamed function or a removed
flag would otherwise first fail in the benchmark's smoke run.  These
tests only read perfbench/: they build the job lists without running a
job.
"""

import importlib.util
from pathlib import Path

import pytest

from layerquench import cli

JOBS = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


@pytest.fixture(scope="module")
def jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(jobs):
    targets = jobs.trace_targets()
    assert targets
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in targets if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("tiny", [True, False])
def test_every_cli_job_parses(jobs, monkeypatch, tmp_path, tiny):
    seen = []
    monkeypatch.setattr(jobs.CliRun, "call", lambda self, argv: seen.append(argv))
    cli_jobs = jobs.cli_jobs(1, tiny, str(tmp_path))
    for job in cli_jobs:
        job.call()
    assert len(seen) == len(cli_jobs) > 0
    for argv in seen:
        # argparse exits on an unknown flag; resolve_options raises on a
        # value the options refuse
        cli.resolve_options(cli.build_parser().parse_args(argv + ["--out", str(tmp_path)]))
