"""The columnar CSV writer of the CLI against the per-row reference
writer it replaced: every file must be byte-identical."""

import numpy as np
import pytest

import reference_csv
from layerquench.bisfield import sample_grid
from layerquench.cli import (_bis_run, _write_csv, build_parser, layered_config, main,
                             parse_grid, parse_observable, resolve_options)
from layerquench.topology import phase_diagram


def options(argv):
    return resolve_options(build_parser().parse_args(argv))


def run(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    return options(argv)


@pytest.mark.parametrize("argv", [
    ["tasp", "--grid", "32x20"],
    ["tasp", "--model", "haldane", "--m", "0.5", "--grid", "48"],
])
def test_tasp_files(tmp_path, argv):
    opts = run(argv, tmp_path / "cli")
    nx, ny = parse_grid(opts["grid"])
    grid = sample_grid(layered_config(opts), opts["axis"],
                       parse_observable(opts["observable"]), (nx, ny))
    KX, KY = grid.cell.k_at(np.arange(nx)[:, None] / nx, np.arange(ny)[None, :] / ny)
    for comp in (1, 2, 3):
        name = f"tasp_s{comp}.csv"
        reference_csv.write_csv(tmp_path / name, ["kx", "ky", "value"],
                                reference_csv.tasp_rows(KX, KY, grid.values, comp))
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_bis_files_with_source_column(tmp_path):
    opts = run(["bis", "--layers", "3", "--grid", "96"], tmp_path / "cli")
    contours, _, _ = _bis_run(layered_config(opts), opts)
    assert len(contours) >= 2
    for n, c in enumerate(contours):
        name = f"bis_contour_{n:02d}.csv"
        reference_csv.write_csv(tmp_path / name, ["kx", "ky", "g1", "g2", "source"],
                                reference_csv.bis_rows(c))
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("argv, boundary", [
    (["--layers", "3", "--t-min", "-0.5", "--t-max", "0.5", "--m-min", "-0.5",
      "--m-max", "4.5", "--steps", "5"], 10),
    # the one cell, centred on (1, 1), sits on a gap closing
    (["--steps", "1"], 1),
])
def test_phase_diagram_file(tmp_path, argv, boundary):
    opts = run(["phase-diagram", "--grid", "32"] + argv, tmp_path / "cli")
    pd = phase_diagram(opts["stacking"], opts["layers"], (opts["t_min"], opts["t_max"]),
                       (opts["m_min"], opts["m_max"]), opts["steps"], grid_n=32)
    assert pd.boundary.sum() == boundary
    reference_csv.write_csv(tmp_path / "ref.csv", ["t", "m", "chern", "gap_min"],
                            reference_csv.phase_rows(pd))
    assert ((tmp_path / "cli" / "phase_diagram.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_writer_matches_reference_on_extreme_values(tmp_path):
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1e300, -1.0 / 3, 0.1]
    a = np.concatenate([special, rng.standard_normal(20) * 10.0 ** rng.integers(-20, 20, 20)])
    b = a[::-1].copy()
    labels = [f"c{i}" for i in range(len(a))]
    _write_csv(tmp_path / "new.csv", ["a", "label", "b"], [a, labels, b])
    reference_csv.write_csv(tmp_path / "ref.csv", ["a", "label", "b"], zip(a, labels, b))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
