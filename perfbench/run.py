"""layerquench benchmark.

    python3 perfbench/run.py --workload rings|scan|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One workload runs in this process: a warm-up pass at tiny size, then
whole passes over the workload's job list until --seconds is used up,
then the correctness gate.  With --trace 0 the last stdout line reports
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run (traced and untraced passes alternate).  "all" runs each workload
in its own process; --smoke runs every workload once at tiny size and
checks that every metric named in BENCHMARK.json is emitted with its
unit.  The exit code is 0 only when every job passed its check.
"""

import os
import sys

# Pin BLAS/OpenMP pools to one thread before numpy is imported, here and
# in every child process: the CLI's own --threads workers then keep the
# total thread count within the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QT_THREADS", None)

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("rings", "scan", "cli")
KINDS = ("characterize", "estimate_t", "phase_diagram", "chern")

# fresh interpreters timed per run for setup_s (at least)
SETUP_REPS = 7
SETUP_CODE = "import time, layerquench; print(repr(time.time()), layerquench.__file__)"

CHILD_TIMEOUT = 900


def median(xs):
    return statistics.median(xs) if xs else 0.0


def describe(values):
    """Mean, median, sample count and the highest percentile with at
    least ten samples beyond it (None when there are too few samples)."""
    xs = sorted(values)
    n = len(xs)
    tail = None
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            tail = (p, xs[max(0, math.ceil(p / 100.0 * n) - 1)])
            break
    return {"mean": statistics.fmean(xs) if xs else 0.0, "median": median(xs), "n": n,
            "tail": tail}


def machine_info():
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        b = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{b.get('name')} {b.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def setup_once():
    """Seconds from spawning a fresh interpreter to `import layerquench` done."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.time()
    r = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       capture_output=True, text=True, timeout=120, check=True)
    done, path = r.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"fresh interpreter imported layerquench from {path}")
    return float(done) - t0


def run_pass(jobs, offset=0, tracer=None, targets=()):
    """One pass over the job list.  Each single-threaded job is pinned to
    the next core in turn (starting at core `offset`), so that a pass,
    and a run, sample every core's speed; jobs that start worker threads
    may use all cores."""
    cpus = sorted(os.sched_getaffinity(0))
    res = {"traced": tracer is not None, "times": {}, "digests": {}, "errors": {}}
    start = time.perf_counter()
    with tracer.patched(targets) if tracer else nullcontext():
        for k, job in enumerate(jobs):
            os.sched_setaffinity(0, cpus if job.threads > 1 else [cpus[(offset + k) % len(cpus)]])
            t0 = time.perf_counter()
            try:
                out = job.call()
            except Exception as exc:  # a raising job is a counted failure, not a crash
                res["errors"][job.name] = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                res["times"][job.name] = time.perf_counter() - t0
            res["digests"][job.name] = job.digest(out)
    os.sched_setaffinity(0, cpus)
    res["wall"] = time.perf_counter() - start
    res["pass_s"] = sum(res["times"].values())
    if tracer:
        res["spans"] = tracer.drain()
    return res


def gate(jobs, passes):
    """Failures of every (job, pass): raised, differs from its first
    output, or the first output disagrees with the job's oracle."""
    firsts = {}
    for job in jobs:
        for p in passes:
            if job.name in p["digests"]:
                firsts[job.name] = p["digests"][job.name]
                break
    failures = []
    for job in jobs:
        verdict = None
        if job.name in firsts:
            try:
                verdict = job.check(firsts[job.name], firsts)
            except Exception as exc:  # an oracle that cannot decide fails the job
                verdict = f"{job.name}: oracle raised {type(exc).__name__}: {exc}"
        for k, p in enumerate(passes):
            if job.name in p["errors"]:
                failures.append(f"pass {k}: {job.name}: {p['errors'][job.name]}")
            elif p["digests"][job.name] != firsts[job.name]:
                failures.append(f"pass {k}: {job.name}: output differs from the first pass")
            elif verdict:
                failures.append(f"pass {k}: {verdict}")
    return len(jobs) * len(passes), failures


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import layerquench
    if not Path(layerquench.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: layerquench imported from {layerquench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import jobs as J
    import tracer as T

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        return measure(args, J, T, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, J, T, workdir):
    info = machine_info()
    setup = []

    warm_jobs = J.build(args.workload, args.seed, True, workdir)
    jobs = J.build(args.workload, args.seed, args.tiny, workdir)
    warm = run_pass(warm_jobs)

    # Passes run until --seconds of pass time is spent.  The setup_s
    # interpreters start between passes, about SETUP_REPS of them spread
    # evenly over the pass time, so they sample the same stretch of
    # machine time as the passes without eating into it.
    tracer = T.Tracer()
    targets = J.trace_targets()
    min_passes = 2 if args.trace else 1
    passes = []
    spent = 0.0
    while True:
        if args.trace == 0 and spent >= len(setup) * args.seconds / SETUP_REPS:
            setup.append(setup_once())
        traced = args.trace == 1 and len(passes) % 2 == 1
        passes.append(run_pass(jobs, len(passes), tracer if traced else None, targets))
        spent += passes[-1]["wall"]
        if len(passes) >= min_passes and spent + median([p["wall"] for p in passes]) / 2 \
                > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while args.trace == 0 and len(setup) < SETUP_REPS:
        setup.append(setup_once())

    attempted, failures = gate(warm_jobs, [warm])
    failures = ["warm-up " + f for f in failures]
    n, more = gate(jobs, passes)
    attempted += n
    failures += more

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    stats = {"pass_s": describe([p["pass_s"] for p in plain])}
    if args.trace == 0:
        stats["setup_s"] = describe(setup)
        metrics = {"pass_s": (stats["pass_s"]["mean"], "s"),
                   "setup_s": (stats["setup_s"]["median"], "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = {}
        for kind in KINDS:
            stats[f"{kind}_s"] = describe(
                [sum(p["times"][j.name] for j in jobs if j.kind == kind) for p in plain])
            metrics[f"{kind}_s"] = (stats[f"{kind}_s"]["mean"], "s")
        per_pass = [T.layer_metrics(p["spans"]) for p in traced]
        for name, (value, unit) in per_pass[0].items():
            values = [m[name][0] for m in per_pass]
            if unit == "count":
                if len(set(values)) != 1:
                    failures.append(f"trace: count {name} differs between passes: {values}")
            else:
                value = statistics.fmean(values)
            metrics[name] = (value, unit)
        metrics["cli.bytes_written"] = (
            sum(d["bytes"] for d in plain[0]["digests"].values()
                if isinstance(d, dict) and "bytes" in d), "count")
        metrics["trace.overhead_s"] = (
            statistics.fmean(p["pass_s"] for p in traced) - stats["pass_s"]["mean"], "s")
        write_spans(args, traced[0]["spans"])

    correct = not failures
    report(args, info, passes, jobs, stats, metrics, attempted, failures)
    write_results(args, info, passes, jobs, stats, metrics, attempted, failures)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def report(args, info, passes, jobs, stats, metrics, attempted, failures):
    print(f"layerquench benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(passes)} passes in {sum(p['wall'] for p in passes):.1f} s")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        line = f"  {name:<44} {value:>14.6g} {unit}"
        if name in stats:
            s = stats[name]
            tail = (f"p{s['tail'][0]:g} {s['tail'][1]:.6g}" if s["tail"]
                    else "no percentile has 10 samples beyond it")
            line += (f"  (n={s['n']}: mean {s['mean']:.6g}, median {s['median']:.6g}, "
                     f"{tail})")
        print(line)
    for job in jobs:
        times = [p["times"][job.name] for p in passes
                 if not p["traced"] and job.name in p["times"]]
        print(f"  job {job.name:<50} median {median(times):.4f} s over {len(times)}")
    for f in failures:
        print(f"  FAIL {f}")
    print(f"attempted {attempted}, failed {len(failures)}, "
          f"fail_frac {len(failures) / attempted:.6g}")


def write_results(args, info, passes, jobs, stats, metrics, attempted, failures):
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    obj = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "tiny": args.tiny, "machine": info,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "stats": stats, "attempted": attempted, "failures": failures,
           "passes": [{"traced": p["traced"], "pass_s": p["pass_s"], "times": p["times"]}
                      for p in passes]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1)


def write_spans(args, spans):
    """Spans of the first traced pass: [id, name, start, end, parent, extra]."""
    path = OUT / f"{args.workload}-seed{args.seed}.spans.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as f:
        json.dump([list(s) for s in spans], f)


def child(workload, args, trace, tiny):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return r, lines, result


def run_all(args):
    ok = True
    for w in WORKLOADS:
        r, lines, result = child(w, args, args.trace, args.tiny)
        print("\n".join(lines[:-1]))
        if r.returncode != 0 or result is None:
            ok = False
            print(f"{w}: exit {r.returncode}\n{r.stderr}")
    return 0 if ok else 1


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    args = argparse.Namespace(seed=1, seconds=1)
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            r, lines, result = child(w, args, trace, tiny=True)
            where = f"{w} trace {trace}"
            if r.returncode != 0 or result is None:
                problems.append(f"{where}: exit {r.returncode}: {r.stderr.strip()[-500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"} \
                    or not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: bad result header {lines[-1][:200]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(got.items())} "
                                f"!= {sorted(wanted[trace].items())}")
            for k, v in result["metrics"].items():
                x = v["value"]
                if isinstance(x, bool) or not isinstance(x, (int, float)) \
                        or not math.isfinite(x) or (trace == 0 and x <= 0):
                    problems.append(f"{where}: {k} = {x!r}")
            print(f"smoke {where}: {len(result['metrics'])} metrics")
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None):
    p = argparse.ArgumentParser(description="layerquench benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny problem sizes (smoke runs)")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload once at tiny size and check the metric names")
    args = p.parse_args(argv)
    if not (SRC / "layerquench" / "__init__.py").is_file():
        print(f"error: {SRC / 'layerquench'} not found; run from the root of a "
              "layerquench checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
