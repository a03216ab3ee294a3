"""Seeded job lists of the benchmark workloads, their correctness
oracles, and the functions the traced run wraps.

A job is one timed call into layerquench's public API (or one in-process
CLI invocation).  The seed only jitters t and m inside the same phase
and shifts scan windows by less than one cell, so every seed does the
same kind of work; the expected integers come from independent oracles
evaluated after timing, never from constants.
"""

import hashlib
import inspect
import io
import json
import os
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import layerquench as lq
from layerquench import bisfield, cli, hopping, topology
from layerquench.errors import GaplessError, NonQuantizedWindingError

# interior phase cells re-checked per scan with the other oracle; cells
# with a smaller half-filling gap are left to the refinement logic
RECHECK_CELLS = 5
RECHECK_MIN_GAP = 0.1

ESTIMATE_TOL = 1e-6

# never more worker threads than cores
CLI_THREADS = min(2, len(os.sched_getaffinity(0)))


@dataclass
class Job:
    """One timed call and how its result is checked.

    call runs inside the timed region.  digest (untimed) reduces the
    call's result to plain data that must repeat exactly on every pass.
    check (untimed, once per run) compares the first pass's digest with
    an oracle; it gets the first digests of all jobs for cross-job
    comparisons and returns an error text or None.
    """

    name: str
    kind: str
    call: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object, dict], object]
    threads: int = 1


def _jitter(rng, x, rel):
    return x * (1.0 + rng.uniform(-rel, rel))


def _hash(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _expect(name, got, want):
    return None if got == want else f"{name}: got {got}, oracle says {want}"


def _certified_chern(cfg, grids):
    """chern_fhs at the first grid that certifies the gap and the links."""
    for n in grids:
        try:
            return lq.chern_fhs(cfg, grid_n=n)
        except (GaplessError, NonQuantizedWindingError):
            continue
    raise GaplessError(f"oracle chern_fhs uncertifiable for {cfg} at grids {grids}")


def _cell_oracle(stacking, layers, t, m):
    """Independent oracle for one phase cell: the link-variable Chern number.

    abba cells are computed by the scan as a mode-degree sum, so the
    link-variable number is independent of them.  ba cells are computed
    by the scan as a link-variable number at fhs_grid 40 (or a
    refinement of it); the oracle evaluates it on doubled grids.
    """
    cfg = lq.LayeredConfig(stacking, layers, t, m=m)
    return _certified_chern(cfg, (60, 120) if stacking == "abba" else (80, 160))


def _recheck_cells(label, stacking, layers, cells, rng):
    """cells: (t, m, chern, gap) of every non-boundary cell of one scan."""
    pool = [c for c in cells if c[3] >= RECHECK_MIN_GAP]
    if not pool:
        return f"{label}: no interior cell to re-check"
    for t, m, chern, _ in rng.sample(pool, min(RECHECK_CELLS, len(pool))):
        err = _expect(f"{label} cell t={t!r} m={m!r}", chern,
                      _cell_oracle(stacking, layers, t, m))
        if err:
            return err
    return None


# ---------------------------------------------------------------- rings

def _characterize_job(label, cfg, resolution):
    def digest(res):
        cs = res["contours"]
        return {"total_w": res["total_w"], "w": [c.w for c in cs],
                "points": [len(c.points) for c in cs],
                "hash": _hash(*[c.points for c in cs], *[c.gfield for c in cs])}

    def check(d, first):
        # the total winding equals the half-filling Chern number: the
        # mode-degree sum for abba, the link-variable number for ba
        if cfg.stacking == "abba":
            want = lq.total_chern_abba(cfg)
        else:
            want = lq.chern_fhs(cfg)
        return _expect(label, d["total_w"], want)

    return Job(label, "characterize", lambda: lq.characterize(cfg, resolution=resolution),
               digest, check)


def rings_jobs(seed, tiny):
    rng = random.Random(f"rings-{seed}")
    lo, hi = (64, 64) if tiny else (128, 256)
    jobs = []

    def qwz(t):
        return dict(t=_jitter(rng, t, 0.05), m=_jitter(rng, 1.0, 0.03))

    for res in (lo, hi):
        cfg = lq.LayeredConfig("abba", 2, **qwz(0.4))
        jobs.append(_characterize_job(f"characterize abba N=2 t={cfg.t:.4f} {res}^2", cfg, res))
    cfg = lq.LayeredConfig("ba", 2, **qwz(0.4))
    jobs.append(_characterize_job(f"characterize ba N=2 t={cfg.t:.4f} {hi}^2", cfg, hi))
    # three rings; the ring shape of the global ba data depends on m only
    cfg = lq.LayeredConfig("ba", 2, _jitter(rng, 0.4, 0.05), model="haldane", m=2 * np.sqrt(3))
    jobs.append(_characterize_job(f"characterize haldane ba N=2 {hi}^2", cfg, hi))
    # past the critical coupling: a ring with total invariant 0
    cfg = lq.LayeredConfig("abba", 2, **qwz(1.2))
    jobs.append(_characterize_job(f"characterize abba N=2 t={cfg.t:.4f} trivial {lo}^2",
                                  cfg, lo))

    cfg = lq.LayeredConfig("abba", 2, **qwz(0.4))

    def check_estimate(t_hat, first):
        if abs(t_hat - cfg.t) > ESTIMATE_TOL:
            return f"estimate_t_abba: t_hat {t_hat!r} vs hidden t {cfg.t!r}"
        return None

    jobs.append(Job(f"estimate_t_abba t={cfg.t:.4f} {hi}^2", "estimate_t",
                    lambda: lq.estimate_t_abba(cfg, resolution=hi),
                    lambda est: est.t_hat, check_estimate))
    return jobs


# ----------------------------------------------------------------- scan

def _window(rng, steps, lo, hi):
    """(lo, hi) shifted by up to half a cell."""
    shift = rng.uniform(0.0, 0.5) * (hi - lo) / steps
    return (lo + shift, hi + shift)


def _phase_job(label, stacking, steps, rng, check_rng):
    t_range = _window(rng, steps, 0.0, 2.0)
    m_range = _window(rng, steps, -1.0, 3.0)

    def digest(pd):
        return {"hash": _hash(pd.chern, pd.boundary, pd.gap_min),
                "cells": [(float(pd.ts[i]), float(pd.ms[l]), int(pd.chern[i, l]),
                           float(pd.gap_min[i, l]))
                          for i in range(len(pd.ts)) for l in range(len(pd.ms))
                          if not pd.boundary[i, l]]}

    return Job(label, "phase_diagram",
               lambda: lq.phase_diagram(stacking, 2, t_range, m_range, steps),
               digest,
               lambda d, first: _recheck_cells(label, stacking, 2, d["cells"], check_rng))


def scan_jobs(seed, tiny):
    rng = random.Random(f"scan-{seed}")
    check_rng = random.Random(f"scan-check-{seed}")
    jobs = [_phase_job(f"phase_diagram {stacking} N=2 {steps}^2", stacking, steps,
                       rng, check_rng)
            for stacking, steps in zip(("abba", "ba"), (6, 4) if tiny else (32, 12))]
    grid = 40 if tiny else 100
    # strong-coupling parity battery: chern_fhs and the mode-degree sum
    # are each other's oracle
    for N in ((2, 3) if tiny else (2, 3, 4, 5)):
        cfg = lq.LayeredConfig("abba", N, _jitter(rng, 2.5, 0.02))
        fhs, deg = f"chern_fhs abba N={N} t={cfg.t:.4f}", f"total_chern_abba abba N={N}"
        jobs.append(Job(fhs, "chern", lambda cfg=cfg: lq.chern_fhs(cfg, grid_n=grid), int,
                        lambda c, first, a=fhs, b=deg: _expect(a, c, first[b])))
        jobs.append(Job(deg, "chern", lambda cfg=cfg: lq.total_chern_abba(cfg, grid_n=grid),
                        int, lambda c, first, a=deg, b=fhs: _expect(a, c, first[b])))
    for N in (2, 3):
        cfg = lq.LayeredConfig("ba", N, _jitter(rng, 0.4, 0.05))
        label = f"chern_fhs ba N={N} t={cfg.t:.4f}"
        jobs.append(Job(label, "chern", lambda cfg=cfg: lq.chern_fhs(cfg, grid_n=grid), int,
                        lambda c, first, cfg=cfg, label=label:
                        _expect(label, c, lq.chern_fhs(cfg, grid_n=2 * grid))))
    return jobs


# ------------------------------------------------------------------ cli

class CliRun:
    """Runs layerquench.cli.main in process, each call into a fresh directory
    under workdir; the digest hashes every output file and removes it."""

    def __init__(self, workdir):
        self.workdir = workdir

    def call(self, argv):
        out = tempfile.mkdtemp(dir=self.workdir)
        so, se = io.StringIO(), io.StringIO()
        with redirect_stdout(so), redirect_stderr(se):
            rc = cli.main(argv + ["--out", out])
        return rc, out, so.getvalue(), se.getvalue()

    @staticmethod
    def digest(res):
        rc, out, stdout, stderr = res
        files = {}
        parsed = {}
        size = 0
        for name in sorted(os.listdir(out)):
            path = os.path.join(out, name)
            with open(path, "rb") as f:
                blob = f.read()
            size += len(blob)
            files[name] = hashlib.sha256(blob).hexdigest()
            if name.endswith(".json"):
                parsed[name] = json.loads(blob)
            elif name == "phase_diagram.csv":
                parsed[name] = blob.decode().splitlines()[1:]
        shutil.rmtree(out)
        # the output directory differs per call; keep it out of the digest
        return {"rc": rc, "files": files, "parsed": parsed, "bytes": size,
                "stdout": stdout.replace(out, "<out>"), "stderr": stderr}


def _cli_job(runner, label, argv, check):
    def full_check(d, first):
        if d["rc"] != 0 or d["stderr"]:
            return f"{label}: exit {d['rc']} {d['stderr'].strip()}"
        return check(d, first)

    threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
    return Job(label, "cli", lambda: runner.call(argv), CliRun.digest, full_check, threads)


def cli_jobs(seed, tiny, workdir):
    rng = random.Random(f"cli-{seed}")
    check_rng = random.Random(f"cli-check-{seed}")
    runner = CliRun(workdir)
    big, small = ("32", "32") if tiny else ("256", "128")
    jobs = []

    def qwz(t=0.4):
        return _jitter(rng, t, 0.05), _jitter(rng, 1.0, 0.03)

    t, m = qwz()
    tasp = ["tasp", "--grid", big, "--t", repr(t), "--m", repr(m)]

    def check_tasp(d, first):
        rows = d["parsed"]["tasp_manifest.json"]["rows"]
        if rows != int(big) ** 2:
            return f"tasp: manifest rows {rows}"
        # serial and threaded runs write byte-identical files
        if d["files"] != first["tasp serial"]["files"]:
            return "tasp: threaded output differs from serial output"
        return None

    jobs.append(_cli_job(runner, "tasp serial", tasp + ["--threads", "1"], check_tasp))
    jobs.append(_cli_job(runner, "tasp threaded", tasp + ["--threads", str(CLI_THREADS)],
                         check_tasp))

    t, m = qwz()
    ba = lq.LayeredConfig("ba", 2, t, m=m)

    def check_bis(d, first):
        s = d["parsed"]["bis_summary.json"]
        return (_expect("bis layer_factor", s["layer_factor"], 2)
                or _expect("bis total_w", s["total_w"], lq.chern_fhs(ba)))

    jobs.append(_cli_job(runner, "bis ba",
                         ["bis", "--stacking", "ba", "--grid", small,
                          "--t", repr(t), "--m", repr(m)], check_bis))

    t, m = qwz()
    ab = lq.LayeredConfig("abba", 2, t, m=m)

    def check_winding(d, first):
        # the mode-1 ring winds as the degree of the mode-1 field
        want = lq.chern_two_band(topology.subsystem_field_fn(ab, 1))
        return _expect("winding subspace:1", d["parsed"]["winding.json"]["total_w"], want)

    jobs.append(_cli_job(runner, "winding subspace:1",
                         ["winding", "--observable", "subspace:1", "--grid", big,
                          "--t", repr(t), "--m", repr(m)], check_winding))

    t, m = qwz()

    def check_chern(d, first):
        s = d["parsed"]["chern.json"]
        return _expect("chern", s["chern_fhs"], s["mode_degree_sum"])

    jobs.append(_cli_job(runner, "chern abba",
                         ["chern", "--grid", "40" if tiny else "60",
                          "--t", repr(t), "--m", repr(m)], check_chern))

    for stacking, steps in (("abba", 4 if tiny else 16), ("ba", 3 if tiny else 12)):
        (t0, t1), (m0, m1) = _window(rng, steps, 0.0, 2.0), _window(rng, steps, -1.0, 3.0)
        label = f"phase-diagram {stacking} {steps}^2"

        def check_pd(d, first, stacking=stacking, steps=steps, label=label):
            cells = []
            for row in d["parsed"]["phase_diagram.csv"]:
                t_, m_, c_, g_ = row.split(",")
                if c_ != "boundary":
                    cells.append((float(t_), float(m_), int(c_), float(g_)))
            bc = d["parsed"]["phase_manifest.json"]["boundary_cells"]
            return (_expect(f"{label} boundary_cells", bc, steps * steps - len(cells))
                    or _recheck_cells(label, stacking, 2, cells, check_rng))

        jobs.append(_cli_job(runner, label,
                             ["phase-diagram", "--stacking", stacking, "--steps", str(steps),
                              "--threads", str(CLI_THREADS),
                              "--t-min", repr(t0), "--t-max", repr(t1),
                              "--m-min", repr(m0), "--m-max", repr(m1)], check_pd))

    # ba bilayer reference magnitudes at m = 1 in closed form
    hidden = _jitter(rng, 0.4, 0.05)
    s1 = 1.0 / (2.0 + hidden ** 2)
    s3 = (2.0 + hidden ** 2) / (2.0 + 2.0 * hidden ** 2)

    def check_estimate(d, first):
        t_hat = d["parsed"]["estimate.json"]["t_hat"]
        if abs(t_hat - hidden) > ESTIMATE_TOL:
            return f"estimate-t: t_hat {t_hat!r} vs hidden t {hidden!r}"
        return None

    jobs.append(_cli_job(runner, "estimate-t ba",
                         ["estimate-t", "--stacking", "ba",
                          "--sample", f"s1={s1!r}", "--sample", f"s3={s3!r}"], check_estimate))

    def check_selftest(d, first):
        if not d["stdout"].rstrip().endswith("selftest: all checks passed"):
            return "selftest: " + d["stdout"].strip().splitlines()[-1]
        return None

    jobs.append(_cli_job(runner, "selftest", ["selftest"], check_selftest))
    return jobs


def build(workload, seed, tiny, workdir):
    if workload == "rings":
        return rings_jobs(seed, tiny)
    if workload == "scan":
        return scan_jobs(seed, tiny)
    return cli_jobs(seed, tiny, workdir)


# ---------------------------------------------------------------- trace

def _points(i, j):
    def extra(args, kwargs, result):
        return int(np.broadcast(args[i], args[j]).size)
    return extra


def _grid_points(fn):
    sig = inspect.signature(fn)

    def extra(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments["grid_n"]) ** 2
    return extra


def _contours(args, kwargs, result):
    return len(result), sum(len(c.points) for c in result)


def _cells(args, kwargs, result):
    return int(result.chern.size), int(result.boundary.sum())


def trace_targets():
    """(module, attribute, span name, extra) for every wrapped function.

    Each function is wrapped in every namespace its callers look it up
    in: the package (the benchmark's own calls), the module that
    defines it (calls from inside that module) and the modules that
    imported it by name.
    """
    T = []

    def add(modules, attr, name, extra=None):
        for mod in modules:
            T.append((mod, attr, name, extra))

    # the benchmark's own calls
    add([lq], "characterize", "bisfield.characterize")
    add([lq, cli], "estimate_t_abba", "hopping.estimate_t_abba")
    add([lq, cli], "phase_diagram", "topology.phase_diagram", _cells)
    add([lq, cli, topology], "chern_fhs", "topology.chern_fhs", _grid_points(lq.chern_fhs))
    add([lq, cli, topology], "total_chern_abba", "topology.total_chern_abba")
    add([cli], "main", "cli.main")
    # cli commands, looked up by cli.main
    for cmd in ("tasp", "bis", "winding", "phase_diagram", "chern", "estimate_t", "selftest"):
        add([cli], f"cmd_{cmd}", f"cli.{cmd.replace('_', '-')}")
    add([cli], "estimate_t_ba", "hopping.estimate_t_ba")
    # bisfield
    add([bisfield, cli, hopping], "sample_grid", "bisfield.sample_grid")
    add([bisfield, cli], "extract_bis", "bisfield.extract_bis", _contours)
    add([hopping], "component_zero_curves", "bisfield.component_zero_curves", _contours)
    add([bisfield, cli], "dynamical_field", "bisfield.dynamical_field")
    add([bisfield, cli], "winding", "bisfield.winding")
    # source criterion and closed forms as seen from the contour engine
    add([bisfield], "monolayer_field", "models.monolayer_field", _points(1, 2))
    add([bisfield, cli, hopping], "tasp_closed_form", "quench.tasp_closed_form", _points(0, 1))
    add([bisfield], "gtasp_abba", "quench.gtasp_abba", _points(0, 1))
    # topology internals
    add([topology], "chern_two_band", "topology.chern_two_band",
        _grid_points(topology.chern_two_band))
    add([topology], "analytic_positive_levels", "spectra.analytic_positive_levels")
    add([topology], "build_layered", "models.build_layered")
    return T
