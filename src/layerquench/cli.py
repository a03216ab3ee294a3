"""Command-line front end.

Subcommands: tasp, bis, winding, phase-diagram, chern, estimate-t,
selftest.  Options resolve in three layers: built-in defaults, then a
key=value config file (--config), then explicit flags.  All output is
deterministic: floats are written as "%.17g" (floattext.g17 for CSV
columns), line endings are LF, JSON keys are sorted and no timestamps
are embedded, so identical configurations give byte-identical files and
serial and threaded runs agree.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

import argparse
import contextlib
import errno
import json
import os
import sys

import numpy as np

from . import __version__
from .bisfield import characterize, sample_grid
# unused here, but the traced benchmark run (perfbench/jobs.py) wraps them in this module
from .bisfield import dynamical_field, extract_bis, winding
from .errors import (GaplessError, InconsistentInvariantError, LayerQuenchError,
                     NonQuantizedWindingError, UnsupportedStackingError, UsageError)
from .floattext import WIDTH, g17
from .hopping import (ba_gapped_magnitudes, ba_reference_magnitudes, estimate_t_abba,
                      estimate_t_ba)
from .models import LayeredConfig
from .quench import tasp_closed_form, time_averaged_expectation, mixed_state, global_observable
from .topology import chern_fhs, half_filling_degree, phase_diagram, require_degree_size
# unused here, but the traced benchmark run (perfbench/jobs.py) wraps it in this module
from .topology import total_chern_abba

# option name -> (type, default); the single source of truth for config
# file keys, flag resolution and manifest echo
OPTIONS = {
    "model": (str, "qwz"),
    "m": (float, 1.0),
    "stacking": (str, "abba"),
    "layers": (int, 2),
    "t": (float, 0.4),
    "axis": (int, 3),
    "observable": (str, "global"),
    "grid": (str, "256"),
    "out": (str, "."),
    "tol_bis": (float, 1e-6),
    "threads": (int, None),  # None -> QT_THREADS env or 1; sizes the phase-scan pool
    "delta": (float, 1e-4),
    "t_min": (float, 0.0),
    "t_max": (float, 2.0),
    "m_min": (float, -1.0),
    "m_max": (float, 3.0),
    "steps": (int, 16),
    "filled": (int, None),
    "true_t": (float, None),
}


def _fmt(x):
    return "%.17g" % float(x)


# rows are assembled and written in blocks of about this many bytes.  On a
# 65,536-row tasp file (2-vCPU Xeon, Python 3.11, numpy 2.4, one pinned
# core) 256 KB blocks wrote in 17.3 ms, 64 KB in 18.7 ms, 1 MB in 26 ms,
# and the whole file in one block in 32 ms with 2,200 minor faults per
# file, as its multi-MB temporaries were mapped afresh on every call.
# Float texts are made this many bytes at a time too, which bounds g17's
# temporaries (about 170 bytes a value): on 165,000 distinct values it
# took 16.2 ms with a 5.9 MB peak in pieces of 10,922, and 28.9 ms with
# a 27.6 MB peak in one piece.
CSV_BLOCK_BYTES = 1 << 18


def _column(col):
    """(texts, index) of one CSV column: row r reads texts[index[r]], an
    array of NUL-padded byte strings.

    A float array is written as "%.17g" of each value (floattext.g17), any
    other column through str.  Floats are keyed by their bit pattern, not
    compared as floats, so -0.0 and 0.0 keep their own texts.  A 2-D float
    array is read row-major; when it is constant along one axis bit for
    bit, as the momenta of a rectangular sampling cell are, it is keyed
    over the other axis, one text per line.  Every other column is keyed by
    np.unique, and each distinct text is made once.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        bits = col.astype(np.float64, copy=False).view(np.uint64)
        if bits.ndim == 2 and (bits == bits[:, :1]).all():
            keys, index = bits[:, 0], np.repeat(np.arange(len(bits)), bits.shape[1])
        elif bits.ndim == 2 and (bits == bits[:1]).all():
            keys, index = bits[0], np.tile(np.arange(bits.shape[1]), len(bits))
        else:
            keys, index = np.unique(bits.ravel(), return_inverse=True)
        keys = keys.view(np.float64)
        texts = np.empty(len(keys), f"S{WIDTH}")
        step = CSV_BLOCK_BYTES // WIDTH
        for start in range(0, len(keys), step):
            texts[start:start + step] = g17(keys[start:start + step])
        return texts, index
    return np.unique(np.array([str(v).encode() for v in col], dtype=bytes), return_inverse=True)


def _write_csv(path, header, columns):
    """Write equal-length columns as CSV rows."""
    parts = [_column(col) for col in columns]
    _write_csv_files([path], header, parts[:-1], parts[-1:])


def _write_csv_files(paths, header, shared, lasts):
    """Write one CSV file per path, all with the same header and rows: the
    (texts, index) parts (_column) of the shared leading columns, then the
    file's own part of lasts as the last column.

    Each row is a fixed-width record of its column texts and separators.
    The files are written in one pass over blocks of CSV_BLOCK_BYTES of
    records: a block takes the shared texts once, then for each file takes
    that file's last texts and is written with its NUL padding dropped,
    from the one buffer every block reuses.
    """
    width = max(texts.itemsize for texts, _ in lasts)
    lasts = [(texts.astype(f"S{width}", copy=False), index) for texts, index in lasts]
    formats = [texts.dtype for texts, _ in shared + lasts[:1]]
    widths = np.array([f.itemsize for f in formats])
    ends = np.cumsum(widths) + np.arange(1, len(formats) + 1)
    record = np.dtype({"names": [f"c{c}" for c in range(len(formats))], "formats": formats,
                       "offsets": list(ends - 1 - widths), "itemsize": int(ends[-1])})
    rows = len(lasts[0][1])
    size = max(1, min(rows, CSV_BLOCK_BYTES // record.itemsize))
    buffer = bytearray(size * record.itemsize)
    block = np.frombuffer(buffer, record)
    text = block.view(np.uint8).reshape(size, -1)
    text[:, ends - 1] = ord(",")
    text[:, -1] = ord("\n")
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for f in files:
            f.write((",".join(header) + "\n").encode())
        for start in range(0, rows, size):
            n = min(size, rows - start)
            out = block[:n]
            for c, (texts, index) in enumerate(shared):
                np.take(texts, index[start:start + n], out=out[f"c{c}"])
            for f, (texts, index) in zip(files, lasts):
                np.take(texts, index[start:start + n], out=out[f"c{len(shared)}"])
                data = buffer if n == size else buffer[:n * record.itemsize]
                f.write(data.translate(None, b"\0"))


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def read_config_file(path):
    """Parse a key=value config file; blank lines and # comments ignored."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in OPTIONS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        typ = OPTIONS[key][0]
        try:
            out[key] = typ(val)
        except ValueError:
            raise UsageError(f"{path}:{ln}: cannot parse {val!r} as {typ.__name__}")
    return out


def resolve_options(args):
    """Merge defaults, config file and flags (flags win); returns a dict."""
    fromfile = read_config_file(args.config) if getattr(args, "config", None) else {}
    opts = {}
    for key, (_, default) in OPTIONS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            opts[key] = flag
        elif key in fromfile:
            opts[key] = fromfile[key]
        else:
            opts[key] = default
    if opts["threads"] is None:
        env = os.environ.get("QT_THREADS", "").strip()
        if env:
            try:
                opts["threads"] = int(env)
            except ValueError:
                raise UsageError(f"QT_THREADS={env!r} is not an integer")
        else:
            opts["threads"] = 1
    if opts["threads"] < 1:
        raise UsageError("threads must be >= 1")
    if opts["axis"] not in (1, 2, 3):
        raise UsageError("axis must be 1, 2 or 3")
    return opts


def parse_grid(spec):
    """'256' -> (256, 256); '256x128' -> (256, 128)."""
    s = str(spec).lower()
    try:
        if "x" in s:
            nx, ny = s.split("x", 1)
            return int(nx), int(ny)
        n = int(s)
        return n, n
    except ValueError:
        raise UsageError(f"cannot parse grid spec {spec!r}")


def square_grid(spec):
    """n of a square grid spec 'n' or 'nxn'; the Chern sums take one n per axis."""
    nx, ny = parse_grid(spec)
    if nx != ny:
        raise UsageError(f"grid {spec!r} is not square; this command takes N or NxN")
    return nx


def parse_observable(spec):
    """'global' | 'subspace:R' -> observable tuple."""
    parts = str(spec).split(":")
    if parts[0] == "global":
        if len(parts) != 1:
            raise UsageError("observable 'global' takes no index")
        return ("global",)
    if parts[0] == "subspace":
        if len(parts) != 2:
            raise UsageError("observable 'subspace' needs an index, e.g. subspace:1")
        try:
            r = int(parts[1])
        except ValueError:
            raise UsageError(f"bad observable index {parts[1]!r}")
        return ("subspace", r)
    raise UsageError(f"unknown observable kind {parts[0]!r}")


def layered_config(opts):
    return LayeredConfig(stacking=opts["stacking"], layers=opts["layers"],
                         t=opts["t"], model=opts["model"], m=opts["m"])


def _manifest(command, opts, extra):
    # threads is an execution detail: leaving it out keeps serial and
    # parallel runs byte-identical
    echo = {k: opts[k] for k in ("model", "m", "stacking", "layers", "t", "axis",
                                 "observable", "grid", "tol_bis")}
    obj = {"command": command, "config": echo, "version": __version__}
    obj.update(extra)
    return obj


def _outdir(opts, *names):
    """The --out directory, created, once none of names is a directory there.

    Checked before any file is written, so a command writes its whole set
    of files or none of them.
    """
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    for path in (os.path.join(out, name) for name in names):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return out


def cmd_tasp(opts):
    cfg = layered_config(opts)
    nx, ny = parse_grid(opts["grid"])
    obs = parse_observable(opts["observable"])
    grid = sample_grid(cfg, opts["axis"], obs, (nx, ny))
    files = [f"tasp_s{comp}.csv" for comp in (1, 2, 3)]
    out = _outdir(opts, *files, "tasp_manifest.json")
    # the value columns are keyed first and the float grid dropped before
    # the momenta exist, which bounds the peak while all three are held
    values = [_column(grid.values[..., c].ravel()) for c in range(3)]
    grid.values = None
    _write_csv_files([os.path.join(out, name) for name in files], ["kx", "ky", "value"],
                     [_column(grid.kx), _column(grid.ky)], values)
    _write_json(os.path.join(out, "tasp_manifest.json"),
                _manifest("tasp", opts, {"files": files, "rows": nx * ny}))
    print(f"wrote {', '.join(files)} ({nx * ny} rows each) to {out}")
    return 0


def _characterize(opts):
    """Contours with dynamical fields and windings for the configured observable."""
    return characterize(layered_config(opts), opts["axis"], parse_grid(opts["grid"]),
                        opts["delta"], opts["tol_bis"],
                        parse_observable(opts["observable"]))


def _bis_summary(res, files=None):
    entries = []
    for n, c in enumerate(res["contours"]):
        e = {"source": c.source, "points": int(len(c.points)),
             "winding": int(c.w), "wraps": [int(w) for w in c.wraps],
             "residual": float(c.residual)}
        if files is not None:
            e["file"] = files[n]
        entries.append(e)
    extra = {"contours": entries, "total_w": res["total_w"],
             "layer_factor": res["layer_factor"]}
    if not entries:
        extra["note"] = "no BIS"
    return extra


def cmd_bis(opts):
    res = _characterize(opts)
    files = [f"bis_contour_{n:02d}.csv" for n in range(len(res["contours"]))]
    out = _outdir(opts, *files, "bis_summary.json")
    for name, c in zip(files, res["contours"]):
        _write_csv(os.path.join(out, name), ["kx", "ky", "g1", "g2", "source"],
                   [c.points[:, 0], c.points[:, 1], c.gfield[:, 0], c.gfield[:, 1],
                    [c.source] * len(c.points)])
    _write_json(os.path.join(out, "bis_summary.json"),
                _manifest("bis", opts, _bis_summary(res, files)))
    if files:
        print(f"{len(files)} contour(s), total_w = {res['total_w']}")
    else:
        print("no BIS; total_w = 0")
    return 0


def cmd_winding(opts):
    res = _characterize(opts)
    out = _outdir(opts, "winding.json")
    _write_json(os.path.join(out, "winding.json"),
                _manifest("winding", opts, _bis_summary(res)))
    print(f"total_w = {res['total_w']} (layer_factor {res['layer_factor']})")
    return 0


def cmd_phase_diagram(opts):
    scan_grid = min(square_grid(opts["grid"]), 64)
    pd = phase_diagram(opts["stacking"], opts["layers"],
                       (opts["t_min"], opts["t_max"]), (opts["m_min"], opts["m_max"]),
                       opts["steps"], model=opts["model"], grid_n=scan_grid,
                       threads=opts["threads"])
    out = _outdir(opts, "phase_diagram.csv", "phase_matrix.dat", "phase_manifest.json")
    T, M = np.meshgrid(pd.ts, pd.ms, indexing="ij")
    chern = np.where(pd.boundary, "boundary", pd.chern.astype(str))
    _write_csv(os.path.join(out, "phase_diagram.csv"), ["t", "m", "chern", "gap_min"],
               [T.ravel(), M.ravel(), chern.ravel(), pd.gap_min.ravel()])
    with open(os.path.join(out, "phase_matrix.dat"), "w", encoding="utf-8", newline="") as f:
        for i in range(len(pd.ts)):
            f.write(" ".join("nan" if pd.boundary[i, l] else str(int(pd.chern[i, l]))
                             for l in range(len(pd.ms))) + "\n")
    extra = {"t_range": [opts["t_min"], opts["t_max"]],
             "m_range": [opts["m_min"], opts["m_max"]], "steps": opts["steps"],
             "boundary_cells": int(pd.boundary.sum()),
             "cells_computed": int(pd.computed.sum()), "scan_grid": scan_grid}
    _write_json(os.path.join(out, "phase_manifest.json"), _manifest("phase-diagram", opts, extra))
    print(f"phase diagram {len(pd.ts)}x{len(pd.ms)} written to {out}")
    return 0


# manifest key of the degree oracle at half filling, per stacking
DEGREE_KEYS = {"abba": "mode_degree_sum", "ba": "layers_times_monolayer_degree"}


def _oracle(fn, *args):
    """fn(*args), or the message of the numerical refusal it raised."""
    try:
        return fn(*args)
    except (GaplessError, NonQuantizedWindingError) as exc:
        return f"refused ({exc})"


def cmd_chern(opts):
    cfg = layered_config(opts)
    nx = square_grid(opts["grid"])
    filled = opts["filled"] if opts["filled"] is not None else cfg.layers
    extra = {"filled": filled}
    if filled != cfg.layers:
        c = extra["chern_fhs"] = chern_fhs(cfg, filled, grid_n=nx)
        line = f"chern = {c}"
    else:
        # at half filling the link-variable sum is checked against the
        # unit-field degrees, which are bounded before either runs
        require_degree_size(nx)
        key = DEGREE_KEYS[cfg.stacking]
        c = _oracle(chern_fhs, cfg, filled, nx)
        d = _oracle(half_filling_degree, cfg, nx)
        if isinstance(c, str) or isinstance(d, str) or c != d:
            raise InconsistentInvariantError(
                f"no certified half-filling Chern number: chern_fhs {c}, {key} {d}")
        extra.update({"chern_fhs": c, key: d})
        line = f"chern = {c} (mode degree sum {d})" if cfg.stacking == "abba" else f"chern = {c}"
    out = _outdir(opts, "chern.json")
    _write_json(os.path.join(out, "chern.json"), _manifest("chern", opts, extra))
    print(line)
    return 0


def cmd_estimate_t(opts, samples):
    out = _outdir(opts, "estimate.json")
    if samples:
        parsed = {}
        for item in samples:
            if "=" not in item:
                raise UsageError(f"--sample expects name=value, got {item!r}")
            key, val = item.split("=", 1)
            try:
                parsed[key.strip()] = float(val)
            except ValueError:
                raise UsageError(f"cannot parse sample value {val!r}")
        est = estimate_t_ba(parsed, m=opts["m"], layers=opts["layers"], j=opts["axis"])
        extra = {"samples": {k: parsed[k] for k in sorted(parsed)}}
    elif opts["true_t"] is not None:
        hidden = float(opts["true_t"])
        if opts["stacking"] == "abba":
            cfg = LayeredConfig(stacking="abba", layers=opts["layers"], t=hidden,
                                model=opts["model"], m=opts["m"])
            est = estimate_t_abba(cfg, parse_grid(opts["grid"]), j=opts["axis"])
        else:
            if hidden < 0:
                raise UsageError(f"--true-t {hidden!r} is negative; ba magnitudes are even in t, "
                                 f"so only t >= 0 can be recovered")
            mags = ba_gapped_magnitudes(hidden, m=opts["m"], layers=opts["layers"],
                                        j=opts["axis"])
            est = estimate_t_ba(mags, m=opts["m"], layers=opts["layers"], j=opts["axis"])
        extra = {"true_t": hidden, "error": abs(est.t_hat - hidden)}
    else:
        raise UsageError("estimate-t needs either --sample entries or --true-t")
    extra.update({"t_hat": est.t_hat, "method": est.method, "residual": est.residual})
    _write_json(os.path.join(out, "estimate.json"), _manifest("estimate-t", opts, extra))
    print(f"t_hat = {_fmt(est.t_hat)} ({est.method}, residual {_fmt(est.residual)})")
    return 0


def cmd_selftest(opts):
    from .spectra import abba_transform, analytic_levels, numeric_levels, subsystem_fields
    from .models import build_layered, PAULI
    failures = []

    def check(name, ok):
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    rng = np.random.default_rng(1234)
    cfg3 = LayeredConfig(stacking="abba", layers=3, t=0.7)
    kx, ky = rng.uniform(-np.pi, np.pi, 2)
    S = abba_transform(3)
    hr = subsystem_fields(kx, ky, cfg3)
    Hb = S @ build_layered(kx, ky, cfg3) @ S.T
    blocks = np.zeros_like(Hb)
    for r in range(3):
        blocks[2 * r:2 * r + 2, 2 * r:2 * r + 2] = sum(hr[r, i] * PAULI[i] for i in range(3))
    check("block-diagonalization", np.max(np.abs(Hb - blocks)) < 1e-12)

    ok = True
    for stacking in ("abba", "ba"):
        cfg = LayeredConfig(stacking=stacking, layers=2, t=0.4)
        for _ in range(5):
            kx, ky = rng.uniform(-np.pi, np.pi, 2)
            closed = tasp_closed_form(kx, ky, cfg, 3)
            H = build_layered(kx, ky, cfg)
            rho = mixed_state(2, 3)
            proj = [time_averaged_expectation(H, rho, global_observable(2, i))
                    for i in (1, 2, 3)]
            ok = ok and np.max(np.abs(closed - proj)) < 1e-10
        ok = ok and np.max(np.abs(np.sort(analytic_levels(kx, ky, cfg))
                                  - numeric_levels(kx, ky, cfg))) < 1e-10
    check("closed-form-vs-projector", ok)

    mono = LayeredConfig(stacking="abba", layers=1, t=0.0, m=1.0)
    check("monolayer-chern", chern_fhs(mono, 1, grid_n=40) == -1)

    cfg = LayeredConfig(stacking="abba", layers=2, t=0.4)
    check("bilayer-winding", characterize(cfg, 3, 128)["total_w"] == -2)

    est = estimate_t_ba(ba_reference_magnitudes(0.4))
    check("hopping-round-trip", abs(est.t_hat - 0.4) < 1e-12)

    if failures:
        print(f"selftest: {len(failures)} failure(s): {', '.join(failures)}")
        return 1
    print("selftest: all checks passed")
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key=value config file")
    common.add_argument("--model", choices=("qwz", "haldane"))
    common.add_argument("--m", type=float)
    common.add_argument("--stacking", choices=("abba", "ba"))
    common.add_argument("--layers", type=int)
    common.add_argument("--t", type=float)
    common.add_argument("--axis", type=int, help="quench axis j (1, 2 or 3)")
    common.add_argument("--observable", help="global | subspace:R")
    common.add_argument("--grid", help="resolution, N or NXxNY")
    common.add_argument("--out", help="output directory")
    common.add_argument("--tol-bis", dest="tol_bis", type=float)
    common.add_argument("--threads", type=int, help="phase-scan threads (QT_THREADS fallback)")
    common.add_argument("--delta", type=float, help="normal step for the dynamical field")

    p = argparse.ArgumentParser(prog="layerquench",
                                description="Quench dynamics of layered two-band stacks")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("tasp", parents=[common],
                   help="sample the time-averaged spin polarization on a grid")
    sub.add_parser("bis", parents=[common],
                   help="extract band-inversion contours with fields and windings")
    sub.add_parser("winding", parents=[common], help="winding report only")
    pd = sub.add_parser("phase-diagram", parents=[common], help="Chern scan over (t, m)")
    pd.add_argument("--t-min", dest="t_min", type=float)
    pd.add_argument("--t-max", dest="t_max", type=float)
    pd.add_argument("--m-min", dest="m_min", type=float)
    pd.add_argument("--m-max", dest="m_max", type=float)
    pd.add_argument("--steps", type=int)
    ch = sub.add_parser("chern", parents=[common], help="lattice Chern number")
    ch.add_argument("--filled", type=int, help="number of filled bands (default N)")
    et = sub.add_parser("estimate-t", parents=[common], help="interlayer hopping estimate")
    et.add_argument("--true-t", dest="true_t", type=float,
                    help="self-generate synthetic data from this hidden t")
    et.add_argument("--sample", action="append", metavar="NAME=VALUE",
                    help="measured magnitude, e.g. s1=0.41 (repeatable)")
    sub.add_parser("selftest", parents=[common], help="quick internal consistency battery")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = resolve_options(args)
        if args.command == "tasp":
            return cmd_tasp(opts)
        if args.command == "bis":
            return cmd_bis(opts)
        if args.command == "winding":
            return cmd_winding(opts)
        if args.command == "phase-diagram":
            return cmd_phase_diagram(opts)
        if args.command == "chern":
            return cmd_chern(opts)
        if args.command == "estimate-t":
            return cmd_estimate_t(opts, getattr(args, "sample", None))
        if args.command == "selftest":
            return cmd_selftest(opts)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, UnsupportedStackingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LayerQuenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # the config file is read in resolve_options, which reports its own
        # errors, so what fails here is creating or writing an output
        where = exc.filename if exc.filename is not None else "output"
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
