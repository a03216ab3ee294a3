"""Command-line front end.

Subcommands: tasp, bis, winding, phase-diagram, chern, estimate-t,
selftest.  Each takes only the options it reads (OPTIONS) and the global
--config, --out and --threads.  Options resolve in three layers: built-in
defaults, then a key=value config file (--config), then explicit flags.
All output is deterministic: floats are written as "%.17g"
(floattext.g17 for CSV columns), line endings are LF, JSON keys are
sorted and no timestamps are embedded, so identical configurations give
byte-identical files.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

import argparse
import contextlib
import errno
import functools
import json
import os
import sys
from typing import NamedTuple

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
from .models import MIN_GRID, MODELS, STACKINGS, LayeredConfig
from .quench import (global_observable, mixed_state, require_axis, tasp_closed_form,
                     time_averaged_expectation)
from .topology import (charge_chern, chern_fhs, half_filling_degree, phase_diagram,
                       require_degree_size)
# unused here, but the traced benchmark run (perfbench/jobs.py) wraps it in this module
from .topology import total_chern_abba


def parse_grid(spec):
    """'256' -> (256, 256); '256x128' -> (256, 128).  An axis below
    MIN_GRID is refused, as every lattice refuses it."""
    s = str(spec).lower()
    try:
        nx, ny = map(int, s.split("x", 1)) if "x" in s else (int(s), int(s))
    except ValueError:
        raise UsageError(f"cannot parse grid spec {spec!r}")
    if min(nx, ny) < MIN_GRID:
        raise UsageError(f"grid resolution must be at least {MIN_GRID} per axis, "
                         f"got {min(nx, ny)}")
    return nx, ny


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


def _threads(n):
    if n < 1:
        raise UsageError("threads must be >= 1")


def _sample(text):
    """'s1=0.41' -> ('s1', 0.41)."""
    key, _, val = text.partition("=")
    try:
        return key.strip(), float(val)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE with a number VALUE, got {text!r}")


COMMANDS = {
    "tasp": "sample the time-averaged spin polarization on a grid",
    "bis": "extract band-inversion contours with fields and windings",
    "winding": "winding report only",
    "phase-diagram": "Chern scan over (t, m)",
    "chern": "lattice Chern number",
    "estimate-t": "interlayer hopping estimate",
    "selftest": "quick internal consistency battery",
}
EVERY = tuple(COMMANDS)
FIELD = ("tasp", "bis", "winding")  # the commands that sample a quench field
STACK = FIELD + ("phase-diagram", "chern", "estimate-t")  # the commands that build a stack


class Option(NamedTuple):
    """An option: the flag --name (dashes for underscores) and config key name."""

    type: object  # reads the text of a flag or a config value
    default: object
    commands: tuple  # the commands that read it
    help: str
    choices: tuple = None
    check: object = None  # called on the resolved value; raises UsageError to refuse it
    # "echo": a config key the manifest's config records; "quiet": a config key
    # it leaves out; "flag": a flag alone; "repeat": a repeatable flag alone
    kind: str = "echo"


# the one list of option names, types and defaults
OPTIONS = {
    "config": Option(str, None, EVERY, "key=value config file", kind="flag"),
    "out": Option(str, ".", EVERY, "output directory", kind="quiet"),
    # checked, but selects nothing: no command runs worker threads.  It goes
    # once the benchmark's cli jobs (perfbench/jobs.py) no longer pass it
    "threads": Option(int, 1, EVERY, "accepted (>= 1); selects nothing", check=_threads,
                      kind="quiet"),
    "model": Option(str, "qwz", STACK, "monolayer model", choices=MODELS),
    "m": Option(float, 1.0, FIELD + ("chern", "estimate-t"), "monolayer mass"),
    "stacking": Option(str, "abba", STACK, "stacking pattern", choices=STACKINGS),
    "layers": Option(int, 2, STACK, "number of layers N"),
    "t": Option(float, 0.4, FIELD + ("chern",), "interlayer hopping"),
    "axis": Option(int, 3, FIELD + ("estimate-t",), "quench axis 1, 2 or 3", check=require_axis),
    "observable": Option(str, "global", FIELD, "global | subspace:R", check=parse_observable),
    "grid": Option(str, "256", STACK, "resolution, N or NXxNY", check=parse_grid),
    "tol_bis": Option(float, 1e-6, ("bis", "winding"), "residual bound of a kept contour"),
    "delta": Option(float, 1e-4, ("bis", "winding"), "normal step for the dynamical field"),
    "t_min": Option(float, 0.0, ("phase-diagram",), "lowest t of the scan", kind="quiet"),
    "t_max": Option(float, 2.0, ("phase-diagram",), "highest t of the scan", kind="quiet"),
    "m_min": Option(float, -1.0, ("phase-diagram",), "lowest m of the scan", kind="quiet"),
    "m_max": Option(float, 3.0, ("phase-diagram",), "highest m of the scan", kind="quiet"),
    "steps": Option(int, 16, ("phase-diagram",), "cells per scan axis", kind="quiet"),
    "filled": Option(int, None, ("chern",), "number of filled bands (default N)", kind="quiet"),
    "true_t": Option(float, None, ("estimate-t",), "hidden t of synthetic data", kind="quiet"),
    "sample": Option(_sample, None, ("estimate-t",), "ba magnitude, e.g. s1=0.41; repeatable",
                     kind="repeat"),
}


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


def read_config_file(path, command):
    """{key: value} of the options command reads in a key=value config file;
    blank lines, # comments and the keys of other commands are ignored."""
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
        opt = OPTIONS.get(key)
        if opt is None or opt.kind in ("flag", "repeat"):
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        if command not in opt.commands:
            continue
        try:
            out[key] = opt.type(val)
        except ValueError:
            raise UsageError(f"{path}:{ln}: cannot parse {val!r} as {opt.type.__name__}")
    return out


def resolve_options(args):
    """The options args.command reads, {name: value}: a flag wins over the
    config file, which wins over the default.  Every value, from either
    source, goes through its option's choices and check."""
    fromfile = read_config_file(args.config, args.command) if args.config else {}
    opts = {}
    for name, opt in OPTIONS.items():
        if args.command in opt.commands:
            value = getattr(args, name)
            value = opts[name] = fromfile.get(name, opt.default) if value is None else value
            if opt.choices and value not in opt.choices:
                raise UsageError(f"{name} must be one of {', '.join(opt.choices)}, not {value!r}")
            if opt.check:
                opt.check(value)
    return opts


def square_grid(spec):
    """n of a square grid spec 'n' or 'nxn'; the Chern sums take one n per axis."""
    nx, ny = parse_grid(spec)
    if nx != ny:
        raise UsageError(f"grid {spec!r} is not square; this command takes N or NxN")
    return nx


def layered_config(opts):
    return LayeredConfig(stacking=opts["stacking"], layers=opts["layers"],
                         t=opts["t"], model=opts["model"], m=opts["m"])


def _manifest(command, opts, extra):
    echo = {k: v for k, v in opts.items() if OPTIONS[k].kind == "echo"}
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
                       opts["steps"], model=opts["model"], grid_n=scan_grid)
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
             "boundary_cells": int(pd.boundary.sum()), "scan_grid": scan_grid}
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
        # at half filling the link-variable sum must equal the count of the
        # topological charges; the unit-field degrees (bounded before either
        # sum runs) are reported, and must agree too where they certify
        require_degree_size(nx)
        key = DEGREE_KEYS[cfg.stacking]
        c = _oracle(chern_fhs, cfg, filled, nx)
        q = _oracle(charge_chern, cfg)
        d = _oracle(half_filling_degree, cfg, nx)
        if isinstance(c, str) or c != q or (not isinstance(d, str) and d != c):
            raise InconsistentInvariantError(f"no certified half-filling Chern number: "
                                             f"chern_fhs {c}, charge_chern {q}, {key} {d}")
        extra.update({"chern_fhs": c, "charge_chern": q, key: d})
        line = f"chern = {c} (mode degree sum {d})" if cfg.stacking == "abba" else f"chern = {c}"
    out = _outdir(opts, "chern.json")
    _write_json(os.path.join(out, "chern.json"), _manifest("chern", opts, extra))
    print(line)
    return 0


def cmd_estimate_t(opts):
    ba = opts["stacking"] == "ba"
    if opts["sample"] and not ba:
        raise UsageError("--sample takes ba magnitudes; it needs --stacking ba")
    if opts["sample"] and opts["true_t"] is not None:
        raise UsageError("estimate-t takes either --sample entries or --true-t, not both")
    # hopping's reference magnitudes are those of square-lattice stacks
    if ba and opts["model"] != "qwz":
        raise UsageError(f"ba estimates take the qwz model, not {opts['model']!r}")
    out = _outdir(opts, "estimate.json")
    hidden, ba_stack = opts["true_t"], {"m": opts["m"], "layers": opts["layers"], "j": opts["axis"]}
    if opts["sample"]:
        samples = dict(sorted(dict(opts["sample"]).items()))
        est, extra = estimate_t_ba(samples, **ba_stack), {"samples": samples}
    elif hidden is None:
        raise UsageError("estimate-t needs either --sample entries or --true-t")
    else:
        if not ba:
            est = estimate_t_abba(layered_config({**opts, "t": hidden}), parse_grid(opts["grid"]),
                                  j=opts["axis"])
        elif hidden < 0:
            raise UsageError(f"--true-t {hidden!r} is negative; ba magnitudes are even in t, "
                             f"so only t >= 0 can be recovered")
        else:
            est = estimate_t_ba(ba_gapped_magnitudes(hidden, **ba_stack), **ba_stack)
        extra = {"true_t": hidden, "error": abs(est.t_hat - hidden)}
    extra.update({"t_hat": est.t_hat, "method": est.method, "residual": est.residual})
    _write_json(os.path.join(out, "estimate.json"), _manifest("estimate-t", opts, extra))
    print("t_hat = %.17g (%s, residual %.17g)" % (est.t_hat, est.method, est.residual))
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Refuse with one line on stderr, in place of the usage block (exit 2)."""
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser():
    """The argument parser, built from OPTIONS on the first call and reused:
    argparse keeps no state of a parse in it (parse_args makes a fresh
    namespace, and --sample, the one appending option, starts from no list).
    Flags match only in full, so --t cannot stand for selftest's --threads."""
    p = _Parser(prog="layerquench", description="Quench dynamics of layered two-band stacks")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for command, text in COMMANDS.items():
        sp = sub.add_parser(command, help=text, allow_abbrev=False)
        for name, opt in OPTIONS.items():
            if command in opt.commands:
                sp.add_argument("--" + name.replace("_", "-"), dest=name, type=opt.type,
                                choices=opt.choices, help=opt.help,
                                action="append" if opt.kind == "repeat" else "store")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up by name, so a command the traced benchmark run wraps is called
        return globals()["cmd_" + args.command.replace("-", "_")](resolve_options(args))
    except LayerQuenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (UsageError, UnsupportedStackingError)) else 1
    except OSError as exc:
        # the config file is read in resolve_options, which reports its own
        # errors, so what fails here is creating or writing an output
        where = exc.filename if exc.filename is not None else "output"
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
