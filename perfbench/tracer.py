"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps layerquench functions at the place their caller looks
them up (a module global or a package attribute), so the program itself
is not modified.  Each wrapped call records one span
(id, name, start, end, parent id, extra), where extra is a small value
derived from the arguments or the result, such as the number of
momentum points evaluated.  Span names are "<layer>.<function>", named
after the module that does the work, not the module the wrapper sits in.

Calls made in worker threads (the thread pools of sample_grid and
phase_diagram) have no span open in their own thread; their parent is
the innermost open span of the thread that installed the wrappers,
which is the call that is blocked on the pool.
"""

import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# spans whose descendants are classified by where they run: source
# evaluations count only inside contour extraction, and Chern calls
# count as cell attempts only inside a phase scan
CONTEXTS = ("bisfield.extract_bis", "bisfield.component_zero_curves", "topology.phase_diagram")

LAYERS = ("models", "spectra", "quench", "bisfield", "topology", "hopping", "cli")


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lists = []
        self._lock = threading.Lock()
        self._main_stack = None

    def _register(self):
        stack, spans = [], []
        self._local.stack = stack
        self._local.spans = spans
        with self._lock:
            self._lists.append(spans)
        return stack, spans

    def _wrap(self, name, fn, extra):
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                stack = local.stack
                spans = local.spans
            except AttributeError:
                stack, spans = self._register()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except (IndexError, TypeError):
                    parent = -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, name, t0, clock(), parent, None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, name, t0, t1, parent,
                          extra(args, kwargs, result) if extra else None))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for (module, attribute, span name, extra) targets,
        and restore the original attributes on exit."""
        try:
            self._main_stack = self._local.stack
        except AttributeError:
            self._main_stack = self._register()[0]
        saved = []
        try:
            for module, attr, name, extra in targets:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self._wrap(name, orig, extra))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def drain(self):
        """All spans recorded so far, ordered by id; the buffers are emptied."""
        with self._lock:
            spans = [s for lst in self._lists for s in lst]
            for lst in self._lists:
                lst.clear()
        spans.sort(key=lambda s: s[0])
        return spans


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans):
    """Per-layer times and counts of one traced pass.

    Times are inclusive span durations summed per name, except the
    "<layer>.self_s" entries: a span's self time is its duration minus
    the part of that interval its child spans cover, summed per layer.
    """
    names = {}
    inside = {}
    children = defaultdict(list)
    for sid, name, t0, t1, parent, _ in spans:
        names[sid] = name
        pname = names.get(parent)
        inside[sid] = pname if pname in CONTEXTS else inside.get(parent)
        if parent >= 0:
            children[parent].append((t0, t1))

    total = defaultdict(float)
    calls = Counter()
    self_s = dict.fromkeys(LAYERS, 0.0)
    n = Counter()
    for sid, name, t0, t1, parent, extra in spans:
        dur = t1 - t0
        total[name] += dur
        calls[name] += 1
        layer = name.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += dur - _covered(children.get(sid, ()), t0, t1)
        where = inside[sid]
        if name in ("topology.chern_fhs", "topology.total_chern_abba") \
                and where == "topology.phase_diagram":
            n["attempts"] += 1
        if extra is None:
            continue
        if name.startswith("quench."):
            n["closed_form.calls"] += 1
            n["closed_form.points"] += extra
        if ((name == "models.monolayer_field" and where == "bisfield.extract_bis")
                or (name.startswith("quench.") and where == "bisfield.component_zero_curves")):
            n["source_calls"] += 1
            n["source_points"] += extra
        if name in ("bisfield.extract_bis", "bisfield.component_zero_curves"):
            n["contours"] += extra[0]
            n["contour_points"] += extra[1]
        if name in ("topology.chern_fhs", "topology.chern_two_band"):
            n[name + ".kpoints"] += extra
        if name == "topology.phase_diagram":
            n["cells"] += extra[0]
            n["boundary_cells"] += extra[1]

    quench_s = sum((v for k, v in total.items() if k.startswith("quench.")), 0.0)
    pd_s = total["topology.phase_diagram"]
    certified = n["cells"] - n["boundary_cells"]
    out = {
        "bisfield.extract_bis.s": (total["bisfield.extract_bis"], "s"),
        "bisfield.extract_bis.calls": (calls["bisfield.extract_bis"], "count"),
        "bisfield.component_zero_curves.s": (total["bisfield.component_zero_curves"], "s"),
        "bisfield.source_calls": (n["source_calls"], "count"),
        "bisfield.source_points": (n["source_points"], "count"),
        "bisfield.contour_points": (n["contour_points"], "count"),
        "bisfield.contours": (n["contours"], "count"),
        "bisfield.contour_points_per_source_call": (
            n["contour_points"] / n["source_calls"] if n["source_calls"] else 0.0, "ratio"),
        "bisfield.sample_grid.s": (total["bisfield.sample_grid"], "s"),
        "bisfield.sample_grid.calls": (calls["bisfield.sample_grid"], "count"),
        "bisfield.dynamical_field.s": (total["bisfield.dynamical_field"], "s"),
        "bisfield.winding.s": (total["bisfield.winding"], "s"),
        "quench.closed_form.s": (quench_s, "s"),
        "quench.closed_form.calls": (n["closed_form.calls"], "count"),
        "quench.closed_form.points": (n["closed_form.points"], "count"),
        "models.monolayer_field.s": (total["models.monolayer_field"], "s"),
        "models.build_layered.s": (total["models.build_layered"], "s"),
        "spectra.analytic_positive_levels.s": (total["spectra.analytic_positive_levels"], "s"),
        "topology.chern_fhs.s": (total["topology.chern_fhs"], "s"),
        "topology.chern_fhs.calls": (calls["topology.chern_fhs"], "count"),
        "topology.chern_fhs.kpoints": (n["topology.chern_fhs.kpoints"], "count"),
        "topology.chern_two_band.s": (total["topology.chern_two_band"], "s"),
        "topology.chern_two_band.calls": (calls["topology.chern_two_band"], "count"),
        "topology.chern_two_band.kpoints": (n["topology.chern_two_band.kpoints"], "count"),
        "topology.phase_diagram.cells": (n["cells"], "count"),
        "topology.phase_diagram.attempts": (n["attempts"], "count"),
        "topology.phase_diagram.boundary_cells": (n["boundary_cells"], "count"),
        "topology.phase_diagram.cells_per_attempt": (
            certified / n["attempts"] if n["attempts"] else 0.0, "ratio"),
        "topology.phase_diagram.cells_per_s": (n["cells"] / pd_s if pd_s else 0.0, "1/s"),
        "hopping.estimate_t_abba.s": (total["hopping.estimate_t_abba"], "s"),
        "hopping.estimate_t_ba.s": (total["hopping.estimate_t_ba"], "s"),
    }
    for cmd in ("tasp", "bis", "winding", "chern", "phase-diagram", "estimate-t", "selftest"):
        out[f"cli.{cmd}.s"] = (total[f"cli.{cmd}"], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    out["trace.spans"] = (len(spans), "count")
    return out
