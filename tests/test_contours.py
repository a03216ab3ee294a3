"""Tests for the vectorized contour engine (bisfield._marching_loops).

The engine is checked point for point against the per-cell reference walk
in reference_contours.py, up to the direction of each loop, and by
properties that any marching-squares extraction on the torus must have,
over random low-order trigonometric sources and over the contours that
extract_bis, component_zero_curves and characterize return.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from layerquench import (LayeredConfig, LayerQuenchError, bisfield, characterize,
                         component_zero_curves, extract_bis, sample_grid)
from reference_contours import reference_marching_loops


def grid_nodes(phi, nx, ny):
    return phi(np.arange(nx)[:, None] / nx, np.arange(ny)[None, :] / ny)


def saddle_source(c):
    """Zero lines u, v = 1/4, 3/4 whose crossings sit at cell centres of a
    grid with nx, ny = 2 mod 4; c splits each crossing into a saddle cell
    resolved one way (c > 0) or the other (c < 0)."""
    return lambda u, v: np.cos(2 * np.pi * u) * np.cos(2 * np.pi * v) + c


def saddle_cells(nodes):
    c0 = nodes > 0
    c1 = np.roll(c0, -1, axis=0)
    c2 = np.roll(c1, -1, axis=1)
    c3 = np.roll(c0, -1, axis=1)
    return int(np.sum((c0 != c1) & (c1 != c2) & (c2 != c3) & (c3 != c0)))


def physical(cfg, j, observable, resolution, component=None):
    def run():
        grid = sample_grid(cfg, j, observable, resolution)
        if component is not None:
            contours = component_zero_curves(grid, component)
        else:
            good, rejected = extract_bis(grid, include_rejected=True)
            contours = good + rejected
        return [(c.points, c.frac, c.wraps) for c in contours]
    return run


def synthetic(phi, nx, ny):
    def run():
        loops = bisfield._marching_loops(phi, grid_nodes(phi, nx, ny), nx, ny)
        return [(frac, frac, wraps) for frac, wraps in loops]
    return run


QWZ_BILAYER = LayeredConfig("abba", 2, 0.4)

CASES = {
    "abba-128": physical(QWZ_BILAYER, 3, ("subspace", 1), 128),
    "abba-256": physical(QWZ_BILAYER, 3, ("subspace", 2), 256),
    "ba-256": physical(LayeredConfig("ba", 2, 0.4), 3, ("global",), 256),
    "haldane-3-rings": physical(LayeredConfig("ba", 2, 0.4, model="haldane", m=2 * np.sqrt(3)),
                                3, ("global",), 256),
    "trivial-ring-t1.2": physical(LayeredConfig("abba", 2, 1.2), 3, ("subspace", 1), 128),
    "corner-ring-m-1": physical(LayeredConfig("abba", 1, 0.0, m=-1.0), 3, ("global",), 128),
    "nonsquare-32x48": physical(QWZ_BILAYER, 3, ("subspace", 1), (32, 48)),
    "wrapping-s1-zero-lines": physical(QWZ_BILAYER, 3, ("subspace", 1), 96, component=1),
    "saddle-same-centre": synthetic(saddle_source(0.003), 34, 38),
    "saddle-other-centre": synthetic(saddle_source(-0.003), 34, 38),
}


def loop_bytes(*arrays):
    return [(a.dtype, a.shape, np.ascontiguousarray(a).tobytes()) for a in arrays]


def is_reference_loop(got, want):
    """got is the reference loop want, or want read backwards with its
    periods negated: the engine orients its loops, the reference walk
    does not."""
    *arrays, wraps = want
    return loop_bytes(*got) in (loop_bytes(*want),
                                loop_bytes(*[a[::-1] for a in arrays], -wraps))


@pytest.mark.parametrize("case", list(CASES))
def test_engine_matches_reference(case, monkeypatch):
    got = CASES[case]()
    monkeypatch.setattr(bisfield, "_marching_loops", reference_marching_loops)
    want = CASES[case]()
    assert got
    assert len(got) == len(want)
    for loop, ref in zip(got, want):
        assert is_reference_loop(loop, ref)


def test_saddle_cases_have_saddle_cells():
    assert saddle_cells(grid_nodes(saddle_source(0.003), 34, 38)) == 4
    assert saddle_cells(grid_nodes(saddle_source(-0.003), 34, 38)) == 4


def test_wrapping_case_has_noncontractible_lines():
    wraps = [tuple(w) for _, _, w in CASES["wrapping-s1-zero-lines"]()]
    assert any(w != (0, 0) for w in wraps)


def trig_source(nx, ny, const, terms):
    """Grid size and the source c + sum_k A_k cos(2 pi (p_k u + q_k v) + phase_k)
    of the terms (p_k, q_k, A_k, phase_k), with a bound on its slope."""
    def phi(u, v):
        out = const + 0.0 * (u + v)
        for p, q, amp, phase in terms:
            out = out + amp * np.cos(2 * np.pi * (p * u + q * v) + phase)
        return out

    # bound on the source's slope along either grid direction
    lipschitz = sum(abs(amp) * 2 * np.pi * (abs(p) + abs(q)) for p, q, amp, _ in terms)
    return nx, ny, phi, lipschitz


@st.composite
def trig_sources(draw):
    """trig_source of a random grid size and up to three random terms."""
    nx = draw(st.integers(16, 32))
    ny = draw(st.integers(16, 32))
    const = draw(st.floats(-1.0, 1.0))
    terms = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                    st.floats(-1.0, 1.0), st.floats(0.0, 2 * np.pi)),
                          min_size=1, max_size=3))
    return trig_source(nx, ny, const, terms)


def crossing_edges(nodes):
    pos = nodes > 0
    h = np.argwhere(pos != np.roll(pos, -1, axis=0))
    v = np.argwhere(pos != np.roll(pos, -1, axis=1))
    return sorted([("h", int(i), int(l)) for i, l in h] + [("v", int(i), int(l)) for i, l in v])


def edge_of(point, nx, ny):
    """Grid edge a contour point lies on, or None."""
    tu, tv = point[0] * nx, point[1] * ny
    if abs(tu - np.rint(tu)) < 1e-10:
        return ("v", int(np.rint(tu)) % nx, int(np.floor(tv)) % ny)
    if abs(tv - np.rint(tv)) < 1e-10:
        return ("h", int(np.floor(tu)) % nx, int(np.rint(tv)) % ny)
    return None


@settings(max_examples=40, deadline=None)
@given(trig_sources())
def test_loops_close_and_visit_every_crossing_edge_once(source):
    nx, ny, phi, lipschitz = source
    nodes = grid_nodes(phi, nx, ny)
    loops = bisfield._marching_loops(phi, nodes, nx, ny)
    cell = np.array([1.0 / nx, 1.0 / ny]) * (1 + 1e-9)
    edges = []
    for points, wraps in loops:
        # consecutive points share a cell, and so do the last point and
        # the first one moved by the loop's torus periods
        closed = np.vstack([points, points[:1] + wraps])
        assert np.all(np.abs(np.diff(closed, axis=0)) <= cell)
        for p in points:
            edges.append(edge_of(p, nx, ny))
        # each root is the midpoint of a sign-change bracket narrower than
        # 1e-9, so the source there is at most its slope times that
        assert np.all(np.abs(phi(points[:, 0], points[:, 1])) <= lipschitz * 1e-9 + 1e-12)
    assert sum(len(p) for p, _ in loops) == len(crossing_edges(nodes))
    assert sorted(edges) == crossing_edges(nodes)


def wrap_classes(loops):
    out = []
    for _, w in loops:
        w = (int(w[0]), int(w[1]))
        out.append(max(w, (-w[0], -w[1])))
    return sorted(out)


def translated(u, n, a):
    """u + a / n on the torus, taken as ((i + a) mod n + s) / n for
    u = (i + s) / n: at a node or cell centre (s = 0 or 1/2) it is the
    float that the untranslated grid samples there."""
    t = u * n
    half = np.rint(2 * t) / 2
    t = np.where(np.abs(t - half) < 1e-12, half, t)
    return ((t + a) % n) / n


@settings(max_examples=40, deadline=None)
@given(trig_sources(), st.integers(0, 40), st.integers(0, 40))
# cos 2 pi (-u - 2v) + cos 2 pi (-u + v) = 2 cos 2 pi (u + v/2) cos 3 pi v has
# crossing zero lines at cell centres, where the saddle sample is 0.0 on
# one grid and +-2.2e-16 on the other if the translation rounds differently
@example(trig_source(16, 21, 0.0, [(-1, -2, 1.0, 0.0), (-1, 1, 1.0, 0.0)]), 0, 4)
def test_wraps_are_invariant_under_grid_translation(source, a, b):
    nx, ny, phi, _ = source
    nodes = grid_nodes(phi, nx, ny)

    def shifted(u, v):
        return phi(translated(u, nx, a), translated(v, ny, b))

    moved = np.roll(nodes, (-a, -b), axis=(0, 1))
    assert (wrap_classes(bisfield._marching_loops(shifted, moved, nx, ny))
            == wrap_classes(bisfield._marching_loops(phi, nodes, nx, ny)))


@settings(max_examples=25, deadline=None)
@given(trig_sources())
def test_random_sources_match_reference(source):
    nx, ny, phi, _ = source
    nodes = grid_nodes(phi, nx, ny)
    got = bisfield._marching_loops(phi, nodes, nx, ny)
    want = reference_marching_loops(phi, nodes, nx, ny)
    assert len(got) == len(want)
    for loop, ref in zip(got, want):
        assert is_reference_loop(loop, ref)


def scalar_root(phi, a, b):
    """Root of phi on the segment a-b by bisection, one edge alone: the
    midpoint formula and the 1e-9 freeze rule of bisfield._bisect_edges."""
    lo, hi = (b, a) if phi(a[:1], a[1:])[0] > 0 else (a, b)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if phi(mid[:1], mid[1:])[0] > 0:
            hi = mid
        else:
            lo = mid
        if not np.max(np.abs(hi - lo)) > 1e-9:
            break
    return 0.5 * (lo + hi)


@settings(max_examples=20, deadline=None)
@given(trig_sources(), st.booleans())
@example(trig_source(24, 24, 0.1, [(1, 0, 1.0, 0.3), (0, 1, 1.0, 1.1)]), False)
@example(trig_source(17, 40, -0.2, [(1, 1, 1.0, 0.0), (2, -1, 0.5, 2.0)]), False)
def test_edges_are_bisected_as_one_edge_alone(source, square):
    # the batched bisection, which moves only the open brackets' ends
    # and freezes each one alone, gives every edge the bits of its own
    # scalar bisection, on square lattices and on nx != ny ones
    nx, ny, phi, _ = source
    if square:
        ny = nx
    pos = grid_nodes(phi, nx, ny) > 0
    hi_, hl = np.nonzero(pos != np.roll(pos, -1, axis=0))
    vi, vl = np.nonzero(pos != np.roll(pos, -1, axis=1))
    if not len(hi_) + len(vi):
        return
    a = np.stack([np.concatenate([hi_, vi]) / nx, np.concatenate([hl, vl]) / ny])
    step = np.repeat([[1.0 / nx, 0.0], [0.0, 1.0 / ny]], [len(hi_), len(vi)], axis=0).T
    b = a + step
    roots = bisfield._bisect_edges(phi, a, b)
    want = np.array([scalar_root(phi, a[:, e], b[:, e]) for e in range(a.shape[1])])
    assert roots.tobytes() == want.tobytes()


# ------------------------------------------------- contours of the pipeline

def pipeline_contours(cfg, j, observable, resolution):
    """(contour, nodes) of every contour that extract_bis (kept and
    rejected), component_zero_curves of each component and characterize
    return, with nodes the (nx, ny) values whose signs the contour's zero
    set separates: h_j plus the mode's source shift at the unnudged nodes,
    or the component at the grid's nodes.  A call that raises adds none."""
    try:
        grid = sample_grid(cfg, j, observable, resolution)
    except LayerQuenchError:
        return []

    def source(contour):
        tag = contour.source.split(".")[0]
        obs = ("subspace", int(tag[4:])) if tag.startswith("mode") else ("global",)
        return grid.hj + bisfield._source_shift(replace(grid, observable=obs))

    calls = [(lambda: sum(extract_bis(grid, include_rejected=True), []), source),
             (lambda: characterize(cfg, j, resolution, observable=observable)["contours"],
              source)]
    calls += [(lambda c=c: component_zero_curves(grid, c), lambda _, c=c: grid.values[..., c - 1])
              for c in (1, 2, 3)]
    out = []
    for call, nodes in calls:
        try:
            out += [(c, nodes(c)) for c in call()]
        except LayerQuenchError:
            pass
    return out


def near_inside_signs(frac, nodes):
    """node > 0 at the lattice nodes inside the closed polyline frac (even-odd
    rule) that lie within one grid step of it."""
    nx, ny = nodes.shape
    p = frac * (nx, ny)  # grid units, the nodes at the integer points
    q = np.roll(p, -1, axis=0)
    # a segment joins two sides of one cell, so a node within one step of it
    # lies within two steps of one of its ends
    offsets = np.stack(np.meshgrid(np.arange(-2, 4), np.arange(-2, 4)), axis=-1).reshape(-1, 2)
    cand = np.unique((np.floor(p)[:, None, :] + offsets).reshape(-1, 2), axis=0)
    d = q - p
    dd = np.einsum("si,si->s", d, d)
    rel = cand[:, None, :] - p
    t = np.clip(np.einsum("csi,si->cs", rel, d) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    dist = np.linalg.norm(rel - t[..., None] * d, axis=-1).min(axis=1)
    y = cand[:, 1:]
    straddle = (p[:, 1] > y) != (q[:, 1] > y)
    x_cross = p[:, 0] + (y - p[:, 1]) * d[:, 0] / np.where(straddle, d[:, 1], 1.0)
    inside = np.count_nonzero(straddle & (x_cross > cand[:, :1]), axis=1) % 2 == 1
    near = cand[inside & (dist <= 1.0)].astype(int)
    return nodes[near[:, 0] % nx, near[:, 1] % ny] > 0


def shoelace(frac):
    # about the first point: a loop around a node at zero is ~1e-9 wide
    u, v = (frac - frac[0]).T
    return 0.5 * np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v)


@st.composite
def pipeline_cases(draw):
    """(cfg, j, observable, resolution) of a random stack of either model."""
    model = draw(st.sampled_from(["qwz", "haldane"]))
    stacking = draw(st.sampled_from(["abba", "ba"]))
    layers = draw(st.integers(1, 3))
    bound = 3.2 if model == "qwz" else 5.5
    m = draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(-bound, bound))
    cfg = LayeredConfig(stacking, layers, draw(st.floats(-1.6, 1.6)), model, m)
    mode = draw(st.integers(0, layers)) if stacking == "abba" else 0
    observable = ("subspace", mode) if mode else ("global",)
    resolution = draw(st.sampled_from([32, 48, 64, (40, 56), 96]))
    return cfg, draw(st.integers(1, 3)), observable, resolution


# the s1 rings of the bilayer wrap the torus once along v
BILAYER_S1 = (LayeredConfig("abba", 2, 0.4), 1, ("global",), 64)
# four of the eight sigma3 zero loops of this grid lie beside a probe's reach
HALDANE_ZERO_S3 = (LayeredConfig("ba", 4, 1.5932529808100593, "haldane", 1.911173155636809), 2,
                   ("global",), 96)


@settings(max_examples=20, deadline=None)
@given(pipeline_cases())
@example(BILAYER_S1)
@example(HALDANE_ZERO_S3)
def test_pipeline_contours_close(case):
    # consecutive points share a cell, and so do the last point and the
    # first one moved by the contour's torus periods
    for contour, nodes in pipeline_contours(*case):
        cell = 1.0 / np.array(nodes.shape) * (1 + 1e-9)
        closed = np.vstack([contour.frac, contour.frac[:1] + contour.wraps])
        assert np.all(np.abs(np.diff(closed, axis=0)) <= cell)


@settings(max_examples=20, deadline=None)
@given(pipeline_cases())
@example(BILAYER_S1)
@example(HALDANE_ZERO_S3)
def test_pipeline_contours_keep_negative_source_on_the_right(case):
    # a contractible contour runs counter-clockwise (positive area) exactly
    # when the nodes just inside it are positive; contours whose near
    # inside nodes are mixed (nested or saddle-joined zero sets) are skipped
    for contour, nodes in pipeline_contours(*case):
        if np.any(contour.wraps):
            continue
        signs = near_inside_signs(contour.frac, nodes)
        if len(signs) and (signs.all() or not signs.any()):
            assert signs[0] == (shoelace(contour.frac) > 0)


def test_pipeline_contour_cases_are_checked():
    # the two fixed cases reach both checks: the bilayer's s1 rings wrap
    # and its s3 curves do not, and every sigma3 zero loop of the haldane
    # grid has one sign of node just inside it
    loops = pipeline_contours(*BILAYER_S1)
    assert any(np.any(c.wraps) for c, _ in loops)
    grid = sample_grid(*HALDANE_ZERO_S3)
    zero = component_zero_curves(grid, 3)
    assert len(zero) == 8
    for c in zero:
        signs = near_inside_signs(c.frac, grid.values[..., 2])
        assert not np.any(c.wraps) and len(signs) and (signs.all() or not signs.any())
