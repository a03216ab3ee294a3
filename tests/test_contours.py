"""Tests for the vectorized contour engine (bisfield._marching_loops).

The engine is checked point for point against the per-cell reference walk
in reference_contours.py, and by properties that any marching-squares
extraction on the torus must have, over random low-order trigonometric
sources.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from layerquench import LayeredConfig, bisfield, component_zero_curves, extract_bis, sample_grid
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


@pytest.mark.parametrize("case", list(CASES))
def test_engine_matches_reference(case, monkeypatch):
    got = CASES[case]()
    monkeypatch.setattr(bisfield, "_marching_loops", reference_marching_loops)
    want = CASES[case]()
    assert got
    assert len(got) == len(want)
    # equal oriented points also mean equal orientation and start point
    for (p, f, w), (p0, f0, w0) in zip(got, want):
        assert np.array_equal(p, p0)
        assert np.array_equal(f, f0)
        assert np.array_equal(w, w0)


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
    for (p, w), (p0, w0) in zip(got, want):
        assert np.array_equal(p, p0)
        assert np.array_equal(w, w0)
