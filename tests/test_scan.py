"""Tests for the phase scan and the unit-field degree kernel.

phase_diagram is checked cell for cell against the dense per-cell scan
in reference_scan.py, over stackings, layer counts, models, grids,
windows (random ones among them), chunk sizes and thread counts: a
bitwise-equal gap_min, and equal chern and boundary entries on every
cell the reference certifies (on its base grid or a grid 2 or 4 times
finer) or flags by its gap.  A cell that no grid of the reference
certifies takes its topological charges in the scan; it must not be
boundary and must equal the link-variable Chern number at 320^2.  The
share of cells it computes, rather than copies from a region's
representative, is checked on the benchmark's window shapes.  A ba scan
is N times the scan of its mass column; its cells are also checked
against the link-variable Chern number.  The degree kernel is checked
against the np.cross/einsum/roll solid-angle sum it replaced, on random
fields.
"""

import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerquench import LayeredConfig, chern_fhs, phase_diagram, topology
import reference_scan

WINDOW = ((0.0, 2.0), (-1.0, 3.0))
SHIFTED = ((0.031, 2.031), (-0.93, 3.07))


@functools.cache
def fine_chern(stacking, layers, t, model, m):
    return chern_fhs(LayeredConfig(stacking, layers, t, model, m), grid_n=320)


def assert_same_scan(pd, ref, model="qwz"):
    chern, gap, boundary, _ = ref
    assert pd.gap_min.dtype == gap.dtype
    assert pd.gap_min.tobytes() == gap.tobytes()
    # the reference refuses a cell with an open gap that no grid certifies
    refused = boundary & (gap >= topology.GAP_TOL_DEFAULT)
    assert np.array_equal(pd.boundary[~refused], boundary[~refused])
    assert np.array_equal(pd.chern[~refused], chern[~refused])
    for i, l in zip(*np.nonzero(refused)):
        assert not pd.boundary[i, l]
        assert pd.chern[i, l] == fine_chern(pd.stacking, pd.layers, float(pd.ts[i]), model,
                                            float(pd.ms[l]))


@pytest.fixture(scope="module")
def dense_reference():
    return reference_scan.phase_diagram("abba", 2, *WINDOW, 32)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_dense_abba_scan_matches_per_cell_reference(dense_reference, threads):
    assert_same_scan(phase_diagram("abba", 2, *WINDOW, 32, threads=threads), dense_reference)


@pytest.mark.parametrize("stacking,layers,window,steps,kwargs", [
    ("abba", 2, WINDOW, 32, dict(grid_n=64)),
    ("abba", 2, SHIFTED, 32, {}),
    ("abba", 3, WINDOW, 12, {}),
    ("abba", 5, SHIFTED, 10, {}),
    ("abba", 2, ((0.0, 1.0), (0.0, 8.0)), 10, dict(model="haldane")),
    ("ba", 2, SHIFTED, 6, dict(threads=2)),
])
def test_scan_matches_per_cell_reference(stacking, layers, window, steps, kwargs):
    threads = kwargs.pop("threads", 1)
    ref = reference_scan.phase_diagram(stacking, layers, *window, steps, **kwargs)
    pd = phase_diagram(stacking, layers, *window, steps, threads=threads, **kwargs)
    assert_same_scan(pd, ref, kwargs.get("model", "qwz"))


def test_refinement_retries_match_reference(monkeypatch):
    # a window hugging the mode-1 transition near (0.42, -0.1): the
    # reference certifies several cells only on a refined grid and
    # refuses two; the scan takes the charges of every cell its base grid
    # cannot certify, and never a finer grid
    window = ((0.40, 0.45), (-0.15, -0.05))
    ref = reference_scan.phase_diagram("abba", 2, *window, 8)
    assert np.sum(ref[3] > 1) >= 5
    assert np.sum(ref[2] & (ref[1] >= topology.GAP_TOL_DEFAULT)) == 2
    counted = []
    real_count = topology._charge_count

    def count(model, s, m):
        counted.append(len(m))
        return real_count(model, s, m)

    def no_finer_grid(*args):
        raise AssertionError("a finer grid was taken")

    monkeypatch.setattr(topology, "_charge_count", count)
    monkeypatch.setattr(topology, "total_chern_abba", no_finer_grid)
    for threads in (1, 2):
        counted.clear()
        assert_same_scan(phase_diagram("abba", 2, *window, 8, threads=threads), ref)
        # every cell is near here, and the base grid is the reference's first
        assert sum(counted) == np.sum((ref[3] != 1) & (ref[1] >= topology.GAP_TOL_DEFAULT)) == 12


@pytest.mark.parametrize("cells_per_chunk", [1, 3, 4, 35])
def test_chunk_edges_do_not_change_cells(monkeypatch, cells_per_chunk):
    # 7 x 5 cells: chunks of 3 and 4 cells cut across rows of the scan and
    # leave a short last chunk
    ref = reference_scan.phase_diagram("abba", 2, *WINDOW, (7, 5))
    cell_bytes = 2 * 49 ** 2 * 8
    monkeypatch.setattr(topology, "SCAN_CHUNK_BYTES", cells_per_chunk * cell_bytes)
    assert_same_scan(phase_diagram("abba", 2, *WINDOW, (7, 5)), ref)
    # more workers than cores, switching threads as often as possible,
    # all writing into the same result arrays
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pd = phase_diagram("abba", 2, *WINDOW, (7, 5), threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert_same_scan(pd, ref)


@st.composite
def qwz_windows(draw):
    """Small qwz scan windows, many of them across an ellipse tip
    t = +-1 / (2 |cos theta_r|) or a line m in {-2, 0, 2}, negative t included."""
    stacking = draw(st.sampled_from(["abba", "ba"]))
    layers = draw(st.integers(1, 4 if stacking == "abba" else 3))
    c = np.cos(np.arange(1, layers + 1) * np.pi / (layers + 1))
    tips = [(sign / (2 * abs(x)), a) for x in c if abs(x) > 0.1
            for sign in (1, -1) for a in (1.0, -1.0)] if stacking == "abba" else []
    t = st.floats(-2.5, 2.5)
    centres = [st.tuples(t, st.sampled_from([-2.0, 0.0, 2.0])), st.tuples(t, st.floats(-3.0, 3.0))]
    if tips:
        centres.append(st.sampled_from(tips))
    centre = draw(st.one_of(*centres))
    half = draw(st.tuples(st.floats(0.05, 0.8), st.floats(0.05, 1.2)))
    shift = draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    lo = [x - h + s * h for x, h, s in zip(centre, half, shift)]
    window = tuple((a, a + 2 * h) for a, h in zip(lo, half))
    most = 5 if stacking == "abba" else 3
    steps = draw(st.tuples(st.integers(2, most), st.integers(2, most)))
    return stacking, layers, window, steps


@settings(max_examples=15, deadline=None)
@given(qwz_windows())
def test_random_windows_match_dense_reference(case):
    stacking, layers, window, steps = case
    assert_same_scan(phase_diagram(stacking, layers, *window, steps),
                     reference_scan.phase_diagram(stacking, layers, *window, steps))


def bench_windows(steps):
    # the benchmark's windows: (0, 2) x (-1, 3) shifted by up to half a cell
    for shift in (0.0, 0.17, 0.5):
        yield ((shift * 2 / steps, 2 + shift * 2 / steps),
               (-1 + shift * 4 / steps, 3 + shift * 4 / steps))


def mass_column(window, steps):
    """The abba N = 1 scan at t = 0 over the masses of a scan window."""
    return phase_diagram("abba", 1, (0.0, 0.0), window[1], (1, steps))


@pytest.mark.parametrize("stacking,steps,share", [("abba", 32, 0.15), ("ba", 12, 0.25)])
def test_bench_windows_compute_few_cells(stacking, steps, share):
    for window in bench_windows(steps):
        pd = phase_diagram(stacking, 2, *window, steps)
        assert 0 < pd.computed.sum() <= share * steps ** 2
        gapless = pd.gap_min < topology.GAP_TOL_DEFAULT
        # a gap-flagged cell takes no degree
        assert not (pd.computed & gapless).any()
        if stacking == "abba":
            # a copied cell with an open gap is never boundary
            assert not pd.boundary[~pd.computed & ~gapless].any()
        else:
            # a ba cell is boundary where its own gap closes or its mass
            # column's degree is boundary
            col = mass_column(window, steps)
            want = (pd.gap_min < topology.GAP_TOL_DEFAULT) | col.boundary
            assert np.array_equal(pd.boundary, want)


@pytest.mark.parametrize("stacking", ["abba", "ba"])
def test_haldane_scans_compute_every_cell(stacking):
    # the triangular-lattice model has no closed-form gap closings, so
    # every cell that takes a degree is computed: each (t, m) cell of an
    # abba scan, and each mass of a ba scan's column, which marks one
    # degree per column at its largest-gap cell
    pd = phase_diagram(stacking, 2, (0.0, 1.0), (0.0, 8.0), (3, 4), model="haldane")
    if stacking == "abba":
        assert pd.computed.all()
    else:
        assert np.array_equal(pd.computed.sum(axis=0), np.ones(4))
        assert np.array_equal(np.argmax(pd.computed, axis=0), np.argmax(pd.gap_min, axis=0))


def test_boundary_representative_computes_its_region(monkeypatch):
    # the largest-gap cell of a label in the mass column represents its
    # region; when neither its base grid nor its charges certify it, the
    # rest of its region is computed cell by cell
    window, steps = SHIFTED, 4
    ref = reference_scan.phase_diagram("ba", 2, *window, steps)
    pd = phase_diagram("ba", 2, *window, steps)
    # the ms are -0.43, 0.57, 1.57 and 2.57: two columns share the strip 0 < m < 2
    strip = (pd.ms > 0.0) & (pd.ms < 2.0)
    assert np.array_equal(pd.computed.sum(axis=0), [1, 1, 0, 1])
    col = mass_column(window, steps)
    l = np.flatnonzero(strip)[np.argmax(col.gap_min[0, strip])]
    real_cells, real_count = topology._abba_cells, topology._charge_count

    def uncertified_cells(tables, t, ls):
        chern, ok = real_cells(tables, t, ls)
        return chern, ok & (ls != l)

    def uncertifiable(model, s, m):
        chern, margin = real_count(model, s, m)
        return chern, np.where(m == pd.ms[l], 0.0, margin)

    monkeypatch.setattr(topology, "_abba_cells", uncertified_cells)
    monkeypatch.setattr(topology, "_charge_count", uncertifiable)
    failed = phase_diagram("ba", 2, *window, steps)
    assert np.array_equal(failed.computed.sum(axis=0), [1, 1, 1, 1])
    expected = ref[2].copy()
    expected[:, l] = True
    assert np.array_equal(failed.boundary, expected)
    keep = ~expected
    assert np.array_equal(failed.chern[keep], ref[0][keep])


def test_ba_cell_near_a_line_matches_link_variables():
    # an N = 3 cell within 0.005 of m = -2: link variables at 40^2 gave -1;
    # at 80^2-640^2 they give 3, which is 3 x the monolayer degree
    t, m = -2.6484617753548463, -1.9955393691757681
    pd = phase_diagram("ba", 3, (t, t), (m, m), 1)
    assert (pd.ts[0], pd.ms[0]) == (t, m)
    assert not pd.boundary[0, 0]
    assert pd.chern[0, 0] == 3 == chern_fhs(LayeredConfig("ba", 3, t, m=m), grid_n=160)


def test_haldane_ba_scan_matches_link_variables():
    # link variables at 40^2 gave -4 on some of these cells; the exact
    # ba values are 2 x the monolayer Chern numbers -3 and 0
    pd = phase_diagram("ba", 2, (0.2, 1.6), (-2.5, 2.5), 8, model="haldane")
    assert set(pd.chern[~pd.boundary].tolist()) <= {-6, 0}
    for i, l in zip(*np.nonzero(~pd.boundary)):
        cfg = LayeredConfig("ba", 2, float(pd.ts[i]), "haldane", float(pd.ms[l]))
        assert pd.chern[i, l] == chern_fhs(cfg, grid_n=160)


def test_equal_labels_share_one_cell_across_the_window():
    # abba N = 2, 3 x 3 cells: the corner cells (0, 2), (2, 0) and (2, 2)
    # lie outside all four closing circles, but no path of far cells joins
    # them inside the window, so joining neighbours computed each of them
    window = ((-1.28, 1.31), (-0.99, 2.38))
    pd = phase_diagram("abba", 2, *window, 3)
    assert_same_scan(pd, reference_scan.phase_diagram("abba", 2, *window, 3))
    assert pd.computed.sum() == 4
    assert [pd.computed[c] for c in ((0, 2), (2, 0), (2, 2))] == [False, False, True]



def test_gap_flagged_cells_are_not_computed():
    # the one abba cell sits on the monolayer closing at m = 2, and both ba
    # cells on the closing at m = 0, which their mass column shares
    pd = phase_diagram("abba", 1, (0.0, 0.0), (2.0, 2.0), 1)
    assert pd.gap_min[0, 0] == 0 and pd.boundary[0, 0]
    assert not pd.computed.any()
    pd = phase_diagram("ba", 2, (0.3, 0.5), (-0.01, 0.01), (2, 1))
    assert (pd.gap_min == 0).all() and pd.boundary.all()
    assert not pd.computed.any()

@st.composite
def scan_centres(draw):
    """Cell centres of a qwz scan window, many of them within a few
    SCAN_MARGIN of a closing circle (w t)^2 + (m - a)^2 = 1."""
    # the mass column of a ba scan is the abba N = 1 scan
    layers = draw(st.one_of(st.just(1), st.integers(1, 6)))
    closings = topology._closings(layers, "qwz")
    k = draw(st.integers(0, len(closings[0]) - 1))
    w, a = closings[0][k], closings[1][k]
    phi = draw(st.floats(-np.pi, np.pi))
    r = 1.0 + draw(st.floats(-0.1, 0.1))
    near_circle = (r * np.sin(phi) / w if abs(w) > 1e-3 else r * np.sin(phi), a + r * np.cos(phi))
    centre = draw(st.one_of(st.just(near_circle),
                            st.tuples(st.floats(-3.0, 3.0), st.floats(-3.5, 3.5))))
    half = draw(st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)))
    steps = draw(st.tuples(st.integers(1, 30), st.integers(1, 30)))
    ts, ms = ((c - h) + (np.arange(n) + 0.5) * 2 * h / n for c, h, n in zip(centre, half, steps))
    return closings, ts, ms


@settings(max_examples=100, deadline=None)
@given(scan_centres())
def test_near_is_the_four_edge_test(case):
    # a cell is near when an edge of its box, in the field coordinates
    # (s, m) = (w t, m) of a closing, meets that closing's unit circle
    closings, ts, ms = case
    d = topology.SCAN_MARGIN
    want = np.zeros((len(ts), len(ms)), dtype=bool)
    m = ms[None, :]
    for w, a in zip(*closings):
        s = w * ts[:, None]
        for s0, m0, s1, m1 in ((s - d, m - d, s + d, m - d), (s - d, m + d, s + d, m + d),
                               (s - d, m - d, s - d, m + d), (s + d, m - d, s + d, m + d)):
            want |= topology._segment_meets(a, s0, m0, s1, m1)
    assert np.array_equal(topology._near(closings, ts, ms), want)


def unit_field(h):
    return h / np.linalg.norm(h, axis=-1, keepdims=True)


def rough_field(rng, n):
    return unit_field(rng.normal(size=(n, n, 3)))


def smooth_field(rng, n):
    """Random first-order trigonometric field on the torus."""
    u = np.arange(n)[:, None] * 2 * np.pi / n
    v = np.arange(n)[None, :] * 2 * np.pi / n
    a = rng.normal(size=(3, 5))
    h = [c[0] + c[1] * np.cos(u) + c[2] * np.sin(u) + c[3] * np.cos(v) + c[4] * np.sin(v + u)
         for c in a]
    return unit_field(np.stack(h, axis=-1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 24), st.booleans())
def test_kernel_matches_solid_angle_sum(seed, n, smooth):
    rng = np.random.default_rng(seed)
    fields = [(smooth_field if smooth else rough_field)(rng, n) for _ in range(6)]
    stack = np.stack(fields).reshape(3, 2, n, n, 3)
    degree, den_min = topology._unit_degree(*topology._periodic(np.moveaxis(stack, -1, 0)))
    assert degree.shape == den_min.shape == (3, 2)
    for h, d, dm in zip(fields, degree.ravel(), den_min.ravel()):
        s, ref_den = reference_scan.solid_angle_sum(h)
        assert abs(d - s / (4 * np.pi)) < 1e-9
        assert np.rint(d) == np.rint(s / (4 * np.pi))
        assert abs(dm - ref_den) < 1e-12
