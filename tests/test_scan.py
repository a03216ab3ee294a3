"""Tests for the phase scan and the unit-field degree kernel.

phase_diagram is checked cell for cell against the dense per-cell scan
in reference_scan.py, over stackings, layer counts, models, grids,
windows (random ones among them) and chunk sizes: a bitwise-equal
gap_min, and equal chern and boundary entries on every cell the
reference certifies (on its base grid or a grid 2 or 4 times finer) or
flags by its gap.  The scan takes every cell's topological charges, so a
cell that no grid of the reference certifies must not be boundary and
must equal the link-variable Chern number at 320^2.  Haldane scan cells
are checked against charge_chern of their own configurations, and ba
cells against the link-variable Chern number.  The degree kernel is
checked against the np.cross/einsum/roll solid-angle sum it replaced, on
random fields.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerquench import LayeredConfig, chern_fhs, phase_diagram, topology
from layerquench.spectra import sine_lam
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


@pytest.mark.parametrize("masses", [1, 2, 4])
def test_dense_abba_scan_matches_per_cell_reference(dense_reference, monkeypatch, masses):
    # gap chunks of 1, 2 and 4 masses and t blocks of as many rows (the
    # default takes 3 of each at the grid of 48)
    monkeypatch.setattr(topology, "SCAN_CHUNK_BYTES", masses * 2 * 48 ** 2 * 8)
    assert_same_scan(phase_diagram("abba", 2, *WINDOW, 32), dense_reference)


@pytest.mark.parametrize("stacking,layers,window,steps,kwargs", [
    ("abba", 2, WINDOW, 32, dict(grid_n=64)),
    ("abba", 2, SHIFTED, 32, {}),
    ("abba", 3, WINDOW, 12, {}),
    ("abba", 5, SHIFTED, 10, {}),
    ("abba", 2, ((0.0, 1.0), (0.0, 8.0)), 10, dict(model="haldane")),
    ("ba", 2, SHIFTED, 6, {}),
])
def test_scan_matches_per_cell_reference(stacking, layers, window, steps, kwargs):
    ref = reference_scan.phase_diagram(stacking, layers, *window, steps, **kwargs)
    pd = phase_diagram(stacking, layers, *window, steps, **kwargs)
    assert_same_scan(pd, ref, kwargs.get("model", "qwz"))


def test_refinement_retries_match_reference(monkeypatch):
    # a window hugging the mode-1 transition near (0.42, -0.1): the
    # reference certifies several cells only on a refined grid and
    # refuses two; the scan takes the charges of every cell, and never a
    # finer grid
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
    assert_same_scan(phase_diagram("abba", 2, *window, 8), ref)
    assert sum(counted) == 64


@pytest.mark.parametrize("cells_per_chunk", [1, 3, 4, 35])
def test_chunk_edges_do_not_change_cells(monkeypatch, cells_per_chunk):
    # 7 x 5 cells: gap chunks of 3 and 4 masses (and t blocks of as many
    # rows) leave a short last chunk, and charge blocks of 3 and 4 cells
    # cut across rows of the scan
    ref = reference_scan.phase_diagram("abba", 2, *WINDOW, (7, 5))
    monkeypatch.setattr(topology, "SCAN_CHUNK_BYTES", cells_per_chunk * 2 * 48 ** 2 * 8)
    pd = phase_diagram("abba", 2, *WINDOW, (7, 5))
    assert_same_scan(pd, ref)
    lam = sine_lam(2)
    one = topology._scan_charges("qwz", lam, pd.ts, pd.ms, 35 * 2 * topology.CHARGES_MAX * 8)
    blocks = topology._scan_charges("qwz", lam, pd.ts, pd.ms,
                                    cells_per_chunk * 2 * topology.CHARGES_MAX * 8)
    for a, b in zip(one, blocks):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


@pytest.mark.parametrize("stacking", ["abba", "ba"])
def test_haldane_scans_compute_every_cell(stacking):
    # the triangular-lattice model has no closed-form closing curves; each
    # cell still takes its own charges, so it equals charge_chern of its
    # configuration (a ba cell N times the monolayer count)
    pd = phase_diagram(stacking, 2, (0.0, 1.0), (0.0, 8.0), (3, 4), model="haldane")
    assert not pd.boundary.any()
    for i, l in np.ndindex(pd.chern.shape):
        cfg = LayeredConfig(stacking, 2, float(pd.ts[i]), "haldane", float(pd.ms[l]))
        assert pd.chern[i, l] == topology.charge_chern(cfg)


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
    # lie outside all four closing circles, but no path of such cells
    # joins them inside the window; each takes its own charges, and the
    # three share the one Chern number of their label
    window = ((-1.28, 1.31), (-0.99, 2.38))
    pd = phase_diagram("abba", 2, *window, 3)
    assert_same_scan(pd, reference_scan.phase_diagram("abba", 2, *window, 3))
    corners = (0, 2), (2, 0), (2, 2)
    assert not any(pd.boundary[c] for c in corners)
    assert len({int(pd.chern[c]) for c in corners}) == 1


def test_gap_flagged_cells_are_not_computed(monkeypatch):
    # the one abba cell sits on the monolayer closing at m = 2, and both ba
    # cells on the closing at m = 0; a cell whose grid gap closes is
    # boundary with chern 0 even where its charges are made to certify it
    real_count = topology._charge_count

    def certified(model, s, m):
        return real_count(model, s, m)[0], np.full(np.shape(m), np.inf)

    monkeypatch.setattr(topology, "_charge_count", certified)
    pd = phase_diagram("abba", 1, (0.0, 0.0), (2.0, 2.0), 1)
    assert pd.gap_min[0, 0] == 0 and pd.boundary[0, 0] and pd.chern[0, 0] == 0
    pd = phase_diagram("ba", 2, (0.3, 0.5), (-0.01, 0.01), (2, 1))
    assert (pd.gap_min == 0).all() and pd.boundary.all() and not pd.chern.any()


@pytest.mark.parametrize("stacking", ["abba", "ba"])
def test_cells_refused_by_their_charges_are_boundary(monkeypatch, stacking):
    # with an open grid gap, a cell is boundary (chern 0) when a charge
    # lies within CHARGE_FLOOR of a closing: here one mass column is made so
    window, steps = SHIFTED, 4
    pd = phase_diagram(stacking, 2, *window, steps)
    assert (pd.gap_min >= topology.GAP_TOL_DEFAULT).all() and not pd.boundary.any()
    real_count = topology._charge_count

    def refused(model, s, m):
        chern, margin = real_count(model, s, m)
        return chern, np.where(m == pd.ms[1], 0.5 * topology.CHARGE_FLOOR, margin)

    monkeypatch.setattr(topology, "_charge_count", refused)
    failed = phase_diagram(stacking, 2, *window, steps)
    assert failed.gap_min.tobytes() == pd.gap_min.tobytes()
    assert np.array_equal(failed.boundary, np.arange(steps)[None, :].repeat(steps, 0) == 1)
    assert not failed.chern[:, 1].any()
    keep = np.arange(steps) != 1
    assert np.array_equal(failed.chern[:, keep], pd.chern[:, keep])


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
