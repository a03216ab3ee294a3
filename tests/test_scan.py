"""Tests for the batched phase scan and the unit-field degree kernel.

phase_diagram is checked cell for cell against the per-cell scan in
reference_scan.py: equal chern and boundary arrays and a bitwise-equal
gap_min, over stackings, layer counts, models, grids, windows, chunk
sizes and thread counts.  The degree kernel is checked against the
np.cross/einsum/roll solid-angle sum it replaced, on random fields.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerquench import phase_diagram, topology
import reference_scan

WINDOW = ((0.0, 2.0), (-1.0, 3.0))
SHIFTED = ((0.031, 2.031), (-0.93, 3.07))


def assert_same_scan(pd, ref):
    chern, gap, boundary, _ = ref
    assert np.array_equal(pd.boundary, boundary)
    assert np.array_equal(pd.chern, chern)
    assert pd.gap_min.dtype == gap.dtype
    assert pd.gap_min.tobytes() == gap.tobytes()


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
    assert_same_scan(pd, ref)


def test_refinement_retries_match_reference():
    # a window hugging the mode-1 transition near (0.42, -0.1): several
    # cells are certified only on a refined grid
    window = ((0.40, 0.45), (-0.15, -0.05))
    ref = reference_scan.phase_diagram("abba", 2, *window, 8)
    assert np.sum(ref[3] > 1) >= 5
    for threads in (1, 2):
        assert_same_scan(phase_diagram("abba", 2, *window, 8, threads=threads), ref)


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
