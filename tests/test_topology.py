"""Tests for Chern numbers, phase diagrams and analytic transition curves."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerquench import (
    GaplessError,
    LayeredConfig,
    NonQuantizedWindingError,
    UsageError,
    chern_fhs,
    chern_two_band,
    phase_diagram,
    segment_crosses_transition,
    sine_modes,
    subsystem_field_fn,
    subsystem_fields,
    total_chern_abba,
)
from layerquench import models, topology
from layerquench.frames import sine_mode_frames
from layerquench.spectra import positive_levels, sine_lam

SQUARE_PHASES = [(1.0, -1), (-1.0, 1), (3.0, 0), (-3.0, 0)]


class TestSingleLayer:
    @pytest.mark.parametrize("m,expected", SQUARE_PHASES)
    def test_lattice_chern(self, m, expected):
        cfg = LayeredConfig("abba", 1, 0.0, m=m)
        assert chern_fhs(cfg) == expected

    @pytest.mark.parametrize("m,expected", SQUARE_PHASES)
    def test_unit_field_degree(self, m, expected):
        cfg = LayeredConfig("abba", 1, 0.0, m=m)
        assert chern_two_band(subsystem_field_fn(cfg, 1)) == expected

    def test_gap_closing_raises(self):
        cfg = LayeredConfig("abba", 1, 0.0, m=2.0)
        with pytest.raises(GaplessError):
            chern_fhs(cfg)
        with pytest.raises(GaplessError):
            chern_two_band(subsystem_field_fn(cfg, 1))

    def test_grid_independence(self):
        cfg = LayeredConfig("abba", 1, 0.0, m=1.0)
        assert chern_fhs(cfg, grid_n=40) == chern_fhs(cfg, grid_n=80)
        fn = subsystem_field_fn(cfg, 1)
        assert chern_two_band(fn, 48) == chern_two_band(fn, 96)


class TestTriangularLattice:
    def test_tripled_cell_chern(self):
        cfg = LayeredConfig("abba", 1, 0.0, model="haldane", m=1.0)
        assert chern_fhs(cfg) == -3

    def test_critical_mass_is_trivial(self):
        # the staggered mass kills the band inversion beyond 2*sqrt(3)
        cfg = LayeredConfig("abba", 1, 0.0, model="haldane", m=2 * np.sqrt(3))
        assert chern_fhs(cfg) == 0


class TestStackedChern:
    def test_decoupled_modes_sum_to_lattice_value(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        per_mode = [chern_two_band(subsystem_field_fn(cfg, r)) for r in (1, 2)]
        assert per_mode == [-1, -1]
        assert total_chern_abba(cfg) == -2
        assert chern_fhs(cfg) == -2

    def test_all_bands_carry_zero_total(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        assert chern_fhs(cfg, filled=4) == 0

    @pytest.mark.parametrize("layers,t,expected", [(2, 0.4, -2), (3, 1.0, -3)])
    def test_bernal_multiplies_the_monolayer(self, layers, t, expected):
        cfg = LayeredConfig("ba", layers, t)
        assert chern_fhs(cfg) == expected

    @pytest.mark.parametrize("layers,expected", [(2, 0), (3, -1)])
    def test_strong_coupling_parity(self, layers, expected):
        # at t=2.5 every mode with |2 t cos(theta_r)| > 1 is trivial, so
        # only an odd middle mode survives
        cfg = LayeredConfig("abba", layers, 2.5)
        assert chern_fhs(cfg) == expected

    def test_near_transition_cell_is_refused(self):
        # the centre sits ~4e-4 away from a gap-closing curve; a coarse
        # unit-field sum would return a clean wrong integer, so the
        # admissibility check must refuse instead
        cfg = LayeredConfig("abba", 2, 0.421875, m=-0.09375)
        raised = 0
        for r in (1, 2):
            try:
                chern_two_band(subsystem_field_fn(cfg, r), 48)
            except GaplessError:
                raised += 1
        assert raised >= 1


def degree_or_none(cfg, grid_n=200):
    """total_chern_abba at grid_n, or None where it cannot certify the cell."""
    try:
        return total_chern_abba(cfg, grid_n)
    except (GaplessError, NonQuantizedWindingError):
        return None


def count_or_none(cfg):
    """The charge count of cfg, or None where it refuses."""
    try:
        return topology.charge_chern(cfg)
    except GaplessError:
        return None


class TestChargeCount:
    """The topological-charge count (topology.charge_chern), which takes
    no momentum grid, against the unit-field degrees."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["qwz", "haldane"]), st.integers(1, 6), st.floats(0.0, 3.0),
           st.floats(-5.5, 5.5))
    def test_count_equals_the_mode_degrees(self, model, layers, t, m):
        cfg = LayeredConfig("abba", layers, t, model, m)
        degree = degree_or_none(cfg)
        if degree is not None:
            assert topology.charge_chern(cfg) == degree

    @pytest.mark.parametrize("layers,t,model,m", [
        (2, 0.4, "qwz", 1.0), (3, 1.0, "qwz", -0.5), (2, 0.4, "haldane", 1.5),
        (4, 0.9, "haldane", -0.3)])
    def test_ba_count_is_layers_times_the_monolayer(self, layers, t, model, m):
        cfg = LayeredConfig("ba", layers, t, model, m)
        assert topology.charge_chern(cfg) == topology.half_filling_degree(cfg, 200) != 0

    @pytest.mark.parametrize("model,m", [("qwz", 2.0), ("qwz", -2.0), ("qwz", 0.0),
                                         ("haldane", np.sqrt(3.0))])
    def test_exact_closing_is_refused(self, model, m):
        # a monolayer charge sits on h3 = 0: (0, 0) for qwz m = 2, (pi, pi)
        # for m = -2, (0, pi) and (pi, 0) for m = 0, and beta = 2 pi / 3 on
        # alpha = 0 for haldane m = sqrt(3)
        for stacking in ("abba", "ba"):
            with pytest.raises(GaplessError, match="topological charge"):
                topology.charge_chern(LayeredConfig(stacking, 1, 0.0, model, m))

    @pytest.mark.parametrize("model,s,closings", [
        ("qwz", 1.0, (-1.0, 1.0)), ("haldane", 4.0, (0.0,)), ("haldane", -12.0, (0.0,))])
    def test_merging_charges_give_the_degree_or_refuse(self, model, s, closings):
        # N = 2 with t lam_1 = s exactly: mode 1's charges merge in pairs
        # (qwz |s| = 1, haldane s = 4) or all six at k = 0 (haldane
        # s = -12), where h3 = m - cos ky (qwz) or m (haldane); they cancel
        # unless the field vanishes there.  Mode 2 has s close to -s
        t = s / sine_lam(2)[0]
        assert t * sine_lam(2)[0] == s
        for m in sorted(set(np.linspace(-5.0, 5.0, 11)) | set(closings)):
            cfg = LayeredConfig("abba", 2, t, model, float(m))
            count, degree = count_or_none(cfg), degree_or_none(cfg)
            if m in closings:
                assert count is None
            if degree is not None:
                assert count == degree
            assert count is not None or degree is None

    def test_merged_charges_cancel_exactly(self):
        # at the merge both charges of a pair take one h3 and opposite signs
        for model, s in (("qwz", 1.0), ("qwz", -1.0), ("haldane", 4.0), ("haldane", -12.0)):
            for m in (-3.0, -0.5, 0.5, 3.0):
                chern, margin = topology._charge_count(model, np.array([s]), m)
                assert chern == 0 and margin > 0.4
        # past the merge there are no charges and no margin
        chern, margin = topology._charge_count("haldane", np.array([4.5, -12.5]), 0.0)
        assert chern == 0 and margin == np.inf

    def test_cells_and_modes_broadcast(self):
        # one call takes cells x modes; each cell equals its own count
        rng = np.random.default_rng(7)
        lam = sine_lam(4)
        for model in ("qwz", "haldane"):
            t, m = rng.uniform(0.0, 3.0, 50), rng.uniform(-5.5, 5.5, 50)
            chern, margin = topology._charge_count(model, t[:, None] * lam, m)
            assert chern.shape == margin.shape == (50,)
            for i in range(50):
                one = topology._charge_count(model, t[i] * lam, m[i])
                assert (chern[i], margin[i]) == one


class TestPhaseDiagram:
    def make(self):
        return phase_diagram("abba", 2, (0.0, 2.0), (-1.0, 3.0), 8)

    def test_cell_centres(self):
        pd = self.make()
        assert np.allclose(pd.ts, 0.125 + 0.25 * np.arange(8))
        assert np.allclose(pd.ms, -0.75 + 0.5 * np.arange(8))

    def test_known_phases(self):
        pd = self.make()
        probes = [(0.375, 1.25, -2), (0.375, 2.75, 0),
                  (0.375, -0.75, 2), (1.875, 1.25, 0)]
        for t, m, expected in probes:
            i = int(np.argmin(np.abs(pd.ts - t)))
            l = int(np.argmin(np.abs(pd.ms - m)))
            assert not pd.boundary[i, l]
            assert pd.chern[i, l] == expected
        assert np.all(pd.gap_min[~pd.boundary] > 0)


class TestTransitionCurves:
    def test_curve_count_and_range(self):
        # both N=2 modes shift sin kx by -+t and share the closings
        # t^2 + (m -+ 1)^2 = 1, so they exist up to t=1
        w, a = topology._closings(2)
        assert np.allclose(np.abs(w), 1.0)
        assert sorted(a) == [-1.0, 1.0]
        for layers in range(1, 7):
            w, a = topology._closings(layers)
            # modes r <= (N + 1) / 2 and N + 1 - r share a circle per sign of cos ky
            pairs = 2 * np.cos(sine_modes(layers).theta[:(layers + 1) // 2])
            assert np.allclose(np.sort(np.abs(w)), np.sort(np.abs(pairs).repeat(2)))
            assert sorted(a) == sorted([-1.0, 1.0] * len(pairs))

    def test_curves_close_the_subsystem_gap(self):
        # the point (w t, m) = (-sin kx, a + cos kx) of each circle closes
        # the gap of the mode with 2 cos(theta_r) = w at (kx, ky), cos ky = a
        for layers in (2, 3, 4):
            shifts = 2 * np.cos(sine_modes(layers).theta)
            for w, a in zip(*topology._closings(layers)):
                r = np.flatnonzero(np.isclose(shifts, w))
                assert len(r) == 1
                # the middle mode of an odd stack closes at any t, for sin kx = 0
                kxs = np.linspace(-3.0, 3.0, 7) if abs(w) > 1e-12 else np.array([0.0, np.pi])
                for kx in kxs:
                    t = -np.sin(kx) / w if abs(w) > 1e-12 else 0.7
                    cfg = LayeredConfig("abba", layers, float(t), m=float(a + np.cos(kx)))
                    f = subsystem_fields(np.array(kx), np.array(np.arccos(a)), cfg)
                    assert np.linalg.norm(f[r[0]]) < 1e-9

    def test_segment_crossing(self):
        assert segment_crosses_transition(2, (0.25, 1.0), (0.25, 2.5))
        assert segment_crosses_transition(2, (0.1, 1.95), (0.9, 1.95))
        assert not segment_crosses_transition(2, (0.25, 1.0), (0.3, 1.1))
        assert not segment_crosses_transition(2, (1.5, 2.8), (1.9, 2.9))

    def test_segment_crossing_is_exact(self):
        # a crossing much shorter than the segment: m = 1e-4 cuts the a = 1
        # ellipse t^2 + (m - 1)^2 = 1 only for |t| < 0.0141
        assert segment_crosses_transition(2, (-5.03, 1e-4), (4.97, 1e-4))
        # a segment that enters and leaves an ellipse near its tip (t = 1,
        # m = 1) crosses it twice with no sign change between its ends
        assert segment_crosses_transition(2, (0.9999, 0.5), (0.9999, 1.5))
        assert not segment_crosses_transition(2, (1.0001, 0.5), (1.0001, 1.5))


class TestInputFloors:
    CFG = LayeredConfig("abba", 2, 0.4)

    @pytest.mark.parametrize("n", [1, 2, 8, 15])
    def test_grids_below_the_floor_are_usage_errors(self, n):
        # a 2 x 2 grid used to give Chern number 0 here from both oracles
        with pytest.raises(UsageError, match="at least 16"):
            chern_fhs(self.CFG, grid_n=n)
        with pytest.raises(UsageError, match="at least 16"):
            total_chern_abba(self.CFG, grid_n=n)
        for stacking in ("abba", "ba"):
            with pytest.raises(UsageError, match="at least 16"):
                phase_diagram(stacking, 2, (0.0, 2.0), (-1.0, 3.0), 2, grid_n=n)

    @pytest.mark.parametrize("n", [10 ** 6, np.int64(10 ** 6)])
    def test_oversized_grids_are_usage_errors(self, n):
        # 10^12 nodes: refused before any node array is allocated
        with pytest.raises(UsageError, match="Hamiltonians need"):
            chern_fhs(self.CFG, grid_n=n)
        with pytest.raises(UsageError, match="Hamiltonians need"):
            chern_fhs(self.CFG, 1, grid_n=n)
        with pytest.raises(UsageError, match="lattice needs"):
            total_chern_abba(self.CFG, grid_n=n)
        for stacking in ("abba", "ba"):
            with pytest.raises(UsageError, match="lattice needs"):
                phase_diagram(stacking, 2, (0.0, 2.0), (-1.0, 3.0), 2, grid_n=n)

    def test_oversized_scans_are_refused_before_the_tables(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("scan tables built before the memory check")

        monkeypatch.setattr(topology, "_scan_tables", no_tables)
        # 10^10 cells; the (100000, 100000) level array alone needs 80 GB
        with pytest.raises(UsageError, match="100000 x 100000 scan cells need"):
            phase_diagram("abba", 2, (0.0, 2.0), (-1.0, 3.0), 100000)
        with pytest.raises(UsageError, match="scan cells need"):
            phase_diagram("ba", 2, (0.0, 2.0), (-1.0, 3.0), (100000, 20000), model="haldane")

    def test_scan_mode_fields_are_refused_before_the_field(self, monkeypatch):
        def no_field(*args):
            raise AssertionError("field evaluated before the memory check")

        # 1000^2 nodes x 50 modes x SCAN_GAP_BYTES of a one-mass gap chunk,
        # and NODE_BYTES a node: 1.9 GB
        monkeypatch.setattr(topology, "monolayer_field", no_field)
        monkeypatch.setattr(models.LatticeField, "component", no_field)
        with pytest.raises(UsageError, match="1000000 momenta x 50 mode fields need 1.9 GB"):
            phase_diagram("abba", 50, (0.0, 2.0), (-1.0, 3.0), 2, grid_n=1000)

    def test_chern_fhs_bounds_the_stack_before_the_nodes_exist(self, monkeypatch):
        def no_nodes(*args):
            raise AssertionError("nodes allocated before the memory check")

        monkeypatch.setattr(models.Cell, "nodes", no_nodes)
        with pytest.raises(UsageError, match="1960000 momenta x 6x6 Hamiltonians need 1.1 GB"):
            chern_fhs(LayeredConfig("ba", 3, 0.4), grid_n=1400)

    def test_degree_sums_are_bounded_before_the_nodes_exist(self, monkeypatch):
        def no_nodes(*args):
            raise AssertionError("nodes allocated before the memory check")

        # 3901^2 periodic nodes x DEGREE_NODE_BYTES: 3.0 GB, while the link
        # variables of one layer would be admitted (974 MB)
        monkeypatch.setattr(models.Cell, "nodes", no_nodes)
        with pytest.raises(UsageError, match="3900 x 3900 lattice needs 3.0 GB for its mode-degree"):
            total_chern_abba(LayeredConfig("abba", 1, 0.4), grid_n=3900)

    def test_scan_grids_are_bounded_before_the_field(self, monkeypatch):
        def no_field(*args):
            raise AssertionError("field evaluated")

        # a scan takes no grid finer than its own: at 600 it reaches the
        # field (it was refused for retries at 2400, 2401^2 x
        # DEGREE_NODE_BYTES = 1.2 GB), and at 2000 its one-mass gap chunk,
        # 2000^2 nodes x (SCAN_GAP_BYTES + NODE_BYTES), is refused first
        monkeypatch.setattr(models.LatticeField, "component", no_field)
        with pytest.raises(AssertionError, match="field evaluated"):
            phase_diagram("abba", 1, (0.0, 2.0), (-1.0, 3.0), 2, grid_n=600)
        with pytest.raises(UsageError, match="4000000 momenta x 1 mode fields need 1.2 GB"):
            phase_diagram("abba", 1, (0.0, 2.0), (-1.0, 3.0), 2, grid_n=2000)

    @pytest.mark.parametrize("model", ["qwz", "haldane"])
    @pytest.mark.parametrize("n", [16, 40])
    def test_degree_sum_peak_is_within_the_counted_bytes(self, model, n):
        cfg = LayeredConfig("abba", 3, 0.4, model, 1.0 if model == "qwz" else 0.5)
        tracemalloc.start()
        try:
            total_chern_abba(cfg, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counted = topology.DEGREE_NODE_BYTES * (n + 1) ** 2
        assert 0.5 * counted < peak <= counted

    def test_scan_peak_is_within_the_counted_bytes(self):
        # 2000 masses at 16^2: h3 is taken per chunk, so the peak stays
        # within the cells, the nodes and one gap chunk's mode arrays (an
        # h3 and an h3^2 table over every mass would hold 8.2 MB here).
        # At 64^2 the scan's nodes hold far less than NODE_BYTES, which
        # then makes up most of the count
        n, sm = 16, 2000
        tracemalloc.start()
        try:
            phase_diagram("abba", 1, (0.0, 0.0), (-1.0, 3.0), (1, sm), grid_n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per = topology.SCAN_CHUNK_BYTES // (n ** 2 * 8)
        counted = 64 * sm + models.mode_bytes(n ** 2, 1, per * topology.SCAN_GAP_BYTES)
        assert 0.5 * counted < peak <= counted

    def test_long_t_scan_peak_is_within_the_counted_bytes(self):
        # 2000 t values at 64^2: the gap pass holds the level parts of a
        # block of t values (SCAN_CHUNK_BYTES), not of every t (65 MB here)
        n, st = 64, 2000
        tracemalloc.start()
        try:
            phase_diagram("abba", 1, (0.0, 2.0), (-1.0, 3.0), (st, 1), grid_n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per = topology.SCAN_CHUNK_BYTES // (n ** 2 * 8)
        counted = 64 * st + models.mode_bytes(n ** 2, 1, per * topology.SCAN_GAP_BYTES)
        assert peak <= counted

    def test_floor_grid_is_accepted(self):
        assert chern_two_band(subsystem_field_fn(self.CFG, 1), 16) == -1

    @pytest.mark.parametrize("filled", [0, -1, 5, 9])
    def test_filled_outside_the_bands_is_a_usage_error(self, filled):
        # filled = 9 used to give a clean 0 (all four bands taken), and
        # filled = 0 a numerical gap error
        with pytest.raises(UsageError, match=r"filled must be in 1\.\.4"):
            chern_fhs(self.CFG, filled, grid_n=16)

    @pytest.mark.parametrize("steps", [0, -1, (4, 0), (0, 4), (-2, 3)])
    def test_steps_below_one_are_usage_errors(self, steps):
        with pytest.raises(UsageError, match="steps must be at least 1"):
            phase_diagram("abba", 2, (0.0, 2.0), (-1.0, 3.0), steps)


@pytest.mark.parametrize("f", range(1, 9))
def test_link_determinant_matches_lu(f):
    # chern_fhs takes each link at half filling as the product of the
    # 1 x 1 and 2 x 2 block determinants of the sine-mode frames; for f
    # layers of both stackings and models it is the LU determinant of the
    # full f x f overlap of the same frames
    for stacking in ("abba", "ba"):
        for model, t, m in (("qwz", 0.3, 0.5), ("haldane", 0.7, 0.5)):
            cfg = LayeredConfig(stacking, f, t, model, m)
            KX, KY = models.sampling_cell(model).nodes(16, 16)
            h = models.monolayer_components(cfg, KX, KY)
            frames = sine_mode_frames(cfg, KX, KY, h, positive_levels(h, cfg))
            V = frames.frames()
            for axis, U in zip((2, 3), frames.links()):
                o = np.einsum("cakl,cbkl->klab", V.conj(), np.roll(V, -1, axis=axis))
                assert np.abs(U - np.linalg.det(o)).max() <= 1e-14
