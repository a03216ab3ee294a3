"""Tests for measured-polarization grids, ring extraction and winding numbers."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerquench import (
    BisContour,
    DegenerateFieldError,
    LayeredConfig,
    LayerQuenchError,
    NonQuantizedWindingError,
    SingularPointError,
    UsageError,
    bisfield,
    characterize,
    component_zero_curves,
    dynamical_field,
    extract_bis,
    models,
    monolayer_field,
    quench,
    qwz_field,
    sample_grid,
    sampling_cell,
    singular_mask,
    spectra,
    winding,
)


def qwz_h3(points, m):
    return qwz_field(points[:, 0], points[:, 1], m)[:, 2]


def signed_area(points):
    x, y = points[:, 0], points[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


class TestSampleGrid:
    def test_shapes_and_metadata(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("global",), (32, 48))
        assert grid.values.shape == (32, 48, 3)
        assert (grid.nx, grid.ny) == (32, 48)
        assert grid.j == 3
        assert np.all(np.isfinite(grid.values))

    def test_resolution_floor(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        with pytest.raises(UsageError):
            sample_grid(cfg, 3, ("global",), 8)

    @pytest.mark.parametrize("resolution, shape", [
        (np.int64(32), (32, 32)),
        (np.int32(32), (32, 32)),
        ((np.int64(32), 48), (32, 48)),
        (np.array([32, 48]), (32, 48)),
        ([32, 48], (32, 48)),
    ])
    def test_integral_resolutions_are_accepted(self, resolution, shape):
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("global",), resolution)
        assert (grid.nx, grid.ny) == shape
        assert type(grid.nx) is int and type(grid.ny) is int
        assert grid.values.shape == shape + (3,)
        assert characterize(cfg, resolution=resolution)["total_w"] == -2

    @pytest.mark.parametrize("resolution", [32.0, (32,), (32, 32, 32), (32.0, 32), "32", None,
                                            np.float64(32), np.array([[32, 32]])])
    def test_other_resolutions_are_usage_errors(self, resolution):
        cfg = LayeredConfig("abba", 2, 0.4)
        with pytest.raises(UsageError, match="grid resolution"):
            sample_grid(cfg, 3, ("global",), resolution)
        with pytest.raises(UsageError, match="grid resolution"):
            characterize(cfg, resolution=resolution)

    @pytest.mark.parametrize("resolution", [10 ** 6, (400000, 400000), (10 ** 11, 16)])
    def test_oversized_lattices_are_usage_errors(self, resolution):
        # 10^11 nodes and more: refused before any node array is allocated
        cfg = LayeredConfig("abba", 2, 0.4)
        with pytest.raises(UsageError, match="lattice needs"):
            sample_grid(cfg, 3, ("global",), resolution)
        with pytest.raises(UsageError, match="lattice needs"):
            characterize(cfg, resolution=resolution)

    def test_oversized_mode_fields_are_refused_before_the_field(self, monkeypatch):
        # 256^2 nodes x 3000 modes x two float arrays of squared levels:
        # 3.2 GB, refused before the monolayer field (or any mode array)
        # is evaluated
        def no_field(*args):
            raise AssertionError("field evaluated before the memory check")

        monkeypatch.setattr(bisfield, "monolayer_components", no_field)
        monkeypatch.setattr(models.LatticeField, "component", no_field)
        cfg = LayeredConfig("abba", 3000, 0.4)
        with pytest.raises(UsageError, match="65536 momenta x 3000 mode fields need 3.2 GB"):
            sample_grid(cfg, 3, ("global",), 256)
        with pytest.raises(UsageError, match="mode fields need"):
            characterize(cfg, resolution=256)

    @pytest.mark.parametrize("stacking, observable, j", [
        (stacking, observable, j) for j in (1, 2, 3)
        for stacking, observable in (("abba", ("global",)), ("abba", ("subspace", 2)),
                                     ("ba", ("global",)))])
    def test_sampling_peak_is_within_the_counted_bytes(self, monkeypatch, stacking, observable,
                                                       j):
        # what the mode bound counts is what sampling holds at its peak,
        # also where the closed form's gap check raises: with the
        # singular-node test patched out, every mode of a t = 0, m = 2 stack
        # closes at the node k = 0.  The abba closed form holds no per-mode
        # array, its raising gap check the levels of every mode
        def peak(cfg):
            tracemalloc.start()
            try:
                sample_grid(cfg, j, observable, 64)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def raising_peak(cfg):
            tracemalloc.start()
            try:
                with pytest.raises(SingularPointError, match="at sample index"):
                    sample_grid(cfg, j, observable, 64)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        counted = models.mode_bytes(64 * 64, 50, bisfield.SAMPLE_MODE_BYTES[stacking])
        sampled = peak(LayeredConfig(stacking, 50, 0.4))
        monkeypatch.setattr(bisfield, "singular_field_mask",
                            lambda h, cfg: np.zeros(np.shape(h[0]), dtype=bool))
        raised = raising_peak(LayeredConfig(stacking, 50, 0.0, m=2.0))
        assert sampled <= counted and raised <= counted
        assert 0.5 * counted < max(sampled, raised)

    @pytest.mark.parametrize("cfg, observable, calls", [
        (LayeredConfig("abba", 2, 0.4), ("global",), 1),
        (LayeredConfig("abba", 3, 0.4, "haldane", 1.5), ("subspace", 2), 1),
        (LayeredConfig("ba", 2, 0.4, "haldane", 1.5), ("global",), 1),
        # one more call for the nudged node alone
        (LayeredConfig("abba", 1, 0.0, m=2.0), ("global",), 2),
    ])
    def test_the_field_is_evaluated_once(self, monkeypatch, cfg, observable, calls):
        # the closed form takes the lattice's own field, each component
        # evaluated once on the whole lattice; nothing else evaluates the
        # monolayer field on the grid: the singular-node test takes the
        # components at a few nodes, and the nudged node takes the field alone
        seen = []
        component = models.LatticeField.component

        def counted_component(self, i, m, at=None):
            seen.append((i, self.kx.shape if at is None else np.shape(at[0])))
            return component(self, i, m, at)

        def counted(*args):
            seen.append(("field", np.shape(args[1])))
            return models.monolayer_components(*args)

        def no_field(*args):
            raise AssertionError("monolayer field evaluated again")

        monkeypatch.setattr(models.LatticeField, "component", counted_component)
        monkeypatch.setattr(bisfield, "monolayer_components", counted)
        for module in (quench, spectra):
            monkeypatch.setattr(module, "monolayer_field", no_field)
            monkeypatch.setattr(module, "monolayer_components", no_field)
        sample_grid(cfg, 3, observable, 32)
        assert sorted(s for s in seen if len(s[1]) == 2) == [(i, (32, 32)) for i in range(3)]
        assert len([s for s in seen if s[0] == "field"]) == calls - 1
        assert all(len(s[1]) == 1 for s in seen if s[0] == "field")

    def test_singular_node_is_nudged(self):
        # m=2 closes the gap exactly at k=(0,0), which is a node of any
        # even grid over the square cell; sampling must still succeed
        cfg = LayeredConfig("abba", 1, 0.0, m=2.0)
        assert singular_mask(np.array(0.0), np.array(0.0), cfg)
        grid = sample_grid(cfg, 3, ("global",), 32)
        assert np.all(np.isfinite(grid.values))


class TestModeIndex:
    @pytest.mark.parametrize("observable", [("subspace", 0), ("subspace", 3), ("subspace", 5)])
    def test_out_of_range_mode_is_rejected(self, observable):
        cfg = LayeredConfig("abba", 2, 0.4)
        with pytest.raises(UsageError, match=r"outside 1\.\.2"):
            bisfield.polarization_evaluator(cfg, 3, observable)
        with pytest.raises(UsageError):
            sample_grid(cfg, 3, observable, 32)

    def test_every_mode_in_range_is_accepted(self):
        cfg = LayeredConfig("abba", 3, 0.4)
        for r in (1, 2, 3):
            assert sample_grid(cfg, 3, ("subspace", r), 16).values.shape == (16, 16, 3)


class TestExtractBis:
    def test_bilayer_rings_sit_on_vanishing_source(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        for r in (1, 2):
            grid = sample_grid(cfg, 3, ("subspace", r), 128)
            contours = extract_bis(grid)
            assert len(contours) == 1
            c = contours[0]
            assert c.residual < 1e-6
            assert tuple(c.wraps) == (0, 0)
            # the interlayer shift lives in the in-plane component, so
            # for a sigma3 quench every mode ring sits on the bare mass
            # zero set; points were bisected onto it
            h3 = qwz_h3(c.points, cfg.m)
            assert np.max(np.abs(h3)) < 1e-6

    def test_orientation_keeps_negative_source_on_right(self):
        # the mode-1 ring encloses k=0 where the shifted mass is negative,
        # so walking with negative source on the right means clockwise
        # traversal, i.e. negative enclosed area
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", 1), 128)
        c = extract_bis(grid)[0]
        assert signed_area(c.points) < 0

    def test_noncontractible_curves_report_wrapping(self):
        cfg = LayeredConfig("abba", 1, 0.0)
        grid = sample_grid(cfg, 1, ("global",), 64)
        contours = extract_bis(grid)
        assert len(contours) >= 2
        for c in contours:
            assert c.wraps[0] == 0
            assert abs(c.wraps[1]) == 1

    def test_gap_closing_ring_is_rejected(self):
        # t=0.6, m=1.8 puts the second subsystem exactly at a band
        # touching, so its measured sigma3 zero curve never averages out
        cfg = LayeredConfig("abba", 2, 0.6, m=1.8)
        grid = sample_grid(cfg, 3, ("subspace", 2), 96)
        assert extract_bis(grid) == []
        kept, rejected = extract_bis(grid, include_rejected=True)
        assert kept == []
        assert len(rejected) >= 1
        assert all(c.residual >= 1e-6 for c in rejected)

    @pytest.mark.parametrize("tol_bis", [0.0, -1.0, np.nan])
    def test_nonpositive_tol_bis_is_a_usage_error(self, tol_bis):
        # no residual is below a tolerance <= 0, so -1 used to report
        # "no BIS" for a stack whose invariant is -2
        grid = sample_grid(LayeredConfig("abba", 2, 0.4), 3, ("subspace", 1), 32)
        with pytest.raises(UsageError, match="tol_bis must be positive"):
            extract_bis(grid, tol_bis)

    def test_component_zero_curves_find_sigma1_branch(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", 1), 96)
        curves = component_zero_curves(grid, 1)
        assert curves
        assert all(c.source.endswith("zero-s1") for c in curves)
        shift = 2 * cfg.t * np.cos(np.pi / 3)
        found_branch = False
        for c in curves:
            h1 = np.sin(c.points[:, 0]) + shift
            if np.max(np.abs(h1)) < 1e-6:
                found_branch = True
        assert found_branch


class TestDynamicalField:
    def test_field_is_unit_norm(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", 1), 128)
        c = extract_bis(grid)[0]
        g = dynamical_field(c, grid)
        assert g is c.gfield
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("r", [1, 2])
    def test_field_reveals_spin_orbit_field_on_ring(self, r):
        # crossing the ring, the measured sigma1/sigma2 slopes are
        # proportional to the in-plane field itself, so the normalized
        # dynamical field must match (h1 + shift, h2) pointwise
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", r), 128)
        c = extract_bis(grid)[0]
        dynamical_field(c, grid)
        shift = 2 * cfg.t * np.cos(r * np.pi / 3)
        so = np.stack(
            [np.sin(c.points[:, 0]) + shift, np.sin(c.points[:, 1])], axis=1
        )
        so /= np.linalg.norm(so, axis=1, keepdims=True)
        assert np.max(np.abs(c.gfield - so)) < 1e-5

    @pytest.mark.parametrize("delta", [0.0, -1e-4, np.nan, np.inf])
    def test_nonpositive_or_nonfinite_delta_is_a_usage_error(self, delta):
        # delta = 0 used to end in a NaN field and a ValueError traceback
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", 1), 64)
        c = extract_bis(grid)[0]
        with pytest.raises(UsageError, match="delta must be finite and positive"):
            dynamical_field(c, grid, delta)
        assert c.gfield is None

    def test_vanishing_source_gradient_raises(self):
        # on the m=0 lattice the mass gradient is (sin kx, sin ky),
        # which dies at (-pi, 0) even though that point lies on a ring
        cfg = LayeredConfig("abba", 1, 0.0, m=0.0)
        grid = sample_grid(cfg, 3, ("global",), 64)
        pts = np.array(
            [[-np.pi, 0.0], [-np.pi / 2, np.pi / 2], [-np.pi / 2, -np.pi / 2]]
        )
        u, v = grid.cell.fractions(pts[:, 0], pts[:, 1])
        fake = BisContour(
            points=pts,
            frac=np.stack([u, v], axis=1),
            source="s3",
            wraps=np.array([0, 0]),
            residual=0.0,
        )
        with pytest.raises(DegenerateFieldError) as exc:
            dynamical_field(fake, grid)
        # plain floats, not numpy scalar reprs
        assert "np." not in str(exc.value)
        assert "k=(-3.14159" in str(exc.value)

    def test_vanishing_field_message_has_plain_floats(self, monkeypatch):
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", 1), 64)
        c = extract_bis(grid)[0]
        monkeypatch.setattr(bisfield, "polarization_evaluator",
                            lambda *args: lambda kx, ky: np.zeros(np.shape(kx) + (3,)))
        with pytest.raises(DegenerateFieldError, match="dynamical field vanishes") as exc:
            dynamical_field(c, grid)
        assert "np." not in str(exc.value)


class TestWinding:
    def test_requires_field(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", 1), 128)
        c = extract_bis(grid)[0]
        with pytest.raises(UsageError):
            winding(c)

    def test_rejects_short_contours(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", 1), 128)
        c = extract_bis(grid)[0]
        dynamical_field(c, grid)
        short = BisContour(
            points=c.points[:8],
            frac=c.frac[:8],
            source=c.source,
            wraps=c.wraps,
            residual=c.residual,
            gfield=c.gfield[:8],
        )
        with pytest.raises(NonQuantizedWindingError, match="only 8 points"):
            winding(short)

    def test_nan_field_is_not_quantized(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", 1), 128)
        c = extract_bis(grid)[0]
        dynamical_field(c, grid)
        c.gfield[3] = np.nan
        with pytest.raises(NonQuantizedWindingError, match="not integer"):
            winding(c)
        assert c.w is None

    @pytest.mark.parametrize("r", [1, 2])
    def test_bilayer_modes_each_wind_once(self, r):
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", r), 128)
        c = extract_bis(grid)[0]
        dynamical_field(c, grid)
        assert winding(c) == -1
        assert c.w == -1

    def test_bernal_ring_counts_every_layer(self):
        cfg = LayeredConfig("ba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("global",), 128)
        contours = extract_bis(grid)
        assert len(contours) == 1
        c = contours[0]
        dynamical_field(c, grid)
        assert winding(c, cfg.layers) == -2
        assert c.w == -1

    def test_single_layer_inverted_ring(self):
        # m=-1 inverts the band around k=(pi,pi); the ring straddles the
        # cell corner yet still closes up with zero net wrapping
        cfg = LayeredConfig("abba", 1, 0.0, m=-1.0)
        grid = sample_grid(cfg, 3, ("global",), 128)
        contours = extract_bis(grid)
        assert len(contours) == 1
        c = contours[0]
        dynamical_field(c, grid)
        assert tuple(c.wraps) == (0, 0)
        assert winding(c) == 1


class TestCharacterize:
    @pytest.mark.parametrize("j", [0, -1, 4, 5])
    def test_bad_quench_axis_is_a_usage_error(self, j):
        # axis 0 gave total_w 0, and 4 or 5 an IndexError
        cfg = LayeredConfig("abba", 2, 0.4)
        with pytest.raises(UsageError, match="quench axis must be 1, 2 or 3"):
            characterize(cfg, j, 64)
        with pytest.raises(UsageError, match="quench axis must be 1, 2 or 3"):
            sample_grid(cfg, j, resolution=32)

    def test_bilayer_summary(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        result = characterize(cfg, resolution=128)
        assert result["total_w"] == -2
        assert result["layer_factor"] == 1
        ws = [c.w for c in result["contours"]]
        assert sorted(ws) == [-1, -1]
        sources = {c.source for c in result["contours"]}
        assert len(sources) == 2

    @pytest.mark.parametrize("r", [1, 2])
    def test_subspace_observable_uses_its_one_mode(self, r):
        cfg = LayeredConfig("abba", 2, 0.4)
        result = characterize(cfg, resolution=128, observable=("subspace", r))
        assert result["total_w"] == -1
        assert result["layer_factor"] == 1
        assert [c.source for c in result["contours"]] == [f"mode{r}.s3"]

    def test_trivial_coupling_has_no_net_winding(self):
        cfg = LayeredConfig("abba", 2, 1.2)
        result = characterize(cfg, resolution=128)
        assert result["total_w"] == 0
        for c in result["contours"]:
            assert c.w == 0

    @pytest.mark.parametrize("kwargs", [{"delta": 0.0}, {"delta": float("nan")},
                                        {"tol_bis": -1.0}, {"tol_bis": float("nan")}])
    def test_bad_delta_or_tol_bis_is_refused_without_contours(self, kwargs):
        # m = 3 has no band-inversion surface, so no contour would reach
        # the per-contour checks
        cfg = LayeredConfig("abba", 2, 0.4, m=3.0)
        with pytest.raises(UsageError):
            characterize(cfg, resolution=32, **kwargs)

    @pytest.mark.parametrize("delta", [2 * np.pi / 128, 3.0, 10.0, 1e9])
    def test_steps_across_nodes_are_refused(self, delta):
        # at 128^2 these steps gave the windings 2, -6 and 2 instead of -2
        cfg = LayeredConfig("abba", 2, 0.4)
        with pytest.raises(UsageError, match=r"below the node spacing 0\.0490874 of the 128 x 128"):
            characterize(cfg, resolution=128, delta=delta)
        assert characterize(cfg, resolution=128, delta=0.04)["total_w"] == -2

    @pytest.mark.parametrize("cfg, nudged", [
        (LayeredConfig("abba", 3, 0.4), False),
        # modes 1 and 3 close exactly at lattice nodes; mode 2 keeps its ring
        (LayeredConfig("abba", 3, 1 / np.sqrt(2)), True),
    ])
    def test_one_lattice_and_no_node_values(self, monkeypatch, cfg, nudged):
        # the one component characterize reads on the lattice (h3, the
        # source for j = 3) is evaluated there once; the whole field only at
        # the candidate nodes, where h3^2 falls below twice the singular
        # bound, and at the nudged nodes; no closed form is evaluated on the
        # lattice
        KX, KY = sampling_cell(cfg.model).nodes(64, 64)
        bad = singular_mask(KX, KY, cfg)
        assert bad.any() == nudged
        h3 = monolayer_field(cfg, KX, KY)[..., 2]
        candidates = int(np.count_nonzero(h3 ** 2 < 2.0 * quench.SINGULAR_E2))
        # (0, +-pi/2) and (+-pi/2, 0) leave h3 = 1 - cos kx - cos ky at rounding level
        assert candidates > bad.sum()
        calls = []
        source_loops = bisfield._source_loops
        component = models.LatticeField.component

        def counted_component(self, i, m, at=None):
            calls.append((i, self.kx.shape if at is None else np.shape(at[0])))
            return component(self, i, m, at)

        def counted_field(c, kx, ky):
            calls.append(("field", np.broadcast_shapes(np.shape(kx), np.shape(ky))))
            return models.monolayer_components(c, kx, ky)

        def marked_loops(grid):
            calls.append("loops")
            return source_loops(grid)

        def contour_only(fn):
            def wrapped(kx, ky, *args, **kwargs):
                assert np.ndim(kx) < 2 and np.ndim(ky) < 2, "closed form evaluated on the lattice"
                return fn(kx, ky, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(models.LatticeField, "component", counted_component)
        for module in (bisfield, quench, spectra):
            monkeypatch.setattr(module, "monolayer_components", counted_field)
        monkeypatch.setattr(bisfield, "_source_loops", marked_loops)
        for name in ("tasp_closed_form", "gtasp_abba"):
            monkeypatch.setattr(bisfield, name, contour_only(getattr(bisfield, name)))
        result = characterize(cfg, resolution=64)
        lattice = calls[:calls.index("loops")]
        assert lattice == ([(2, (64, 64))] + [(i, (candidates,)) for i in range(3)]
                           + ([("field", (int(bad.sum()),))] if nudged else []))
        assert [c for c in calls if c != "loops" and len(c[1]) == 2] == [(2, (64, 64))]
        assert result["total_w"] == (-1 if nudged else -3)


def _per_mode_pipeline(cfg, j, resolution, observable=("global",)):
    """characterize spelled out with the public per-mode calls."""
    if observable[0] != "global":
        layer_factor, observables = 1, [observable]
    elif cfg.stacking == "abba":
        layer_factor, observables = 1, [("subspace", r) for r in range(1, cfg.layers + 1)]
    else:
        layer_factor, observables = cfg.layers, [observable]
    contours, total = [], 0
    for obs in observables:
        grid = sample_grid(cfg, j, obs, resolution)
        for c in extract_bis(grid):
            dynamical_field(c, grid)
            total += winding(c, layer_factor)
            contours.append(c)
    return contours, total


def _outcome(run):
    """Exact bytes of every contour and the total, or the error raised."""
    try:
        contours, total = run()
    except LayerQuenchError as exc:
        return type(exc), str(exc)
    arrays = [(c.points, c.frac, c.wraps, c.gfield) for c in contours]
    for (a, b) in itertools.combinations([x for group in arrays for x in group], 2):
        assert not np.shares_memory(a, b)
    return [tuple((x.dtype.str, x.shape, x.tobytes()) for x in group)
            + (np.float64(c.residual).tobytes(), c.source, c.w)
            for group, c in zip(arrays, contours)], total


def _characterized(cfg, j, resolution, observable=("global",)):
    result = characterize(cfg, j, resolution, observable=observable)
    return result["contours"], result["total_w"]


HALDANE_M = 2 * np.sqrt(3)
# one mode-shared source on which modes 1 and 3 (nearly gapless on the
# ky = 0 line) reject the first contour that mode 2 keeps
MIXED_T = np.sqrt(0.75) / np.sqrt(2) * (1 + 1e-4)
PIPELINE_CASES = (
    [(LayeredConfig("abba", n, 0.4, model, {"qwz": 1.0, "haldane": HALDANE_M}[model]), j, 64,
      ("global",))
     for model in ("qwz", "haldane") for n in (1, 2, 3, 5) for j in (1, 2, 3)]
    + [(LayeredConfig("ba", 2, 0.4), j, 64, ("global",)) for j in (1, 2, 3)]
    + [(LayeredConfig("ba", 3, 0.4, "haldane", HALDANE_M), 3, 64, ("global",))]
    + [(LayeredConfig("abba", 3, 0.4), j, 64, ("subspace", 2)) for j in (1, 3)]
    + [(LayeredConfig("abba", 3, 0.4), 3, (32, 48), ("global",)),
       (LayeredConfig("abba", 2, 1.2), 3, (48, 32), ("global",)),
       (LayeredConfig("abba", 3, MIXED_T, m=0.5), 2, 48, ("global",))]
)
# the ba gap closes at k = 0, on the contour itself
SINGULAR_CASE = (LayeredConfig("ba", 2, 0.4, m=2.0), 3, 64, ("global",))


@pytest.mark.parametrize("cfg, j, resolution, observable", PIPELINE_CASES + [SINGULAR_CASE],
                         ids=[f"{c.stacking}{c.layers}-{c.model}-m{c.m:g}-j{j}-{res}-{obs[0]}"
                              for c, j, res, obs in PIPELINE_CASES + [SINGULAR_CASE]])
def test_characterize_matches_per_mode_pipeline(cfg, j, resolution, observable):
    want = _outcome(lambda: _per_mode_pipeline(cfg, j, resolution, observable))
    got = _outcome(lambda: _characterized(cfg, j, resolution, observable))
    assert got == want
    if (cfg, j, resolution, observable) == SINGULAR_CASE:
        assert want[0] is SingularPointError


def test_pipeline_cases_cover_mixed_mode_filtering():
    # mode 2 keeps both contours of the shared source, modes 1 and 3 only the second
    contours, _ = _characterized(*PIPELINE_CASES[-1][:3])
    assert [c.source for c in contours] == ["mode1.s2", "mode2.s2", "mode2.s2", "mode3.s2"]


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.0, 1.5), m=st.floats(-2.5, 2.5), j=st.integers(1, 3),
       layers=st.integers(2, 3))
def test_characterize_matches_per_mode_pipeline_property(t, m, j, layers):
    cfg = LayeredConfig("abba", layers, t, m=m)
    want = _outcome(lambda: _per_mode_pipeline(cfg, j, 32))
    assert _outcome(lambda: _characterized(cfg, j, 32)) == want
