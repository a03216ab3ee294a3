"""Tests for measured-polarization grids, ring extraction and winding numbers."""

import numpy as np
import pytest

from layerquench import (
    BisContour,
    DegenerateFieldError,
    LayeredConfig,
    NonQuantizedWindingError,
    UsageError,
    bisfield,
    characterize,
    component_zero_curves,
    dynamical_field,
    extract_bis,
    qwz_field,
    sample_grid,
    singular_mask,
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
