"""Tests for interlayer-hopping estimation from polarization data."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from layerquench import (
    InconsistentSampleError,
    LayeredConfig,
    SingularPointError,
    TrivialRegimeError,
    UsageError,
    ba_reference_magnitudes,
    estimate_t_abba,
    estimate_t_ba,
    sample_grid,
    tasp_closed_form,
)
from layerquench import bisfield
from layerquench.hopping import REFERENCE_MOMENTA, ba_gapped_magnitudes


class TestAbbaEstimator:
    @pytest.mark.parametrize("t", [0.0, 0.2, 0.4, 0.7, 0.9])
    def test_round_trip(self, t):
        cfg = LayeredConfig("abba", 2, t)
        est = estimate_t_abba(cfg, resolution=96)
        assert est.method == "abba-zero-line"
        assert abs(est.t_hat - t) < 1e-6
        assert est.residual < 1e-6

    @pytest.mark.parametrize("layers, t", [(3, 0.3), (4, 0.3), (5, 0.2)])
    def test_round_trip_beyond_the_bilayer(self, layers, t):
        # mode 1 shifts h1 by 2 t cos(pi / (N + 1)), which is t only for N = 2
        est = estimate_t_abba(LayeredConfig("abba", layers, t), resolution=128)
        assert abs(est.t_hat - t) < 1e-6
        assert est.residual < 1e-6

    def test_sign_of_the_coupling_is_kept(self):
        est = estimate_t_abba(LayeredConfig("abba", 2, -0.4), resolution=96)
        assert abs(est.t_hat + 0.4) < 1e-6

    def test_accepts_pre_sampled_grid(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        grid = sample_grid(cfg, 3, ("subspace", 1), 96)
        est = estimate_t_abba(grid)
        ref = estimate_t_abba(cfg, resolution=96)
        assert est.t_hat == ref.t_hat

    @pytest.mark.parametrize("model, layers, t, m", [
        ("qwz", 2, 0.41, 1.02), ("qwz", 4, 0.3, -1.3),
        ("haldane", 2, 0.41, 1.02), ("haldane", 3, 1 / np.sqrt(2), 1.0)])
    @pytest.mark.parametrize("j", [2, 3])
    @pytest.mark.parametrize("resolution", [64, (80, 56)])
    def test_config_keeps_the_bits_of_a_sampled_grid(self, monkeypatch, model, layers, t, m,
                                                     j, resolution):
        # a config samples s1 alone on its nodes, yet its estimate has the
        # bits of the estimate from the whole sampled grid
        cfg = LayeredConfig("abba", layers, t, model, m)
        ref = estimate_t_abba(sample_grid(cfg, j, ("subspace", 1), resolution))
        sampled = []
        of_field = bisfield.gtasp_of_field

        def counted(h, cfg, j, r=None, component=None):
            sampled.append((np.shape(h), r, component))
            return of_field(h, cfg, j, r, component)

        monkeypatch.setattr(bisfield, "gtasp_of_field", counted)
        est = estimate_t_abba(cfg, resolution, j)
        n = resolution if np.ndim(resolution) else (resolution, resolution)
        assert sampled == [((3,) + n, 1, 1)]
        assert (est.t_hat.hex(), est.residual.hex()) == (ref.t_hat.hex(), ref.residual.hex())

    def test_strong_coupling_leaves_no_zero_line(self):
        cfg = LayeredConfig("abba", 2, 1.2)
        with pytest.raises(TrivialRegimeError):
            estimate_t_abba(cfg, resolution=96)

    def test_critical_coupling_closes_the_gap_on_the_zero_line(self):
        # at t=1 the s1 zero line collapses onto kx=-pi/2 and touches
        # the gap closing at ky=0, so tracing cannot proceed
        cfg = LayeredConfig("abba", 2, 1.0)
        with pytest.raises(SingularPointError):
            estimate_t_abba(cfg, resolution=96)

    def test_input_validation(self):
        cfg = LayeredConfig("abba", 2, 0.4)
        with pytest.raises(UsageError):
            estimate_t_abba(sample_grid(cfg, 3, ("global",), 32))
        with pytest.raises(UsageError):
            estimate_t_abba(LayeredConfig("ba", 2, 0.4))
        with pytest.raises(UsageError):
            estimate_t_abba(0.4)
        with pytest.raises(UsageError, match="layers >= 2"):
            estimate_t_abba(LayeredConfig("abba", 1, 0.4))

    def test_quench_axis_1_has_no_zero_line(self):
        # s1 = -h1r^2 / E^2 <= 0 for j = 1: a usage error, named by its axis
        cfg = LayeredConfig("abba", 2, 0.4)
        with pytest.raises(UsageError, match="axis 2 or 3"):
            estimate_t_abba(cfg, resolution=64, j=1)
        with pytest.raises(UsageError, match="axis 2 or 3"):
            estimate_t_abba(sample_grid(cfg, 1, ("subspace", 1), 32))
        assert abs(estimate_t_abba(cfg, resolution=64, j=2).t_hat - 0.4) < 1e-6

    def test_estimate_is_immutable(self):
        est = estimate_t_abba(LayeredConfig("abba", 2, 0.4), resolution=96)
        with pytest.raises(dataclasses.FrozenInstanceError):
            est.t_hat = 0.0


class TestBaReferences:
    @pytest.mark.parametrize("t", [0.0, 0.4, 1.0, 2.0])
    def test_bilayer_magnitudes_are_rational_in_t(self, t):
        mags = ba_reference_magnitudes(t)
        assert abs(mags["s1"] - 1.0 / (2.0 + t * t)) < 1e-12
        assert abs(mags["s2"] - 1.0 / (2.0 + t * t)) < 1e-12
        expected3 = (2.0 + t * t) / (2.0 + 2.0 * t * t)
        assert abs(mags["s3"] - expected3) < 1e-12

    def test_in_plane_magnitude_decreases_with_t(self):
        vals = [ba_reference_magnitudes(t)["s1"]
                for t in np.arange(0.0, 2.01, 0.25)]
        assert np.all(np.diff(vals) < 0)


class TestBaEstimator:
    def test_round_trip_over_the_full_range(self):
        for t in np.arange(0.0, 2.01, 0.1):
            est = estimate_t_ba(ba_reference_magnitudes(t))
            assert est.method == "ba-rational"
            assert abs(est.t_hat - t) < 1e-6
            assert est.residual < 1e-9

    def test_boundary_samples_give_zero(self):
        assert estimate_t_ba({"s1": 0.5}).t_hat == 0.0
        assert estimate_t_ba({"s3": 1.0}).t_hat == 0.0

    @pytest.mark.parametrize("sample", [
        {"s1": 0.6}, {"s1": 0.0}, {"s3": 0.5}, {"s3": 1.2},
    ])
    def test_out_of_range_magnitudes(self, sample):
        with pytest.raises(InconsistentSampleError):
            estimate_t_ba(sample)

    def test_sample_validation(self):
        with pytest.raises(UsageError):
            estimate_t_ba({})
        with pytest.raises(UsageError):
            estimate_t_ba({"sx": 0.3})
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(UsageError, match="s3 .* not a finite magnitude"):
                estimate_t_ba({"s1": 0.4, "s3": value})

    def test_numeric_inversion_away_from_unit_mass(self):
        mags = ba_reference_magnitudes(0.7, m=0.8)
        est = estimate_t_ba(mags, m=0.8)
        assert est.method == "ba-numeric"
        assert abs(est.t_hat - 0.7) < 1e-8

    def test_numeric_inversion_rejects_unreachable_magnitude(self):
        with pytest.raises(InconsistentSampleError):
            estimate_t_ba({"s1": 0.9}, m=0.8)


class TestBaQuenchAxis:
    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("m", [1.0, 0.8])
    def test_round_trip_on_every_axis(self, j, m):
        for t in (0.0, 0.4, 1.3):
            est = estimate_t_ba(ba_reference_magnitudes(t, m=m, j=j), m=m, j=j)
            assert est.method == ("ba-rational" if (m, j) == (1.0, 3) else "ba-numeric")
            assert abs(est.t_hat - t) < 1e-9

    def test_vanishing_channel_with_nonzero_sample(self):
        # for j = 1 the s2 and s3 magnitudes vanish for every t
        with pytest.raises(InconsistentSampleError, match="vanishes for every t"):
            estimate_t_ba({"s1": 0.46, "s2": 0.1}, j=1)

    def test_only_vanishing_channels(self):
        with pytest.raises(InconsistentSampleError, match="no sampled channel"):
            estimate_t_ba({"s2": 0.0, "s3": 0.0}, j=1)

    @pytest.mark.parametrize("key, j", [("s1", 3), ("s2", 3), ("s1", 1)])
    def test_sampled_channel_alone_where_another_closes_the_gap(self, key, j):
        # at m = 2 the s3 reference momentum k = 0 closes the monolayer gap
        # for every t; an s1 or s2 sample is inverted from its own channel
        cfg = LayeredConfig("ba", 2, 0.4, m=2.0)
        with pytest.raises(SingularPointError):
            ba_reference_magnitudes(0.4, m=2.0, j=j)
        mag = abs(tasp_closed_form(*REFERENCE_MOMENTA[key], cfg, j)[int(key[1]) - 1])
        est = estimate_t_ba({key: mag}, m=2.0, j=j)
        assert est.method == "ba-numeric"
        assert abs(est.t_hat - 0.4) < 1e-9


    def test_gapped_channels_alone_recover_t(self):
        # at m = 2 the s3 channel is left out; s1 and s2 still give t
        mags = ba_gapped_magnitudes(0.4, m=2.0)
        assert sorted(mags) == ["s1", "s2"]
        est = estimate_t_ba(mags, m=2.0)
        assert abs(est.t_hat - 0.4) < 1e-12
        assert est.residual == 0.0
        # where every reference momentum is gapped, all three channels are kept
        assert ba_gapped_magnitudes(0.7, m=0.8) == ba_reference_magnitudes(0.7, m=0.8)


SCIPY_PROBE = """
import sys
import layerquench
print(any(m.split(".")[0] == "scipy" for m in sys.modules))
est = layerquench.estimate_t_ba(layerquench.ba_reference_magnitudes(0.7, m=0.8), m=0.8)
print(est.method, abs(est.t_hat - 0.7) < 1e-8, "scipy" in sys.modules)
"""


def test_scipy_is_loaded_by_the_numeric_inversion_only():
    import layerquench
    src = os.path.dirname(os.path.dirname(os.path.abspath(layerquench.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert out[0] == "False"
    assert out[1] == "ba-numeric True True"
