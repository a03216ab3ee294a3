import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerquench import (DegenerateSpectrumError, LayeredConfig, UnsupportedStackingError,
                         UsageError, abba_transform, analytic_levels, analytic_positive_levels,
                         build_layered, degeneracy_groups, eigvec_identities, level_labels,
                         monolayer_field, numeric_levels, numeric_spectrum, sine_modes,
                         spectra, subsystem_fields)
from layerquench import bisfield, hopping, quench, topology
from layerquench.models import PAULI


def test_sine_modes_orthonormal_and_eigen():
    for N in (2, 3, 5):
        sm = sine_modes(N)
        A = sm.vectors
        assert np.max(np.abs(A @ A.T - np.eye(N))) < 1e-12
        S1 = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        for r in range(N):
            assert np.max(np.abs(S1 @ A[r] - sm.lam[r] * A[r])) < 1e-12


def test_oversized_sine_modes_are_usage_errors():
    # refused before the N x N vectors exist
    with pytest.raises(UsageError, match="100000 x 100000 sine-mode vectors need 80.0 GB"):
        sine_modes(100000)


def test_sine_lam_is_the_mode_eigenvalues():
    for N in (1, 2, 3, 7, 40):
        assert np.array_equal(spectra.sine_lam(N), sine_modes(N).lam)


def test_eigenvalue_readers_build_no_mode_vectors(monkeypatch):
    # sampling reads only the lam_r: N cosines, not the N x N sine-mode
    # vectors (128 MB at N = 4000), which it once built on every call
    def no_vectors(N):
        raise AssertionError(f"{N} x {N} sine-mode vectors built")

    for module in (spectra, quench, bisfield, hopping, topology):
        if hasattr(module, "sine_modes"):
            monkeypatch.setattr(module, "sine_modes", no_vectors)
    grid = bisfield.sample_grid(LayeredConfig("abba", 4000, 0.4), 3, ("global",), 16)
    assert grid.values.shape == (16, 16, 3) and np.isfinite(grid.values).all()


def _reads_mode_angles(node):
    """Whether node reads a .theta attribute or builds an angle x pi / (N + 1)."""
    if isinstance(node, ast.Attribute) and node.attr == "theta":
        return True
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Add)
            and any(isinstance(n, ast.Attribute) and n.attr == "pi"
                    for n in ast.walk(node.left)))


def test_spectra_is_the_one_home_of_the_mode_angles():
    # every other module takes the Sigma1 eigenvalues lam_r from
    # SineModes and the levels from spectra, so no second copy of
    # theta_r = r pi / (N + 1) can drift from them
    package = Path(spectra.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py")) if path.name != "spectra.py"
             for node in ast.walk(ast.parse(path.read_text())) if _reads_mode_angles(node)]
    assert found == []


def test_subsystem_fields_bilayer_shift():
    """For N = 2 the mode shifts are exactly +t and -t."""
    cfg = LayeredConfig("abba", 2, 0.37)
    kx, ky = 0.5, -0.9
    h = monolayer_field(cfg, kx, ky)
    hr = subsystem_fields(kx, ky, cfg)
    assert abs(hr[0, 0] - (h[0] + cfg.t)) < 1e-12
    assert abs(hr[1, 0] - (h[0] - cfg.t)) < 1e-12
    assert np.max(np.abs(hr[:, 1:] - h[1:])) < 1e-15


def test_subsystem_fields_rejects_ba():
    with pytest.raises(UnsupportedStackingError):
        subsystem_fields(0.1, 0.2, LayeredConfig("ba", 2, 0.4))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_block_diagonalization(N):
    cfg = LayeredConfig("abba", N, 0.8, m=0.3)
    rng = np.random.default_rng(N)
    kx, ky = rng.uniform(-np.pi, np.pi, 2)
    S = abba_transform(N)
    hr = subsystem_fields(kx, ky, cfg)
    assert np.max(np.abs(S @ S.T - np.eye(2 * N))) < 1e-12
    Hb = S @ build_layered(kx, ky, cfg) @ S.T
    expected = np.zeros_like(Hb)
    for r in range(N):
        blk = sum(hr[r, i] * PAULI[i] for i in range(3))
        sl = slice(2 * r, 2 * r + 2)
        expected[sl, sl] = blk
    assert np.max(np.abs(Hb - expected)) < 1e-12


@pytest.mark.parametrize("stacking", ["abba", "ba"])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_analytic_matches_numeric(stacking, N):
    cfg = LayeredConfig(stacking, N, 0.7, m=1.0)
    kx = np.linspace(-np.pi, np.pi, 16, endpoint=False)[:, None]
    ky = np.linspace(-np.pi, np.pi, 16, endpoint=False)[None, :]
    dev = np.max(np.abs(analytic_levels(kx, ky, cfg) - numeric_levels(kx, ky, cfg)))
    assert dev < 1e-10


def test_ba_positive_levels_decreasing_in_mode_index():
    cfg = LayeredConfig("ba", 5, 1.3, m=0.4)
    rng = np.random.default_rng(11)
    kx, ky = rng.uniform(-np.pi, np.pi, (2, 50))
    ep = analytic_positive_levels(kx, ky, cfg)
    assert np.all(np.diff(ep, axis=-1) <= 1e-12)


def test_ba_quartic_identity():
    """(E^2 - |h|^2)^2 = 4 t^2 cos^2(theta_r) (E^2 - h3^2) per labeled level."""
    cfg = LayeredConfig("ba", 3, 0.9, m=0.6)
    rng = np.random.default_rng(5)
    c = np.cos(sine_modes(3).theta)
    for _ in range(20):
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        h = monolayer_field(cfg, kx, ky)
        E = numeric_levels(kx, ky, cfg)
        r, _ = level_labels(kx, ky, cfg, E)
        lhs = (E ** 2 - np.sum(h ** 2)) ** 2
        rhs = 4.0 * cfg.t ** 2 * c[r - 1] ** 2 * (E ** 2 - h[2] ** 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_analytic_spectrum_triples():
    cfg = LayeredConfig("abba", 2, 0.4)
    ep = analytic_positive_levels(0.3, 0.7, cfg)
    assert ep.shape == (2,)  # one branch per mode r = 1, 2
    assert np.all(ep > 0)
    levels = analytic_levels(0.3, 0.7, cfg)
    assert np.array_equal(levels, -levels[::-1])


def test_degeneracy_groups_absolute_and_relative():
    assert degeneracy_groups([1.0, 2.0, 3.0]) == [[0], [1], [2]]
    assert degeneracy_groups([1.0, 1.0 + 1e-12, 2.0]) == [[0, 1], [2]]
    # tolerance scales with |E|
    assert degeneracy_groups([1e6, 1e6 + 1e-4, 2e6]) == [[0, 1], [2]]


def test_level_labels_match_branches():
    cfg = LayeredConfig("ba", 3, 0.8, m=1.0)
    kx, ky = 0.4, 1.2
    E = numeric_levels(kx, ky, cfg)
    r, s = level_labels(kx, ky, cfg, E)
    ep = analytic_positive_levels(kx, ky, cfg)
    for m_idx in range(6):
        assert abs(E[m_idx] - s[m_idx] * ep[r[m_idx] - 1]) < 1e-8


@pytest.mark.parametrize("stacking", ["abba", "ba"])
def test_eigvec_identities(stacking):
    cfg = LayeredConfig(stacking, 2, 0.4)
    rng = np.random.default_rng(17)
    for _ in range(10):
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        sample = numeric_spectrum(kx, ky, cfg)
        if any(len(g) > 1 for g in sample.groups):
            continue
        res = eigvec_identities(sample, monolayer_field(cfg, kx, ky), stacking)
        assert res["s3"] < 1e-10
        if stacking == "ba":
            assert res["s1"] < 1e-10 and res["s2"] < 1e-10


def test_eigvec_identities_reject_degenerate():
    # t = 0 makes the two abba modes coincide
    cfg = LayeredConfig("abba", 2, 0.0)
    sample = numeric_spectrum(0.5, 0.5, cfg)
    with pytest.raises(DegenerateSpectrumError):
        eigvec_identities(sample, monolayer_field(cfg, 0.5, 0.5), "abba")


@given(kx=st.floats(-np.pi, np.pi), ky=st.floats(-np.pi, np.pi),
       t=st.floats(0, 2), m=st.floats(-3, 3))
@settings(max_examples=30, deadline=None)
def test_spectrum_symmetric_multiset(kx, ky, t, m):
    """The layered spectrum is symmetric around zero for both stackings."""
    for stacking in ("abba", "ba"):
        E = numeric_levels(kx, ky, LayeredConfig(stacking, 3, t, m=m))
        assert np.max(np.abs(np.sort(E) + np.sort(-E)[::-1])) < 1e-9
