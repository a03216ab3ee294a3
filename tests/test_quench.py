import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from layerquench import (PAULI, LayeredConfig, SingularPointError, UsageError, build_layered,
                         global_observable, gtasp_abba, mixed_state, monolayer_field,
                         polarization_profile, pure_state, pure_state_check, singular_mask,
                         subspace_observable, tasp_closed_form, time_averaged_expectation,
                         time_integrated_expectation)
from layerquench.quench import _ba_column


def random_k(rng):
    return rng.uniform(-np.pi, np.pi, 2)


def projector_tasp(cfg, kx, ky, j, observable):
    H = build_layered(kx, ky, cfg)
    rho = mixed_state(cfg.layers, j)
    return np.array([time_averaged_expectation(H, rho, observable(cfg.layers, i))
                     for i in (1, 2, 3)])


def test_mixed_state_properties():
    rho = mixed_state(3, 3)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-14
    # polarized along -3
    assert abs(np.trace(rho @ global_observable(3, 3)) + 1.0) < 1e-14


def test_pure_state_properties():
    rho = pure_state([1.0, 2.0, 0.5j], 1)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1
    assert abs(np.trace(rho @ global_observable(3, 1)) + 1.0) < 1e-12


def test_subspace_observable_matches_bilayer_form():
    """For N = 2 the mode observables are (1 +- s1) (x) s_i."""
    for i in (1, 2, 3):
        plus = np.kron(np.eye(2) + PAULI[0], PAULI[i - 1])
        minus = np.kron(np.eye(2) - PAULI[0], PAULI[i - 1])
        assert np.max(np.abs(subspace_observable(2, 1, i) - plus)) < 1e-12
        assert np.max(np.abs(subspace_observable(2, 2, i) - minus)) < 1e-12


def test_time_average_preserves_commuting_observable():
    rng = np.random.default_rng(0)
    cfg = LayeredConfig("ba", 2, 0.4)
    kx, ky = random_k(rng)
    H = build_layered(kx, ky, cfg)
    rho = mixed_state(2, 3)
    exact = float(np.trace(rho @ H).real)
    assert abs(time_averaged_expectation(H, rho, H) - exact) < 1e-12


@pytest.mark.parametrize("stacking,N", [("abba", 1), ("abba", 2), ("abba", 4),
                                        ("ba", 1), ("ba", 2), ("ba", 3)])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_closed_form_vs_projector(stacking, N, j):
    cfg = LayeredConfig(stacking, N, 0.6, m=0.8)
    rng = np.random.default_rng(N + 10 * j)
    for _ in range(4):
        kx, ky = random_k(rng)
        if singular_mask(kx, ky, cfg):
            continue
        closed = tasp_closed_form(kx, ky, cfg, j)
        proj = projector_tasp(cfg, kx, ky, j, global_observable)
        assert np.max(np.abs(closed - proj)) < 1e-10


def test_gtasp_per_mode_vs_projector():
    cfg = LayeredConfig("abba", 3, 0.5)
    rng = np.random.default_rng(8)
    kx, ky = random_k(rng)
    H = build_layered(kx, ky, cfg)
    rho = mixed_state(3, 3)
    for r in (1, 2, 3):
        closed = gtasp_abba(kx, ky, cfg, 3, r)
        proj = np.array([time_averaged_expectation(H, rho, subspace_observable(3, r, i))
                         for i in (1, 2, 3)])
        assert np.max(np.abs(closed - proj)) < 1e-10


def test_gtasp_mode_sum():
    cfg = LayeredConfig("abba", 4, 0.3, m=-0.2)
    kx = np.linspace(-2, 2, 9)
    ky = np.linspace(-1, 1, 9)
    total = gtasp_abba(kx, ky, cfg, 3).sum(axis=-2)
    assert np.max(np.abs(total - 4 * tasp_closed_form(kx, ky, cfg, 3))) < 1e-12


@pytest.mark.parametrize("r", [0, -1, 3])
def test_mode_index_outside_the_stack_is_a_usage_error(r):
    with pytest.raises(UsageError, match="outside 1..2"):
        gtasp_abba(0.3, 0.2, LayeredConfig("abba", 2, 0.4), 3, r)


def test_ba_coefficient_matrix_symmetric():
    cfg = LayeredConfig("ba", 2, 0.9)
    # column j of A, for each j
    A = np.stack([_ba_column(monolayer_field(cfg, 0.7, -0.4), cfg, j) for j in (1, 2, 3)],
                 axis=-1)
    assert np.max(np.abs(A - np.swapaxes(A, -1, -2))) < 1e-14


@pytest.mark.parametrize("t,s1,s3", [
    (0.0, 1 / 2.0, 2 / 2.0),
    (0.4, 1 / 2.16, 2.16 / 2.32),
    (1.0, 1 / 3.0, 3 / 4.0),
    (2.0, 1 / 6.0, 6 / 10.0),
])
def test_bilayer_reference_rationals(t, s1, s3):
    """|TASP_1|(pi/4, 0) = 1/(2+t^2) and |TASP_3|(0, 0) = (2+t^2)/(2+2t^2)."""
    cfg = LayeredConfig("ba", 2, t, m=1.0)
    v1 = tasp_closed_form(np.pi / 4, 0.0, cfg, 3)[0]
    v3 = tasp_closed_form(0.0, 0.0, cfg, 3)[2]
    assert abs(abs(v1) - s1) < 1e-12
    assert abs(abs(v3) - s3) < 1e-12


def test_time_integration_matches_closed_form():
    cfg = LayeredConfig("abba", 2, 0.4)
    rng = np.random.default_rng(21)
    kx, ky = random_k(rng)
    H = build_layered(kx, ky, cfg)
    rho = mixed_state(2, 3)
    closed = tasp_closed_form(kx, ky, cfg, 3)
    for i in (1, 2, 3):
        v = time_integrated_expectation(H, rho, global_observable(2, i), T=2000.0)
        assert abs(v - closed[i - 1]) < 2e-3


def test_time_integration_constant_observable():
    H = build_layered(0.2, 0.3, LayeredConfig("ba", 2, 0.4))
    rho = mixed_state(2, 3)
    assert abs(time_integrated_expectation(H, rho, np.eye(4)) - 1.0) < 1e-12


def test_singular_point_raises():
    # monolayer gap closes at k = (0, 0) for m = 2
    cfg = LayeredConfig("abba", 1, 0.0, m=2.0)
    assert singular_mask(0.0, 0.0, cfg)
    with pytest.raises(SingularPointError):
        tasp_closed_form(0.0, 0.0, cfg, 3)


def test_singular_point_on_transition_curve():
    """t = 0.6, m = 1.8 sits on a mode-2 transition: the subsystem field
    vanishes entirely at (arctan(0.6/0.8), 0)."""
    cfg = LayeredConfig("abba", 2, 0.6, m=1.8)
    kx = np.arctan2(0.6, 0.8)
    with pytest.raises(SingularPointError):
        gtasp_abba(kx, 0.0, cfg, 3, 2)


def test_every_modes_gap_is_checked():
    """Mode 1 alone is computed, but the closing of mode 2 at the same
    momentum raises, with the message of mode 2."""
    cfg = LayeredConfig("abba", 2, 0.6, m=1.8)
    kx = np.arctan2(0.6, 0.8)
    with pytest.raises(SingularPointError) as mode1:
        gtasp_abba(kx, 0.0, cfg, 3, 1)
    with pytest.raises(SingularPointError) as mode2:
        gtasp_abba(kx, 0.0, cfg, 3, 2)
    assert str(mode1.value) == str(mode2.value)
    # on a momentum array the message names the same sample for every mode
    kx = np.array([[0.1, 0.2], [kx, 0.3]])
    messages = set()
    for r in (None, 1, 2):
        with pytest.raises(SingularPointError) as exc:
            gtasp_abba(kx, np.zeros_like(kx), cfg, 3, r)
        messages.add(str(exc.value))
    assert len(messages) == 1 and messages.pop().endswith("at sample index (1, 0)")


@pytest.mark.parametrize("stacking, evaluate", [
    ("abba", lambda kx, ky, cfg: tasp_closed_form(kx, ky, cfg, 3)),
    ("abba", lambda kx, ky, cfg: gtasp_abba(kx, ky, cfg, 3, 1)),
    ("ba", lambda kx, ky, cfg: tasp_closed_form(kx, ky, cfg, 3)),
])
def test_singular_point_message_has_plain_ints(stacking, evaluate):
    # the monolayer gap closes at k = (0, 0) for m = 2 and t = 0
    cfg = LayeredConfig(stacking, 1, 0.0, m=2.0)
    kx = np.array([[0.5, 0.0], [1.0, 0.3]])
    with pytest.raises(SingularPointError) as exc:
        evaluate(kx, np.zeros_like(kx), cfg)
    assert "np." not in str(exc.value)
    assert str(exc.value).endswith("at sample index (0, 1)")


def test_singular_point_message_has_plain_floats():
    # a config built from numpy scalars still prints t and m as plain floats
    cfg = LayeredConfig("abba", 1, np.float64(0.0), m=np.float64(2.0))
    with pytest.raises(SingularPointError) as exc:
        tasp_closed_form(np.zeros(3), np.zeros(3), cfg, 3)
    assert "np." not in str(exc.value)
    assert "t=0.0, model='qwz', m=2.0" in str(exc.value)


def test_profile_lemma_mixed_state():
    """Every mixed axis-3 TASP component is -h3 times a common profile."""
    rng = np.random.default_rng(33)
    for stacking in ("abba", "ba"):
        cfg = LayeredConfig(stacking, 2, 0.4)
        for _ in range(5):
            kx, ky = random_k(rng)
            H = build_layered(kx, ky, cfg)
            h3 = monolayer_field(cfg, kx, ky)[2]
            prof = polarization_profile(H, 2)
            closed = tasp_closed_form(kx, ky, cfg, 3)
            assert np.max(np.abs(closed - (-h3) * prof)) < 1e-12


def test_pure_state_check_discriminates():
    line = np.stack([np.linspace(0.2, 2.2, 21), np.zeros(21)], axis=-1)
    cfg = LayeredConfig("ba", 2, 0.4)
    mixed = pure_state_check(line, cfg, mixed_state(2, 3))
    assert mixed["residual"] < 1e-12
    pure = pure_state_check(line, cfg, pure_state([1.0, 0.0], 3))
    assert pure["residual"] > 0.01


def test_pure_state_check_uniform_product_state_coincides():
    """An equal-weight product state gives every mode weight 1/N and exactly
    reproduces the mixed-state polarization, so it cannot serve as a
    counterexample; the discriminating state lives on the ba stacking."""
    line = np.stack([np.linspace(0.2, 2.2, 21), np.zeros(21)], axis=-1)
    cfg = LayeredConfig("abba", 2, 0.4)
    res = pure_state_check(line, cfg, pure_state([1.0, 0.0], 3))
    assert res["residual"] < 1e-12


@given(kx=st.floats(-np.pi, np.pi), ky=st.floats(-np.pi, np.pi),
       t=st.floats(0, 1.5), m=st.floats(-2.5, 2.5))
@settings(max_examples=30, deadline=None)
def test_tasp_is_a_valid_polarization(kx, ky, t, m):
    cfg = LayeredConfig("ba", 2, t, m=m)
    assume(not singular_mask(kx, ky, cfg))
    v = tasp_closed_form(kx, ky, cfg, 3)
    assert np.all(np.abs(v) <= 1.0 + 1e-12)
