import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerquench import (LayeredConfig, UsageError, anticommutator_table, build_layered,
                         coupling_matrix, haldane_field, monolayer_field, qwz_field,
                         sampling_cell)
from layerquench import models
from layerquench.models import (PAULI, hamiltonian_terms, interlayer_alternating, interlayer_chain,
                                structure_matrix)
from layerquench.quench import global_observable, mixed_state, subspace_observable


def test_pauli_algebra():
    for i in range(3):
        assert np.allclose(PAULI[i] @ PAULI[i], np.eye(2))
    assert np.allclose(PAULI[0] @ PAULI[1] - PAULI[1] @ PAULI[0], 2j * PAULI[2])


def test_qwz_field_special_points():
    m = 1.3
    assert np.allclose(qwz_field(0.0, 0.0, m), [0.0, 0.0, m - 2.0])
    assert np.allclose(qwz_field(np.pi, 0.0, m), [0.0, 0.0, m])
    assert np.allclose(qwz_field(np.pi, np.pi, m), [0.0, 0.0, m + 2.0])


def test_qwz_field_broadcast_shape():
    kx = np.linspace(-1, 1, 5)[:, None]
    ky = np.linspace(-1, 1, 7)[None, :]
    assert qwz_field(kx, ky, 0.5).shape == (5, 7, 3)


@pytest.mark.parametrize("model", ["qwz", "haldane"])
def test_field_periodic_under_cell_vectors(model):
    """All three components repeat under both cell basis vectors."""
    cell = sampling_cell(model)
    rng = np.random.default_rng(3)
    k = rng.uniform(-2, 2, (40, 2))
    cfg = LayeredConfig("abba", 1, 0.0, model=model, m=0.7)
    f0 = monolayer_field(cfg, k[:, 0], k[:, 1])
    for b in cell.basis:
        fb = monolayer_field(cfg, k[:, 0] + b[0], k[:, 1] + b[1])
        assert np.max(np.abs(fb - f0)) < 1e-12


def test_cell_fraction_roundtrip():
    cell = sampling_cell("haldane")
    u, v = 0.37, 0.81
    kx, ky = cell.k_at(u, v)
    u2, v2 = cell.fractions(kx, ky)
    assert abs(u2 - u) < 1e-12 and abs(v2 - v) < 1e-12
    kxr, kyr = cell.reduce(kx + 3 * cell.basis[0, 0], ky + 3 * cell.basis[0, 1])
    assert abs(kxr - kx) < 1e-10 and abs(kyr - ky) < 1e-10


def test_sampling_cell_positive_orientation():
    for model in ("qwz", "haldane"):
        assert np.linalg.det(sampling_cell(model).basis) > 0


def test_interlayer_matrices():
    S1 = interlayer_chain(3)
    assert np.allclose(S1, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    S2 = interlayer_alternating(3)
    assert np.allclose(S2, [[0, -1j, 0], [1j, 0, 1j], [0, -1j, 0]])
    assert np.allclose(S2, S2.conj().T)


def test_config_validation():
    with pytest.raises(UsageError):
        LayeredConfig("ab", 2, 0.4)
    with pytest.raises(UsageError):
        LayeredConfig("abba", 0, 0.4)
    with pytest.raises(UsageError):
        LayeredConfig("abba", 2, np.nan)
    with pytest.raises(UsageError):
        LayeredConfig("abba", 2, 0.4, model="kitaev")


@given(kx=st.floats(-np.pi, np.pi), ky=st.floats(-np.pi, np.pi),
       t=st.floats(0, 2), m=st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_build_layered_hermitian(kx, ky, t, m):
    for stacking in ("abba", "ba"):
        H = build_layered(kx, ky, LayeredConfig(stacking, 3, t, m=m))
        assert H.shape == (6, 6)
        assert np.max(np.abs(H - H.conj().T)) < 1e-13


def test_monolayer_limit_both_stackings():
    """For N = 1 the coupling terms drop and both stackings give h . sigma."""
    kx, ky = 0.3, -1.1
    h = qwz_field(kx, ky, 1.0)
    expected = sum(h[i] * PAULI[i] for i in range(3))
    for stacking in ("abba", "ba"):
        H = build_layered(kx, ky, LayeredConfig(stacking, 1, 0.9))
        assert np.max(np.abs(H - expected)) < 1e-14


def test_coupling_matrix_bilayer():
    C = coupling_matrix(LayeredConfig("abba", 2, 0.5))
    expected = 0.5 * np.kron([[0, 1], [1, 0]], PAULI[0])
    assert np.allclose(C, expected)
    C = coupling_matrix(LayeredConfig("ba", 2, 0.5))
    expected = 0.25 * (np.kron([[0, 1], [1, 0]], PAULI[0])
                       + np.kron([[0, -1j], [1j, 0]], PAULI[1]))
    assert np.allclose(C, expected)


@pytest.mark.parametrize("N", [1, 2, 5])
def test_structure_matrices_are_built_once_and_keep_their_bits(N):
    fresh = {("1", i): np.kron(np.eye(N), PAULI[i]) for i in range(3)}
    fresh["Sig1", 0] = np.kron(interlayer_chain(N), PAULI[0])
    fresh["Sig2", 1] = np.kron(interlayer_alternating(N), PAULI[1])
    for (factor, i), M in fresh.items():
        cached = structure_matrix(factor, N, i)
        assert cached is structure_matrix(factor, N, i)
        assert cached.tobytes() == M.tobytes()
    for t in (0.4, -1.3):
        for stacking in ("abba", "ba"):
            C = coupling_matrix(LayeredConfig(stacking, N, t))
            want = t * fresh["Sig1", 0] if stacking == "abba" else \
                0.5 * t * (fresh["Sig1", 0] + fresh["Sig2", 1])
            assert C.tobytes() == want.tobytes()


def test_cached_matrices_cannot_be_written_in_place():
    cached = [structure_matrix("Sig1", 3, 0), global_observable(3, 2), mixed_state(3, 3),
              subspace_observable(3, 2, 1)] + [M for _, M in hamiltonian_terms(
                  LayeredConfig("ba", 3, 0.4))]
    for M in cached:
        before = M.copy()
        with pytest.raises(ValueError, match="read-only"):
            M[0, 1] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            M *= 2.0
        assert np.array_equal(M, before)
    # a product is a fresh array, which the caller owns
    C = coupling_matrix(LayeredConfig("abba", 3, 0.4))
    C[0, 1] = 7.0
    assert coupling_matrix(LayeredConfig("abba", 3, 0.4))[0, 1] != 7.0


def test_anticommutator_table_bilayer():
    """Monolayer terms pairwise anticommute; an interlayer term anticommutes
    with the monolayer terms carrying a different Pauli, and the two
    interlayer terms of the Bernal stacking fail to anticommute with each
    other (which is why its spectrum does not split into 2x2 blocks)."""
    table = anticommutator_table(LayeredConfig("ba", 2, 0.4))
    assert table[("1.s1", "1.s2")] == 0.0
    assert table[("1.s1", "1.s3")] == 0.0
    assert table[("1.s2", "1.s3")] == 0.0
    assert table[("1.s1", "Sig2.s2")] == 0.0
    assert table[("1.s2", "Sig1.s1")] == 0.0
    assert table[("1.s3", "Sig1.s1")] == 0.0
    assert table[("1.s3", "Sig2.s2")] == 0.0
    # same-Pauli pairs square-combine instead: {1 (x) s1, Sig1 (x) s1} = 2 Sig1 (x) 1
    assert table[("1.s1", "Sig1.s1")] > 1.0
    assert table[("1.s2", "Sig2.s2")] > 1.0
    assert table[("Sig1.s1", "Sig2.s2")] > 1.0


def test_anticommutator_table_abba_has_nonzero_diagonal_pair():
    table = anticommutator_table(LayeredConfig("abba", 2, 0.4))
    # {1 (x) s1, Sigma1 (x) s1} = 2 Sigma1 (x) 1 does not vanish
    assert table[("1.s1", "Sig1.s1")] > 1.0
    assert table[("1.s2", "Sig1.s1")] == 0.0
    assert table[("1.s3", "Sig1.s1")] == 0.0


def _no_field(*args):
    raise AssertionError("build_layered went past its memory check")


def test_build_layered_bound_is_checked_before_allocating(monkeypatch):
    # zero-stride momenta cost nothing; the field is never evaluated, so
    # no (256, 256, 100, 100) stack is ever requested
    monkeypatch.setattr(models, "monolayer_field", _no_field)
    k = np.broadcast_to(0.0, (256, 256))
    with pytest.raises(UsageError, match=r"10\.5 GB"):
        build_layered(k, k, LayeredConfig("abba", 50, 0.4))


def test_build_layered_bound_counts_the_broadcast_shape(monkeypatch):
    monkeypatch.setattr(models, "monolayer_field", _no_field)
    kx = np.broadcast_to(0.0, (4096, 1))
    ky = np.broadcast_to(0.0, (1, 4096))
    # 4096 x 4096 momenta x 4 x 4 x 16 bytes = 4.3 GB for a bilayer
    with pytest.raises(UsageError, match=r"4\.3 GB"):
        build_layered(kx, ky, LayeredConfig("ba", 2, 0.4))
