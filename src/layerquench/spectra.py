"""Analytic spectra, numeric eigendecomposition with degeneracy grouping,
and the sine-mode block diagonalization of the abba stacking.

The one home of the sine-mode decomposition: the modes a_r of the chain
coupling Sigma1, their eigenvalues lam_r (SineModes.lam) and the levels
E_r^2 = p_r + h3^2 of both stackings (_level_part)."""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, NonConvergenceError, UnsupportedStackingError
from .models import PAULI, build_layered, monolayer_components, monolayer_field, require_size

DEG_TOL_DEFAULT = 1e-9


@dataclass(frozen=True)
class SineModes:
    """Orthonormal eigenvectors a_r of the chain coupling Sigma1.

    theta[r-1] = r*pi/(N+1); vectors[r-1] has components
    sqrt(2/(N+1)) * sin(n*theta_r) for n = 1..N, and
    Sigma1 a_r = lam_r a_r.
    """

    N: int
    theta: np.ndarray
    vectors: np.ndarray  # rows are the a_r

    @property
    def lam(self):
        """Eigenvalues lam_r = 2 cos(theta_r) of Sigma1."""
        return _eigenvalues(self.theta)


def _angles(N):
    """theta_r = r pi / (N + 1), r = 1..N."""
    return np.arange(1, N + 1) * np.pi / (N + 1)


def _eigenvalues(theta):
    return 2.0 * np.cos(theta)


def _require_modes(N):
    """Raise UsageError when the N x N sine-mode vectors would exceed
    LAYERED_BYTES_MAX: the layer bound of every stack, whether a caller
    builds the vectors or reads only the lam_r (its per-mode arrays and
    loops grow with N all the same)."""
    require_size(8.0 * N * N, f"{int(N)} x {int(N)} sine-mode vectors", "use fewer layers")


def sine_lam(N):
    """The Sigma1 eigenvalues lam_r = 2 cos(theta_r) of an N-layer chain,
    SineModes.lam bit for bit, from N cosines without the N x N vectors.
    Bounded in N like sine_modes."""
    _require_modes(N)
    return _eigenvalues(_angles(N))


def sine_modes(N):
    """The sine modes of an N-layer chain; raises UsageError, before
    allocating, when the N x N vectors would exceed LAYERED_BYTES_MAX."""
    _require_modes(N)
    theta = _angles(N)
    vectors = np.sqrt(2.0 / (N + 1)) * np.sin(np.outer(theta, np.arange(1, N + 1)))
    return SineModes(N=N, theta=theta, vectors=vectors)


def subsystem_fields(kx, ky, cfg):
    """Per-mode fields h_r = (h1 + t lam_r, h2, h3) of the abba stacking.

    Returns shape (..., N, 3).  For N = 2 the two first components are
    h1 + t and h1 - t.  Only defined for the abba stacking, whose
    Hamiltonian splits into the 2x2 blocks h_r . sigma.
    """
    if cfg.stacking != "abba":
        raise UnsupportedStackingError("subsystem fields require the abba stacking")
    h = monolayer_field(cfg, kx, ky)
    out = np.repeat(h[..., None, :], cfg.layers, axis=-2)
    out[..., 0] = out[..., 0] + cfg.t * sine_lam(cfg.layers)
    return out


def abba_transform(N):
    """Orthogonal S = A (x) 1 with rows of A the sine modes; S H S^T is block diagonal."""
    return np.kron(sine_modes(N).vectors, np.eye(2))


def _level_part(abba, h1, h2, tlam):
    """The h3-free part p_r of E_r^2 = p_r + h3^2; tlam is t lam_r on the caller's mode axis.

    abba: p_r = (h1 + t lam_r)^2 + h2^2; ba: p_r = (sqrt(h1^2 + h2^2 + c^2) + c)^2,
    c = t lam_r / 2 = t cos theta_r.
    """
    if abba:
        return (h1 + tlam) ** 2 + h2 ** 2
    tc = tlam / 2.0
    return (np.sqrt(h1 ** 2 + h2 ** 2 + tc ** 2) + tc) ** 2


def positive_levels(h, cfg):
    """Positive branches E_r (..., N) at monolayer field components h = (h1, h2, h3)."""
    h1, h2, h3 = (c[..., None] for c in h)
    p = _level_part(cfg.stacking == "abba", h1, h2, cfg.t * sine_lam(cfg.layers))
    return np.sqrt(p + h3 ** 2)


def analytic_positive_levels(kx, ky, cfg):
    """Positive branches E_r ordered by mode index r = 1..N; shape (..., N).

    E_r^2 = p_r + h3^2 (_level_part); for abba E_r = |h_r|.  The full
    spectrum is the symmetric set {+-E_r}.
    """
    return positive_levels(monolayer_components(cfg, kx, ky), cfg)


def analytic_levels(kx, ky, cfg):
    """All 2N analytic eigenvalues sorted ascending; shape (..., 2N)."""
    ep = analytic_positive_levels(kx, ky, cfg)
    return np.sort(np.concatenate([-ep, ep], axis=-1), axis=-1)


def degeneracy_groups(energies):
    """Partition sorted eigenvalues into groups with |E_i - E_j| <= DEG_TOL_DEFAULT*max(1,|E|)."""
    groups = []
    i = 0
    n = len(energies)
    while i < n:
        j = i + 1
        while j < n and (abs(energies[j] - energies[j - 1])
                         <= DEG_TOL_DEFAULT * max(1.0, abs(energies[i]))):
            j += 1
        groups.append(list(range(i, j)))
        i = j
    return groups


@dataclass
class SpectrumSample:
    """Numeric eigendecomposition at one momentum with degeneracy grouping."""

    k: tuple
    cfg: object
    energies: np.ndarray
    states: np.ndarray  # orthonormal columns
    groups: list


def numeric_spectrum(kx, ky, cfg):
    H = build_layered(kx, ky, cfg)
    try:
        E, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(
            f"eigensolver failed at k=({kx}, {ky}) for {cfg}") from exc
    return SpectrumSample(k=(float(kx), float(ky)), cfg=cfg, energies=E, states=V,
                          groups=degeneracy_groups(E))


def numeric_levels(kx, ky, cfg):
    """Eigenvalues only, batched over momentum arrays; shape (..., 2N)."""
    return np.linalg.eigvalsh(build_layered(kx, ky, cfg))


def level_labels(kx, ky, cfg, energies):
    """Match numeric eigenvalues to analytic branches.

    Returns (r, sign) integer arrays: energies[m] ~ sign[m] * E_{r[m]}.
    Branches within 1e-8 of the closest tie; ties are broken toward the smaller r.
    """
    ep = np.atleast_1d(analytic_positive_levels(kx, ky, cfg))
    cand = np.concatenate([ep, -ep])  # index r-1 -> +E_r, N + r-1 -> -E_r
    r_out = np.empty(len(energies), dtype=int)
    s_out = np.empty(len(energies), dtype=int)
    for m, E in enumerate(energies):
        d = np.abs(cand - E)
        best = np.flatnonzero(d <= d.min() + 1e-8)[0]
        r_out[m] = best % cfg.layers + 1
        s_out[m] = 1 if best < cfg.layers else -1
    return r_out, s_out


def eigvec_identities(sample, h, stacking):
    """Residuals of closed-form eigenvector expectations.

    For every eigenvector: <1 (x) s3> = h3/E (both stackings).  For the
    ba stacking additionally, with G = E^2 - h3^2 + h1^2 + h2^2:
    <1 (x) s_a> = 2 h_a (E^2 - h3^2) / (E G) for a = 1, 2.
    Requires a fully nondegenerate sample.
    """
    if any(len(g) > 1 for g in sample.groups):
        raise DegenerateSpectrumError(
            f"eigenvector identities undefined on degenerate spectrum at k={sample.k}")
    N = sample.cfg.layers
    E = sample.energies
    V = sample.states
    res = {}
    vals = {}
    for i in range(3):
        O = np.kron(np.eye(N), PAULI[i])
        vals[i] = np.real(np.einsum("am,ab,bm->m", V.conj(), O, V))
    res["s3"] = float(np.max(np.abs(vals[2] - h[2] / E)))
    if stacking == "ba":
        G = E ** 2 - h[2] ** 2 + h[0] ** 2 + h[1] ** 2
        for a, key in ((0, "s1"), (1, "s2")):
            res[key] = float(np.max(np.abs(vals[a] - 2.0 * h[a] * (E ** 2 - h[2] ** 2) / (E * G))))
    return res
