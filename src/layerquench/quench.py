"""Initial states, exact infinite-time averages, and the closed-form
time-averaged spin polarization (TASP) of both stackings.

All closed forms below assume the postquench Hamiltonian of
models.build_layered and an initial state polarized along -j, i.e. the
mixed state (1/N) (x) (1 - s_j)/2 prepared by a deep quench along axis j.
"""

import numpy as np

from .errors import SingularPointError
from .models import PAULI, build_layered, monolayer_field
from .spectra import _level_part, degeneracy_groups, mode_fields, sine_modes

# squared eigenvalues below this are treated as an exact gap closing
SINGULAR_E2 = 1e-20


def _require_gap(e2, cfg):
    """Raise SingularPointError if a squared level in e2 (levels on the last axis) vanishes."""
    if np.any(e2 < SINGULAR_E2):
        idx = np.unravel_index(int(np.argmin(e2)), e2.shape)
        at = tuple(int(i) for i in idx[:-1])
        raise SingularPointError(f"gap closes (E=0) for {cfg} at sample index {at}")


def mixed_state(N, j):
    """Fully layer-mixed, spin-polarized density matrix (1/N) (x) (1 - s_j)/2."""
    return np.kron(np.eye(N) / N, 0.5 * (np.eye(2) - PAULI[j - 1]))


def pure_state(c, j):
    """Rank-1 product state |c> (x) |chi> with chi the -1 eigenvector of s_j.

    c is a complex layer amplitude vector; it is normalized here.
    """
    c = np.asarray(c, dtype=complex)
    c = c / np.linalg.norm(c)
    psi = np.kron(c, np.linalg.eigh(PAULI[j - 1])[1][:, 0])
    return np.outer(psi, psi.conj())


def global_observable(N, i):
    """1 (x) s_i acting identically on every layer."""
    return np.kron(np.eye(N), PAULI[i - 1])


def subspace_observable(N, r, i):
    """Mode-resolved observable N * a_r a_r^T (x) s_i of the abba stacking.

    The factor N compensates the 1/N layer weight of the mixed initial
    state, so the time average of this observable equals the closed-form
    per-mode polarization -h_r^i h_r^j / E_r^2.  For N = 2 it coincides
    with (1 +- s1) (x) s_i.
    """
    a = sine_modes(N).vectors[r - 1]
    return N * np.kron(np.outer(a, a), PAULI[i - 1])


def time_averaged_expectation(H, rho0, O):
    """Exact infinite-time average sum_E Tr[P_E rho0 P_E O].

    Eigenvalues are grouped into degenerate subspaces first; with all
    groups of size one this reduces to sum_m <m|rho0|m><m|O|m>.  An
    observable commuting with H keeps its initial expectation Tr[rho0 O].
    """
    E, V = np.linalg.eigh(H)
    out = 0.0
    for g in degeneracy_groups(E):
        Vg = V[:, g[0]:g[-1] + 1]
        R = Vg.conj().T @ rho0 @ Vg
        Q = Vg.conj().T @ O @ Vg
        out += np.trace(R @ Q).real
    return float(out)


def time_integrated_expectation(H, rho0, O, T=2000.0, dt=0.01):
    """Finite-time average (1/nt) sum_{n=1..nt} Tr[rho(n dt) O], nt = T/dt.

    Evaluated in the eigenbasis; the discrete time sum of each
    oscillating pair is a geometric series and is summed in closed form,
    so the result is identical to stepping through all nt times.
    """
    E, V = np.linalg.eigh(H)
    rho_e = V.conj().T @ rho0 @ V
    O_e = V.conj().T @ O @ V
    om = E[None, :] - E[:, None]  # coefficient of e^{i om t} for rho_mn O_nm
    coef = rho_e * O_e.T
    nt = int(round(T / dt))
    q = np.exp(1j * om * dt)
    qT = np.exp(1j * om * (nt * dt))
    den = q - 1.0
    safe = np.abs(den) > 1e-14
    mean_ph = np.ones_like(q)
    mean_ph[safe] = q[safe] * (qT[safe] - 1.0) / (nt * den[safe])
    return float(np.sum(coef * mean_ph).real)


def _ba_matrix(h, cfg):
    """Vectorized A matrix; h has shape (..., 3), result (..., 3, 3).

    Sums run over the N positive-branch squared eigenvalues e2 (the
    spectrum is symmetric, so sums over all 2N states carry a factor 2).
    With G = e2 - h3^2 + h1^2 + h2^2:
        A_ab = (2/N) * 2 sum_r (e2 - h3^2)^2 / (e2 G^2)   (a, b in {1,2})
        A_a3 = (1/N) * 2 sum_r (e2 - h3^2) / (e2 G)
        A_33 = (1/2N) * 2 sum_r 1 / e2
    Terms with G = 0 (in-plane field and shifted mode simultaneously
    zero) are removable 0/0 limits multiplied by h1 = h2 = 0 in every
    polarization; they are zeroed rather than propagated as NaN.
    """
    N = cfg.layers
    hx, hy, hz = h[..., 0, None], h[..., 1, None], h[..., 2, None]
    e2 = _level_part(False, hx, hy, cfg.t * sine_modes(N).lam) + hz ** 2
    _require_gap(e2, cfg)
    perp = e2 - hz ** 2
    G = perp + hx ** 2 + hy ** 2
    ok = G > 1e-30
    t_ab = np.where(ok, perp ** 2 / np.where(ok, e2 * G ** 2, 1.0), 0.0)
    t_a3 = np.where(ok, perp / np.where(ok, e2 * G, 1.0), 0.0)
    s_ab = 2.0 * t_ab.sum(axis=-1)
    s_a3 = 2.0 * t_a3.sum(axis=-1)
    s_33 = 2.0 * (1.0 / e2).sum(axis=-1)
    A = np.empty(h.shape[:-1] + (3, 3))
    A[..., :2, :2] = ((2.0 / N) * s_ab)[..., None, None]
    A[..., 0, 2] = A[..., 1, 2] = A[..., 2, 0] = A[..., 2, 1] = (1.0 / N) * s_a3
    A[..., 2, 2] = (0.5 / N) * s_33
    return A


def tasp_closed_form(kx, ky, cfg, j):
    """Closed-form TASP vector for the mixed initial state along axis j.

    abba: TASP_i = -(1/N) sum_r h_r^i h_r^j / E_r^2 over the sine modes,
          the mode mean of gtasp_abba.
    ba:   TASP_i = -h_i h_j A_ij (no summation) with the A matrix above.
    Broadcasts over momentum arrays; shape (..., 3).
    Raises SingularPointError at gap-closing momenta.
    """
    return tasp_of_field(monolayer_field(cfg, kx, ky), cfg, j)


def tasp_of_field(h, cfg, j):
    """tasp_closed_form at monolayer field values h (..., 3)."""
    if cfg.stacking == "abba":
        # negated after the sum, which keeps the sign of zeros (-0.0 terms sum to +0.0)
        return -np.sum(-gtasp_of_field(h, cfg, j), axis=-2) / cfg.layers
    return -h * h[..., j - 1, None] * _ba_matrix(h, cfg)[..., j - 1]


def gtasp_abba(kx, ky, cfg, j, r=None):
    """Per-mode polarization -h_r^i h_r^j / E_r^2 of the abba stacking.

    This is the time average of subspace_observable(N, r, i) in the
    mixed initial state.  With r=None all modes are returned, shape
    (..., N, 3); the mode sum equals N times tasp_closed_form.
    """
    return gtasp_of_field(monolayer_field(cfg, kx, ky), cfg, j, r)


def gtasp_of_field(h, cfg, j, r=None):
    """gtasp_abba at monolayer field values h (..., 3)."""
    hr = mode_fields(h, cfg)
    e2 = np.sum(hr ** 2, axis=-1)
    _require_gap(e2, cfg)
    out = -hr * hr[..., j - 1, None] / e2[..., None]
    return out if r is None else out[..., r - 1, :]


def singular_mask(kx, ky, cfg):
    """True where some eigenvalue vanishes (closed forms undefined)."""
    return singular_field_mask(monolayer_field(cfg, kx, ky), cfg)


def singular_field_mask(h, cfg):
    """singular_mask at monolayer field values h (..., 3).

    The squared levels E_r^2 = p_r + h3^2 are taken with the modes on a
    leading axis, where their min is cheap.  sqrt and the square are
    monotone and correctly rounded, so they commute with the min: the
    test is min_r E_r^2 < SINGULAR_E2 on the squared positive levels
    (spectra.positive_levels), bit for bit.
    """
    h = np.asarray(h)
    lam = sine_modes(cfg.layers).lam.reshape((-1,) + (1,) * (h.ndim - 1))
    e2 = np.min(_level_part(cfg.stacking == "abba", h[..., 0], h[..., 1], cfg.t * lam)
                + h[..., 2] ** 2, axis=0)
    return np.sqrt(e2) ** 2 < SINGULAR_E2


def polarization_profile(H, N):
    """State-independent factor Phi_i = sum_m <m|1 (x) s_i|m> / (2 N E_m).

    For the mixed axis-3 state every TASP component equals -h3 * Phi_i,
    which is the closed-form origin of the common band-inversion set.
    """
    E, V = np.linalg.eigh(H)
    if np.min(np.abs(E)) < 1e-12:
        raise SingularPointError("profile undefined at a gap closing (E=0)")
    out = np.empty(3)
    for i in range(3):
        O = np.kron(np.eye(N), PAULI[i])
        M = np.real(np.einsum("am,ab,bm->m", V.conj(), O, V))
        out[i] = np.sum(M / (2.0 * N * E))
    return out


def pure_state_check(kline, cfg, rho0):
    """Best-fit proportionality of the exact time average to -h3 along a k-line.

    For each momentum on the line the exact infinite-time average T_i of
    1 (x) s_i is computed for rho0 and compared against lambda_i * P_i
    with P_i = -h3 * polarization_profile; lambda_i is the per-component
    least-squares scale.  The mixed axis-3 state fits exactly (residual
    at rounding level); a generic pure product state does not.

    Returns a dict with the max-abs residual, the fitted scales and the
    sample count.
    """
    kline = np.asarray(kline, dtype=float)
    n = len(kline)
    N = cfg.layers
    T = np.empty((n, 3))
    P = np.empty((n, 3))
    for s, (kx, ky) in enumerate(kline):
        H = build_layered(kx, ky, cfg)
        h3 = monolayer_field(cfg, kx, ky)[2]
        P[s] = -h3 * polarization_profile(H, N)
        for i in range(1, 4):
            T[s, i - 1] = time_averaged_expectation(H, rho0, global_observable(N, i))
    scales = np.zeros(3)
    residual = 0.0
    for i in range(3):
        den = float(P[:, i] @ P[:, i])
        scales[i] = float(T[:, i] @ P[:, i]) / den if den > 1e-30 else 0.0
        residual = max(residual, float(np.max(np.abs(T[:, i] - scales[i] * P[:, i]))))
    return {"residual": residual, "scales": scales, "n_samples": n}
