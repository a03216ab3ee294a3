"""Initial states, exact infinite-time averages, and the closed-form
time-averaged spin polarization (TASP) of both stackings.

All closed forms below assume the postquench Hamiltonian of
models.build_layered and an initial state polarized along -j, i.e. the
mixed state (1/N) (x) (1 - s_j)/2 prepared by a deep quench along axis j.
"""

from functools import lru_cache

import numpy as np

from .errors import SingularPointError, UnsupportedStackingError, UsageError
from .models import PAULI, build_layered, monolayer_components, monolayer_field, structure_matrix
from .spectra import _level_part, degeneracy_groups, sine_lam, sine_modes

# squared eigenvalues below this are treated as an exact gap closing
SINGULAR_E2 = 1e-20


def _require_gap(e2, cfg):
    """Raise SingularPointError if a squared level in e2 (levels on the last axis) vanishes."""
    if np.any(e2 < SINGULAR_E2):
        idx = np.unravel_index(int(np.argmin(e2)), e2.shape)
        at = tuple(int(i) for i in idx[:-1])
        raise SingularPointError(f"gap closes (E=0) for {cfg} at sample index {at}")


@lru_cache(maxsize=16)
def mixed_state(N, j):
    """Fully layer-mixed, spin-polarized density matrix (1/N) (x) (1 - s_j)/2,
    read-only and built once per (N, j)."""
    rho = np.kron(np.eye(N) / N, 0.5 * (np.eye(2) - PAULI[j - 1]))
    rho.flags.writeable = False
    return rho


def pure_state(c, j):
    """Rank-1 product state |c> (x) |chi> with chi the -1 eigenvector of s_j.

    c is a complex layer amplitude vector; it is normalized here.
    """
    c = np.asarray(c, dtype=complex)
    c = c / np.linalg.norm(c)
    psi = np.kron(c, np.linalg.eigh(PAULI[j - 1])[1][:, 0])
    return np.outer(psi, psi.conj())


def global_observable(N, i):
    """1 (x) s_i acting identically on every layer (read-only)."""
    return structure_matrix("1", N, i - 1)


@lru_cache(maxsize=16)
def subspace_observable(N, r, i):
    """Mode-resolved observable N * a_r a_r^T (x) s_i of the abba stacking.

    The factor N compensates the 1/N layer weight of the mixed initial
    state, so the time average of this observable equals the closed-form
    per-mode polarization -h_r^i h_r^j / E_r^2.  For N = 2 it coincides
    with (1 +- s1) (x) s_i.  Read-only and built once per (N, r, i).
    """
    a = sine_modes(N).vectors[r - 1]
    O = N * np.kron(np.outer(a, a), PAULI[i - 1])
    O.flags.writeable = False
    return O


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


def _masked_sum(num, den, bad):
    """2 sum_r num / den over the last axis, each term 0 where bad; den is overwritten."""
    np.copyto(den, 1.0, where=bad)
    np.divide(num, den, out=den)
    np.copyto(den, 0.0, where=bad)
    return 2.0 * den.sum(axis=-1)


def _ba_column(h, cfg, j):
    """Column j of the vectorized A matrix at field components h = (h1, h2, h3); (3, ...).

    Sums run over the N positive-branch squared eigenvalues e2 (the
    spectrum is symmetric, so sums over all 2N states carry a factor 2).
    With G = e2 - h3^2 + h1^2 + h2^2:
        A_ab = (2/N) * 2 sum_r (e2 - h3^2)^2 / (e2 G^2)   (a, b in {1,2})
        A_a3 = (1/N) * 2 sum_r (e2 - h3^2) / (e2 G)
        A_33 = (1/2N) * 2 sum_r 1 / e2
    A is symmetric, and column j takes two of the three sums.  Terms with
    G = 0 (in-plane field and shifted mode simultaneously zero) are
    removable 0/0 limits multiplied by h1 = h2 = 0 in every polarization;
    they are zeroed rather than propagated as NaN.  The (..., N) arrays are
    updated in place, so at most three of them are alive at once.
    """
    N = cfg.layers
    hx, hy, hz = (c[..., None] for c in h)
    hz2 = hz ** 2
    e2 = _level_part(False, hx, hy, cfg.t * sine_lam(N)) + hz2
    _require_gap(e2, cfg)
    col = np.empty((3,) + hz.shape[:-1])
    if j == 3:
        col[2] = (0.5 / N) * (2.0 * (1.0 / e2).sum(axis=-1))
    G = e2 - hz2
    G += hx ** 2
    G += hy ** 2
    bad = G > 1e-30
    np.logical_not(bad, out=bad)
    if j == 3:
        G *= e2
        e2 -= hz2
        col[0] = col[1] = (1.0 / N) * _masked_sum(e2, G, bad)
        return col
    den = e2 * G
    G *= G
    G *= e2
    e2 -= hz2
    col[2] = (1.0 / N) * _masked_sum(e2, den, bad)
    e2 *= e2
    col[0] = col[1] = (2.0 / N) * _masked_sum(e2, G, bad)
    return col


def tasp_closed_form(kx, ky, cfg, j, component=None):
    """Closed-form TASP vector for the mixed initial state along axis j.

    abba: TASP_i = -(1/N) sum_r h_r^i h_r^j / E_r^2 over the sine modes,
          the mode mean of gtasp_abba.
    ba:   TASP_i = -h_i h_j A_ij (no summation) with the A matrix above.
    Broadcasts over momentum arrays; shape (..., 3), or (...) for the
    one component (1-based) given.
    Raises SingularPointError at gap-closing momenta.
    """
    return tasp_of_field(monolayer_components(cfg, kx, ky), cfg, j, component)


def _abba_modes(h, cfg, j, r, component=None):
    """Yield (mode index, products, E_r^2) of the abba modes r (all modes
    for None) at h = (h1, h2, h3), one mode and one component at a time;
    products holds h_r^i h_r^j for i = 1..3, or for i = component alone.

    h_r = (h1 + t lam_r, h2, h3) and E_r^2 = (h1r^2 + h2^2) + h3^2, in the
    order of the length-3 sum it replaces.  The levels of every mode are
    gap-checked (_require_gap) before the mode is yielded, also those of
    the modes that are not yielded.  The yielded arrays are reused for the
    next mode.
    """
    h1, h2, h3 = h
    sq2, sq3 = h2 * h2, h3 * h3
    hj = (None, h2, h3)[j - 1]
    comps = range(3) if component is None else (component - 1,)
    # the products without h1r are the same for every mode
    fixed = {}
    if j != 1 and 1 in comps:
        fixed[1] = sq2 if j == 2 else h2 * h3
    if j != 1 and 2 in comps:
        fixed[2] = h3 * h2 if j == 2 else sq3
    h1r, sq1, e2, p1, p2 = (np.empty_like(h1) for _ in range(5))
    low = np.empty(h1.shape, dtype=bool)
    tlam = cfg.t * sine_lam(cfg.layers)

    def product(i):
        if i == 0:
            return sq1 if j == 1 else np.multiply(h1r, hj, out=p1)
        if j == 1:
            return np.multiply((h2, h3)[i - 1], h1r, out=(p1, p2)[i - 1])
        return fixed[i]

    for k, shift in enumerate(tlam):
        np.add(h1, shift, out=h1r)
        np.multiply(h1r, h1r, out=sq1)
        np.add(sq1, sq2, out=e2)
        e2 += sq3
        if np.less(e2, SINGULAR_E2, out=low).any():
            # the levels of all modes, for the index _require_gap reports
            _require_gap(np.stack([((h1 + s) ** 2 + sq2) + sq3 for s in tlam], axis=-1), cfg)
        if r is not None and k != r - 1:
            continue
        yield k, tuple(product(i) for i in comps), e2


def tasp_of_field(h, cfg, j, component=None):
    """tasp_closed_form at monolayer field components h = (h1, h2, h3):
    (..., 3), or (...) for the one component (1-based) given, bit for bit.

    The abba mode sum adds h_r^i h_r^j / E_r^2 in mode order from +0.0,
    negated after the sum, which keeps the sign of zeros.
    """
    if cfg.stacking != "abba":
        col = _ba_column(h, cfg, j)
        if component is not None:
            return -h[component - 1] * h[j - 1] * col[component - 1]
        return np.stack([-h[c] * h[j - 1] * col[c] for c in range(3)], axis=-1)
    shape = np.shape(h[0])
    n = 3 if component is None else 1
    acc = np.zeros((n,) + shape)
    term = np.empty(shape)
    for _, prods, e2 in _abba_modes(h, cfg, j, None, component):
        for i in range(n):
            acc[i] += np.divide(prods[i], e2, out=term)
    out = np.empty(shape + (n,))
    for i in range(n):
        out[..., i] = -acc[i] / cfg.layers
    return out if component is None else out[..., 0]


def gtasp_abba(kx, ky, cfg, j, r=None, component=None):
    """Per-mode polarization -h_r^i h_r^j / E_r^2 of the abba stacking.

    This is the time average of subspace_observable(N, r, i) in the
    mixed initial state.  With r=None all modes are returned, shape
    (..., N, 3); the mode sum equals N times tasp_closed_form.  With
    component (1-based) only that component is computed, without the
    last axis.
    """
    return gtasp_of_field(monolayer_components(cfg, kx, ky), cfg, j, r, component)


def gtasp_of_field(h, cfg, j, r=None, component=None):
    """gtasp_abba at monolayer field components h = (h1, h2, h3); mode r
    and component alone are computed when given, bit for bit, but every
    mode's gap is checked."""
    if cfg.stacking != "abba":
        raise UnsupportedStackingError("subsystem fields require the abba stacking")
    if r is not None and not 1 <= r <= cfg.layers:
        raise UsageError(f"subspace mode index {r} is outside 1..{cfg.layers}")
    shape = np.shape(h[0]) + (() if r is not None else (cfg.layers,))
    out = np.empty(shape + (3 if component is None else 1,))
    for k, prods, e2 in _abba_modes(h, cfg, j, r, component):
        at = out if r is not None else out[..., k, :]
        for i, p in enumerate(prods):
            at[..., i] = -(p / e2)
    return out if component is None else out[..., 0]


def singular_mask(kx, ky, cfg):
    """True where some eigenvalue vanishes (closed forms undefined)."""
    return singular_field_mask(monolayer_components(cfg, kx, ky), cfg)


def singular_field_mask(h, cfg):
    """singular_mask at monolayer field components h = (h1, h2, h3).

    The squared levels E_r^2 = p_r + h3^2 are taken with the modes on a
    leading axis, where their min is cheap.  sqrt and the square are
    monotone and correctly rounded, so they commute with the min: the
    test is min_r E_r^2 < SINGULAR_E2 on the squared positive levels
    (spectra.positive_levels), bit for bit.
    """
    h1, h2, h3 = h
    lam = sine_lam(cfg.layers).reshape((-1,) + (1,) * np.ndim(h1))
    e2 = np.min(_level_part(cfg.stacking == "abba", h1, h2, cfg.t * lam) + h3 ** 2, axis=0)
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
        O = structure_matrix("1", N, i)
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
