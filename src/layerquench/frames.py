"""Filled-band frames at half filling without an eigensolver.

A layered Bloch Hamiltonian H has the levels +-E_r, r = 1..N, known in
closed form (spectra.analytic_positive_levels), and a link-variable
Chern number needs only an orthonormal frame of the N filled bands.
Two frame sources build it from the levels: the abba stacking splits
into the two-band sine modes, whose lower eigenvectors give the frame in
closed form at any N (sine_mode_frames), and any stacking has the
filled-band projector as a polynomial in H, whose pivoted Cholesky
factor is the frame (projector_frames).  Both go through one residual
bound per node against H itself; the few nodes it cannot certify take
their frame from eigh.
"""

import numpy as np

from .models import PAULI, build_layered, coupling_matrix, monolayer_field
from .spectra import sine_modes

# frames are built and certified in blocks of nodes; one (2N, 2N, nodes)
# array of a block stays near this size
FRAME_BLOCK_BYTES = 1 << 19

# largest certified sine bound of a frame; above it (or where the bound
# fails) the node takes its frame from eigh.  Rounding keeps the bound
# near 1e-15 over the gap, so only nodes within about 1e-4 of a closing
# fall back, and an accepted frame spans the filled bands to within
# sqrt(2) times this in the projector
FRAME_SINE_MAX = 1e-11


def _newton_coefficients(E):
    """Divided differences of f(x) = x^(-1/2) over the nodes x_r = E_r^2, r <= 3.

    Written in the E_r so that no difference of nearly equal values is
    formed: they stay exact where levels coincide.
    """
    e = [E[..., r] for r in range(E.shape[-1])]
    c = [1.0 / e[0]]
    if len(e) > 1:
        c.append(-1.0 / (e[0] * e[1] * (e[0] + e[1])))
    if len(e) > 2:
        c.append((e[0] + e[1] + e[2])
                 / (e[0] * e[1] * e[2] * (e[0] + e[1]) * (e[0] + e[2]) * (e[1] + e[2])))
    return c


def _certified_frames(cfg, kx, ky, E, build):
    """Frames of the N filled bands, each certified against H, eigh where not.

    kx, ky are momentum arrays and E (..., N) the analytic positive
    levels there.  build(apply_h, h, E) returns the frames (2N, N, nodes)
    of one block of nodes from the monolayer field h (3, nodes) and the
    levels E (nodes, N); apply_h(X) is H X for matrix-first X
    (2N, ..., nodes).  Blocks hold FRAME_BLOCK_BYTES of (2N, 2N) matrices.

    Each frame V gets a bound on ||sin Theta||_F, the angles between
    span V and the filled bands (Davis-Kahan): the residual
    ||H V - V A||_F, A = V^H H V, over the separation between the Ritz
    values of A and the empty levels, >= min E_r.  The Ritz values lie
    below -min E_r + s (min E_r + max E_r), where the Ky Fan bound
    s = (tr A + sum_r E_r) / (2 min E_r) >= sum sin^2 Theta.  H is
    coupling_matrix plus the monolayer field, never the frame source's
    own decomposition, so a wrong frame cannot certify itself; nodes
    whose bound exceeds FRAME_SINE_MAX take the eigh frame instead.

    Returns (V, sines): V of shape (2N, N, ...) and the bound of the
    built frame per node (also where it was replaced).
    """
    h = monolayer_field(cfg, kx, ky)
    N = E.shape[-1]
    M = 2 * N
    C = coupling_matrix(cfg)
    shape = E.shape[:-1]
    h = h.reshape(-1, 3)
    E = E.reshape(-1, N)
    V = np.empty((M, N, len(E)), dtype=complex)
    sines = np.empty(len(E))
    per = max(1, FRAME_BLOCK_BYTES // (M * M * 16))
    for k0 in range(0, len(E), per):
        hb = h[k0:k0 + per].T
        Eb = E[k0:k0 + per]
        z = hb[0] - 1j * hb[1]

        def apply_h(X):
            # H X = C X + (1 (x) h.s) X; h.s has rows (h3, z) and (z*, -h3)
            Y = np.tensordot(C, X, axes=(1, 0))
            up, down = X[0::2], X[1::2]
            Y[0::2] += hb[2] * up + z * down
            Y[1::2] += z.conj() * up - hb[2] * down
            return Y

        Vb = V[:, :, k0:k0 + per]
        Vb[...] = build(apply_h, hb, Eb)
        HV = apply_h(Vb)
        A = np.einsum("cak,cbk->abk", Vb.conj(), HV)
        R = HV - np.einsum("cak,abk->cbk", Vb, A)
        low, high = Eb.min(axis=1), Eb.max(axis=1)
        kyfan = np.maximum((A[range(N), range(N)].real.sum(axis=0) + Eb.sum(axis=1))
                           / (2.0 * low), 0.0)
        sep = 2.0 * low - kyfan * (low + high)
        residual = np.sqrt((R.real ** 2 + R.imag ** 2).sum(axis=(0, 1)))
        np.divide(residual, sep, out=sines[k0:k0 + per], where=sep > 0.0)
        sines[k0:k0 + per][~(sep > 0.0)] = np.inf
    V = V.reshape((M, N) + shape)
    sines = sines.reshape(shape)
    bad = ~(sines <= FRAME_SINE_MAX)
    if bad.any():
        U = np.linalg.eigh(build_layered(kx[bad], ky[bad], cfg))[1][..., :N]
        V[:, :, bad] = np.moveaxis(U, 0, -1)
    return V, sines


def sine_mode_frames(cfg, kx, ky, E):
    """Closed-form frames of the N filled abba bands at half filling, any N.

    The abba H is block diagonal in the sine modes a_r (spectra.sine_modes)
    with the two-band blocks h_r . s, h_r = (h1 + 2 t cos theta_r, h2, h3)
    and level E_r = |h_r|, so a_r (x) v_r with v_r the lower eigenvector
    of h_r . s is a filled band.  v_r is taken in the gauge whose norm
    cannot vanish at the node: (h1 - i h2, -(h3 + E_r)) where h3 >= 0,
    (E_r - h3, -(h1 + i h2)) otherwise.  Arguments and result as for
    projector_frames; the frames are certified the same way.
    """
    modes = sine_modes(E.shape[-1])
    shift = 2.0 * cfg.t * np.cos(modes.theta)[:, None]
    a = modes.vectors.T[:, None, :, None]

    def build(apply_h, hb, Eb):
        h1 = hb[0] + shift
        Er = Eb.T
        up = hb[2] >= 0.0
        v = np.stack([np.where(up, h1 - 1j * hb[1], Er - hb[2]),
                      np.where(up, -(hb[2] + Er), -(h1 + 1j * hb[1]))])
        v /= np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0))
        # (layer, spin, mode, node) flattened to the (layer (x) spin) rows
        return (a * v).reshape(2 * len(Er), len(Er), -1)

    return _certified_frames(cfg, kx, ky, E, build)


def projector_frames(cfg, kx, ky, E):
    """Orthonormal frames of the N filled bands at half filling, N <= 3.

    kx, ky are momentum arrays and E (..., N) the analytic positive
    levels there.  H has the levels +-E_r, so P = (1 - H g(H^2)) / 2
    with g the Newton interpolant of 1/E over the E_r^2 is the
    filled-band projector; the N-step pivoted Cholesky factor of P is
    the frame.  Matrices are matrix-first, (2N, 2N, nodes).  Where two
    levels are small together, rounding in H^2 is amplified by the
    interpolant; the residual bound of _certified_frames says so and
    those nodes take the eigh frame.

    Returns (V, sines): V of shape (2N, N, ...) and the bound of the
    projector frame per node (also where it was replaced).
    """
    N = E.shape[-1]
    M = 2 * N
    T = np.kron(np.eye(N), PAULI)
    C = coupling_matrix(cfg)
    # the T_i anticommute and square to 1, so H^2 = |h|^2 + sum_i h_i {T_i, C}
    # + C^2 is a combination of constant matrices with coefficients per node
    sq = np.concatenate([np.eye(M)[None], T @ C + C @ T, (C @ C)[None]])
    diag = np.arange(M)

    def build(apply_h, hb, Eb):
        one = np.ones(len(Eb))
        h2 = (hb ** 2).sum(axis=0)

        def shifted(shift, scale):
            # scale * (H^2 - shift)
            return np.tensordot(sq, scale * np.stack([h2 - shift, *hb, one]), axes=(0, 0))

        # Horner over the Newton form g = c_0 + (H^2 - E_1^2)(c_1 + (H^2 - E_2^2) c_2):
        # g <- (H^2 - E_r^2) g + c_r from g = c_{N-1}; while g is still a
        # multiple of 1, the product is read off sq
        c = _newton_coefficients(Eb)
        g = np.zeros((M, M, len(Eb)), dtype=complex)
        g[diag, diag] = c[-1]
        for r in range(N - 2, -1, -1):
            if r == N - 2:
                g = shifted(Eb[:, r] ** 2, c[r + 1])
            else:
                g = apply_h(apply_h(g)) - Eb[:, r] ** 2 * g
            g[diag, diag] += c[r]
        P = -0.5 * apply_h(g)
        P[diag, diag] += 0.5
        # pivoted Cholesky, left-looking: after s steps the residual is
        # P - sum_j v_j v_j^H, of which only the diagonal (the pivot
        # choice) and the pivot column are needed.  For an exact
        # projector the pivot column orthogonalized against the v_j and
        # normalized is the Cholesky column; taken that way, the frame
        # stays orthonormal to rounding where P is only near idempotent.
        d = P[diag, diag].real
        Vb = np.empty((M, N, len(Eb)), dtype=complex)
        node = np.arange(len(Eb))
        for s in range(N):
            v = P[:, d.argmax(axis=0), node]
            for j in range(s):
                v -= Vb[:, j] * (Vb[:, j].conj() * v).sum(axis=0)
            w = v.real ** 2 + v.imag ** 2
            v /= np.sqrt(w.sum(axis=0))
            Vb[:, s] = v
            d -= w / w.sum(axis=0)
        return Vb

    return _certified_frames(cfg, kx, ky, E, build)
