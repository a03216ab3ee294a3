"""Filled-band frames at half filling without an eigensolver.

A layered Bloch Hamiltonian H has the levels +-E_r, r = 1..N, known in
closed form (spectra.analytic_positive_levels), and a link-variable
Chern number needs only an orthonormal frame of the N filled bands.
One frame source builds it for both stackings from the sine modes a_r
(spectra.sine_modes), in which H is block diagonal (sine_mode_frames):
every abba mode is a two-band block with a closed-form lower
eigenvector, and the ba modes pair up, r with N + 1 - r, into ba
bilayer blocks, whose two filled bands come from the bilayer's
filled-band projector.  Every frame goes through one residual bound per
node against H itself; the few nodes it cannot certify take their frame
from eigh.
"""

from functools import cache

import numpy as np

from .models import PAULI, LayeredConfig, build_layered, coupling_matrix, monolayer_field
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


def _apply_h(Y, h, X):
    """Y + (1 (x) h.s) X for matrix-first X (2n, ..., nodes), Y = C X the coupling part."""
    # h.s has rows (h3, z) and (z*, -h3)
    z = h[0] - 1j * h[1]
    up, down = X[0::2], X[1::2]
    Y[0::2] += h[2] * up + z * down
    Y[1::2] += z.conj() * up - h[2] * down
    return Y


def _certified_frames(cfg, kx, ky, E, build):
    """Frames of the N filled bands, each certified against H, eigh where not.

    kx, ky are momentum arrays and E (..., N) the analytic positive
    levels there.  build(h, E, out) writes the frames of one block of
    nodes into out (N, 2, N, nodes), indexed (layer, spin, band, node), from
    the monolayer field h (3, nodes) and the levels E (nodes, N).  Blocks
    hold FRAME_BLOCK_BYTES of (2N, 2N) matrices.

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
    V = np.empty((N, 2, N, len(E)), dtype=complex)
    sines = np.empty(len(E))
    per = max(1, FRAME_BLOCK_BYTES // (M * M * 16))
    for k0 in range(0, len(E), per):
        hb = h[k0:k0 + per].T
        Eb = E[k0:k0 + per]
        build(hb, Eb, V[..., k0:k0 + per])
        Vb = V[..., k0:k0 + per].reshape(M, N, -1)
        HV = _apply_h(np.tensordot(C, Vb, axes=(1, 0)), hb, Vb)
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


@cache
def _bilayer_terms():
    """(C, sq) of the ba bilayer H = t C + sum_i h_i T_i, T_i = 1 (x) s_i.

    C is the coupling at t = 1.  The T_i anticommute and square to 1, so
    H^2 = (|h|^2, t h1, t h2, t h3, t^2) . sq, a combination of constant
    matrices.  Built on first use rather than at import.
    """
    C = coupling_matrix(LayeredConfig("ba", 2, 1.0))
    T = np.kron(np.eye(2), PAULI)
    return C, np.concatenate([np.eye(4)[None], T @ C + C @ T, (C @ C)[None]])


def _bilayer_frames(h, t, E1, E2):
    """Frames (4, 2, nodes) of the two filled bands of the ba bilayer.

    H = t C + 1 (x) h.s (_bilayer_terms); h (3, nodes) is the monolayer
    field, t (nodes,) the coupling and E1, E2 the two positive levels.
    P = (1 - H g(H^2)) / 2 with
    g = 1/E1 - (H^2 - E1^2) / (E1 E2 (E1 + E2)), the Newton interpolant of
    1/E over E1^2, E2^2 (exact where the levels coincide), is the
    filled-band projector; its two-step pivoted Cholesky factor is the
    frame.
    """
    C, sq = _bilayer_terms()
    diag = np.arange(4)
    c = -1.0 / (E1 * E2 * (E1 + E2))
    g = np.tensordot(sq,
                     c * np.stack([(h ** 2).sum(axis=0) - E1 ** 2, *(t * h), t * t]),
                     axes=(0, 0))
    g[diag, diag] += 1.0 / E1
    # -H g / 2, the factor taken into t and h
    P = _apply_h(-0.5 * t * np.tensordot(C, g, axes=(1, 0)), -0.5 * h, g)
    P[diag, diag] += 0.5
    # pivoted Cholesky, left-looking: after s steps the residual is
    # P - sum_j v_j v_j^H, of which only the diagonal (the pivot choice)
    # and the pivot column are needed.  For an exact projector the pivot
    # column orthogonalized against the v_j and normalized is the
    # Cholesky column; taken that way, the frame stays orthonormal to
    # rounding where P is only near idempotent.
    d = P[diag, diag].real
    W = np.empty((4, 2, len(E1)), dtype=complex)
    node = np.arange(len(E1))
    for s in range(2):
        v = P[:, d.argmax(axis=0), node]
        if s:
            v -= W[:, 0] * (W[:, 0].conj() * v).sum(axis=0)
        w = v.real ** 2 + v.imag ** 2
        norm2 = w.sum(axis=0)
        W[:, s] = v / np.sqrt(norm2)
        d -= w / norm2
    return W


def sine_mode_frames(cfg, kx, ky, E):
    """Frames of the N filled bands at half filling, both stackings, any N.

    kx, ky are momentum arrays and E (..., N) the analytic positive
    levels there, E_r of the sine mode a_r (spectra.sine_modes).  In the
    basis a_r (x) 1, H is block diagonal:
    - abba: every mode r is the two-band block h_r . s with
      h_r = (h1 + t lam_r, h2, h3) and level E_r, so a_r (x) v_r
      with v_r its lower eigenvector is a filled band.  v_r is taken in
      the gauge whose norm cannot vanish at the node: (h1 - i h2,
      -(h3 + E_r)) where h3 >= 0, (E_r - h3, -(h1 + i h2)) otherwise;
    - ba: the modes r and N + 1 - r, r <= N / 2, form the ba bilayer at
      coupling t_r = t lam_r with the levels E_r, E_{N+1-r}, in
      the bilayer's own sine basis b, so the bilayer frame W_r
      (_bilayer_frames) mapped by ([a_r, a_{N+1-r}] b) (x) 1 gives two
      filled bands; the middle mode of odd N is the bare monolayer,
      a two-band block as above with h_r = h.
    The frames are certified against the full H (_certified_frames).

    Returns (V, sines): V of shape (2N, N, ...) and the bound of the
    built frame per node (also where it was replaced by eigh).
    """
    N = E.shape[-1]
    modes = sine_modes(N)
    if cfg.stacking == "abba":
        pairs, shift = 0, (cfg.t * modes.lam)[:, None]
    else:
        pairs, shift = N // 2, 0.0
        # Q[r] maps the layers of pair r's bilayer to the N layers
        Q = np.stack([modes.vectors[:pairs], modes.vectors[::-1][:pairs]], axis=-1) \
            @ sine_modes(2).vectors
        tr = cfg.t * modes.lam[:pairs]
    # the pair blocks fill the first 2 pairs columns, the two-band modes the rest
    single = slice(pairs, N - pairs)
    a = modes.vectors[single].T[:, None, :, None]

    def build(hb, Eb, out):
        n = hb.shape[1]
        Er = Eb.T
        if 2 * pairs < N:
            h1, E1 = hb[0] + shift, Er[single]
            up = hb[2] >= 0.0
            v = np.stack([np.where(up, h1 - 1j * hb[1], E1 - hb[2]),
                          np.where(up, -(hb[2] + E1), -(h1 + 1j * hb[1]))])
            v /= np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0))
            out[:, :, 2 * pairs:] = a * v
        if pairs:
            W = _bilayer_frames(np.tile(hb, pairs), np.repeat(tr, n),
                                Er[:pairs].ravel(), Er[::-1][:pairs].ravel())
            # (layer, spin (x) band, pair, node); pair r fills the columns 2r, 2r + 1
            W = W.reshape(2, 4, pairs, n)
            for r in range(pairs):
                out[:, :, 2 * r:2 * r + 2] = (Q[r] @ W[:, :, r].reshape(2, -1)).reshape(N, 2, 2, n)

    return _certified_frames(cfg, kx, ky, E, build)
