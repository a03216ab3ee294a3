"""Filled-band frames at half filling without an eigensolver, kept in
their sine-mode blocks.

A layered Bloch Hamiltonian H has the levels +-E_r, r = 1..N, known in
closed form (spectra.analytic_positive_levels), and a link-variable
Chern number needs only an orthonormal frame of the N filled bands.
One frame source builds it for both stackings from the sine modes a_r
(spectra.sine_modes), in which H is block diagonal (sine_mode_frames):
every abba mode is a two-band block with a closed-form lower
eigenvector v_r, the column a_r (x) v_r, and the ba modes pair up, r
with N + 1 - r, into ba bilayer blocks, whose two filled bands W_r come
from the bilayer's filled-band projector, the columns (Q_r (x) 1) W_r.
The layer vectors a_r and Q_r do not depend on k and are orthonormal,
so the overlap of two such frames is block diagonal, and a link
variable is the product of 1 x 1 and 2 x 2 block determinants
(SineModeFrames.links).  Every frame goes through one residual bound per
node against H itself, from the banded blocks of the coupling (_sines);
the few nodes it cannot certify take their frame from eigh, and only the
links that touch them take the full N x N determinant.  Building,
certifying and linking the frames all cost O(N) per node.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .models import PAULI, LayeredConfig, build_layered, coupling_matrix
from .spectra import sine_modes

# frames are built and certified in blocks of nodes; the 4 x 4 bilayer
# matrices of a block's ba pairs and the spinors of its two-band modes
# stay near this size
FRAME_BLOCK_BYTES = 1 << 19

# largest certified sine bound of a frame; above it (or where the bound
# fails) the node takes its frame from eigh.  Rounding keeps the bound
# near 1e-15 over the gap, so only nodes within about 1e-4 of a closing
# fall back, and an accepted frame spans the filled bands to within
# sqrt(2) times this in the projector
FRAME_SINE_MAX = 1e-11

# largest entry of B^T B - 1 accepted for the constant layer basis B of
# the frame columns; rounding leaves about N 1.6e-16 (1.6e-13 at
# N = 988, the most layers a 16^2 grid admits).  A basis farther from
# orthonormal certifies no node
BASIS_TOL = 1e-12


def _apply_h(Y, h, X):
    """Y + (1 (x) h.s) X for X (layers, 2, ..., nodes), spin on the second axis."""
    # h.s has rows (h3, z) and (z*, -h3)
    z = h[0] - 1j * h[1]
    up, down = X[:, 0], X[:, 1]
    Y[:, 0] += h[2] * up + z * down
    Y[:, 1] += z.conj() * up - h[2] * down
    return Y


def _band(C, N):
    """The 2 x 2 blocks (C_{l,l+1}, C_{l+1,l}) of a coupling C that links
    neighbouring layers only; None when any other block of C is nonzero."""
    blocks = C.reshape(N, 2, N, 2).transpose(0, 2, 1, 3).copy()
    l = np.arange(N - 1)
    band = blocks[l, l + 1], blocks[l + 1, l]
    blocks[l, l + 1] = blocks[l + 1, l] = 0.0
    return None if blocks.any() else band


def _compress(band, Q):
    """(K, leak) of the blocks whose layer vectors are the columns of Q (blocks, N, d).

    Write C = sum_st K_st (x) |s><t| with N x N layer matrices K_st, whose
    entries are the blocks band (_band).  K (blocks, 2d, 2d) is C
    compressed to a block, q_j^T K_st q_k at row (j, s) and column
    (k, t), and leak is d times the summed squared norm of the leakage
    K_st q_k - sum_j q_j q_j^T K_st q_k out of each block's layers.
    O(N) per layer vector.
    """
    up, down = band
    d = Q.shape[2]
    q = Q.transpose(1, 0, 2)
    # Y[l, s, t, b, k] = (K_st q_bk)[l]
    Y = np.zeros((len(q), 2, 2) + q.shape[1:], dtype=np.result_type(up, q))
    Y[:-1] = up[..., None, None] * q[1:, None, None]
    Y[1:] += down[..., None, None] * q[:-1, None, None]
    kappa = np.einsum("blj,lstbk->bjskt", Q, Y)
    L = Y - np.einsum("blj,bjskt->lstbk", Q, kappa)
    return kappa.reshape(len(Q), 2 * d, 2 * d), d * (L.real ** 2 + L.imag ** 2).sum()


def _spin_first(X):
    """View of block frames (blocks, d, 2d, nodes) as (blocks, 2, d, d, nodes)."""
    B, d, m, n = X.shape
    return np.moveaxis(X.reshape(B, d, d, 2, n), 3, 1)


def _residual(K, h, X, E):
    """(||R_b||_F^2, lam_max(M)) per node of the block frames X (blocks, d, 2d, nodes),
    R_b = H_b X - X M the residual in the compressed H_b = K + 1 (x) h.s.

    K comes from _compress and h (3, nodes) is the monolayer field.  For
    d = 1, M = -E (E (blocks, nodes) the block levels); for d = 2, M is
    the 2 x 2 Ritz block X^H H_b X.
    """
    HX = K[:, None] @ X
    _apply_h(_spin_first(HX), h, _spin_first(X))
    if X.shape[1] == 1:
        R = HX + X * E[:, None, None]
        top = -E
    else:
        X0, X1, H0, H1 = X[:, 0], X[:, 1], HX[:, 0], HX[:, 1]
        m00 = (X0.conj() * H0).real.sum(axis=1)
        m11 = (X1.conj() * H1).real.sum(axis=1)
        # the Ritz block made exactly Hermitian
        m01 = 0.5 * ((X0.conj() * H1).sum(axis=1) + (X1 * H0.conj()).sum(axis=1))
        R = np.stack([H0 - X0 * m00[:, None] - X1 * m01.conj()[:, None],
                      H1 - X0 * m01[:, None] - X1 * m11[:, None]], axis=1)
        mid, half = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
        top = mid + np.sqrt(half ** 2 + m01.real ** 2 + m01.imag ** 2)
    return (R.real ** 2 + R.imag ** 2).sum(axis=(0, 1, 2)), top.max(axis=0)


def _sines(h, E, leak, parts):
    """Davis-Kahan bound on ||sin Theta||_F of the frames of one block of nodes.

    h (3, nodes) is the monolayer field, E (N, nodes) the positive
    levels, leak the constant leakage term and parts the (K, X, E_b) of
    each block width (_compress, _residual).

    For V orthonormal and any Hermitian M, the residual R = H V - V M
    bounds the angles Theta between span V and the filled bands: if Y
    spans the empty bands, whose levels are the E_r >= min E, then
    Y^H R = L Y^H V - Y^H V M with L = diag(E_r), and where every
    eigenvalue of M is at most lam_max(M) < min E,
    ||sin Theta||_F = ||Y^H V||_F <= ||R||_F / (min E - lam_max(M)).
    M is block diagonal like V: -E_r for a two-band column a_r (x) v_r,
    whose exact frame has that eigenvalue, and the 2 x 2 Ritz block of a
    ba pair, whose largest eigenvalue has a closed form.

    H V is never taken from the frame source's own decomposition.  A
    column q (x) x of a block with orthonormal layer vectors q_j has
    H (q (x) x) = sum_st (K_st q) (x) |s><t| x + q (x) (h.s) x, with K_st
    the banded blocks of coupling_matrix.  Split each K_st q_k into its
    part in the block's layers and the leakage out of them.  The two
    parts of R are orthogonal: the first is the residual R_b in the
    2d x 2d compressed H_b, and the second is linear in the unit columns
    x, so its squared norm is at most d times the squared Frobenius norm
    of the leakage, summed over the blocks in leak.  So
    ||R||_F^2 <= sum_b ||R_b||_F^2 + leak.  For the sine modes the
    leakage is rounding; a wrong mode makes the leakage or R_b large,
    so a wrong frame cannot certify itself.
    """
    res2, top = leak, -np.inf
    for K, X, Eb in parts:
        r, t = _residual(K, h, X, Eb)
        res2, top = res2 + r, np.maximum(top, t)
    sep = E.min(axis=0) - top
    out = np.full(len(sep), np.inf)
    np.divide(np.sqrt(res2), sep, out=out, where=sep > 0.0)
    return out


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
    """Frames (2, 4, nodes), (band, row, node), of the two filled bands of
    the ba bilayer.

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
    # -H g / 2, the factor taken into t and h; rows 2l + s are (layer l, spin s)
    P = _apply_h(-0.5 * t * np.tensordot(C, g, axes=(1, 0)).reshape(2, 2, 4, -1), -0.5 * h,
                 g.reshape(2, 2, 4, -1)).reshape(g.shape)
    P[diag, diag] += 0.5
    # pivoted Cholesky, left-looking: after s steps the residual is
    # P - sum_j v_j v_j^H, of which only the diagonal (the pivot choice)
    # and the pivot column are needed.  For an exact projector the pivot
    # column orthogonalized against the v_j and normalized is the
    # Cholesky column; taken that way, the frame stays orthonormal to
    # rounding where P is only near idempotent.
    d = P[diag, diag].real
    W = np.empty((2, 4, len(E1)), dtype=complex)
    node = np.arange(len(E1))
    for s in range(2):
        v = P[:, d.argmax(axis=0), node]
        if s:
            v -= W[0] * (W[0].conj() * v).sum(axis=0)
        w = v.real ** 2 + v.imag ** 2
        norm2 = w.sum(axis=0)
        W[s] = v / np.sqrt(norm2)
        d -= w / norm2
    return W


def overlap_det(V, W):
    """det(V^H W) per node of two frame arrays (rows, bands, ...)."""
    return np.linalg.det(np.einsum("ca...,cb...->...ab", V.conj(), W))


def _block_dets(Xc, Y):
    """det X_b^H Y_b per block and node of block frames (blocks, d, 2d, ...),
    d <= 2, from Xc = X.conj()."""
    def o(i, j):
        return (Xc[:, i] * Y[:, j]).sum(axis=1)

    return o(0, 0) if Xc.shape[1] == 1 else o(0, 0) * o(1, 1) - o(0, 1) * o(1, 0)


@dataclass(frozen=True)
class SineModeFrames:
    """Filled-band frames of a node array in their sine-mode blocks.

    blocks holds (Q, X) per block width d: Q (blocks, N, d) the constant
    layer vectors and X (blocks, d, 2d, ...) the block frames per node,
    column c and row (j, s) for layer vector j and spin s; the frame
    column of X[b, c] is sum_j Q[b, :, j] (x) X[b, c, (j, s)].  The ba
    pairs (d = 2) come first, then the two-band modes (d = 1).  sines is
    the certified bound of the built frame per node (also where it was
    replaced); the fallback nodes take their frame from eigh, held in
    eigh_frames (2N, N, fallback nodes) in flat node order.
    """

    blocks: tuple
    sines: np.ndarray
    fallback: np.ndarray
    eigh_frames: np.ndarray

    def frames(self, nodes=None):
        """Frames (2N, N, ...) at the flat node indices nodes, or at every
        node (in the array shape) by default; eigh's at fallback nodes."""
        shape = self.sines.shape
        every = nodes is None
        if every:
            nodes = np.arange(self.sines.size)
        columns = []
        for Q, X in self.blocks:
            B, d = X.shape[:2]
            X = X.reshape(B, d, d, 2, -1)[..., nodes]
            columns.append(np.einsum("blj,bcjsn->lsbcn", Q, X).reshape(Q.shape[1], 2, B * d, -1))
        V = np.concatenate(columns, axis=2)
        V = V.reshape((-1,) + V.shape[2:])
        fallback = self.fallback.ravel()
        replaced = fallback[nodes]
        if replaced.any():
            V[:, :, replaced] = self.eigh_frames[:, :, (np.cumsum(fallback) - 1)[nodes[replaced]]]
        return V.reshape(V.shape[:2] + shape) if every else V

    def links(self):
        """Link variables det V(k)^H V(k + step) along the two node axes,
        periodically: the product of the block determinants, and the
        full determinant on the links that touch a fallback node."""
        pairs = [(X.conj(), X) for Q, X in self.blocks]
        links = []
        for axis in (-2, -1):
            U = np.prod([_block_dets(Xc, np.roll(X, -1, axis=axis)).prod(axis=0)
                         for Xc, X in pairs], axis=0)
            if self.fallback.any():
                touch = self.fallback | np.roll(self.fallback, -1, axis=axis)
                start = np.flatnonzero(touch)
                end = np.roll(np.arange(touch.size).reshape(touch.shape), -1, axis=axis)[touch]
                U[touch] = overlap_det(self.frames(start), self.frames(end))
            links.append(U)
        return links


def sine_mode_frames(cfg, kx, ky, h, E):
    """Frames of the N filled bands at half filling, both stackings, any N.

    kx, ky are momentum arrays, h = (h1, h2, h3) the monolayer field
    components (models.monolayer_components) and E (..., N) the analytic
    positive levels there, E_r of the sine mode a_r (spectra.sine_modes).
    In the basis a_r (x) 1, H is block diagonal:
    - abba: every mode r is the two-band block h_r . s with
      h_r = (h1 + t lam_r, h2, h3) and level E_r, so a_r (x) v_r
      with v_r its lower eigenvector is a filled band.  v_r is taken in
      the gauge whose norm cannot vanish at the node: (h1 - i h2,
      -(h3 + E_r)) where h3 >= 0, (E_r - h3, -(h1 + i h2)) otherwise;
    - ba: the modes r and N + 1 - r, r <= N / 2, form the ba bilayer at
      coupling t_r = t lam_r with the levels E_r, E_{N+1-r}, in
      the bilayer's own sine basis b, so the bilayer frame W_r
      (_bilayer_frames) mapped by Q_r = [a_r, a_{N+1-r}] b gives two
      filled bands; the middle mode of odd N is the bare monolayer,
      a two-band block as above with h_r = h.
    Each v_r is normalised and each W_r orthonormalised per node.  Once
    per call, the layer vectors [Q_1 .. Q_P, a_r ..] must be orthonormal
    to BASIS_TOL and coupling_matrix must link neighbouring layers only;
    otherwise no node is certified.  Every frame is then certified
    against the full H by the bound of _sines, and the nodes above
    FRAME_SINE_MAX take the eigh frame, in one batched eigh.

    Returns the SineModeFrames of the nodes.
    """
    N = E.shape[-1]
    modes = sine_modes(N)
    if cfg.stacking == "abba":
        pairs, shift = 0, (cfg.t * modes.lam)[:, None]
    else:
        pairs, shift = N // 2, 0.0
        tr = cfg.t * modes.lam[:pairs]
    # Q[r] maps the layers of pair r's bilayer to the N layers
    Q = np.stack([modes.vectors[:pairs], modes.vectors[::-1][:pairs]], axis=-1) \
        @ sine_modes(2).vectors
    single = slice(pairs, N - pairs)
    a = modes.vectors[single, :, None]
    S = len(a)
    basis = np.concatenate([Q.transpose(1, 0, 2).reshape(N, -1), a[:, :, 0].T], axis=1)
    band = _band(coupling_matrix(cfg), N)
    certify = band is not None and np.abs(basis.T @ basis - np.eye(N)).max() <= BASIS_TOL
    if certify:
        compressed = [_compress(band, Qd) for Qd in (Q, a) if len(Qd)]
        leak = sum(c[1] for c in compressed)

    shape = E.shape[:-1]
    h = [c.reshape(-1) for c in h]
    E = E.reshape(-1, N)
    n = len(E)
    W = np.empty((pairs, 2, 4, n), dtype=complex)
    v = np.empty((S, 1, 2, n), dtype=complex)
    sines = np.full(n, np.inf)
    per = max(1, FRAME_BLOCK_BYTES // (16 * (16 * pairs + 2 * S)))
    for k0 in range(0, n, per):
        block = slice(k0, k0 + per)
        hb, Eb = [c[block] for c in h], E[block].T
        nb = Eb.shape[1]
        built = []
        if pairs:
            Wb = _bilayer_frames(np.tile(hb, pairs), np.repeat(tr, nb),
                                 Eb[:pairs].ravel(), Eb[::-1][:pairs].ravel())
            W[..., block] = Wb.reshape(2, 4, pairs, nb).transpose(2, 0, 1, 3)
            built.append((W[..., block], None))
        if S:
            h1, E1 = hb[0] + shift, Eb[single]
            up = hb[2] >= 0.0
            vb = np.stack([np.where(up, h1 - 1j * hb[1], E1 - hb[2]),
                           np.where(up, -(hb[2] + E1), -(h1 + 1j * hb[1]))], axis=1)
            v[:, 0, :, block] = vb / np.sqrt((vb.real ** 2 + vb.imag ** 2).sum(axis=1))[:, None]
            built.append((v[..., block], E1))
        if certify:
            sines[block] = _sines(hb, Eb, leak, [(K,) + f for (K, _), f in zip(compressed, built)])
    bad = ~(sines <= FRAME_SINE_MAX)
    U = np.empty((2 * N, N, 0), dtype=complex)
    if bad.any():
        flat = bad.reshape(shape)
        U = np.moveaxis(np.linalg.eigh(build_layered(kx[flat], ky[flat], cfg))[1][..., :N], 0, -1)
    blocks = tuple((Qd, X.reshape(X.shape[:3] + shape)) for Qd, X in ((Q, W), (a, v)) if len(Qd))
    return SineModeFrames(blocks=blocks, sines=sines.reshape(shape),
                          fallback=bad.reshape(shape), eigh_frames=U)
