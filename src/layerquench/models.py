"""Monolayer fields and layered Bloch Hamiltonians.

Two monolayer two-band models are provided: a square-lattice model with
h = (sin kx, sin ky, m - cos kx - cos ky) and a triangular-lattice model
built from three nearest-neighbour and three next-nearest-neighbour
vectors.  N copies of a monolayer are coupled either through an
interlayer term t * Sigma1 (x) s1 acting on both sublattices ("abba")
or through (t/2) * (Sigma1 (x) s1 + Sigma2 (x) s2) with an alternating
Bernal-pattern Sigma2 ("ba").

Tensor order convention: the layer index is the left Kronecker factor,
the sublattice/spin index the right one, so 1 (x) s_i acts on spin only.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

SQ3 = np.sqrt(3.0)

# triangular-lattice vectors: a_i connect one sublattice to the other,
# b_i connect same-sublattice neighbours (integer combinations of the a_i)
TRI_A = np.array([[0.0, 1.0], [-SQ3 / 2, -0.5], [SQ3 / 2, -0.5]])
TRI_B = np.array([[-SQ3, 0.0], [-SQ3 / 2, 1.5], [-SQ3 / 2, -1.5]])

STACKINGS = ("abba", "ba")
MODELS = ("qwz", "haldane")

# coarsest momentum grid per axis; on coarser grids the integer
# invariants degenerate (a 2 x 2 grid gives Chern number 0 for a -2
# phase, with both oracles agreeing)
MIN_GRID = 16

# largest Bloch-Hamiltonian stack build_layered may allocate; one term
# of that size is alive beside it while it is summed, and an eigensolve
# needs about as much again.  chern_fhs holds its eigensolver-free
# frames, which never build the whole stack, to the same estimate;
# Cell.nodes holds a node lattice with its monolayer field to it,
# require_size the mode fields, sine-mode vectors and scan cells, and
# topology.require_degree_size the mode-degree sums
LAYERED_BYTES_MAX = 10 ** 9


@dataclass(frozen=True)
class LayeredConfig:
    """Stacking pattern, layer count, hopping and monolayer parameters."""

    stacking: str
    layers: int
    t: float
    model: str = "qwz"
    m: float = 1.0

    def __post_init__(self):
        if self.stacking not in STACKINGS:
            raise UsageError(f"unknown stacking {self.stacking!r}, expected one of {STACKINGS}")
        if self.model not in MODELS:
            raise UsageError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.layers < 1:
            raise UsageError("layers must be a positive integer")
        # e2 G^2 of quench._ba_column grows as t^6 and overflows from |t| ~ 1e51
        if not (abs(self.t) <= 1e50 and abs(self.m) <= 1e50):
            raise UsageError(f"t and m must be finite with |t|, |m| <= 1e50, "
                             f"got t={float(self.t)!r}, m={float(self.m)!r}")

    def __str__(self):
        # plain numbers, also for a config built from numpy scalars
        return (f"LayeredConfig(stacking={self.stacking!r}, layers={int(self.layers)}, "
                f"t={float(self.t)!r}, model={self.model!r}, m={float(self.m)!r})")


@dataclass(frozen=True)
class Cell:
    """Periodic sampling cell: k = origin + u*basis[0] + v*basis[1], u,v in [0,1)."""

    origin: np.ndarray
    basis: np.ndarray  # rows are the two cell vectors

    def k_at(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        kx = self.origin[0] + u * self.basis[0, 0] + v * self.basis[1, 0]
        ky = self.origin[1] + u * self.basis[0, 1] + v * self.basis[1, 1]
        return kx, ky

    def nodes(self, nx, ny):
        """Momenta (nx, ny) of the lattice nodes at fractions (i/nx, l/ny),
        after require_nodes."""
        self.require_nodes(nx, ny)
        return self.k_at(np.arange(nx)[:, None] / nx, np.arange(ny)[None, :] / ny)

    @staticmethod
    def require_nodes(nx, ny):
        """Raise UsageError when an axis has fewer than MIN_GRID nodes, or
        when the two momenta and the three monolayer field components of
        every node, which each user of a lattice holds, would exceed
        LAYERED_BYTES_MAX."""
        if min(nx, ny) < MIN_GRID:
            raise UsageError(
                f"grid resolution must be at least {MIN_GRID} per axis, got {int(min(nx, ny))}")
        require_lattice_size(nx, ny, 5 * 8 * float(nx) * float(ny), "its momenta and field")

    def fractions(self, kx, ky):
        """Inverse of k_at (no wrapping)."""
        d = np.stack([np.asarray(kx) - self.origin[0], np.asarray(ky) - self.origin[1]], axis=-1)
        uv = d @ np.linalg.inv(self.basis)
        return uv[..., 0], uv[..., 1]

    def reduce(self, kx, ky):
        """Wrap momenta into the cell."""
        u, v = self.fractions(kx, ky)
        return self.k_at(u % 1.0, v % 1.0)


def _momenta(kx, ky):
    return np.broadcast_arrays(np.asarray(kx, dtype=float), np.asarray(ky, dtype=float))


def _qwz_component(kx, ky, m, i):
    """Component i (zero-based) of the square-lattice field."""
    if i == 0:
        return np.sin(kx)
    if i == 1:
        return np.sin(ky)
    return m - np.cos(kx) - np.cos(ky)


def _sum3(x):
    # x.sum(axis=-1) over a length-3 last axis, in numpy's order and bit
    # for bit unless all three terms are -0.0 (numpy then gives +0.0),
    # which no set of angles k.a_i or k.b_i makes them; about ten times
    # faster than the reduction at 256^2 on a 2-vCPU Xeon
    return (x[..., 0] + x[..., 1]) + x[..., 2]


def _haldane_component(angles, m, i):
    """Component i (zero-based) of the triangular-lattice field from the
    angles k.a_i (i = 0, 1) or k.b_i (i = 2)."""
    if i == 0:
        return 4.0 * _sum3(np.cos(angles))
    if i == 1:
        return 4.0 * _sum3(np.sin(angles))
    return m - 2.0 * _sum3(np.sin(angles))


def _components(model, kx, ky, m):
    kx, ky = _momenta(kx, ky)
    if model == "qwz":
        return tuple(_qwz_component(kx, ky, m, i) for i in range(3))
    k = np.stack([kx, ky], axis=-1)
    ka = k @ TRI_A.T
    return (_haldane_component(ka, m, 0), _haldane_component(ka, m, 1),
            _haldane_component(k @ TRI_B.T, m, 2))


def qwz_field(kx, ky, m):
    """Square-lattice field (sin kx, sin ky, m - cos kx - cos ky)."""
    return np.stack(_components("qwz", kx, ky, m), axis=-1)


def haldane_field(kx, ky, m):
    """Triangular-lattice field.

    h1 = 4 sum_i cos(k.a_i), h2 = 4 sum_i sin(k.a_i),
    h3 = m - 2 sum_i sin(k.b_i).
    """
    return np.stack(_components("haldane", kx, ky, m), axis=-1)


def monolayer_components(cfg, kx, ky):
    """(h1, h2, h3) of monolayer_field bit for bit, each its own contiguous array."""
    return _components(cfg.model, kx, ky, cfg.m)


def monolayer_field(cfg, kx, ky):
    return np.stack(monolayer_components(cfg, kx, ky), axis=-1)


def monolayer_component(cfg, kx, ky, i):
    """monolayer_field(cfg, kx, ky)[..., i], bit for bit, evaluating component i alone."""
    kx, ky = _momenta(kx, ky)
    if cfg.model == "qwz":
        return _qwz_component(kx, ky, cfg.m, i)
    return _haldane_component(np.stack([kx, ky], axis=-1) @ (TRI_B if i == 2 else TRI_A).T,
                              cfg.m, i)


class LatticeField:
    """The monolayer field of one model at the nodes of an nx x ny lattice
    over its sampling cell, one component at a time.

    The lattice is bounded (Cell.require_nodes) when it is made, and its
    node momenta kx, ky (those of Cell.nodes) are built when first read.
    component(i, m) equals monolayer_component at these nodes bit for bit
    for any mass m, and evaluates only the transcendental parts component
    i needs, each once per lattice:
    - qwz: the square cell's basis is diagonal, so kx is constant along
      axis 1 and ky along axis 0, bit for bit, and every component comes
      from the sines and cosines of the nx + ny axis values, without the
      node momenta;
    - haldane: the angles k.a_i and k.b_i mix both axes, which do not
      separate in floating point, so they are taken per node, from the
      product of the whole node stack as haldane_field takes them (a
      product of fewer nodes can round differently).  The k.a_i serve h1
      and h2 from one product, and S = 2 sum_i sin(k.b_i) is kept for
      h3 = m - S.
    Later changes to kx, ky (nudged nodes) do not reach the parts already
    taken from them.
    """

    def __init__(self, model, nx, ny):
        self.model = model
        self.cell = sampling_cell(model)
        self.cell.require_nodes(nx, ny)
        self.shape = (nx, ny)
        self._ka = self._S = None
        if model == "qwz":
            # the first column of kx and the first row of ky, as Cell.nodes makes them
            axes = (self.cell.k_at(np.arange(nx)[:, None] / nx, 0.0)[0],
                    self.cell.k_at(0.0, np.arange(ny)[None, :] / ny)[1])
            self._sin = [np.sin(k) for k in axes]
            self._cos = [np.cos(k) for k in axes]

    @cached_property
    def _nodes(self):
        return self.cell.nodes(*self.shape)

    @property
    def kx(self):
        return self._nodes[0]

    @property
    def ky(self):
        return self._nodes[1]

    def _angles(self, vectors):
        return np.stack([self.kx, self.ky], axis=-1) @ vectors.T

    def component(self, i, m, at=None):
        """Component i (zero-based) of the field of mass m at every node,
        (nx, ny), or at the nodes at, a pair of index arrays.  m may be an
        array of masses on leading axes (the third component then takes one
        lattice per mass)."""
        if self.model == "qwz":
            def axis(parts, a):
                return parts[a] if at is None else parts[a].ravel()[at[a]]

            if i == 2:
                return (m - axis(self._cos, 0)) - axis(self._cos, 1)
            s = axis(self._sin, i)
            return s if at is not None else np.broadcast_to(s, self.shape).copy()
        if i == 2:
            if self._S is None:
                self._S = 2.0 * _sum3(np.sin(self._angles(TRI_B)))
            return m - (self._S if at is None else self._S[at])
        if self._ka is None:
            self._ka = self._angles(TRI_A)
        return _haldane_component(self._ka if at is None else self._ka[at], m, i)


def sampling_cell(model):
    """Periodic cell used for grids, contours and curvature sums.

    The square-lattice model uses [-pi, pi)^2.  The triangular model uses
    the parallelogram spanned by the reciprocal vectors G_i of the direct
    vectors a_1, a_2 (G_i . a_j = 2 pi delta_ij); all three field
    components are periodic under both G_i because every b_i is an
    integer combination of the a_i.
    """
    if model == "qwz":
        return Cell(np.array([-np.pi, -np.pi]),
                    np.array([[2 * np.pi, 0.0], [0.0, 2 * np.pi]]))
    if model == "haldane":
        A = TRI_A[:2]
        G = 2 * np.pi * np.linalg.inv(A).T
        if np.linalg.det(G) < 0:
            G = G[::-1].copy()
        return Cell(np.array([0.0, 0.0]), G)
    raise UsageError(f"unknown model {model!r}")


def interlayer_chain(N):
    """Tridiagonal coupling Sigma1 with ones on the super/subdiagonal."""
    S = np.zeros((N, N))
    idx = np.arange(N - 1)
    S[idx, idx + 1] = 1.0
    S[idx + 1, idx] = 1.0
    return S


def interlayer_alternating(N):
    """Bernal-pattern coupling Sigma2: entries -i, +i, -i, ... above the diagonal."""
    S = np.zeros((N, N), dtype=complex)
    for l in range(N - 1):
        v = -1j * (-1.0) ** l
        S[l, l + 1] = v
        S[l + 1, l] = np.conj(v)
    return S


def coupling_matrix(cfg):
    """The k-independent interlayer part of the Bloch Hamiltonian."""
    N = cfg.layers
    if cfg.stacking == "abba":
        return cfg.t * np.kron(interlayer_chain(N), PAULI[0])
    return 0.5 * cfg.t * (np.kron(interlayer_chain(N), PAULI[0])
                          + np.kron(interlayer_alternating(N), PAULI[1]))


def require_size(nbytes, arrays, remedy):
    """Raise UsageError when the named arrays of nbytes would exceed LAYERED_BYTES_MAX."""
    if nbytes > LAYERED_BYTES_MAX:
        raise UsageError(f"{arrays} need {nbytes / 1e9:.1f} GB, above the "
                         f"{LAYERED_BYTES_MAX / 1e9:.1f} GB limit; {remedy}")


def require_lattice_size(nx, ny, nbytes, arrays):
    """Raise UsageError when the named arrays of an nx x ny lattice, nbytes
    in all, would exceed LAYERED_BYTES_MAX."""
    if nbytes > LAYERED_BYTES_MAX:
        raise UsageError(
            f"a {int(nx)} x {int(ny)} lattice needs {nbytes / 1e9:.1f} GB for {arrays}, "
            f"above the {LAYERED_BYTES_MAX / 1e9:.1f} GB limit; use a coarser grid")


def require_layered_size(size, layers):
    """Raise UsageError when size momenta of 2N x 2N Hamiltonians exceed LAYERED_BYTES_MAX."""
    require_size(size * (2 * layers) ** 2 * 16,
                 f"{int(size)} momenta x {2 * layers}x{2 * layers} Hamiltonians",
                 "use fewer layers or a coarser grid")


# bytes a mode path holds per momentum beside its per-mode arrays
# (momenta, monolayer field, values and per-momentum scratch)
NODE_BYTES = 32 * 8


def mode_bytes(size, layers, per_mode):
    """Bytes held at size momenta by the arrays of N modes, per_mode bytes
    per momentum and mode, and NODE_BYTES per momentum."""
    return float(size) * (layers * per_mode + NODE_BYTES)


def require_mode_size(size, layers, per_mode):
    """Raise UsageError when mode_bytes(size, layers, per_mode), the peak of
    a path over N modes at size momenta, exceeds LAYERED_BYTES_MAX."""
    require_size(mode_bytes(size, layers, per_mode),
                 f"{int(size)} momenta x {int(layers)} mode fields",
                 "use fewer layers or a coarser grid")


def build_layered(kx, ky, cfg):
    """2N x 2N Bloch Hamiltonian; broadcasts over momentum arrays.

    Returns shape (..., 2N, 2N) for array input, (2N, 2N) for scalars.
    For N = 1 both stackings reduce to the bare monolayer h . sigma.
    Raises UsageError, before allocating, when the stack would exceed
    LAYERED_BYTES_MAX.
    """
    N = cfg.layers
    require_layered_size(np.prod(np.broadcast_shapes(np.shape(kx), np.shape(ky)), dtype=float), N)
    h = monolayer_field(cfg, kx, ky)
    eye = np.eye(N)
    # accumulated in place, so one product is alive beside the stack
    H = np.zeros(h.shape[:-1] + (2 * N, 2 * N), dtype=complex)
    for i in range(3):
        H += h[..., i, None, None] * np.kron(eye, PAULI[i])
    H += coupling_matrix(cfg)
    return H


def hamiltonian_terms(cfg):
    """Structure matrices of the Hamiltonian terms, without field prefactors.

    Returns a list of (label, matrix) pairs: the three monolayer terms
    1 (x) s_i and the interlayer term(s) of the requested stacking.
    """
    N = cfg.layers
    eye = np.eye(N)
    terms = [(f"1.s{i + 1}", np.kron(eye, PAULI[i])) for i in range(3)]
    terms.append(("Sig1.s1", np.kron(interlayer_chain(N), PAULI[0])))
    if cfg.stacking == "ba":
        terms.append(("Sig2.s2", np.kron(interlayer_alternating(N), PAULI[1])))
    return terms


def anticommutator_table(cfg):
    """Frobenius norm of {A, B} for every pair of Hamiltonian terms.

    Useful to see which terms square-combine in the spectrum: a term
    anticommuting with all others contributes under a single square root.
    """
    terms = hamiltonian_terms(cfg)
    table = {}
    for a, (la, Ma) in enumerate(terms):
        for lb, Mb in terms[a + 1:]:
            anti = Ma @ Mb + Mb @ Ma
            table[(la, lb)] = float(np.linalg.norm(anti))
    return table
