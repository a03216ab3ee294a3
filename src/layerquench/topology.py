"""Equilibrium topological invariants and phase-diagram scans.

Two independent integer oracles are provided: a lattice field-strength
Chern number built from plaquette link variables of the filled bands,
and the solid-angle degree (skyrmion number) of a two-band unit field.
Their overall orientation is fixed once by requiring the square-lattice
monolayer at m = 1 to carry Chern number -1; the skyrmion sum needs no
extra factor in this convention.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GaplessError, NonQuantizedWindingError, UsageError
from .frames import overlap_det, sine_mode_frames
from .models import (LatticeField, LayeredConfig, build_layered, monolayer_field,
                     require_lattice_size, require_layered_size, require_mode_size,
                     require_size, sampling_cell)
from .spectra import _level_part, positive_levels, sine_lam
# unused here, but the traced benchmark run (perfbench/jobs.py) wraps it in this module
from .spectra import analytic_positive_levels

FHS_ORIENTATION = -1.0
GAP_TOL_DEFAULT = 1e-6
ROUND_TOL = 0.05

# smallest admissible triangle denominator in the solid-angle sum; a
# plaquette with nearly antipodal corner directions (den near 0) can
# flip a triangulation branch and yield a cleanly wrong integer, so
# such grids are rejected instead of trusted
DEN_FLOOR = 0.05

# analogous floor for the plaquette link variables
LINK_FLOOR = 1e-3

# smallest field modulus a unit-field degree accepts
FIELD_FLOOR = 1e-9

# scans take their masses in chunks; every (masses, modes, n, n) array of
# a gap-pass chunk stays near this size (one mass at the least), so the
# temporaries of a chunk fit a 2 MB L2 cache (twice this size scanned
# about 25 % slower on a 2-vCPU Xeon).  The gap pass holds the level
# parts of a block of t values of this size too, and the charge count
# takes its cells in blocks whose arrays are no larger than a chunk's
SCAN_CHUNK_BYTES = 1 << 17

# bytes per node and mode of each mass of a gap-pass chunk at its peak:
# the (masses, modes, n, n) sums h3^2 + p_r, the h3 and h3^2 of the
# masses, and the level parts of a t block as large as the chunk.  The
# charge count's blocks, at most three arrays of a chunk's size, fit in
# them too (measured with tracemalloc)
SCAN_GAP_BYTES = 4 * 8

# the most topological charges a mode field has (haldane; qwz has four)
CHARGES_MAX = 6

# bytes per node of the periodically extended grid that total_chern_abba
# holds at its peak: the nodes, the periodic components, one mode's unit
# field and the triangle sums of _unit_degree (measured with tracemalloc,
# abba N = 2 of both models: 167 to 195 from 256^2 down to 16^2)
DEGREE_NODE_BYTES = 25 * 8

# smallest |h3| at a topological charge that the charge count accepts.
# h3 there is the field's modulus, so below it the gap (nearly) closes;
# the closed-form h3 carries a rounding error of about 1e-16 max(|m|, 8)
CHARGE_FLOOR = 1e-9


def chern_fhs(cfg, filled=None, grid_n=100):
    """Chern number of the lowest `filled` bands via plaquette link variables.

    filled defaults to half filling (N of the 2N bands) and must lie in
    1..2N.  The spectral gap above the filled bands must exceed
    GAP_TOL_DEFAULT everywhere on the grid.  At half filling the
    filled-band frames of both stackings and any depth come from the
    sine-mode blocks and the analytic levels, with the gap 2 min E_r
    (frames.sine_mode_frames: two-band modes in closed form, ba mode pairs
    from the ba bilayer projector).  They stay in their blocks: a link
    variable is the product of the 1 x 1 and 2 x 2 block determinants,
    O(N) per node, because the constant layer vectors of the blocks are
    orthonormal.  Each frame is certified against the full H, applied
    through the banded blocks of the coupling matrix; the rare nodes it
    cannot certify take eigh frames, and the links that touch them the
    full determinant.  So the result stays a link-variable sum over frames
    certified against H, independent of the solid-angle degree of
    total_chern_abba.  Other fillings take eigh frames and full
    determinants.  A frame is fixed only up to a unitary per node, which
    changes no plaquette phase.  The summed plaquette field strength is
    rounded to an integer; doubling grid_n must reproduce it (see tests).
    """
    N = cfg.layers
    if filled is None:
        filled = N
    if not 1 <= filled <= 2 * N:
        raise UsageError(f"filled must be in 1..{2 * int(N)}, got {int(filled)}")
    # checked before the nodes exist
    require_layered_size(float(grid_n) ** 2, N)
    lattice = LatticeField(cfg.model, grid_n, grid_n)
    KX, KY = lattice.kx, lattice.ky
    if filled == N:
        h = [lattice.component(i, cfg.m) for i in range(3)]
        E = positive_levels(h, cfg)
        gaps = 2.0 * E.min(axis=-1)
    else:
        E, V = np.linalg.eigh(build_layered(KX, KY, cfg))
        gaps = E[..., filled] - E[..., filled - 1] if filled < 2 * N else None
    if gaps is not None and gaps.min() <= GAP_TOL_DEFAULT:
        i, l = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
        raise GaplessError(
            f"gap {gaps[i, l]:.3e} at k=({KX[i, l]}, {KY[i, l]}) below {GAP_TOL_DEFAULT}")
    if filled == N:
        U1, U2 = sine_mode_frames(cfg, KX, KY, h, E).links()
    else:
        V = np.moveaxis(V[..., :filled], (-2, -1), (0, 1))
        U1, U2 = (overlap_det(V, np.roll(V, -1, axis=axis)) for axis in (2, 3))
    if min(np.abs(U1).min(), np.abs(U2).min()) < LINK_FLOOR:
        raise GaplessError("near-vanishing link variable; gap unresolved at this grid")
    U1 = U1 / np.abs(U1)
    U2 = U2 / np.abs(U2)
    F = np.angle(U1 * np.roll(U2, -1, axis=0) * np.conj(np.roll(U1, -1, axis=1)) * np.conj(U2))
    total = FHS_ORIENTATION * F.sum() / (2 * np.pi)
    nearest = np.rint(total)
    if abs(total - nearest) >= ROUND_TOL:
        raise NonQuantizedWindingError(f"curvature sum {total} is not integer")
    return int(nearest)


def _periodic(a):
    """a extended by a copy of its first row and column along the last two
    axes, as a new contiguous array."""
    out = np.empty(a.shape[:-2] + (a.shape[-2] + 1, a.shape[-1] + 1))
    out[..., :-1, :-1] = a
    out[..., :-1, -1] = a[..., :, 0]
    out[..., -1, :] = out[..., 0, :]
    return out


def _unit_degree(x, y, z):
    """Degree of a unit field on the torus from its solid-angle sum.

    x, y, z are the field components on a periodic grid extended by
    _periodic, so the last two axes have n + 1 entries; every leading
    axis is a separate field, and one field and a stack of fields go
    through the same code.  Each plaquette n1 n2 n3 n4 is split into the
    triangles (n1, n2, n3) and (n1, n3, n4), and a triangle (a, b, c)
    spans 2 atan2(a.(b x c), 1 + a.b + b.c + c.a) of the sphere.

    Returns (degree, den_min) over the last two axes: the sphere area in
    units of 4 pi before rounding, and the smallest triangle denominator,
    which certifies the triangulation when above DEN_FLOOR.
    """
    # dots along the edges of the first axis (shape n x n+1) and the second
    # (n+1 x n): n1.n2 and n4.n3 are the first, n1.n4 and n2.n3 the second
    du = x[..., :-1, :] * x[..., 1:, :] + y[..., :-1, :] * y[..., 1:, :] \
        + z[..., :-1, :] * z[..., 1:, :]
    dv = x[..., :, :-1] * x[..., :, 1:] + y[..., :, :-1] * y[..., :, 1:] \
        + z[..., :, :-1] * z[..., :, 1:]
    c1 = np.s_[..., :-1, :-1]
    c2 = np.s_[..., 1:, :-1]
    c3 = np.s_[..., 1:, 1:]
    c4 = np.s_[..., :-1, 1:]
    x1, y1, z1 = x[c1], y[c1], z[c1]
    x3, y3, z3 = x[c3], y[c3], z[c3]
    d13 = x1 * x3 + y1 * y3 + z1 * z3
    # n1 x n3 serves both triple products:
    # n1.(n2 x n3) = -n2.(n1 x n3) and n1.(n3 x n4) = n4.(n1 x n3)
    cx = y1 * z3 - z1 * y3
    cy = z1 * x3 - x1 * z3
    cz = x1 * y3 - y1 * x3
    num1 = -(x[c2] * cx + y[c2] * cy + z[c2] * cz)
    num2 = x[c4] * cx + y[c4] * cy + z[c4] * cz
    den1 = 1.0 + du[..., :, :-1] + dv[..., 1:, :] + d13
    den2 = 1.0 + d13 + du[..., :, 1:] + dv[..., :-1, :]
    axes = (-2, -1)
    area = np.arctan2(num1, den1).sum(axis=axes) + np.arctan2(num2, den2).sum(axis=axes)
    den_min = np.minimum(den1.min(axis=axes), den2.min(axis=axes))
    return area / (2 * np.pi), den_min


def _field_degree(h1, h2, h3, cell):
    """Degree of the unit field h / |h| from its components on the
    periodically extended grid (_periodic) of an n x n lattice over the
    sampling cell cell (models.Cell).

    |h| = sqrt((h1^2 + h2^2) + h3^2) is np.linalg.norm of the whole field
    bit for bit.  Raises GaplessError when the field vanishes on the grid
    or comes close enough that a plaquette cannot be certified.
    """
    nrm = np.sqrt((h1 * h1 + h2 * h2) + h3 * h3)
    if nrm.min() < FIELD_FLOOR:
        # the first minimum lies off the copied row and column
        i, l = np.unravel_index(int(np.argmin(nrm)), nrm.shape)
        n = nrm.shape[0] - 1
        kx, ky = cell.k_at(i / n, l / n)
        raise GaplessError(f"field vanishes at k=({kx}, {ky})")
    total, den_min = _unit_degree(h1 / nrm, h2 / nrm, h3 / nrm)
    if den_min < DEN_FLOOR:
        raise GaplessError(
            f"nearly antipodal plaquette (den {den_min:.3g}); gap unresolved at this grid")
    nearest = np.rint(total)
    if abs(total - nearest) >= ROUND_TOL:
        raise NonQuantizedWindingError(f"degree {total} is not integer")
    return int(nearest)


def chern_two_band(field_fn, grid_n=100, model="qwz"):
    """Degree of the normalized field k -> h(k)/|h(k)| over the sampling cell of model.

    field_fn maps (kx, ky) arrays to (..., 3) field values.  Equals
    chern_fhs of the corresponding 2x2 Bloch Hamiltonian's lower band.
    Raises GaplessError when the field vanishes on the grid or comes
    close enough that a plaquette cannot be certified.  No package path
    calls it; it stays as the one-field degree of an arbitrary field,
    which the benchmark's winding check (perfbench/jobs.py) and the
    acceptance battery take as their oracle.
    """
    cell = sampling_cell(model)
    h = field_fn(*cell.nodes(grid_n, grid_n))
    return _field_degree(*(_periodic(h[..., i]) for i in range(3)), cell)


def subsystem_field_fn(cfg, r):
    """Momentum -> h_r field of one abba sine mode.

    No package path calls it (total_chern_abba shifts the lattice
    components in place); it stays as the field chern_two_band takes in
    the benchmark's winding check and the test-only reference scan
    (tests/reference_scan.py).
    """
    shift = cfg.t * sine_lam(cfg.layers)[r - 1]

    def fn(kx, ky):
        h = monolayer_field(cfg, kx, ky).copy()
        h[..., 0] += shift
        return h

    return fn


def require_degree_size(grid_n):
    """Raise UsageError, before any node exists, when total_chern_abba at
    grid_n would hold more than LAYERED_BYTES_MAX (DEGREE_NODE_BYTES a node
    of the periodically extended grid)."""
    require_lattice_size(grid_n, grid_n, DEGREE_NODE_BYTES * (float(grid_n) + 1.0) ** 2,
                         "its mode-degree sums")


def total_chern_abba(cfg, grid_n=100):
    """Sum of the two-band degrees of all abba sine-mode fields.

    The monolayer components are evaluated once on the lattice; mode r
    adds t lam_r to h1, as subsystem_field_fn does, and its degree is taken
    as in chern_two_band.  Its peak is bounded before the nodes exist
    (require_degree_size).
    """
    require_degree_size(grid_n)
    lattice = LatticeField(cfg.model, grid_n, grid_n)
    h1, h2, h3 = (_periodic(lattice.component(i, cfg.m)) for i in range(3))
    cell = lattice.cell
    # the lattice's per-node parts go before the degrees' temporaries exist
    del lattice
    return sum(_field_degree(h1 + shift, h2, h3, cell)
               for shift in cfg.t * sine_lam(cfg.layers))


def half_filling_degree(cfg, grid_n=100):
    """Half-filling Chern number from unit-field degrees, an oracle
    independent of chern_fhs: the mode-degree sum of an abba stack
    (total_chern_abba), and for a ba stack N times that of the monolayer
    (abba N = 1 at t = 0, same model and m).  A ba level vanishes only
    where the monolayer field does (spectra._level_part), so the ba
    number does not change with t, and at t = 0 the stack is N monolayers.
    """
    if cfg.stacking == "abba":
        return total_chern_abba(cfg, grid_n)
    return cfg.layers * total_chern_abba(LayeredConfig("abba", 1, 0.0, cfg.model, cfg.m), grid_n)


def _charges(model, s):
    """Topological charges of the abba mode fields (h1 + s, h2, h3).

    The charges are the zeros of (h1 + s, h2) (L. Zhang, L. Zhang and
    X.-J. Liu, Phys. Rev. A 99, 053606, 2019), in closed form; s holds
    the shifts t lam_r.  Returns (sign, offset, present): the sign of
    det d(h1, h2)/d(kx, ky) at each charge, (charges,), taken from its
    branch; h3 = m - offset at each charge, s.shape + (charges,); and
    whether the mode has charges, s.shape (with none, every offset is
    meaningless).
    - qwz: sin kx = -s and sin ky = 0, so cos kx = +-S with
      S = sqrt(1 - s^2) and cos ky = +-1; det J = cos kx cos ky and
      h3 = m - cos kx - cos ky.
    - haldane: with alpha = k.a_1 and beta = k.a_2 (a positively
      oriented pair), h2 = 16 sin(alpha/2) sin(beta/2) sin((alpha+beta)/2)
      vanishes on the lines alpha = 0, beta = 0 and alpha + beta = 0
      (mod 2 pi), and on each h1 + s = 0 puts the free angle at +-b with
      cos b = X = -(s + 4)/8 and sin b = S.  The k.b_i are alpha + 2 beta,
      2 alpha + beta and beta - alpha, so h3 = m -+ 4 S (1 + X) at
      beta = +-b on alpha = 0, m -+ 4 X S at alpha = +-b on beta = 0 and
      m +- 4 X S at alpha = +-b on alpha + beta = 0, where det J has the
      sign +-1, -+1 and +-1.
    """
    if model == "qwz":
        present = np.abs(s) <= 1.0
        # 1 - s^2 without cancellation; the where keeps sqrt off |s| > 1
        S = np.sqrt(np.where(present, (1.0 - s) * (1.0 + s), 0.0))[..., None]
        cos_kx = np.array([1.0, 1.0, -1.0, -1.0])
        cos_ky = np.array([1.0, -1.0, 1.0, -1.0])
        return cos_kx * cos_ky, S * cos_kx + cos_ky, present
    present = (s >= -12.0) & (s <= 4.0)
    # S = sqrt(1 - X^2) = sqrt((4 - s)(12 + s)) / 8 without cancellation
    S = np.sqrt(np.where(present, (4.0 - s) * (12.0 + s), 0.0)) / 8.0
    u = S * (4.0 - s) / 2.0  # 4 S (1 + X)
    v = -S * (s + 4.0) / 2.0  # 4 X S
    sign = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
    return sign, np.stack([u, -u, v, -v, -v, v], axis=-1), present


def _charge_count(model, s, m):
    """Mode-degree sums from the topological charges, without a momentum grid.

    s holds the shifts t lam_r of the modes on its last axis; m, the
    masses, broadcasts against its leading axes.  Each mode's degree is
    1/2 sum sgn det J sgn h3 over its charges (_charges): Milnor's
    regular-value degree of (h1 + s, h2) averaged over both poles.
    Returns (chern, margin), the sums over the modes and the smallest
    |h3| at a charge of any mode (inf without charges), which is the
    field's modulus there; a count is exact when margin is above
    CHARGE_FLOOR.  Two charges that merge (|s| = 1 for qwz, s = 4 or -12
    for haldane) take opposite branch signs and one h3, so they cancel
    exactly, as they do past the merge.
    """
    sign, offset, present = _charges(model, s)
    h3 = np.asarray(m, dtype=float)[..., None, None] - offset
    # so at most three arrays of the count's (..., modes, charges) shape are held at once
    del offset
    present = present[..., None]
    chern = np.where(present, sign * np.sign(h3), 0.0).sum(axis=(-2, -1)) / 2
    margin = np.where(present, np.abs(h3), np.inf).min(axis=(-2, -1))
    return chern.astype(int), margin


def charge_chern(cfg):
    """Half-filling Chern number from topological charges, a lattice-free
    oracle: the charge count of the sine-mode fields for an abba stack,
    and N times the monolayer count (s = 0) for a ba stack, as in
    half_filling_degree.  Raises GaplessError when a charge lies within
    CHARGE_FLOOR of a gap closing.
    """
    abba = cfg.stacking == "abba"
    s = cfg.t * sine_lam(cfg.layers) if abba else np.zeros(1)
    chern, margin = _charge_count(cfg.model, s, cfg.m)
    if margin < CHARGE_FLOOR:
        raise GaplessError(f"field modulus {margin:.3g} at a topological charge "
                           f"is below {CHARGE_FLOOR}; the gap closes")
    return int(chern) * (1 if abba else cfg.layers)


@dataclass
class PhaseDiagram:
    """Half-filling Chern numbers on a (t, m) grid of cell centres.

    chern is each cell's count of topological charges (_charge_count),
    taken for every cell on its own: the sine-mode counts of an abba
    stack, N times the monolayer count of a ba stack.  boundary marks the
    cells whose grid gap minimum falls below GAP_TOL_DEFAULT or that have
    a charge within CHARGE_FLOOR of a gap closing; their chern entry is 0,
    and is reported as "boundary" downstream.
    """

    stacking: str
    layers: int
    ts: np.ndarray
    ms: np.ndarray
    chern: np.ndarray
    gap_min: np.ndarray
    boundary: np.ndarray


def _scan_tables(layers, model, ms, grid_n, per):
    """k-grid tables of one scan.

    Returns (h1, h2, h3, lam): the first two monolayer components at the
    nodes, which depend on neither t nor m; h3, which maps mass indices l
    to the third component (len(l), n, n) at the masses ms[l], taken from
    the node lattice (models.LatticeField) when a chunk asks for it, so no
    per-mass table exists; and the Sigma1 eigenvalues lam_r.  The lattice
    and the gap-pass arrays of a chunk of per masses (SCAN_GAP_BYTES) are
    bounded before any table exists.
    """
    lattice = LatticeField(model, grid_n, grid_n)
    require_mode_size(grid_n ** 2, layers, per * SCAN_GAP_BYTES)

    def h3(l):
        return lattice.component(2, ms[l, None, None])

    h1, h2 = (lattice.component(i, 0.0) for i in (0, 1))
    return h1, h2, h3, sine_lam(layers)


def _scan_gaps(abba, tables, ts, sm, per):
    """Half-filling gap of every cell, per masses at a time.

    E_r^2 is the t-dependent part p_r (spectra._level_part) plus h3^2,
    and sqrt is monotone, so each gap is the per-cell 2 min E_r.  The
    parts p_r of a block of t values, SCAN_CHUNK_BYTES in all (one t at
    the least), are held while each chunk of masses takes its h3^2 once
    for the whole block.
    """
    h1, h2, h3, lam = tables
    e2 = np.empty((len(ts), sm))
    block = max(1, SCAN_CHUNK_BYTES // (len(lam) * h1.size * 8))
    for b in range(0, len(ts), block):
        parts = [_level_part(abba, h1, h2, t * lam[:, None, None]) for t in ts[b:b + block]]
        for l in range(0, sm, per):
            h3sq = h3(slice(l, l + per)) ** 2
            for i, part in enumerate(parts, b):
                e2[i, l:l + per] = (h3sq[:, None] + part).min(axis=(-3, -2, -1))
    return 2.0 * np.sqrt(e2)


def _scan_charges(model, lam, ts, ms, nbytes):
    """Charge count (_charge_count) of every cell (ts[i], ms[l]), whose
    mode r is shifted by ts[i] lam_r.

    Returns (chern, margin), each (len(ts), len(ms)).  The cells are taken
    in scan order, in blocks whose (cells, modes, charges) arrays hold at
    most nbytes (one cell at the least), so the count's arrays are bounded
    before they exist, for any window.
    """
    cells = len(ts) * len(ms)
    chern = np.empty(cells, dtype=int)
    margin = np.empty(cells)
    per = max(1, nbytes // (len(lam) * CHARGES_MAX * 8))
    for b in range(0, cells, per):
        i, l = np.divmod(np.arange(b, min(b + per, cells)), len(ms))
        chern[b:b + per], margin[b:b + per] = _charge_count(model, ts[i, None] * lam, ms[l])
    return chern.reshape(len(ts), -1), margin.reshape(len(ts), -1)


def phase_diagram(stacking, layers, t_range, m_range, steps, model="qwz", grid_n=48):
    """Scan half-filling Chern numbers over a (t, m) window.

    steps may be an int or a (t_steps, m_steps) pair; cells are sampled
    at their centres so exact phase boundaries are met only through the
    GAP_TOL_DEFAULT flagging.  The gap of every cell is its minimum over
    the grid_n^2 nodes, taken in array passes (_scan_gaps).  The Chern
    number of every cell is the count of its topological charges
    (_charge_count), which needs no momentum grid: the invariant on a
    band-inversion surface is the signed count of the charges it
    encloses (L. Zhang, L. Zhang and X.-J. Liu, Phys. Rev. A 99, 053606,
    2019).  An abba cell sums the counts of its sine-mode fields, shifted
    by t lam_r.  A ba level vanishes only where the monolayer field does
    (spectra._level_part), and at t = 0 a ba stack is N monolayers, so a
    ba cell is N times the monolayer count at its mass (as in
    charge_chern).  A cell is boundary when its gap is below
    GAP_TOL_DEFAULT or a charge lies within CHARGE_FLOOR of a closing.
    """
    st, sm = (steps, steps) if np.ndim(steps) == 0 else steps
    if st < 1 or sm < 1:
        raise UsageError(f"steps must be at least 1, got {st} x {sm}")
    # the window corners bound every cell centre
    for t, m in zip(t_range, m_range):
        LayeredConfig(stacking, layers, t, model, m)
    ts = t_range[0] + (np.arange(st) + 0.5) * (t_range[1] - t_range[0]) / st
    ms = m_range[0] + (np.arange(sm) + 0.5) * (m_range[1] - m_range[0]) / sm
    abba = stacking == "abba"
    # about eight 8-byte words a cell (gap, levels, Chern number, margin),
    # bounded before any of them exists
    require_size(64.0 * st * sm, f"{int(st)} x {int(sm)} scan cells", "use fewer steps")
    # each (masses, modes, n, n) array of a gap chunk stays near
    # SCAN_CHUNK_BYTES, and each array of a charge block within its size
    per = max(1, SCAN_CHUNK_BYTES // (layers * grid_n ** 2 * 8))
    tables = _scan_tables(layers, model, ms, grid_n, per)
    gap = _scan_gaps(abba, tables, ts, sm, per)
    chern, margin = _scan_charges(model, tables[3] if abba else np.zeros(1), ts, ms,
                                  per * layers * grid_n ** 2 * 8)
    boundary = (gap < GAP_TOL_DEFAULT) | (margin < CHARGE_FLOOR)
    chern = np.where(boundary, 0, chern if abba else layers * chern)
    return PhaseDiagram(stacking=stacking, layers=layers, ts=ts, ms=ms, chern=chern,
                        gap_min=gap, boundary=boundary)


def _closings(layers):
    """Half-filling gap closings of a square-lattice abba stack in the (t, m) plane.

    Returns (w, a) arrays: the closings are the curves
    (w t)^2 + (m - a)^2 = 1, unit circles in the field coordinates
    (s, m) = (w t, m).  abba mode r closes where sin ky = 0,
    sin kx = -t lam_r and m = cos kx + cos ky, so w = lam_r = 2 cos(theta_r)
    and a = +-1.
    """
    # modes r and N + 1 - r have opposite w and share their closings
    w = sine_lam(layers)[:(layers + 1) // 2]
    w, a = np.broadcast_arrays(w[:, None], np.array([-1.0, 1.0]))
    return w.ravel(), a.ravel()


def _segment_meets(a, s0, m0, s1, m1):
    """Whether the segments (s0, m0) -> (s1, m1) meet the circles s^2 + (m - a)^2 = 1.

    Along a segment the circle function is a convex quadratic in the
    segment parameter, so the segment meets the circle exactly when that
    quadratic's minimum over the segment (at an end or at its vertex) is
    <= 0 and its maximum (at an end) is >= 0.  Arguments broadcast.
    """
    ds, dm = s1 - s0, m1 - m0
    f0 = s0 ** 2 + (m0 - a) ** 2 - 1.0
    f1 = s1 ** 2 + (m1 - a) ** 2 - 1.0
    A = ds ** 2 + dm ** 2
    B = 2.0 * (s0 * ds + (m0 - a) * dm)
    inside = (B < 0) & (-B < 2.0 * A)  # the vertex -B / 2A lies in (0, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(inside, f0 - B * B / (4.0 * A), np.inf)
    return (np.minimum(np.minimum(f0, f1), vertex) <= 0) & (np.maximum(f0, f1) >= 0)


def segment_crosses_transition(layers, p0, p1):
    """Whether the straight segment p0 -> p1 in the (t, m) plane meets any
    analytic abba gap-closing curve of the square-lattice stack.

    Exact: the quadratic root test of _segment_meets on every closing.
    """
    w, a = _closings(layers)
    return bool(_segment_meets(a, w * p0[0], p0[1], w * p1[0], p1[1]).any())
