"""Equilibrium topological invariants and phase-diagram scans.

Two independent integer oracles are provided: a lattice field-strength
Chern number built from plaquette link variables of the filled bands,
and the solid-angle degree (skyrmion number) of a two-band unit field.
Their overall orientation is fixed once by requiring the square-lattice
monolayer at m = 1 to carry Chern number -1; the skyrmion sum needs no
extra factor in this convention.
"""

from concurrent.futures import ThreadPoolExecutor
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

# scans take their cells in chunks; every (cells, modes, n, n) array of
# a chunk stays near this size (one cell at the least), so the dozen or
# so temporaries of a chunk fit a 2 MB L2 cache (twice this size scanned
# about 25 % slower on a 2-vCPU Xeon; half of it still left the timing
# of 1024 abba cells dependent on the malloc heap state)
SCAN_CHUNK_BYTES = 1 << 17

# bytes per node and mode of each cell of a scan chunk at its peak: about
# sixteen (cells, modes, n + 1, n + 1) float arrays in _abba_cells and
# _unit_degree (measured with tracemalloc, N = 50 at 16^2 and 64^2)
SCAN_MODE_BYTES = 17 * 8

# bytes per node of the periodically extended grid that total_chern_abba
# holds at its peak: the nodes, the periodic components, one mode's unit
# field and the triangle sums of _unit_degree (measured with tracemalloc,
# abba N = 2 of both models: 167 to 195 from 256^2 down to 16^2)
DEGREE_NODE_BYTES = 25 * 8

# a phase scan computes a cell on its own when the box of this
# half-width around it, in the field coordinates of a gap closing (see
# _closings), meets the closing.  Measured on one mode field swept around
# its closing circle (3001 angles, distance steps of 0.001): the
# triangulation fails (den < DEN_FLOOR) up to a field distance of 0.012
# on the base grid 48, 0.008 on 64, 0.03 on 47 (ky = pi falls between
# rows) and beyond 0.06 on 16.  A cell ends as boundary only when grids
# n, 2n and 4n >= 64 all fail, so within 0.008 of a closing; farther
# cells may need a finer grid, which gives the same integer as the copy.
# 0.02 leaves room above the base-grid 0.012 and the boundary 0.008
SCAN_MARGIN = 0.02


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
        h = lattice.field(cfg.m)
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


def _field_degree(h1, h2, h3, KX, KY):
    """Degree of the unit field h / |h| from its components on the
    periodically extended grid (_periodic) of the nodes KX, KY.

    |h| = sqrt((h1^2 + h2^2) + h3^2) is np.linalg.norm of the whole field
    bit for bit.  Raises GaplessError when the field vanishes on the grid
    or comes close enough that a plaquette cannot be certified.
    """
    nrm = np.sqrt((h1 * h1 + h2 * h2) + h3 * h3)
    if nrm.min() < FIELD_FLOOR:
        # the first minimum lies off the copied row and column
        i, l = np.unravel_index(int(np.argmin(nrm)), nrm.shape)
        raise GaplessError(f"field vanishes at k=({KX[i, l]}, {KY[i, l]})")
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
    close enough that a plaquette cannot be certified.
    """
    KX, KY = sampling_cell(model).nodes(grid_n, grid_n)
    h = field_fn(KX, KY)
    return _field_degree(*(_periodic(h[..., i]) for i in range(3)), KX, KY)


def subsystem_field_fn(cfg, r):
    """Momentum -> h_r field of one abba sine mode."""
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
    return sum(_field_degree(h1 + shift, h2, h3, lattice.kx, lattice.ky)
               for shift in cfg.t * sine_lam(cfg.layers))


@dataclass
class PhaseDiagram:
    """Half-filling Chern numbers on a (t, m) grid of cell centres.

    boundary marks cells whose gap minimum falls below GAP_TOL_DEFAULT or
    whose Chern number no refined grid could certify; their chern entry is
    meaningless and reported as "boundary" downstream.  computed marks the
    cells evaluated on their own, never a cell flagged by its gap; every
    other cell copies the Chern number of a computed cell with the same
    closing label (_representatives).
    """

    stacking: str
    layers: int
    ts: np.ndarray
    ms: np.ndarray
    chern: np.ndarray
    gap_min: np.ndarray
    boundary: np.ndarray
    computed: np.ndarray


def _scan_tables(layers, model, ms, grid_n, per):
    """k-grid tables of one scan.

    Returns (h1, h2, h3, lam): the first two monolayer components on the
    periodically extended grid, which depend on neither t nor m; h3, which
    maps mass indices l to the third component (len(l), n, n) at the
    masses ms[l], taken from the node lattice (models.LatticeField) when
    a chunk asks for it, so no per-mass table exists; and the Sigma1
    eigenvalues lam_r; abba mode r adds t lam_r to h1.  The mode arrays of
    a chunk of per cells (SCAN_MODE_BYTES) and the mode-degree sums of a
    refinement at 4 grid_n are bounded before any table exists.
    """
    lattice = LatticeField(model, grid_n, grid_n)
    require_mode_size((grid_n + 1) ** 2, layers, per * SCAN_MODE_BYTES)
    require_degree_size(4 * grid_n)

    def h3(l):
        return lattice.component(2, ms[l, None, None])

    h1, h2 = (_periodic(lattice.component(i, 0.0)) for i in (0, 1))
    return h1, h2, h3, sine_lam(layers)


def _scan_gaps(abba, tables, ts, sm, per):
    """Half-filling gap of every cell, per cells at a time.

    E_r^2 is the t-dependent part p_r (spectra._level_part) plus h3^2,
    and sqrt is monotone, so each gap is the per-cell 2 min E_r.  The
    extended grid only repeats nodes, so the minima are taken over the
    nodes alone.
    """
    h1, h2, h3, lam = tables
    h1, h2 = h1[:-1, :-1], h2[:-1, :-1]
    e2 = np.empty((len(ts), sm))
    for i, t in enumerate(ts):
        part = _level_part(abba, h1, h2, t * lam[:, None, None])
        for l in range(0, sm, per):
            h3sq = h3(slice(l, l + per)) ** 2
            e2[i, l:l + per] = (h3sq[:, None] + part).min(axis=(-3, -2, -1))
    return 2.0 * np.sqrt(e2)


def _abba_cells(tables, t, l):
    """Mode-degree sum of the cells (t, ms[l]).

    The levels serve as the field norm.  Returns (chern, certified); a
    cell is certified when all its modes pass the three checks of
    chern_two_band.
    """
    h1, h2, h3, lam = tables
    h1r = h1 + t[:, None, None, None] * lam[:, None, None]
    h3 = _periodic(h3(l))[:, None]
    E = np.sqrt(h1r ** 2 + h2 ** 2 + h3 ** 2)
    e_min = E.min(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        degree, den_min = _unit_degree(h1r / E, h2 / E, h3 / E)
        nearest = np.rint(degree)
        certified = ((e_min >= FIELD_FLOOR) & (den_min >= DEN_FLOOR)
                     & (np.abs(degree - nearest) < ROUND_TOL)).all(axis=-1)
    chern = np.where(certified, nearest.sum(axis=-1), 0).astype(int)
    return chern, certified


def _closings(layers, model):
    """Half-filling gap closings of a square-lattice abba stack in the (t, m) plane.

    Returns (w, a) arrays: the closings are the curves
    (w t)^2 + (m - a)^2 = 1, unit circles in the field coordinates
    (s, m) = (w t, m).  abba mode r closes where sin ky = 0,
    sin kx = -t lam_r and m = cos kx + cos ky, so w = lam_r = 2 cos(theta_r)
    and a = +-1, and the distance of (s, m) from the circles is the
    smallest modulus the mode field takes.  None for a model without
    closed-form closings (haldane).
    """
    if model != "qwz":
        return None
    # modes r and N + 1 - r have opposite w and share their closings
    w = sine_lam(layers)[:(layers + 1) // 2]
    w, a = np.broadcast_arrays(w[:, None], np.array([-1.0, 1.0]))
    return w.ravel(), a.ravel()


def _offsets(closings, ts, ms):
    """|s| = |w t| and |m - a| of every cell centre from the centre of every
    closing, shaped (closings, len(ts), 1) and (closings, 1, len(ms))."""
    w, a = closings
    return np.abs(w[:, None, None] * ts[:, None]), np.abs(ms - a[:, None, None])


def _near(closings, ts, ms):
    """Cells whose box of half-width SCAN_MARGIN meets a closing.

    The box is taken in the field coordinates (s, m) of each closing, so
    a cell that is not near keeps every mode field at least SCAN_MARGIN
    from zero.  The closed box meets the unit circle exactly when its
    nearest point lies within distance 1 of the circle's centre and its
    farthest corner at distance 1 or more.  Without closed-form closings
    every cell is near.
    """
    if closings is None:
        return np.ones((len(ts), len(ms)), dtype=bool)
    s, u = _offsets(closings, ts, ms)
    d = SCAN_MARGIN
    nearest = np.maximum(s - d, 0.0) ** 2 + np.maximum(u - d, 0.0) ** 2
    farthest = (s + d) ** 2 + (u + d) ** 2
    return ((nearest <= 1.0) & (farthest >= 1.0)).any(axis=0)


def _representatives(closings, far, gap, ts, ms):
    """Flat index of the cell whose Chern number each cell of the scan takes.

    A far cell is labelled by the closings it lies inside, one boolean per
    closing: (w t)^2 + (m - a)^2 < 1.  The label fixes the Chern number,
    the sum of the mode degrees.  Each abba mode's degree is constant on
    the three parts of the plane outside its two tangent circles: inside
    one, inside the other, and outside both, which is connected.  So far
    cells with equal labels take the Chern number of their largest-gap
    cell (the first in scan order on a tie), connected or not; every other
    cell represents itself.
    """
    rep = np.arange(far.size)
    cells = rep[far.ravel()]
    if not len(cells):
        return rep
    s, u = _offsets(closings, ts, ms)
    label = (s ** 2 + u ** 2 < 1.0).reshape(len(s), -1)[:, cells]
    # grouped by label, largest gap first; lexsort is stable, so a tie keeps scan order
    order = np.lexsort((-gap.ravel()[cells], *label))
    label = label[:, order]
    first = np.concatenate([[True], (label[:, 1:] != label[:, :-1]).any(axis=0)])
    cells = cells[order]
    rep[cells] = cells[first][np.cumsum(first) - 1]
    return rep


def phase_diagram(stacking, layers, t_range, m_range, steps, model="qwz", grid_n=48, threads=1):
    """Scan half-filling Chern numbers over a (t, m) window.

    steps may be an int or a (t_steps, m_steps) pair; cells are sampled
    at their centres so exact phase boundaries are met only through the
    GAP_TOL_DEFAULT flagging.  The gap of every cell is computed, in
    array passes.  Where the gap closings are known in closed form
    (_closings), a Chern number is computed only for the cells within
    SCAN_MARGIN of a closing and for the largest-gap cell of each label,
    the set of closings a cell lies inside; the other cells with that
    label copy it (if that cell turns out boundary, they are all
    computed).  Without closed-form closings every cell is near, which
    makes the scan dense.  A cell's mode-degree sum is taken for a chunk
    of cells and all their modes in one array pass, and retried on finer
    grids before the cell is flagged as boundary.  A ba level vanishes
    only where the monolayer field does (spectra._level_part), and at
    t = 0 a ba stack is N monolayers, so a ba scan keeps its own gaps and
    is N times the abba N = 1 scan of its masses at t = 0.  With
    threads > 1, worker threads take whole chunks; this is the only
    thread pool of the package.
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
    closings = _closings(layers, model) if abba else None
    # about eight 8-byte words a cell (gap, levels, Chern number, indices)
    # and three for each closing test, bounded before any of them exists
    words = 8 + 3 * (0 if closings is None else len(closings[0]))
    require_size(8.0 * words * st * sm, f"{int(st)} x {int(sm)} scan cells", "use fewer steps")
    # each (cells, modes, n + 1, n + 1) array of a chunk stays near SCAN_CHUNK_BYTES
    per = max(1, SCAN_CHUNK_BYTES // (layers * (grid_n + 1) ** 2 * 8))
    tables = _scan_tables(layers, model, ms, grid_n, per)
    gap = _scan_gaps(abba, tables, ts, sm, per)
    # a gap-flagged cell takes no degree, so it is never computed
    gapless = gap < GAP_TOL_DEFAULT
    boundary = gapless.copy()
    if not abba:
        col = phase_diagram("abba", 1, (0.0, 0.0), m_range, (1, sm), model, grid_n, threads)
        boundary |= col.boundary
        computed = np.zeros((st, sm), dtype=bool)
        computed[np.argmax(gap, axis=0), np.arange(sm)] = col.computed[0]
        return PhaseDiagram(stacking, layers, ts, ms, np.where(boundary, 0, layers * col.chern),
                            gap, boundary, computed & ~gapless)
    chern = np.zeros((st, sm), dtype=int)

    far = ~_near(closings, ts, ms)
    rep = _representatives(closings, far, gap, ts, ms)
    cells = np.arange(st * sm)

    def refine(i, l):
        # a cell too close to a phase boundary may be uncertifiable at
        # the base grid; refine before flagging it as boundary
        cfg = LayeredConfig(stacking=stacking, layers=layers, t=float(ts[i]),
                            model=model, m=float(ms[l]))
        for factor in (2, 4):
            try:
                chern[i, l] = total_chern_abba(cfg, factor * grid_n)
                return
            except (GaplessError, NonQuantizedWindingError):
                continue
        boundary[i, l] = True

    def work(chunk):
        i, l = np.divmod(chunk, sm)
        chern[i, l], ok = _abba_cells(tables, ts[i], l)
        for i_, l_ in zip(i[~ok], l[~ok]):
            refine(i_, l_)

    def compute(mask):
        todo = np.flatnonzero(mask & ~boundary.ravel())
        chunks = [todo[k:k + per] for k in range(0, len(todo), per)]
        if threads and threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(work, chunks))
        else:
            for chunk in chunks:
                work(chunk)

    own = rep == cells
    compute(own)
    # the cells of a boundary representative are computed one by one
    own |= boundary.ravel()[rep]
    compute(own & (rep != cells))
    chern.flat[~own] = chern.flat[rep[~own]]
    return PhaseDiagram(stacking=stacking, layers=layers, ts=ts, ms=ms, chern=chern,
                        gap_min=gap, boundary=boundary,
                        computed=own.reshape(st, sm) & ~gapless)


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
    w, a = _closings(layers, "qwz")
    return bool(_segment_meets(a, w * p0[0], p0[1], w * p1[0], p1[1]).any())
