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
from .models import MIN_GRID, LayeredConfig, build_layered, monolayer_field, sampling_cell
from .spectra import analytic_positive_levels, sine_modes

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

# abba scans take their cells in chunks; every (cells, modes, n, n)
# array of a chunk stays near this size (one cell at the least), so the
# dozen or so temporaries of a chunk fit a 2 MB L2 cache (twice this
# size scanned about 25 % slower on a 2-vCPU Xeon)
SCAN_CHUNK_BYTES = 1 << 17

# base grid of the link-variable Chern number of a ba scan cell
PHASE_FHS_GRID = 40


def _cell_nodes(cell, n):
    if n < MIN_GRID:
        raise UsageError(f"grid resolution must be at least {MIN_GRID} per axis, got {n}")
    u = np.arange(n)[:, None] / n
    v = np.arange(n)[None, :] / n
    return cell.k_at(u, v)


def chern_fhs(cfg, filled=None, grid_n=100, gap_tol=GAP_TOL_DEFAULT, cell=None):
    """Chern number of the lowest `filled` bands via plaquette link variables.

    filled defaults to half filling (N of the 2N bands) and must lie in
    1..2N.  The spectral gap above the filled bands must exceed gap_tol
    everywhere on the grid.  The summed plaquette field strength is
    rounded to an integer; doubling grid_n must reproduce it (see tests).
    """
    if filled is None:
        filled = cfg.layers
    if not 1 <= filled <= 2 * cfg.layers:
        raise UsageError(f"filled must be in 1..{2 * int(cfg.layers)}, got {int(filled)}")
    if cell is None:
        cell = sampling_cell(cfg.model)
    KX, KY = _cell_nodes(cell, grid_n)
    E, V = np.linalg.eigh(build_layered(KX, KY, cfg))
    nbands = E.shape[-1]
    if filled < nbands:
        gaps = E[..., filled] - E[..., filled - 1]
        if gaps.min() <= gap_tol:
            i, l = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
            raise GaplessError(
                f"gap {gaps[i, l]:.3e} at k=({KX[i, l]}, {KY[i, l]}) below {gap_tol}")
    V = V[..., :filled]
    Vh = V.conj().swapaxes(-1, -2)
    o1 = Vh @ np.roll(V, -1, axis=0)
    o2 = Vh @ np.roll(V, -1, axis=1)
    U1 = np.linalg.det(o1)
    U2 = np.linalg.det(o2)
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
    """a extended by a copy of its first row and column along the last two axes."""
    a = np.concatenate([a, a[..., :1, :]], axis=-2)
    return np.concatenate([a, a[..., :1]], axis=-1)


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


def chern_two_band(field_fn, grid_n=100, cell=None, model="qwz"):
    """Degree of the normalized field k -> h(k)/|h(k)| over the sampling cell.

    field_fn maps (kx, ky) arrays to (..., 3) field values.  Equals
    chern_fhs of the corresponding 2x2 Bloch Hamiltonian's lower band.
    Raises GaplessError when the field vanishes on the grid or comes
    close enough that a plaquette cannot be certified.
    """
    if cell is None:
        cell = sampling_cell(model)
    KX, KY = _cell_nodes(cell, grid_n)
    h = field_fn(KX, KY)
    nrm = np.linalg.norm(h, axis=-1)
    if nrm.min() < FIELD_FLOOR:
        i, l = np.unravel_index(int(np.argmin(nrm)), nrm.shape)
        raise GaplessError(f"field vanishes at k=({KX[i, l]}, {KY[i, l]})")
    total, den_min = _unit_degree(*_periodic(np.moveaxis(h / nrm[..., None], -1, 0)))
    if den_min < DEN_FLOOR:
        raise GaplessError(
            f"nearly antipodal plaquette (den {den_min:.3g}); gap unresolved at this grid")
    nearest = np.rint(total)
    if abs(total - nearest) >= ROUND_TOL:
        raise NonQuantizedWindingError(f"degree {total} is not integer")
    return int(nearest)


def subsystem_field_fn(cfg, r):
    """Momentum -> h_r field of one abba sine mode."""
    shift = 2.0 * cfg.t * np.cos(sine_modes(cfg.layers).theta[r - 1])

    def fn(kx, ky):
        h = monolayer_field(cfg, kx, ky).copy()
        h[..., 0] += shift
        return h

    return fn


def total_chern_abba(cfg, grid_n=100):
    """Sum of the two-band degrees of all abba sine-mode fields."""
    cell = sampling_cell(cfg.model)
    return sum(chern_two_band(subsystem_field_fn(cfg, r), grid_n, cell)
               for r in range(1, cfg.layers + 1))


@dataclass
class PhaseDiagram:
    """Half-filling Chern numbers on a (t, m) grid of cell centres.

    boundary marks cells whose gap minimum falls below gap_tol; their
    chern entry is meaningless and reported as "boundary" downstream.
    """

    stacking: str
    layers: int
    ts: np.ndarray
    ms: np.ndarray
    chern: np.ndarray
    gap_min: np.ndarray
    boundary: np.ndarray


def _halffilling_gap(cfg, grid_n, cell):
    KX, KY = _cell_nodes(cell, grid_n)
    ep = analytic_positive_levels(KX, KY, cfg)
    return 2.0 * float(ep.min())


def _abba_tables(layers, model, ms, grid_n, cell):
    """k-grid tables of one abba scan, on the periodically extended grid.

    Returns (h1, h2, h3, c): the first two monolayer components, which
    depend on neither t nor m, the third for every mass in ms, and the
    mode factors cos(theta_r); mode r adds 2 t cos(theta_r) to h1.
    """
    KX, KY = _cell_nodes(cell, grid_n)

    def field(m):
        cfg = LayeredConfig("abba", layers, 0.0, model, m)
        return _periodic(np.moveaxis(monolayer_field(cfg, KX, KY), -1, 0))

    h1, h2, _ = field(0.0)
    h3 = np.empty((len(ms),) + h1.shape)
    for l, m in enumerate(ms):
        h3[l] = field(float(m))[2]
    c = np.cos(np.arange(1, layers + 1) * np.pi / (layers + 1))
    return h1, h2, h3, c


def _abba_cells(tables, t, l):
    """Half-filling gap and mode-degree sum of the cells (t, ms[l]).

    The levels are those of analytic_positive_levels, with the same
    operation order, so the gap is bitwise the per-cell value; they also
    serve as the field norm.  Returns (gap, chern, certified); a cell is
    certified when all its modes pass the three checks of chern_two_band.
    """
    h1, h2, h3, c = tables
    h1r = h1 + (2.0 * t)[:, None, None, None] * c[:, None, None]
    h3 = h3[l][:, None]
    E = np.sqrt(h1r ** 2 + h2 ** 2 + h3 ** 2)
    e_min = E.min(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        degree, den_min = _unit_degree(h1r / E, h2 / E, h3 / E)
        nearest = np.rint(degree)
        certified = ((e_min >= FIELD_FLOOR) & (den_min >= DEN_FLOOR)
                     & (np.abs(degree - nearest) < ROUND_TOL)).all(axis=-1)
    chern = np.where(certified, nearest.sum(axis=-1), 0).astype(int)
    return 2.0 * e_min.min(axis=-1), chern, certified


def phase_diagram(stacking, layers, t_range, m_range, steps, model="qwz",
                  grid_n=48, gap_tol=GAP_TOL_DEFAULT, threads=1, fhs_grid=PHASE_FHS_GRID):
    """Scan half-filling Chern numbers over a (t, m) window.

    steps may be an int or a (t_steps, m_steps) pair; cells are sampled
    at their centres so exact phase boundaries are met only through the
    gap_tol flagging.  abba cells use the mode-degree sum, taken for a
    chunk of cells and all their modes in one array pass; ba cells use
    the link-variable Chern number, one cell at a time.  Worker threads
    take whole chunks.
    """
    st, sm = (steps, steps) if np.ndim(steps) == 0 else steps
    if st < 1 or sm < 1:
        raise UsageError(f"steps must be at least 1, got {st} x {sm}")
    ts = t_range[0] + (np.arange(st) + 0.5) * (t_range[1] - t_range[0]) / st
    ms = m_range[0] + (np.arange(sm) + 0.5) * (m_range[1] - m_range[0]) / sm
    cell = sampling_cell(model)
    chern = np.zeros((st, sm), dtype=int)
    gap = np.zeros((st, sm))
    boundary = np.zeros((st, sm), dtype=bool)
    abba = stacking == "abba"
    tables = _abba_tables(layers, model, ms, grid_n, cell) if abba else None

    def config(i, l):
        return LayeredConfig(stacking=stacking, layers=layers, t=float(ts[i]),
                             model=model, m=float(ms[l]))

    def refine(i, l, factors):
        # a cell too close to a phase boundary may be uncertifiable at
        # the base grid; refine before flagging it as boundary
        cfg = config(i, l)
        for factor in factors:
            try:
                if abba:
                    chern[i, l] = total_chern_abba(cfg, factor * grid_n)
                else:
                    chern[i, l] = chern_fhs(cfg, layers, factor * fhs_grid, gap_tol, cell)
                return
            except (GaplessError, NonQuantizedWindingError):
                continue
        boundary[i, l] = True

    def work(span):
        i, l = np.divmod(np.arange(*span), sm)
        if abba:
            g, c, ok = _abba_cells(tables, ts[i], l)
            flat = g < gap_tol
            gap[i, l] = g
            boundary[i, l] = flat
            chern[i, l] = np.where(flat, 0, c)
            retry = ~ok & ~flat
            for i_, l_ in zip(i[retry], l[retry]):
                refine(i_, l_, (2, 4))
            return
        for i_, l_ in zip(i, l):
            gap[i_, l_] = _halffilling_gap(config(i_, l_), grid_n, cell)
            if gap[i_, l_] < gap_tol:
                boundary[i_, l_] = True
            else:
                refine(i_, l_, (1, 2, 4))

    per = max(1, SCAN_CHUNK_BYTES // (layers * (grid_n + 1) ** 2 * 8))
    spans = [(k, min(k + per, st * sm)) for k in range(0, st * sm, per)]
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, spans))
    else:
        for span in spans:
            work(span)
    return PhaseDiagram(stacking=stacking, layers=layers, ts=ts, ms=ms,
                        chern=chern, gap_min=gap, boundary=boundary)


@dataclass(frozen=True)
class TransitionCurve:
    """One analytic gap-closing curve m(t) of an abba sine mode.

    The subsystem gap closes at momentum (kx, ky) with sin kx balancing
    the mode shift: sin kx = -2 t cos(theta_r), cos kx = sign * sqrt(...),
    ky in {0, pi}, m = cos ky + cos kx.
    """

    r: int
    ky: float
    sign: int
    t: np.ndarray
    m: np.ndarray
    kx: np.ndarray


@dataclass(frozen=True)
class TransitionSet:
    layers: int
    curves: tuple


def _mode_branches(layers, t):
    """Gap-closing branches of the abba sine modes over the couplings t.

    Yields (r, ky, sign, ok, m, kx): where the mask ok holds, the field
    of mode r vanishes at momentum (kx, ky) for the mass m; m and kx are
    given on t[ok] only.  Modes whose shift 2 t cos(theta_r) never
    reaches [-1, 1] yield nothing.
    """
    theta = sine_modes(layers).theta
    for r in range(1, layers + 1):
        s = 2.0 * t * np.cos(theta[r - 1])
        ok = np.abs(s) <= 1.0
        if not np.any(ok):
            continue
        root = np.sqrt(1.0 - s[ok] ** 2)
        for ky in (0.0, np.pi):
            for sign in (1, -1):
                yield (r, ky, sign, ok, np.cos(ky) + sign * root,
                       np.arctan2(-s[ok], sign * root))


def transition_lines_abba(layers, t_range=(0.0, 2.0), samples=201):
    """Analytic abba phase-boundary curves for the square-lattice monolayer."""
    tgrid = np.linspace(t_range[0], t_range[1], samples)
    return TransitionSet(layers=layers, curves=tuple(
        TransitionCurve(r=r, ky=ky, sign=sign, t=tgrid[ok], m=m, kx=kx)
        for r, ky, sign, ok, m, kx in _mode_branches(layers, tgrid)))


def segment_crosses_transition(layers, p0, p1, samples=129):
    """Whether the straight segment p0 -> p1 in the (t, m) plane crosses
    any analytic abba transition curve."""
    s = np.linspace(0.0, 1.0, samples)
    t = p0[0] + s * (p1[0] - p0[0])
    m = p0[1] + s * (p1[1] - p0[1])
    for _, _, _, ok, m_closing, _ in _mode_branches(layers, t):
        g = m[ok] - m_closing
        if len(g) >= 2 and np.any(np.sign(g[:-1]) * np.sign(g[1:]) <= 0):
            return True
    return False
