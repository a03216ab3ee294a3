"""Brillouin-zone sampling of polarization data, band-inversion contours,
dynamical fields on them, and winding numbers.

Contours are zero sets of a signed source criterion (the quench-axis
field component h_j, or its mode-shifted version for subspace data)
extracted by marching squares on the periodic sampling cell, so torus
wrapping is handled natively and every contour is closed.  All crossing
edges are refined together by batched bisection, with one source
evaluation per step over every edge still open, and the loops are
linked by walking the crossing cells only.  Contour orientation is
canonicalized so that the negative side of the source lies to the right
of travel.
"""

import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DegenerateFieldError, NonQuantizedWindingError, SingularPointError,
                     UsageError)
from .models import LatticeField, monolayer_component, monolayer_field, require_mode_size
from .quench import (SINGULAR_E2, gtasp_abba, gtasp_of_field, singular_field_mask,
                     tasp_closed_form, tasp_of_field)
from .spectra import sine_lam

# tracked component pair (zero-based) for each quench axis: the two
# polarization components other than j, in cyclic order
FIELD_COMPONENTS = {3: (0, 1), 1: (1, 2), 2: (2, 0)}

WINDING_RESIDUAL_TOL = 0.05

# bytes per node and mode that sampling a lattice holds at its peak: two
# (nodes, N) float arrays of squared levels in quench.singular_field_mask,
# and for ba three float arrays and a flag array in quench._ba_column
# (measured with tracemalloc, N = 50 at 64^2)
SAMPLE_MODE_BYTES = {"abba": 2 * 8, "ba": 3 * 8 + 1}


@dataclass
class TaspGrid:
    """Per-node polarization vectors on the periodic sampling cell; kx, ky
    are the momenta sampled, with nudged nodes at their nudged momenta."""

    cfg: object
    j: int
    observable: tuple
    nx: int
    ny: int
    cell: object
    values: np.ndarray  # (nx, ny, 3); None on the lattices characterize uses
    kx: np.ndarray  # (nx, ny), as ky and hj
    ky: np.ndarray
    hj: np.ndarray  # the monolayer component h_j at the unnudged nodes


@dataclass
class BisContour:
    """Closed zero contour of a signed source criterion.

    points are physical momenta (oriented, not endpoint-repeated); frac
    the unwrapped cell fractions; wraps counts torus periods along the
    two cell directions (nonzero for contours stitched across the
    boundary).  residual is the largest polarization magnitude of the
    defining grid over the contour.
    """

    points: np.ndarray
    frac: np.ndarray
    source: str
    wraps: np.ndarray
    residual: float
    gfield: np.ndarray = field(default=None, repr=False)
    w: int = None


def _mode_index(cfg, observable):
    """None for global data, r for ("subspace", r); anything else is a usage error."""
    kind = observable[0]
    if kind == "global":
        return None
    if kind != "subspace":
        raise UsageError(f"unknown observable kind {kind!r}")
    r = observable[1]
    if not 1 <= r <= cfg.layers:
        raise UsageError(f"subspace mode index {r} is outside 1..{cfg.layers}")
    return r


def polarization_evaluator(cfg, j, observable=("global",)):
    """Vectorized momentum -> 3-vector closed-form evaluator for a grid kind."""
    r = _mode_index(cfg, observable)
    if r is None:
        return lambda kx, ky: tasp_closed_form(kx, ky, cfg, j)
    return lambda kx, ky: gtasp_abba(kx, ky, cfg, j, r)


def _source_shift(grid):
    """Constant added to h_j by the source criterion of this grid."""
    if grid.observable[0] == "subspace" and grid.j == 1:
        r = grid.observable[1]
        return grid.cfg.t * sine_lam(grid.cfg.layers)[r - 1]
    return 0.0


def source_function(grid):
    """Signed criterion whose zero set defines the contours of this grid.

    Global data uses the monolayer component h_j; mode-resolved data the
    shifted component h_r^j (which differs from h_j only for j = 1).
    Only h_j is evaluated, bit for bit as in the whole field.
    """
    cfg, j = grid.cfg, grid.j
    shift = _source_shift(grid)

    def src(kx, ky):
        return monolayer_component(cfg, kx, ky, j - 1) + shift

    return src


def source_tag(grid):
    if grid.observable[0] == "global":
        return f"s{grid.j}"
    return f"mode{grid.observable[1]}.s{grid.j}"


def _resolution(resolution):
    """(nx, ny) from an integral scalar or pair; anything else is a usage error."""
    try:
        nx, ny = (resolution, resolution) if np.ndim(resolution) == 0 else resolution
        nx, ny = operator.index(nx), operator.index(ny)
    except (TypeError, ValueError):
        raise UsageError(f"grid resolution must be an integer or a pair of integers, "
                         f"got {resolution!r}") from None
    return nx, ny


def _singular_nodes(lattice, cfg, h3):
    """singular_field_mask of the whole field of the lattice, bit for bit,
    from its third component h3 and the whole field at a few nodes.

    Every level is E_r^2 = p_r + h3^2 >= h3^2, as p_r >= 0 and rounding
    is monotone, and the test's sqrt and square move h3^2 by a few ulps,
    so a node can be singular only where h3^2 < 2 SINGULAR_E2.  Only
    those near nodes take the whole field and the test.
    """
    near = h3 ** 2 < 2.0 * SINGULAR_E2
    bad = np.zeros(h3.shape, dtype=bool)
    if near.any():
        at = np.nonzero(near)
        bad[at] = singular_field_mask(lattice.field(cfg.m, at), cfg)
    return bad


def _node_lattice(cfg, j, observable, resolution, full=False):
    """(grid, h): a grid without polarization values, holding the node
    momenta of an nx x ny lattice over the sampling cell of cfg.model,
    and, when full, the monolayer field h (nx, ny, 3) at them (else None).

    Nodes sit at fractions (i/nx, l/ny) of the cell, where the lattice
    evaluates each component it needs once (models.LatticeField).  When
    full, the whole field is evaluated, as the closed forms need it, and
    every node takes the singular-node test; otherwise only h_j and h3
    are, and the test runs at the nodes _singular_nodes selects.  Singular
    nodes are offset by half a grid step (kx, ky and h record the offset)
    and checked again alone; if still singular the error names the node.
    The per-mode arrays of sampling (SAMPLE_MODE_BYTES) are bounded before
    the field exists.
    """
    nx, ny = _resolution(resolution)
    lattice = LatticeField(cfg.model, nx, ny)
    KX, KY, cell = lattice.kx, lattice.ky, lattice.cell
    require_mode_size(KX.size, cfg.layers, SAMPLE_MODE_BYTES[cfg.stacking])
    if full:
        h = lattice.field(cfg.m)
        hj = h[..., j - 1].copy()
        bad = singular_field_mask(h, cfg)
    else:
        h = None
        hj = lattice.component(j - 1, cfg.m)
        bad = _singular_nodes(lattice, cfg, hj if j == 3 else lattice.component(2, cfg.m))
    if np.any(bad):
        i, l = np.nonzero(bad)
        KX[bad], KY[bad] = cell.k_at(i / nx + 0.5 / nx, l / ny + 0.5 / ny)
        nudged = monolayer_field(cfg, KX[bad], KY[bad])
        if full:
            h[bad] = nudged
        still = singular_field_mask(nudged, cfg)
        if np.any(still):
            p = np.flatnonzero(still)[0]
            raise SingularPointError(f"gap closes at grid node ({i[p]}, {l[p]}), "
                                     f"k=({KX[i[p], l[p]]}, {KY[i[p], l[p]]})")
    return TaspGrid(cfg=cfg, j=j, observable=tuple(observable), nx=nx, ny=ny,
                    cell=cell, values=None, kx=KX, ky=KY, hj=hj), h


def sample_grid(cfg, j, observable=("global",), resolution=256):
    """Evaluate the closed-form polarization on an nx x ny periodic grid.

    The nodes are those of the shared node lattice (nudged off exact gap
    closings, see _node_lattice), and the values are the closed form of
    the monolayer field the lattice evaluated, in one serial array pass.
    resolution is an integer or a pair of integers.
    """
    r = _mode_index(cfg, observable)
    grid, h = _node_lattice(cfg, j, observable, resolution, full=True)
    grid.values = tasp_of_field(h, cfg, j) if r is None else gtasp_of_field(h, cfg, j, r)
    return grid


# sides of a marching-squares cell, in the order the linking walk tries them
BOTTOM, RIGHT, TOP, LEFT = range(4)
# for each exit side: the (di, dl) step to the next cell and the side entered there
_STEP = np.array([[0, -1], [1, 0], [0, 1], [-1, 0]])
_ENTRY = np.array([TOP, LEFT, BOTTOM, RIGHT])
# exit side for each entry side of a saddle cell whose centre has the sign
# of its first corner (bottom-right, top-left) or the other sign
# (left-bottom, right-top); the latter is tried from the left side first
_SADDLE_SAME = np.array([RIGHT, BOTTOM, LEFT, TOP])
_SADDLE_OTHER = np.array([LEFT, TOP, RIGHT, BOTTOM])
_SADDLE_OTHER_ORDER = np.array([LEFT, BOTTOM, RIGHT, TOP])


def _bisect_edges(phi, a, b):
    """Sign-change roots of phi on the segments a-b, refined together.

    a and b hold the segment ends coordinate first, (2, E); the roots
    come back point first, (E, 2).  Each bracket is halved until its two
    ends agree to 1e-9 in both coordinates and is then frozen; phi is
    called once per step, on the midpoints of the brackets still open.
    """
    flip = phi(a[0], a[1]) > 0
    lo = np.where(flip, b, a)  # non-positive end
    hi = np.where(flip, a, b)
    live = np.arange(a.shape[1])
    for _ in range(64):
        mid = 0.5 * (lo[:, live] + hi[:, live])
        up = phi(mid[0], mid[1]) > 0
        hi[:, live[up]] = mid[:, up]
        lo[:, live[~up]] = mid[:, ~up]
        w = np.abs(hi[:, live] - lo[:, live])
        live = live[np.maximum(w[0], w[1]) > 1e-9]
        if not len(live):
            break
    return (0.5 * (lo + hi)).T


def _marching_loops(phi, nodes, nx, ny):
    """Zero loops of a signed function on the unit torus.

    phi maps arrays of fractional (u, v) to signed values; nodes is the
    precomputed (nx, ny) node array of phi.  Returns a list of
    (points, wraps): unwrapped fractional polylines and their integer
    period counts.  Nodes exactly at zero are classed with the negative
    side, so zero sets through nodes still produce closed loops.

    All sign-change edges are bisected in one batch and saddle cells are
    resolved by one batch of centre samples.  Loops are then linked by
    walking the crossing cells only, started in raster order, so the
    work beyond the grid-wide sign test grows with the contour length.
    """
    pos = nodes > 0
    # edge h[i, l] joins nodes (i, l) and (i+1, l); edge v[i, l] joins (i, l) and (i, l+1)
    hcross = pos != np.roll(pos, -1, axis=0)
    vcross = pos != np.roll(pos, -1, axis=1)
    hi, hl = np.nonzero(hcross)
    vi, vl = np.nonzero(vcross)
    nh, nv = len(hi), len(vi)
    if nh + nv == 0:
        return []
    a = np.stack([np.concatenate([hi, vi]) / nx, np.concatenate([hl, vl]) / ny])
    step = np.repeat([[1.0 / nx, 0.0], [0.0, 1.0 / ny]], [nh, nv], axis=0).T
    roots = _bisect_edges(phi, a, a + step)

    # crossing cells in raster order and the edge on each side (-1: no sign change)
    cells = np.flatnonzero(hcross | np.roll(vcross, -1, axis=0)
                           | np.roll(hcross, -1, axis=1) | vcross)
    ci, cl = np.divmod(cells, ny)
    hid = np.full((nx, ny), -1)
    hid[hi, hl] = np.arange(nh)
    vid = np.full((nx, ny), -1)
    vid[vi, vl] = nh + np.arange(nv)
    side_edge = np.stack([hid[ci, cl], vid[(ci + 1) % nx, cl],
                          hid[ci, (cl + 1) % ny], vid[ci, cl]], axis=1)
    crossing = side_edge >= 0

    # a cell has 2 or 4 crossing sides; pair the two, or resolve the saddle
    exit_side = np.zeros_like(side_edge)
    order = np.tile(np.arange(4), (len(cells), 1))
    n_crossing = crossing.sum(axis=1)
    regular = np.flatnonzero(n_crossing == 2)
    pair = np.nonzero(crossing[regular])[1].reshape(-1, 2)
    exit_side[regular, pair[:, 0]] = pair[:, 1]
    exit_side[regular, pair[:, 1]] = pair[:, 0]
    saddle = np.flatnonzero(n_crossing == 4)
    if len(saddle):
        centre = phi((ci[saddle] + 0.5) / nx, (cl[saddle] + 0.5) / ny) > 0
        same = (centre == pos[ci[saddle], cl[saddle]])[:, None]
        exit_side[saddle] = np.where(same, _SADDLE_SAME, _SADDLE_OTHER)
        order[saddle] = np.where(same, np.arange(4), _SADDLE_OTHER_ORDER)

    # slot 4 k + e is crossing cell k entered through side e: the slot it
    # leads to, the slot of its exit side, its root in the frame of cell
    # k, and the frame shift of stepping past the last or first column or row
    k = np.arange(len(cells))[:, None]
    wrap_i, next_i = np.divmod(ci[:, None] + _STEP[exit_side, 0], nx)
    wrap_l, next_l = np.divmod(cl[:, None] + _STEP[exit_side, 1], ny)
    succ = 4 * np.searchsorted(cells, next_i * ny + next_l) + _ENTRY[exit_side]
    mate = 4 * k + exit_side
    base = np.stack([ci / nx, cl / ny], axis=1)[:, None, :]
    span = np.array([1.0 / nx, 1.0 / ny])
    r = roots[np.where(crossing, side_edge, 0)]
    r = np.where(r < base - 0.5 * span, r + 1.0, r)
    r = np.where(r > base + 1.5 * span, r - 1.0, r).reshape(-1, 2)
    shift = np.stack([wrap_i, wrap_l], axis=-1).reshape(-1, 2)
    starts = (4 * k + order)[np.take_along_axis(crossing, order, axis=1)]

    succ, mate = succ.ravel().tolist(), mate.ravel().tolist()
    visited = [False] * len(succ)
    loops = []
    for s in starts.tolist():
        seq = []
        while not visited[s]:
            visited[s] = visited[mate[s]] = True
            seq.append(s)
            s = succ[s]
        if seq:
            steps = shift[seq]
            loops.append((r[seq] + (np.cumsum(steps, axis=0) - steps), steps.sum(axis=0)))
    return loops


def _orient(points, frac, src):
    """Put the negative side of the source on the right of travel."""
    m = len(points)
    seglen = np.hypot(*(np.roll(points, -1, axis=0) - points).T)
    typical = np.median(seglen)
    for p in range(m):
        a = points[p]
        b = points[(p + 1) % m]
        L = seglen[p]
        if L < 1e-12 or L > 5.0 * typical + 1e-9:
            continue  # skip degenerate and torus-closure segments
        tau = (b - a) / L
        right = np.array([tau[1], -tau[0]])
        mid = 0.5 * (a + b)
        val = src(mid[0] + max(L, 1e-4) * right[0], mid[1] + max(L, 1e-4) * right[1])
        if abs(val) > 1e-10:
            if val > 0:
                return points[::-1].copy(), frac[::-1].copy()
            return points, frac
    raise DegenerateFieldError("cannot orient contour: source vanishes on both sides")


def _oriented_loops(grid, node_source, src):
    """Zero loops of src on the lattice of grid, as oriented (points, frac, wraps).

    node_source is the (nx, ny) array of src at the unnudged nodes.
    """
    def phi(u, v):
        return src(*grid.cell.k_at(u, v))

    out = []
    for frac, wraps in _marching_loops(phi, node_source, grid.nx, grid.ny):
        kx, ky = grid.cell.k_at(frac[:, 0], frac[:, 1])
        points, frac = _orient(np.stack([kx, ky], axis=-1), frac, src)
        out.append((points, frac, wraps))
    return out


def _source_loops(grid):
    """Oriented zero loops of the source criterion of grid."""
    return _oriented_loops(grid, grid.hj + _source_shift(grid), source_function(grid))


def _contours(loops, tag, ev):
    """One contour per loop, with its own arrays and the residual of ev on it."""
    return [BisContour(points=points.copy(), frac=frac.copy(), source=tag, wraps=wraps.copy(),
                       residual=float(np.max(np.abs(ev(points[:, 0], points[:, 1])))))
            for points, frac, wraps in loops]


def _check_tol_bis(tol_bis):
    # a contour's residual is never negative, so no other value can accept one
    if not tol_bis > 0:
        raise UsageError(f"tol_bis must be positive, got {float(tol_bis)}")


def _check_delta(delta, grid):
    """delta must be finite, positive and below the smallest node spacing
    of the grid: a step across nodes differentiates the field over more
    than the grid resolves (at 128^2 a step of 3 gave a clean wrong
    winding)."""
    if not (np.isfinite(delta) and delta > 0):
        raise UsageError(f"delta must be finite and positive, got {float(delta)}")
    nx, ny = grid.nx, grid.ny
    b0, b1 = grid.cell.basis[0] / nx, grid.cell.basis[1] / ny
    spacing = min(float(np.hypot(*v)) for v in (b0, b1, b0 + b1, b0 - b1))
    if delta >= spacing:
        raise UsageError(f"delta {float(delta)} must be below the node spacing {spacing:.6g} "
                         f"of the {int(nx)} x {int(ny)} grid")


def extract_bis(grid, tol_bis=1e-6, include_rejected=False):
    """Band-inversion contours: zero sets of the source criterion on which
    every polarization component of the grid also vanishes.

    Contours failing the all-components check (possible for synthetic or
    mode-mixed data) are excluded; pass include_rejected=True to get
    them in a second list instead of dropping them.  tol_bis must be
    positive.  Only the grid's lattice is read, not its values.
    """
    _check_tol_bis(tol_bis)
    ev = polarization_evaluator(grid.cfg, grid.j, grid.observable)
    contours = _contours(_source_loops(grid), source_tag(grid), ev)
    good = [c for c in contours if c.residual < tol_bis]
    if include_rejected:
        return good, [c for c in contours if c.residual >= tol_bis]
    return good


def component_zero_curves(grid, component):
    """Zero contours of one measured polarization component.

    Unlike extract_bis the source here is the signed component value
    itself, so only sign-changing (transversal) zeros are found.  No
    band-inversion filtering is applied; the residual field tells how
    small the remaining components are.
    """
    ev = polarization_evaluator(grid.cfg, grid.j, grid.observable)

    def src(kx, ky):
        return ev(kx, ky)[..., component - 1]

    loops = _oriented_loops(grid, grid.values[..., component - 1], src)
    return _contours(loops, f"{source_tag(grid)}:zero-s{component}", ev)


def dynamical_field(contour, grid, delta=1e-4):
    """Unit dynamical field on a contour.

    At each contour point the inward normal is the normalized gradient
    of the source criterion (pointing toward positive source values);
    the two non-j polarization components are differentiated along it
    with a central step delta (finite, positive and below the grid's
    node spacing) and the negated derivative is normalized.
    """
    _check_delta(delta, grid)
    src = source_function(grid)
    ev = polarization_evaluator(grid.cfg, grid.j, grid.observable)
    pq = FIELD_COMPONENTS[grid.j]
    k = contour.points
    eps = 1e-6
    gx = (src(k[:, 0] + eps, k[:, 1]) - src(k[:, 0] - eps, k[:, 1])) / (2 * eps)
    gy = (src(k[:, 0], k[:, 1] + eps) - src(k[:, 0], k[:, 1] - eps)) / (2 * eps)
    nrm = np.hypot(gx, gy)
    if np.any(nrm < 1e-12):
        p = int(np.argmin(nrm))
        raise DegenerateFieldError(f"source gradient vanishes at k=({float(k[p, 0])}, {float(k[p, 1])})")
    nhx, nhy = gx / nrm, gy / nrm
    tp = ev(k[:, 0] + delta * nhx, k[:, 1] + delta * nhy)
    tm = ev(k[:, 0] - delta * nhx, k[:, 1] - delta * nhy)
    g = -(tp[:, list(pq)] - tm[:, list(pq)]) / (2 * delta)
    L = np.hypot(g[:, 0], g[:, 1])
    if np.any(L < 1e-12):
        p = int(np.argmin(L))
        raise DegenerateFieldError(f"dynamical field vanishes at k=({float(k[p, 0])}, {float(k[p, 1])})")
    contour.gfield = g / L[:, None]
    return contour.gfield


def winding(contour, layer_factor=1):
    """Accumulated angle of the dynamical field around the contour over 2 pi.

    Requires dynamical_field to have been evaluated.  A contour of fewer
    than 32 points, or a pre-rounding residual of 0.05 or more, raises
    NonQuantizedWindingError.  The rounded integer is stored on the
    contour and the returned value carries the layer factor (1 for abba
    subspaces, N for ba data).
    """
    if contour.gfield is None:
        raise UsageError("winding requires the dynamical field; call dynamical_field first")
    g = contour.gfield
    if len(g) < 32:
        raise NonQuantizedWindingError(
            f"contour has only {len(g)} points, at least 32 are needed for a winding; "
            "use a larger --grid")
    a = g
    b = np.roll(g, -1, axis=0)
    ang = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
                     a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]).sum()
    total = ang / (2 * np.pi)
    nearest = np.rint(total)
    if not abs(total - nearest) < WINDING_RESIDUAL_TOL:  # also fails a NaN sum
        raise NonQuantizedWindingError(
            f"winding {total} is not integer within {WINDING_RESIDUAL_TOL}")
    contour.w = int(nearest)
    return contour.w * layer_factor


def characterize(cfg, j=3, resolution=256, delta=1e-4, tol_bis=1e-6,
                 observable=("global",)):
    """Full dynamical characterization: contours, fields and windings.

    Global data of an abba stack is analysed mode by mode (layer factor
    1 each), global ba data with layer factor N, and ("subspace", r)
    data from its one mode with layer factor 1.  Returns a dict with the
    contour list, per-contour windings and the total invariant.  An
    empty contour list is a valid trivial result.

    All observables share one node lattice and no polarization values
    are sampled at its nodes.  Modes whose source criteria coincide
    (every abba mode for j = 2, 3: the common band-inversion surface
    h_j = 0) share one extraction; each mode then keeps the contours on
    which its own closed-form polarization vanishes, exactly as
    sample_grid -> extract_bis per mode would give them.
    """
    _check_tol_bis(tol_bis)
    if observable[0] != "global":
        layer_factor, observables = 1, [tuple(observable)]
    elif cfg.stacking == "abba":
        layer_factor, observables = 1, [("subspace", r) for r in range(1, cfg.layers + 1)]
    else:
        layer_factor, observables = cfg.layers, [tuple(observable)]
    evaluators = [polarization_evaluator(cfg, j, obs) for obs in observables]
    lattice = _node_lattice(cfg, j, observables[0], resolution)[0]
    _check_delta(delta, lattice)
    loops = {}  # source shift -> oriented loops; equal shifts are the same source
    contours = []
    total = 0
    for obs, ev in zip(observables, evaluators):
        grid = replace(lattice, observable=obs)
        shift = _source_shift(grid)
        if shift not in loops:
            loops[shift] = _source_loops(grid)
        for c in _contours(loops[shift], source_tag(grid), ev):
            if c.residual < tol_bis:
                dynamical_field(c, grid, delta)
                total += winding(c, layer_factor)
                contours.append(c)
    return {"contours": contours, "total_w": int(total), "layer_factor": layer_factor}
