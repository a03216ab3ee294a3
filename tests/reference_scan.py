"""Per-cell phase scan and solid-angle degree, kept as a test oracle.

This is the scan that layerquench.topology.phase_diagram replaced: one
LayeredConfig per (t, m) cell, the half-filling gap from
analytic_positive_levels, and for abba cells one unit-field degree per
sine mode built from np.cross, einsum and np.roll, refined twice before
a cell is flagged as boundary.  A ba cell is N times the same degree of
the monolayer at its mass, on the same grids.  The batched scan must
reproduce its chern and boundary arrays, and its gap_min bit for bit.
"""

import numpy as np

from layerquench import GaplessError, LayeredConfig, NonQuantizedWindingError
from layerquench.models import sampling_cell
from layerquench.spectra import analytic_positive_levels
from layerquench.topology import DEN_FLOOR, GAP_TOL_DEFAULT, ROUND_TOL, subsystem_field_fn


def cell_nodes(cell, n):
    u = np.arange(n)[:, None] / n
    v = np.arange(n)[None, :] / n
    return cell.k_at(u, v)


def solid_angle_sum(nh):
    """Signed sphere area swept by the plaquette quadrilaterals of the
    unit field nh (n, n, 3); returns (sum, den_min)."""
    n1 = nh
    n2 = np.roll(nh, -1, axis=0)
    n3 = np.roll(nh, -1, axis=(0, 1))
    n4 = np.roll(nh, -1, axis=1)

    def solid(a, b, c):
        num = np.einsum("...i,...i->...", a, np.cross(b, c))
        den = (1.0 + np.einsum("...i,...i->...", a, b)
               + np.einsum("...i,...i->...", b, c)
               + np.einsum("...i,...i->...", c, a))
        return 2.0 * np.arctan2(num, den), den

    s1, d1 = solid(n1, n2, n3)
    s2, d2 = solid(n1, n3, n4)
    return s1.sum() + s2.sum(), float(min(d1.min(), d2.min()))


def chern_two_band(field_fn, grid_n, cell):
    KX, KY = cell_nodes(cell, grid_n)
    h = field_fn(KX, KY)
    nrm = np.linalg.norm(h, axis=-1)
    if nrm.min() < 1e-9:
        raise GaplessError("field vanishes")
    s, den_min = solid_angle_sum(h / nrm[..., None])
    if den_min < DEN_FLOOR:
        raise GaplessError("nearly antipodal plaquette")
    total = s / (4 * np.pi)
    nearest = np.rint(total)
    if abs(total - nearest) >= ROUND_TOL:
        raise NonQuantizedWindingError("degree is not integer")
    return int(nearest)


def total_chern_abba(cfg, grid_n):
    cell = sampling_cell(cfg.model)
    return sum(chern_two_band(subsystem_field_fn(cfg, r), grid_n, cell)
               for r in range(1, cfg.layers + 1))


def phase_diagram(stacking, layers, t_range, m_range, steps, model="qwz",
                  grid_n=48, gap_tol=GAP_TOL_DEFAULT):
    """Serial per-cell scan; returns (chern, gap_min, boundary, factor),
    factor being the grid refinement that certified each cell (0 for a
    boundary cell)."""
    st, sm = (steps, steps) if isinstance(steps, int) else steps
    ts = t_range[0] + (np.arange(st) + 0.5) * (t_range[1] - t_range[0]) / st
    ms = m_range[0] + (np.arange(sm) + 0.5) * (m_range[1] - m_range[0]) / sm
    cell = sampling_cell(model)
    chern = np.zeros((st, sm), dtype=int)
    gap = np.zeros((st, sm))
    boundary = np.zeros((st, sm), dtype=bool)
    factor_used = np.zeros((st, sm), dtype=int)
    for i in range(st):
        for l in range(sm):
            cfg = LayeredConfig(stacking=stacking, layers=layers, t=float(ts[i]),
                                model=model, m=float(ms[l]))
            KX, KY = cell_nodes(cell, grid_n)
            gap[i, l] = 2.0 * float(analytic_positive_levels(KX, KY, cfg).min())
            if gap[i, l] < gap_tol:
                boundary[i, l] = True
                continue
            for factor in (1, 2, 4):
                try:
                    if stacking == "abba":
                        chern[i, l] = total_chern_abba(cfg, factor * grid_n)
                    else:
                        mono = LayeredConfig("abba", 1, 0.0, model, cfg.m)
                        chern[i, l] = layers * total_chern_abba(mono, factor * grid_n)
                    factor_used[i, l] = factor
                    break
                except (GaplessError, NonQuantizedWindingError):
                    continue
            else:
                boundary[i, l] = True
    return chern, gap, boundary, factor_used
