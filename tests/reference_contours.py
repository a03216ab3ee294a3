"""Test-only reference: the per-cell marching-squares walk with scalar
bisection that the vectorized contour engine in layerquench.bisfield
replaced.  It is kept unchanged so the engine can be checked against it
point for point; phi may be the engine's vectorized source, which it
calls with scalars.
"""

import numpy as np


def reference_marching_loops(phi, nodes, nx, ny):
    """Zero loops of a signed function on the unit torus.

    phi maps fractional (u, v) scalars to a signed value; nodes is the
    precomputed (nx, ny) node array of phi.  Returns a list of
    (points, wraps): unwrapped fractional polylines and their integer
    period counts.  Nodes exactly at zero are classed with the negative
    side, so zero sets through nodes still produce closed loops.
    """
    pos = nodes > 0

    def bisect(pa, pb):
        fa = phi(*pa)
        pa = np.asarray(pa, dtype=float).copy()
        pb = np.asarray(pb, dtype=float).copy()
        if fa > 0:  # keep pa on the non-positive side
            pa, pb = pb, pa
        for _ in range(64):
            pm = 0.5 * (pa + pb)
            if phi(*pm) > 0:
                pb = pm
            else:
                pa = pm
            if np.max(np.abs(pb - pa)) <= 1e-9:
                break
        return 0.5 * (pa + pb)

    root_cache = {}

    def edge_root(edge):
        axis, i, l = edge
        key = (axis, i % nx, l % ny)
        if key not in root_cache:
            a = np.array([(i % nx) / nx, (l % ny) / ny])
            step = np.array([1.0 / nx, 0.0]) if axis == "h" else np.array([0.0, 1.0 / ny])
            root_cache[key] = bisect(a, a + step)
        return root_cache[key]

    pair_cache = {}

    def cell_pairs(ci, cl):
        key = (ci % nx, cl % ny)
        if key in pair_cache:
            return pair_cache[key]
        i, l = key
        c = [pos[i, l], pos[(i + 1) % nx, l],
             pos[(i + 1) % nx, (l + 1) % ny], pos[i, (l + 1) % ny]]
        bottom, right = ("h", i, l), ("v", (i + 1) % nx, l)
        top, left = ("h", i, (l + 1) % ny), ("v", i, l)
        crossing = [e for e, (sa, sb) in ((bottom, (c[0], c[1])), (right, (c[1], c[2])),
                                          (top, (c[3], c[2])), (left, (c[0], c[3])))
                    if sa != sb]
        if not crossing:
            pairs = {}
        elif len(crossing) == 2:
            a, b = crossing
            pairs = {a: b, b: a}
        elif len(crossing) == 4:
            # saddle cell: resolve the pairing with a centre sample
            center = phi((i + 0.5) / nx, (l + 0.5) / ny) > 0
            if center == c[0]:
                pl = [(bottom, right), (top, left)]
            else:
                pl = [(left, bottom), (right, top)]
            pairs = {}
            for a, b in pl:
                pairs[a] = b
                pairs[b] = a
        else:
            raise RuntimeError("inconsistent sign pattern in marching squares")
        pair_cache[key] = pairs
        return pairs

    def cells_of_edge(axis, i, l):
        if axis == "h":
            return ((i, l), (i, (l - 1) % ny))
        return ((i, l), ((i - 1) % nx, l))

    visited = set()
    loops = []
    for ci in range(nx):
        for cl in range(ny):
            for start_edge in cell_pairs(ci, cl):
                if ((ci, cl), start_edge) in visited:
                    continue
                pts = []
                cell = (ci, cl)
                offset = np.zeros(2)
                entry = start_edge
                while True:
                    if (cell, entry) in visited:
                        break
                    # mark both ends so the reverse traversal is blocked too
                    visited.add((cell, entry))
                    visited.add((cell, cell_pairs(*cell)[entry]))
                    r = edge_root(entry).copy()
                    # wrap the cached root into the frame of the current cell
                    base = np.array([cell[0] / nx, cell[1] / ny])
                    span = np.array([1.0 / nx, 1.0 / ny])
                    for d in range(2):
                        while r[d] < base[d] - 0.5 * span[d]:
                            r[d] += 1.0
                        while r[d] > base[d] + 1.5 * span[d]:
                            r[d] -= 1.0
                    pts.append(r + offset)
                    exit_edge = cell_pairs(*cell)[entry]
                    cands = cells_of_edge(*exit_edge)
                    nxt = cands[0] if cands[0] != cell else cands[1]
                    axis = exit_edge[0]
                    if axis == "v":
                        if exit_edge == ("v", (cell[0] + 1) % nx, cell[1]):
                            if cell[0] == nx - 1:
                                offset[0] += 1.0
                        else:
                            if cell[0] == 0:
                                offset[0] -= 1.0
                    else:
                        if exit_edge == ("h", cell[0], (cell[1] + 1) % ny):
                            if cell[1] == ny - 1:
                                offset[1] += 1.0
                        else:
                            if cell[1] == 0:
                                offset[1] -= 1.0
                    cell = nxt
                    entry = exit_edge
                if len(pts) >= 3:
                    loops.append((np.array(pts), np.rint(offset).astype(int)))
    return loops
