"""Test-only reference: the per-row CSV writer that the columnar
layerquench.cli._write_csv replaced, with the row generators of the
tasp, bis and phase-diagram commands.  It is kept unchanged so the CLI
files can be checked against it byte for byte.
"""

import numpy as np


def _fmt(x):
    return "%.17g" % float(x)


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_cell(v) for v in row) + "\n")


def tasp_rows(KX, KY, values, comp):
    nx, ny = KX.shape
    return ((KX[i, l], KY[i, l], values[i, l, comp - 1])
            for i in range(nx) for l in range(ny))


def bis_rows(c):
    return ((c.points[p, 0], c.points[p, 1], c.gfield[p, 0], c.gfield[p, 1], c.source)
            for p in range(len(c.points)))


def phase_rows(pd):
    rows = []
    for i in range(len(pd.ts)):
        for l in range(len(pd.ms)):
            c = "boundary" if pd.boundary[i, l] else str(int(pd.chern[i, l]))
            rows.append((pd.ts[i], pd.ms[l], c, pd.gap_min[i, l]))
    return rows
