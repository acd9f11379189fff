"""Ball-at-a-time reference for batch evaluation.

``eval_many`` exactly as ``basingen.evaluate`` wrote it before the
power-diagram lookup: per chunk of 2**16 points, a linear scan over the
attraction balls, highest row first, so that on exact tangency the
lowest row is written last and wins.  It shares only the basin
polynomial coefficients and the Horner step with the library, so the
library's ball lookup and gathered kernel can be compared with it bit
for bit.
"""

import numpy as np

from basingen.evaluate import _horner, _plan
from basingen.params import PRECISION

BATCH_CHUNK = 1 << 16


def eval_many(func, family, points):
    """Values of `family` at the rows of an (n, dim) array of feasible
    points; nothing is validated."""
    pts = np.asarray(points, dtype=float)
    table = func.minima
    values = np.empty(len(pts))
    for start in range(0, len(pts), BATCH_CHUNK):
        block = pts[start : start + BATCH_CHUNK]
        diffs = block - func.vertex
        out = np.einsum("ij,ij->i", diffs, diffs) + func.params.paraboloid_min
        for row in range(func.num_minima - 1, 0, -1):
            center = table.local_min[row]
            rho = float(table.rho[row])
            d = block - center
            dist_sq = np.einsum("ij,ij->i", d, d)
            mask = dist_sq <= rho * rho
            if not mask.any():
                continue
            r = np.sqrt(dist_sq[mask])
            c = np.einsum("ij,j->i", d[mask], func.vertex - center)
            coef_a, coef_c = _plan(func, family).coefs[row - 1]
            branch = _horner(coef_a, r)[0] + c * _horner(coef_c, r)[0]
            out[mask] = np.where(r < PRECISION, float(table.f[row]), branch)
        values[start : start + BATCH_CHUNK] = out
    return values
