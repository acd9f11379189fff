"""Row-by-row reference for the ground-truth audit.

``ground_truth_problems`` exactly as ``basingen.generator`` wrote it
before the audit became one pass over the whole minimizer table: a
Python loop over the minimizers for coincidence and overlap, and
separate norm passes for the global gap and the boundary minimum.  It
shares no code with the library beyond the record it reads, so the
library's verdicts can be compared with it list for list.  A stored
class value matches its class value only with the same sign of zero,
as in the library.
"""

import math

import numpy as np

from basingen.params import PRECISION, radius_weights

VERTEX_ROW = 0
GLOBAL_ROW = 1


def _same(stored, value) -> bool:
    """The same float: ``-0.0 == 0.0`` alone is true."""
    return stored == value and math.copysign(1.0, stored) == math.copysign(1.0, value)


def ground_truth_problems(func) -> list[str]:
    """Audit a ground-truth record against every structural invariant.

    Returns human-readable descriptions of all violations (empty when the
    record is consistent).
    """
    problems: list[str] = []
    params = func.params
    table = func.minima
    eps = PRECISION
    count = params.num_minima

    if table.local_min.shape != (count, params.dim):
        problems.append(
            f"minimizer table has shape {table.local_min.shape}, "
            f"expected {(count, params.dim)}"
        )
        return problems
    for name in ("f", "rho", "peak", "w_rho"):
        if getattr(table, name).shape != (count,):
            problems.append(f"field {name} must have length {count}")
            return problems

    lower = func.lower
    upper = func.upper
    if np.any(table.local_min <= lower + eps) or np.any(table.local_min >= upper - eps):
        problems.append("some minimizer is not interior to the domain")

    t = params.paraboloid_min
    if not _same(table.f[VERTEX_ROW], t):
        problems.append(f"vertex value {table.f[VERTEX_ROW]} != paraboloid minimum {t}")
    if not _same(table.f[GLOBAL_ROW], params.global_value):
        problems.append(
            f"global minimizer value {table.f[GLOBAL_ROW]} != class value "
            f"{params.global_value}"
        )
    if not _same(table.rho[GLOBAL_ROW], params.global_radius):
        problems.append(
            f"global attraction radius {table.rho[GLOBAL_ROW]} != class radius "
            f"{params.global_radius}"
        )
    if np.any(table.f < params.global_value - eps):
        problems.append("some minimum lies below the class global value")
    if np.any(table.rho <= 0.0):
        problems.append("attraction radii must be positive")
    if not np.allclose(table.w_rho, radius_weights(count), rtol=0.0, atol=0.0):
        problems.append("stored weights differ from the class weights")
    if np.any(table.peak[2:] <= 0.0):
        problems.append("basin depths for minimizers 3..m must be positive")
    if table.peak[VERTEX_ROW] != 0.0 or table.peak[GLOBAL_ROW] != 0.0:
        problems.append("basin depths for minimizers 1 and 2 must be stored as 0")

    for i in range(count):
        diffs = table.local_min[i + 1 :] - table.local_min[i]
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        if np.any(dists <= eps):
            problems.append(f"minimizers {i + 1} and a later one coincide")
        if np.any(dists < table.rho[i] + table.rho[i + 1 :] - eps):
            problems.append(f"attraction ball {i + 1} overlaps a later ball")

    if count > 2:
        gaps = np.linalg.norm(
            table.local_min[2:] - table.local_min[GLOBAL_ROW], axis=1
        )
        if np.any(gaps < params.global_radius + params.gap - eps):
            problems.append("a local minimizer intrudes on the global-ball gap")
        vertex_dists = np.linalg.norm(
            table.local_min[2:] - table.local_min[VERTEX_ROW], axis=1
        )
        boundary_min = (vertex_dists - table.rho[2:]) ** 2 + t
        if np.any(table.f[2:] >= boundary_min):
            problems.append(
                "some minimum is not below the paraboloid minimum over its "
                "ball boundary"
            )

    if not 0.0 < func.delta < params.delta_max:
        problems.append(
            f"delta {func.delta} outside the open interval (0, {params.delta_max})"
        )

    glob = func.glob
    if sorted(glob.gm_index.tolist()) != list(range(1, count + 1)):
        problems.append("gm_index is not a permutation of 1..m")
    elif not 1 <= glob.num_global_minima <= count:
        problems.append("num_global_minima out of range")
    else:
        threshold = params.global_value + eps
        listed = set(glob.gm_index[: glob.num_global_minima].tolist())
        if 2 not in listed:
            problems.append("minimizer 2 missing from the global list")
        actual = {i + 1 for i in range(count) if table.f[i] <= threshold}
        if listed != actual:
            problems.append("global list disagrees with the stored values")
        head = glob.gm_index[: glob.num_global_minima].tolist()
        tail = glob.gm_index[glob.num_global_minima :].tolist()
        if head != sorted(head) or tail != sorted(tail):
            problems.append("gm_index groups are not in ascending order")

    return problems
