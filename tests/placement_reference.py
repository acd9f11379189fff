"""Candidate-at-a-time reference for minimizer placement and values.

``place_local_minimizers`` and ``compute_minima_values``, with the
helpers they call, exactly as ``basingen.generator`` wrote them before
generation moved to block draws: one ``uniform()`` call per coordinate
and per value draw, one candidate tested at a time.  Only the gap test
is re-spelled: it takes the ``einsum`` norm that the library's gap rule
uses, not ``np.linalg.norm``, whose BLAS dot rounds by the CPU's kernel.
They share no code
with the library beyond the stream they read and the error types they
raise, so the library's minimizers, values and stream position can be
compared with them bit for bit.
"""

import numpy as np

from basingen.params import PRECISION, ClassParams, ErrorCode, ParameterError, ValidationError
from basingen.rng import LaggedFibonacci

RETRY_BUDGET = 10_000

VERTEX_ROW = 0
GLOBAL_ROW = 1


def _draw_point(lower: np.ndarray, span: np.ndarray, rng: LaggedFibonacci) -> np.ndarray:
    return lower + span * np.array([rng.uniform() for _ in range(len(lower))])


def _positive_uniform(rng: LaggedFibonacci) -> float:
    # open-interval draw: 0.0 occurs with probability 2**-30 and is redrawn
    value = rng.uniform()
    while value == 0.0:
        value = rng.uniform()
    return value


def _is_interior(point: np.ndarray, lower: np.ndarray, upper: np.ndarray, margin: float) -> bool:
    return bool(np.all(point > lower + margin) and np.all(point < upper - margin))


def place_local_minimizers(
    params: ClassParams,
    vertex: np.ndarray,
    global_min: np.ndarray,
    rng: LaggedFibonacci,
) -> np.ndarray:
    """Rejection-sample minimizers 3..m: uniform over the box interior,
    pairwise distinct, and clear of the global attraction ball by the
    configured gap.  Returns an (m - 2, dim) array."""
    lower = np.array(params.domain_left)
    upper = np.array(params.domain_right)
    span = upper - lower
    min_gap = params.global_radius + params.gap

    count = params.num_minima
    points = np.empty((count, params.dim))
    points[VERTEX_ROW] = vertex
    points[GLOBAL_ROW] = global_min
    placed = 2
    while placed < count:
        for _ in range(RETRY_BUDGET):
            candidate = _draw_point(lower, span, rng)
            if not _is_interior(candidate, lower, upper, PRECISION):
                continue
            diffs = points[:placed] - candidate
            if np.min(np.einsum("ij,ij->i", diffs, diffs)) <= PRECISION**2:
                continue
            offset = candidate - global_min
            if np.sqrt(np.einsum("i,i->", offset, offset)) < min_gap:
                continue
            points[placed] = candidate
            placed += 1
            break
        else:
            raise ParameterError(
                ValidationError(
                    ErrorCode.NUM_MINIMA,
                    f"cannot place minimizers: exceeded {RETRY_BUDGET} draws for "
                    f"minimizer {placed + 1} of {count}",
                )
            )
    return points[2:]


def compute_minima_values(
    local_min: np.ndarray,
    rho: np.ndarray,
    params: ClassParams,
    rng: LaggedFibonacci,
) -> tuple[np.ndarray, np.ndarray]:
    """Fix the minima values: vertex and global values are user-set; each
    remaining value sits `peak_i` below the paraboloid minimum over its
    ball boundary, with `peak_i` the smaller of a draw from
    (rho_i, 2 rho_i) and a draw from (0, boundary_min - global_value)."""
    count = local_min.shape[0]
    values = np.empty(count)
    peaks = np.zeros(count)
    values[VERTEX_ROW] = params.paraboloid_min
    values[GLOBAL_ROW] = params.global_value
    vertex = local_min[VERTEX_ROW]
    for i in range(2, count):
        vertex_dist = float(np.linalg.norm(local_min[i] - vertex))
        # the vertex ball keeps the others away, so T is outside this
        # ball and the boundary minimum has a closed form
        boundary_min = (vertex_dist - rho[i]) ** 2 + params.paraboloid_min
        radius_draw = rho[i] * (1.0 + rng.uniform())
        depth_draw = _positive_uniform(rng) * (boundary_min - params.global_value)
        peaks[i] = min(radius_draw, depth_draw)
        values[i] = boundary_min - peaks[i]
    return values, peaks
