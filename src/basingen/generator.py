"""Randomized construction of test functions with fully known ground truth.

Each function of a class is assembled from a base paraboloid
``g(x) = ||x - T||^2 + t`` whose vertex ``T`` is minimizer 1, a
user-pinned global minimizer ``x*`` (minimizer 2) at exact distance
``global_dist`` from ``T``, and further local minimizers drawn uniformly
over the interior of the box.  Attraction radii, basin depths, and the
curvature parameter ``delta`` are then derived so that every minimizer,
its value, and its basin radius are known exactly.

Generation is a pure function of ``(params, nf)``: the random stream is
seeded from the function number, the minimizer count, and the dimension,
so regenerating a function reproduces it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import (
    PRECISION, ClassParams, ErrorCode, ParameterError, ValidationError, check, radius_weights
)
from .rng import MODULUS, LaggedFibonacci

FUNCTIONS_PER_CLASS = 100
RETRY_BUDGET = 10_000

VERTEX_ROW = 0  # minimizer 1: paraboloid vertex T
GLOBAL_ROW = 1  # minimizer 2: user-pinned global minimizer x*


@dataclass(frozen=True, eq=False)
class MinimaTable:
    """Per-minimizer ground truth; row 0 is the vertex, row 1 the global.

    local_min : (m, dim) minimizer coordinates
    f         : (m,) function values at the minimizers
    rho       : (m,) attraction-ball radii (weights already applied)
    peak      : (m,) basin depths below the ball-boundary paraboloid
                minimum (0 for rows 0 and 1, whose values are user-fixed)
    w_rho     : (m,) radius weight coefficients
    """

    local_min: np.ndarray
    f: np.ndarray
    rho: np.ndarray
    peak: np.ndarray
    w_rho: np.ndarray

    def __post_init__(self):
        for name in ("local_min", "f", "rho", "peak", "w_rho"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class GlobalInfo:
    """Count of global minimizers and a 1-based index permutation that
    lists the global ones first (ascending), then the rest (ascending).
    """

    num_global_minima: int
    gm_index: np.ndarray

    def __post_init__(self):
        arr = np.array(self.gm_index, dtype=int)
        arr.setflags(write=False)
        object.__setattr__(self, "gm_index", arr)

    @property
    def global_indices(self) -> np.ndarray:
        return self.gm_index[: self.num_global_minima]


@dataclass(frozen=True, eq=False)
class GeneratedFunction:
    """Immutable ground-truth record of one generated test function."""

    params: ClassParams
    nf: int
    minima: MinimaTable
    glob: GlobalInfo
    delta: float

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def num_minima(self) -> int:
        return self.params.num_minima

    @cached_property
    def vertex(self) -> np.ndarray:
        return self.minima.local_min[VERTEX_ROW]

    @cached_property
    def global_minimizer(self) -> np.ndarray:
        return self.minima.local_min[GLOBAL_ROW]

    @cached_property
    def lower(self) -> np.ndarray:
        arr = np.array(self.params.domain_left)
        arr.setflags(write=False)
        return arr

    @cached_property
    def upper(self) -> np.ndarray:
        arr = np.array(self.params.domain_right)
        arr.setflags(write=False)
        return arr

    @cached_property
    def bridge(self) -> np.ndarray:
        """Per-minimizer constant ||T - M_i||^2 + t - f_i coupling each
        basin polynomial to the paraboloid."""
        diffs = self.minima.local_min - self.vertex
        arr = (
            np.einsum("ij,ij->i", diffs, diffs)
            + self.params.paraboloid_min
            - self.minima.f
        )
        arr.setflags(write=False)
        return arr


def function_seed(params: ClassParams, nf: int) -> int:
    """Frozen seed map: distinct per (nf, dimension, minimizer count)."""
    raw = (nf - 1) + (params.num_minima - 1) * 100 + (params.dim - 1) * 1_000_000
    return raw % MODULUS


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


def _draw_angles(dim: int, rng: LaggedFibonacci) -> list[float]:
    """Spherical angles: first in [0, pi], the remaining dim-2 in [0, 2*pi]."""
    angles = [math.pi * rng.uniform()]
    for _ in range(dim - 2):
        angles.append(2.0 * math.pi * rng.uniform())
    return angles


def _spherical_offset(radius: float, angles: list[float]) -> np.ndarray:
    """Cartesian offset of length `radius` from spherical angles."""
    dim = len(angles) + 1
    offset = np.empty(dim)
    sin_prod = 1.0
    for j, phi in enumerate(angles):
        offset[j] = radius * math.cos(phi) * sin_prod
        sin_prod *= math.sin(phi)
    offset[dim - 1] = radius * sin_prod
    return offset


def _reflect_into_domain(
    point: np.ndarray, center: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Mirror out-of-box coordinates about `center`; preserves the
    per-coordinate distance |point_k - center_k| and hence the norm."""
    out = point.copy()
    outside = (out < lower) | (out > upper)
    out[outside] = 2.0 * center[outside] - out[outside]
    return out


def place_vertex_and_global(
    params: ClassParams, rng: LaggedFibonacci
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the paraboloid vertex uniformly over the box interior and put
    the global minimizer at exact distance `global_dist` from it, using
    random spherical angles with out-of-box coordinates reflected."""
    lower = np.array(params.domain_left)
    upper = np.array(params.domain_right)
    span = upper - lower
    for _ in range(RETRY_BUDGET):
        vertex = _draw_point(lower, span, rng)
        if not _is_interior(vertex, lower, upper, PRECISION):
            continue
        offset = _spherical_offset(params.global_dist, _draw_angles(params.dim, rng))
        global_min = _reflect_into_domain(vertex + offset, vertex, lower, upper)
        if _is_interior(global_min, lower, upper, PRECISION):
            return vertex, global_min
    raise ParameterError(
        ValidationError(
            ErrorCode.GLOBAL_DIST,
            f"cannot place the global minimizer at global_dist={params.global_dist!r} "
            f"from the vertex and more than the precision {PRECISION!r} inside "
            f"the box: exceeded {RETRY_BUDGET} draws",
        )
    )


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
            if np.linalg.norm(candidate - global_min) < min_gap:
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


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise distances with inf on the diagonal.  Filled row by row:
    an (m, m, dim) broadcast would take 40 MB at 20-D with 500 minima."""
    count = points.shape[0]
    dists = np.empty((count, count))
    for i in range(count):
        diffs = points - points[i]
        dists[i] = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    np.fill_diagonal(dists, np.inf)
    return dists


def compute_radii(local_min: np.ndarray, params: ClassParams) -> np.ndarray:
    """Attraction radii: the global ball keeps its user radius; every
    other ball starts at half the distance to its nearest neighbour, is
    then expanded (ascending row order) up to tangency with the current
    radii, and finally shrunk by the weight coefficients."""
    dists = _distance_matrix(local_min)
    rho = 0.5 * dists.min(axis=1)
    rho[GLOBAL_ROW] = params.global_radius
    for i in (VERTEX_ROW, *range(2, local_min.shape[0])):
        rho[i] = max(rho[i], (dists[i] - rho).min())
    return rho * radius_weights(len(rho))


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


def identify_globals(values: np.ndarray) -> GlobalInfo:
    """Classify minimizers by value: everything within the precision of
    the global value is a global minimizer."""
    threshold = values[GLOBAL_ROW] + PRECISION
    indices = np.arange(1, len(values) + 1)  # 1-based minimizer indices
    is_global = values <= threshold
    gm_index = np.concatenate([indices[is_global], indices[~is_global]])
    return GlobalInfo(num_global_minima=int(is_global.sum()), gm_index=gm_index)


def generate(params: ClassParams, nf: int) -> GeneratedFunction:
    """Generate function `nf` (1..100) of the class defined by `params`.

    Deterministic: equal arguments produce bitwise-identical records.
    Raises :class:`ParameterError` on invalid parameters, a function
    number outside [1, 100], or geometric placement failure.
    """
    errors = check(params)
    if errors:
        raise ParameterError(errors)
    if not isinstance(nf, int) or isinstance(nf, bool) or not 1 <= nf <= FUNCTIONS_PER_CLASS:
        raise ParameterError(
            ValidationError(
                ErrorCode.FUNC_NUMBER,
                f"function number must be an integer in [1, {FUNCTIONS_PER_CLASS}], "
                f"got {nf!r}",
            )
        )
    rng = LaggedFibonacci(function_seed(params, nf))
    vertex, global_min = place_vertex_and_global(params, rng)
    others = place_local_minimizers(params, vertex, global_min, rng)
    local_min = np.vstack([vertex[None, :], global_min[None, :], others])
    rho = compute_radii(local_min, params)
    values, peaks = compute_minima_values(local_min, rho, params, rng)
    delta = params.delta_max * _positive_uniform(rng)
    glob = identify_globals(values)
    func = GeneratedFunction(
        params=params,
        nf=nf,
        minima=MinimaTable(
            local_min=local_min,
            f=values,
            rho=rho,
            peak=peaks,
            w_rho=radius_weights(params.num_minima),
        ),
        glob=glob,
        delta=delta,
    )
    problems = ground_truth_problems(func)
    if problems:
        raise RuntimeError(
            "internal error: generated record violates its invariants: "
            + "; ".join(problems)
        )
    return func


def ground_truth_problems(func: GeneratedFunction) -> list[str]:
    """Audit a ground-truth record against every structural invariant.

    Returns human-readable descriptions of all violations (empty when the
    record is consistent).  A field of the wrong shape or with a
    non-finite entry is reported alone.  Used both as a post-generation
    self-check and to validate loaded notebooks, so the distances are
    computed afresh from the record.
    """
    params = func.params
    table = func.minima
    eps = PRECISION
    count = params.num_minima

    if table.local_min.shape != (count, params.dim):
        return [
            f"minimizer table has shape {table.local_min.shape}, "
            f"expected {(count, params.dim)}"
        ]
    for name in ("f", "rho", "peak", "w_rho"):
        if getattr(table, name).shape != (count,):
            return [f"field {name} must have length {count}"]
    for name in ("local_min", "f", "rho", "peak", "w_rho"):
        if not np.all(np.isfinite(getattr(table, name))):
            return [f"field {name} must be finite"]

    problems: list[str] = []
    if not _is_interior(table.local_min, func.lower, func.upper, eps):
        problems.append("some minimizer is not interior to the domain")

    t = params.paraboloid_min
    if table.f[VERTEX_ROW] != t:
        problems.append(f"vertex value {table.f[VERTEX_ROW]} != paraboloid minimum {t}")
    if table.f[GLOBAL_ROW] != params.global_value:
        problems.append(
            f"global minimizer value {table.f[GLOBAL_ROW]} != class value "
            f"{params.global_value}"
        )
    if np.any(table.f < params.global_value - eps):
        problems.append("some minimum lies below the class global value")
    if np.any(table.rho <= 0.0):
        problems.append("attraction radii must be positive")
    if not np.array_equal(table.w_rho, radius_weights(count)):
        problems.append("stored weights differ from the class weights")
    if np.any(table.peak[2:] <= 0.0):
        problems.append("basin depths for minimizers 3..m must be positive")
    if table.peak[VERTEX_ROW] != 0.0 or table.peak[GLOBAL_ROW] != 0.0:
        problems.append("basin depths for minimizers 1 and 2 must be stored as 0")

    # row i is reported when it breaks a rule with some later row j > i
    dists = _distance_matrix(table.local_min)
    reach = np.add.outer(table.rho, table.rho)
    reach -= eps
    coincide = np.triu(dists <= eps, 1).any(axis=1)
    overlap = np.triu(dists < reach, 1).any(axis=1)
    for i in np.flatnonzero(coincide | overlap):
        if coincide[i]:
            problems.append(f"minimizers {i + 1} and a later one coincide")
        if overlap[i]:
            problems.append(f"attraction ball {i + 1} overlaps a later ball")

    if np.any(dists[GLOBAL_ROW, 2:] < params.global_radius + params.gap - eps):
        problems.append("a local minimizer intrudes on the global-ball gap")
    boundary_min = (dists[VERTEX_ROW, 2:] - table.rho[2:]) ** 2 + t
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
    if not np.array_equal(np.sort(glob.gm_index), np.arange(1, count + 1)):
        problems.append("gm_index is not a permutation of 1..m")
    elif not 1 <= glob.num_global_minima <= count:
        problems.append("num_global_minima out of range")
    else:
        head = glob.gm_index[: glob.num_global_minima]
        tail = glob.gm_index[glob.num_global_minima :]
        if 2 not in head:
            problems.append("minimizer 2 missing from the global list")
        actual = np.flatnonzero(table.f <= params.global_value + eps) + 1
        if not np.array_equal(np.sort(head), actual):
            problems.append("global list disagrees with the stored values")
        if np.any(np.diff(head) <= 0) or np.any(np.diff(tail) <= 0):
            problems.append("gm_index groups are not in ascending order")

    return problems
