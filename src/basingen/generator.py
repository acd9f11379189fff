"""Randomized construction of test functions with fully known ground truth.

Each function of a class is assembled from a base paraboloid
``g(x) = ||x - T||^2 + t`` whose vertex ``T`` is minimizer 1, a
user-pinned global minimizer ``x*`` (minimizer 2) at distance
``global_dist`` from ``T``, up to the rounding of each coordinate to the
spacing of the box's magnitude, and further local minimizers drawn
uniformly over the interior of the box.  Attraction radii, basin
depths, and the curvature parameter ``delta`` are then derived so that
every minimizer, its value, and its basin radius are known exactly.

Generation is a pure function of ``(params, nf)``: the random stream is
seeded from the function number, the minimizer count, and the dimension,
so regenerating a function reproduces it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# _einsum is the C function that numpy's einsum forwards to when optimize is
# False: the same sums, without the Python layer of array-function dispatch
# (about 1 us a call).  Every einsum of the package is spelled through it
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as _einsum

from .params import (
    PRECISION, ClassParams, ErrorCode, ParameterError, ValidationError, _is_size, check,
    radius_weights,
)
from .rng import MODULUS, LaggedFibonacci

FUNCTIONS_PER_CLASS = 100
RETRY_BUDGET = 10_000
_DISTANCE_BLOCK = 1 << 15  # doubles per block of distance rows (256 KB)

VERTEX_ROW = 0  # minimizer 1: paraboloid vertex T
GLOBAL_ROW = 1  # minimizer 2: user-pinned global minimizer x*

# class value -> the minimizer column and row that store it, and the audit's
# names for the two; the notebook loader names its contradictions with them
_CLASS_VALUES = {
    "paraboloid_min": ("f", VERTEX_ROW, "vertex value", "paraboloid minimum"),
    "global_value": ("f", GLOBAL_ROW, "global minimizer value", "class value"),
    "global_radius": ("rho", GLOBAL_ROW, "global attraction radius", "class radius"),
}


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MinimaTable:
    """Per-minimizer ground truth; row 0 is the vertex, row 1 the global.

    local_min : (m, dim) minimizer coordinates
    f         : (m,) function values at the minimizers
    rho       : (m,) attraction-ball radii (weights already applied)
    peak      : (m,) basin depths below the ball-boundary paraboloid
                minimum (0 for rows 0 and 1, whose values are user-fixed)
    w_rho     : (m,) radius weights, derived: radius_weights(m)
    """

    local_min: np.ndarray
    f: np.ndarray
    rho: np.ndarray
    peak: np.ndarray

    def __post_init__(self):
        for name in ("local_min", "f", "rho", "peak"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))

    @cached_property
    def w_rho(self) -> np.ndarray:
        return _read_only(radius_weights(len(self.f)))


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
    """Immutable ground-truth record of one generated test function; the
    global list ``glob`` is derived from the stored values."""

    params: ClassParams
    nf: int
    minima: MinimaTable
    delta: float

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def num_minima(self) -> int:
        return self.params.num_minima

    @cached_property
    def glob(self) -> GlobalInfo:
        return identify_globals(self.minima.f)

    @cached_property
    def vertex(self) -> np.ndarray:
        return self.minima.local_min[VERTEX_ROW]

    @cached_property
    def global_minimizer(self) -> np.ndarray:
        return self.minima.local_min[GLOBAL_ROW]

    @cached_property
    def global_minimizers(self) -> np.ndarray:
        """Coordinates of every global minimizer, in ``glob`` order."""
        return _read_only(self.minima.local_min[self.glob.global_indices - 1])

    @cached_property
    def lower(self) -> np.ndarray:
        return _read_only(np.array(self.params.domain_left))

    @cached_property
    def upper(self) -> np.ndarray:
        return _read_only(np.array(self.params.domain_right))

    @cached_property
    def _plans(self) -> dict:
        """Evaluation plans by family, filled by ``basingen.evaluate``."""
        return {}


def function_seed(params: ClassParams, nf: int) -> int:
    """Frozen seed map: distinct per (nf, dimension, minimizer count)."""
    raw = (nf - 1) + (params.num_minima - 1) * 100 + (params.dim - 1) * 1_000_000
    return raw % MODULUS


def _positive_uniform(rng: LaggedFibonacci) -> float:
    # open-interval draw: 0.0 occurs with probability 2**-30 and is redrawn
    value = rng.uniform()
    while value == 0.0:
        value = rng.uniform()
    return value


def _is_interior(point: np.ndarray, lower: np.ndarray, upper: np.ndarray, margin: float) -> bool:
    return bool(np.all(point > lower + margin) and np.all(point < upper - margin))


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
    the global minimizer at distance `global_dist` from it, up to the
    rounding of each coordinate to the spacing of the box's magnitude,
    using random spherical angles with out-of-box coordinates reflected."""
    lower = np.array(params.domain_left)
    upper = np.array(params.domain_right)
    span = upper - lower
    # spherical angles: the first in [0, pi], the remaining dim - 2 in [0, 2 pi]
    angle_span = np.full(params.dim - 1, 2.0 * math.pi)
    angle_span[0] = math.pi
    for _ in range(RETRY_BUDGET):
        vertex = lower + span * rng.uniforms(params.dim)
        if not _is_interior(vertex, lower, upper, PRECISION):
            continue
        angles = angle_span * rng.uniforms(params.dim - 1)
        offset = _spherical_offset(params.global_dist, angles.tolist())
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
    configured gap, in the audit's einsum norm.  Returns an (m - 2, dim) array.  Candidates come in
    blocks of min(still needed, retries left) rows, all of which a
    one-at-a-time loop would draw, so its points and stream position hold."""
    lower = np.array(params.domain_left)
    upper = np.array(params.domain_right)
    span = upper - lower
    inner, outer = lower + PRECISION, upper - PRECISION
    min_gap = params.global_radius + params.gap

    count = params.num_minima
    points = np.empty((count, params.dim))
    points[VERTEX_ROW] = vertex
    points[GLOBAL_ROW] = global_min
    placed = 2
    misses = 0  # rejections since the last acceptance
    while placed < count:
        rows = min(count - placed, RETRY_BUDGET - misses)
        block = lower + span * rng.uniforms(rows * params.dim).reshape(rows, params.dim)
        offsets = block - global_min
        clear = np.sqrt(_einsum("ij,ij->i", offsets, offsets)) >= min_gap
        clear &= ((block > inner) & (block < outer)).all(axis=1)
        misses += rows
        candidates = clear.nonzero()[0]
        # a squared distance is at least its first term, so first coordinates
        # more than 2 PRECISION apart keep every pair over PRECISION apart
        # (rounding is far below the factor 4): the exact test below would
        # accept every clear row, in order
        firsts = np.sort(np.concatenate([points[:placed, 0], block[candidates, 0]]))
        if len(candidates) and (np.diff(firsts) > 2.0 * PRECISION).all():
            points[placed : placed + len(candidates)] = block[candidates]
            placed += len(candidates)
            misses = rows - 1 - int(candidates[-1])
        else:
            for row in candidates.tolist():
                diffs = points[:placed] - block[row]
                if _einsum("ij,ij->i", diffs, diffs).min() > PRECISION**2:
                    points[placed] = block[row]
                    placed += 1
                    misses = rows - 1 - row
        if misses == RETRY_BUDGET:
            raise ParameterError(
                ValidationError(
                    ErrorCode.NUM_MINIMA,
                    f"cannot place minimizers: exceeded {RETRY_BUDGET} draws for "
                    f"minimizer {placed + 1} of {count}",
                )
            )
    return points[2:]


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise distances, inf on the diagonal, as einsum row sums in blocks
    of at most _DISTANCE_BLOCK doubles.  Each block of rows is summed from
    its first row's column on and mirrored below the diagonal, which is
    exact: (a - b)**2 == (b - a)**2."""
    count, dim = points.shape
    dists = np.empty((count, count))
    step = max(1, _DISTANCE_BLOCK // (count * dim))
    for start in range(0, count, step):
        stop = start + step
        diffs = points[start:] - points[start:stop, None]
        np.sqrt(_einsum("ijk,ijk->ij", diffs, diffs), out=dists[start:stop, start:])
        dists[stop:, start:stop] = dists[start:stop, stop:].T
    np.fill_diagonal(dists, np.inf)
    return _read_only(dists)


def _strict_upper(count: int) -> np.ndarray:
    """Read-only mask of the pairs (i, j) of a distance matrix with j > i."""
    index = np.arange(count)
    return _read_only(index[:, None] < index)


def compute_radii(dists: np.ndarray, params: ClassParams) -> np.ndarray:
    """Attraction radii from the distance matrix `dists` of the minimizers
    (rows as in the generator): the global ball keeps its user radius; every
    other ball starts at half the distance to its nearest neighbour,
    capped for rows 3..m at tangency with the global ball (which half the
    distance crosses when the gap is below the global radius), is then
    expanded (ascending row order) up to tangency with the current radii,
    and finally shrunk by the weight coefficients.

    In ascending order, ball i expands to max(start_i, min_j (d_ij - rho_j))
    with the balls j < i already expanded and the balls j > i still at
    their start.  That is the fixed point of one all-rows pass, found by
    repeating the pass until it changes nothing: pass k leaves balls
    0..k-1 final, so m passes suffice.  ``np.fmax`` keeps the start
    radius where a gap is NaN (inf - inf), as ``max(start_i, nan)`` does."""
    start = 0.5 * dists.min(axis=1)
    start[GLOBAL_ROW] = params.global_radius
    start[2:] = np.minimum(start[2:], dists[GLOBAL_ROW, 2:] - params.global_radius)
    # column i holds ball i's gaps d_ij - rho_j: those below the diagonal
    # stay at the later balls' start radii, those above are redone per pass
    gaps = dists - start[:, None]
    gaps[:, GLOBAL_ROW] = -np.inf  # holds the global ball at its radius
    rho = np.fmax(start, gaps.min(axis=0))
    upper = _strict_upper(len(rho))
    for _ in range(len(rho)):
        np.subtract(dists, rho[:, None], out=gaps, where=upper)
        expanded = np.fmax(start, gaps.min(axis=0))
        if (expanded == rho).all():
            break
        rho = expanded
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
    (rho_i, 2 rho_i) and a draw from (0, boundary_min - global_value).
    The draws are one block: a radius word, then a depth word, per row."""
    vertex = local_min[VERTEX_ROW]
    # T is outside every other ball, so the boundary minimum is closed-form;
    # row by row for the bits of np.linalg.norm and of libm pow in scalar ** 2.
    # Each point - vertex is a fresh 1-D array: BLAS ddot's bits depend on
    # how its operands lie in memory, and row views of one difference matrix
    # change them under OpenBLAS's Prescott kernel
    dists = [math.sqrt(d.dot(d)) for d in (point - vertex for point in local_min[2:])]
    boundary_min = np.array([(dist - r) ** 2 for dist, r in zip(dists, rho[2:].tolist())])
    boundary_min += params.paraboloid_min
    words = rng.uniforms(2 * len(dists))
    while not words[1::2].all():  # drop the first zero depth word, as a redraw does
        zero = 2 * int(np.argmin(words[1::2])) + 1
        words = np.concatenate([words[:zero], words[zero + 1 :], rng.uniforms(1)])
    radius_draw = rho[2:] * (1.0 + words[0::2])
    depth_draw = words[1::2] * (boundary_min - params.global_value)
    peaks = np.concatenate([[0.0, 0.0], np.minimum(radius_draw, depth_draw)])
    values = boundary_min - peaks[2:]
    fixed = [params.paraboloid_min, params.global_value]  # rows 0 and 1
    return np.concatenate([fixed, values]), peaks


def identify_globals(values: np.ndarray) -> GlobalInfo:
    """Classify minimizers by value: everything within the precision of
    the global value is a global minimizer."""
    threshold = values[GLOBAL_ROW] + PRECISION
    indices = np.arange(1, len(values) + 1)  # 1-based minimizer indices
    is_global = values <= threshold
    gm_index = np.concatenate([indices[is_global], indices[~is_global]])
    return GlobalInfo(num_global_minima=int(is_global.sum()), gm_index=gm_index)


def _require_function_number(nf) -> int:
    """`nf` as a plain int, after checking it numbers a function of a class;
    a numpy integer is stored and exported as a plain int."""
    if not _is_size(nf) or not 1 <= nf <= FUNCTIONS_PER_CLASS:
        raise ParameterError(
            ValidationError(
                ErrorCode.FUNC_NUMBER,
                f"function number must be an integer in [1, {FUNCTIONS_PER_CLASS}], "
                f"got {nf!r}",
            )
        )
    return int(nf)


def generate(params: ClassParams, nf: int) -> GeneratedFunction:
    """Generate function `nf` (1..100) of the class defined by `params`.

    Deterministic: equal arguments produce bitwise-identical records.
    Raises :class:`ParameterError` on invalid parameters, a function
    number outside [1, 100], geometric placement failure, or a record
    whose quantities double precision lost (the audit names them).
    """
    errors = check(params)
    if errors:
        raise ParameterError(errors)
    nf = _require_function_number(nf)
    rng = LaggedFibonacci(function_seed(params, nf))
    vertex, global_min = place_vertex_and_global(params, rng)
    others = place_local_minimizers(params, vertex, global_min, rng)
    local_min = np.vstack([vertex[None, :], global_min[None, :], others])
    dists = _distance_matrix(local_min)
    rho = compute_radii(dists, params)
    values, peaks = compute_minima_values(local_min, rho, params, rng)
    delta = params.delta_max * _positive_uniform(rng)
    func = GeneratedFunction(
        params=params,
        nf=nf,
        minima=MinimaTable(local_min=local_min, f=values, rho=rho, peak=peaks),
        delta=delta,
    )
    problems = ground_truth_problems(func, dists)
    if problems:
        fault = _lost_magnitude(func, problems, dists)
        if fault:
            raise ParameterError(fault)
        raise RuntimeError(
            "internal error: generated record violates its invariants: " + "; ".join(problems)
        )
    return func


def _lost_magnitude(
    func: GeneratedFunction, problems: list[str], dists: np.ndarray
) -> ValidationError | None:
    """The class's fault behind the audit's `problems` when rounding lost a
    quantity, by two audit rules on the distance matrix `dists` the audit
    read; None for a generator bug.  Exact arithmetic keeps the vertex
    ball off the global ball, and each value between the global value and
    its boundary minimum."""
    params, table = func.params, func.minima
    t = params.paraboloid_min
    apart = float(dists[VERTEX_ROW, GLOBAL_ROW])
    boundary_min = (dists[VERTEX_ROW, 2:] - table.rho[2:]) ** 2 + t
    lost = (table.f[2:] >= boundary_min) | (table.f[2:] < params.global_value - PRECISION)
    large = "is too large in magnitude"
    if apart <= PRECISION or apart < table.rho[VERTEX_ROW] + table.rho[GLOBAL_ROW] - PRECISION:
        code = ErrorCode.BOUNDARY
        cause = f"the vertex and the global minimizer lie {apart!r} apart, too close for their "
        cause += f"attraction balls: the box {large}"
    elif lost.any():
        row = int(np.argmax(lost))
        box = boundary_min[row] - t > abs(t)
        code = ErrorCode.BOUNDARY if box else ErrorCode.GLOBAL_MIN_VALUE
        cause = f"the basin depth of minimizer {row + 3} is below the spacing of its boundary "
        cause += f"minimum: the {'box' if box else 'paraboloid minimum'} {large}"
    else:
        return None
    return ValidationError(code, f"{cause} ({'; '.join(problems)})")


def ground_truth_problems(func: GeneratedFunction, dists: np.ndarray | None = None) -> list[str]:
    """Audit a ground-truth record against every structural invariant.

    Returns human-readable descriptions of all violations (empty when the
    record is consistent).  A field of the wrong shape or with a
    non-finite entry is reported alone.  `dists` is the distance matrix
    of the record's minimizers: `generate` passes the one it built, and
    without it (as for a loaded notebook) the matrix is computed afresh
    from the record, with the same bits.  The stored fields are audited;
    the global list and the radius weights are derived from them and need
    no audit.  The rules on the class values are those of ``_CLASS_VALUES``.
    """
    params = func.params
    table = func.minima
    count = params.num_minima
    if table.local_min.shape != (count, params.dim):
        return [
            f"minimizer table has shape {table.local_min.shape}, "
            f"expected {(count, params.dim)}"
        ]
    for name in ("f", "rho", "peak"):
        if getattr(table, name).shape != (count,):
            return [f"field {name} must have length {count}"]
    for name in ("local_min", "f", "rho", "peak"):
        if not np.all(np.isfinite(getattr(table, name))):
            return [f"field {name} must be finite"]
    if dists is None:
        dists = _distance_matrix(table.local_min)

    eps = PRECISION
    problems: list[str] = []
    if not _is_interior(table.local_min, func.lower, func.upper, eps):
        problems.append("some minimizer is not interior to the domain")

    for key, (field, row, stored_name, class_name) in _CLASS_VALUES.items():
        stored, value = getattr(table, field)[row], getattr(params, key)
        if stored != value:
            problems.append(f"{stored_name} {stored} != {class_name} {value}")
    if np.any(table.f < params.global_value - eps):
        problems.append("some minimum lies below the class global value")
    if np.any(table.rho <= 0.0):
        problems.append("attraction radii must be positive")
    if np.any(table.peak[2:] <= 0.0):
        problems.append("basin depths for minimizers 3..m must be positive")
    if table.peak[VERTEX_ROW] != 0.0 or table.peak[GLOBAL_ROW] != 0.0:
        problems.append("basin depths for minimizers 1 and 2 must be stored as 0")

    # row i is reported when it breaks a rule with some later row j > i
    upper = _strict_upper(count)
    reach = np.add.outer(table.rho, table.rho)
    reach -= eps
    close = dists <= eps
    close &= upper
    meet = dists < reach
    meet &= upper
    coincide, overlap = close.any(axis=1), meet.any(axis=1)
    for i in np.flatnonzero(coincide | overlap):
        if coincide[i]:
            problems.append(f"minimizers {i + 1} and a later one coincide")
        if overlap[i]:
            problems.append(f"attraction ball {i + 1} overlaps a later ball")

    if np.any(dists[GLOBAL_ROW, 2:] < params.global_radius + params.gap - eps):
        problems.append("a local minimizer intrudes on the global-ball gap")
    with np.errstate(over="ignore"):  # a huge radius gives inf; the overlap rule reports it
        boundary_min = (dists[VERTEX_ROW, 2:] - table.rho[2:]) ** 2 + params.paraboloid_min
    if np.any(table.f[2:] >= boundary_min):
        problems.append(
            "some minimum is not below the paraboloid minimum over its "
            "ball boundary"
        )

    if not 0.0 < func.delta < params.delta_max:
        problems.append(
            f"delta {func.delta} outside the open interval (0, {params.delta_max})"
        )

    return problems
