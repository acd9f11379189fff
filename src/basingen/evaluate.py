"""Evaluation of generated test functions and their exact derivatives.

One ground-truth record serves three families, selected at call time:

* ``"nd"`` -- continuous, generally non-differentiable on basin
  boundaries (quadratic basin polynomials);
* ``"d"``  -- continuously differentiable (cubic basin polynomials);
* ``"d2"`` -- twice continuously differentiable (quintic basin
  polynomials with curvature ``delta`` at each minimizer).

Outside every attraction ball all families coincide with the paraboloid
``||x - T||^2 + t``.  Inside ball ``i`` every basin polynomial has the
radial-axial form

    f = A(r) + c * C(r),   r = ||x - M_i||,   c = <x - M_i, T - M_i>,

where ``A`` and ``C`` are polynomials in ``r`` whose coefficients
depend on the family and the ball (``_coefficients``).  One rule gives
every derivative: with ``u = (x - M_i) / r`` and ``a = T - M_i``,

    grad f = (A' + c C') u + C a,
    hess f = (A'' + c C'') u u^T + C' (u a^T + a u^T)
             + (A' + c C') / r * (I - u u^T),

which is symmetric by construction.  Both branches take the same value
on the ball boundary (continuity for every family); for "d" the first
derivatives also agree there, and for "d2" the second derivatives too.

Every evaluator reads one read-only plan per record and family
(``_plan``), built on first use and kept on the record: the balls'
geometry, shared by all families, and the family's coefficients.  A
scalar query reads it once, for the ball lookup and the basin kernel.

Failures are reported as typed exceptions rather than a sentinel value;
the command-line front end converts them back to a sentinel for textual
compatibility with sentinel-style tooling.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .generator import GeneratedFunction, _einsum, _read_only
from .params import PRECISION, ErrorCode, _is_size

FAMILIES = ("nd", "d", "d2")

# entries per eval_many chunk: its (rows, m - 1) power-score matrix and
# its (rows, dim) blocks stay near 2 MB whatever m and dim are
_CHUNK_CELLS = 1 << 18
_EPS = np.finfo(float).eps


class EvaluationError(Exception):
    """Base class for typed evaluation failures."""

    code: ErrorCode | None = None


class OutOfDomainError(EvaluationError):
    """The query point lies outside the admissible box."""


class BadVariableIndexError(EvaluationError):
    """A variable index is outside 1..dim."""


class NoFunctionError(EvaluationError):
    """Evaluation was requested without a generated function."""


class DerivEvalError(EvaluationError):
    """A gradient or Hessian component could not be evaluated."""

    code = ErrorCode.DERIV_EVAL


def _require_function(func) -> None:
    if func is None or getattr(func, "minima", None) is None:
        raise NoFunctionError("no generated function to evaluate")


def _require_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    return family


def _in_box(func: GeneratedFunction, points: np.ndarray) -> np.ndarray:
    """The box test, per coordinate: a point is feasible when all of its
    coordinates pass.  NaN fails it."""
    return (func.lower <= points) & (points <= func.upper)


def _require_feasible(inside: bool) -> None:
    """Raise unless the box test (where NaN fails) passed."""
    if not inside:
        raise OutOfDomainError("a query point lies outside the admissible box or is NaN")


def _indexed(func: GeneratedFunction, *indices) -> GeneratedFunction:
    """`func`, after checking that it exists and that every 1-based
    variable index lies in 1..dim."""
    _require_function(func)
    for j in indices:
        if not _is_size(j) or not 1 <= j <= func.dim:
            raise BadVariableIndexError(
                f"variable index must be in [1, {func.dim}], got {j!r}"
            )
    return func


def _feasible_point(func: GeneratedFunction, x) -> np.ndarray:
    _require_function(func)
    point = np.asarray(x, dtype=float)
    if point.shape != (func.dim,):
        raise ValueError(
            f"expected a point of length {func.dim}, got shape {point.shape}"
        )
    coords, params = point.tolist(), func.params
    _require_feasible(  # _in_box's predicate on Python floats, in fewer calls
        all(map(operator.le, params.domain_left, coords))
        and all(map(operator.le, coords, params.domain_right))
    )
    return point


def _locate_row(func: GeneratedFunction, point: np.ndarray, plan: _Plan):
    """0-based minimizer row whose ball contains `point` (0, the vertex row, when no
    ball does), the squared distance to its center and `point` minus the center.
    Balls are disjoint; on exact tangency the lowest row, argmax's first, wins."""
    diffs = point - func.minima.local_min
    dist_sq = _einsum("ij,ij->i", diffs, diffs)
    row = int((dist_sq <= plan.bounds).argmax())
    return row, dist_sq.item(row), diffs[row]


def locate_ball(func: GeneratedFunction, x):
    """Public ball lookup: (1-based minimizer index >= 2, distance to its
    center) when `x` lies in an attraction ball, else None.  A point
    outside the box, or with a NaN coordinate, raises OutOfDomainError."""
    row, dist_sq, _ = _locate_row(func, _feasible_point(func, x), _plan(func))
    if row == 0:
        return None
    return row + 1, math.sqrt(dist_sq)


# ---------------------------------------------------------------------------
# the basin kernel: f = A(r) + c * C(r)


def _coefficients(func: GeneratedFunction, row: int, family: str, b: float):
    """Coefficients of A and C, lowest power first, for basin `row` of
    `family`.  `b` is the bridge constant ||T - M||^2 + t - f_min that makes
    the polynomial meet the paraboloid on the ball boundary."""
    f_min = float(func.minima.f[row])
    rho = float(func.minima.rho[row])
    if family == "nd":
        return (f_min, 0.0, 1.0 + b / rho**2), (0.0, -2.0 / rho)
    if family == "d":
        return (
            (f_min, 0.0, 1.0 + (3.0 / rho**2) * b, -(2.0 / rho**3) * b),
            (0.0, -4.0 / rho, 2.0 / rho**2),
        )
    delta = func.delta
    curv = 1.0 - 0.5 * delta
    return (
        (
            f_min,
            0.0,
            0.5 * delta,
            (10.0 / rho**3) * b + (3.0 / rho) * curv,
            -(15.0 / rho**4) * b - (3.0 / rho**2) * curv,
            (6.0 / rho**5) * b + curv / rho**3,
        ),
        (0.0, 0.0, -12.0 / rho**2, 16.0 / rho**3, -6.0 / rho**4),
    )


class _Plan(NamedTuple):
    """Read-only tables of one record: its balls (rows 2..m), shared by
    every family, and one family's coefficients of A and C per ball."""

    bounds: np.ndarray  # -1, which no squared distance passes, then rho_i^2
    axes: np.ndarray  # T - M_i
    keys: np.ndarray  # |T - M_i|^2 - rho_i^2
    eye: np.ndarray  # the (dim, dim) identity
    reach: float  # max |T - M_i|
    spread: float  # max rho_i^2
    coef_a: np.ndarray | None = None
    coef_c: np.ndarray | None = None
    coefs: tuple | None = None  # (A, C) of each ball, as Python floats


def _plan(func: GeneratedFunction, family: str | None = None) -> _Plan:
    """The plan of `func` for `family` (the geometry alone when None),
    built on first use and kept on the record."""
    plan = func._plans.get(family)
    if plan is None:
        if family is None:
            bounds = np.append(-1.0, func.minima.rho[1:] ** 2)
            axes = func.vertex - func.minima.local_min[1:]
            axes_sq = _einsum("ij,ij->i", axes, axes)
            tables = map(_read_only, (bounds, axes, axes_sq - bounds[1:], np.eye(func.dim)))
            plan = _Plan(*tables, math.sqrt(float(axes_sq.max())), float(bounds.max()))
        else:
            geometry = _plan(func)
            axes_sq = _einsum("ij,ij->i", geometry.axes, geometry.axes)
            bridge = (axes_sq + func.params.paraboloid_min - func.minima.f[1:]).tolist()
            coefs = [_coefficients(func, row, family, b) for row, b in enumerate(bridge, 1)]
            coef_a, coef_c = (_read_only(np.array(c)) for c in zip(*coefs))
            plan = geometry._replace(coef_a=coef_a, coef_c=coef_c, coefs=tuple(coefs))
        func._plans[family] = plan
    return plan


def _horner(coef, r, order: int = 0):
    """(p, p', p'') at `r` for coefficients listed lowest power first.

    Uses only + and *, so Python floats and numpy arrays round alike;
    with ``order == 0`` only p is computed and p', p'' stay 0."""
    p = dp = half_ddp = 0.0
    for a in reversed(coef):
        if order:
            half_ddp = half_ddp * r + dp
            dp = dp * r + p
        p = p * r + a
    return p, dp, 2.0 * half_ddp


def _kernel(func: GeneratedFunction, plan: _Plan, row: int, d: np.ndarray, r: float, order: int):
    """Value (order 0), gradient (1) or Hessian (2) of the basin polynomial
    of `row`, from the family's plan, at ``d = point - M_row``, ``r = |d|``,
    in or out of the ball; within ``PRECISION`` of M_row: f_min, 0, delta * I."""
    if r < PRECISION:
        if order == 0:
            return float(func.minima.f[row])
        return np.zeros(func.dim) if order == 1 else func.delta * plan.eye
    a = plan.axes[row - 1]
    c = float(_einsum("i,i->", d, a))
    coef_a, coef_c = plan.coefs[row - 1]
    a0, a1, a2 = _horner(coef_a, r, order)
    c0, c1, c2 = _horner(coef_c, r, order)
    if order == 0:
        return a0 + c * c0
    u = d / r
    radial = a1 + c * c1
    if order == 1:
        return radial * u + c0 * a
    uu = u[:, None] * u
    ua = u[:, None] * a
    return (a2 + c * c2) * uu + c1 * (ua + ua.T) + (radial / r) * (plan.eye - uu)


def _at(func: GeneratedFunction, x, family: str, order: int):
    """Value (order 0), gradient (1) or Hessian (2) of `family` at `x`."""
    point = _feasible_point(func, x)
    plan = _plan(func, family)
    row, dist_sq, d = _locate_row(func, point, plan)
    if row:
        return _kernel(func, plan, row, d, math.sqrt(dist_sq), order)
    if order == 0:
        return dist_sq + func.params.paraboloid_min
    return 2.0 * d if order == 1 else 2.0 * plan.eye  # d = point - T, as row 0 is T


def _derivative(func: GeneratedFunction, x, family: str, order: int) -> np.ndarray:
    try:
        return _at(func, x, family, order)
    except OutOfDomainError as exc:
        what = "gradient" if order == 1 else "Hessian"
        raise DerivEvalError(f"{what} component evaluation failed: {exc}") from exc


def eval_nd(func: GeneratedFunction, x) -> float:
    """Value of the non-differentiable family at `x`."""
    return _at(func, x, "nd", 0)


def eval_d(func: GeneratedFunction, x) -> float:
    """Value of the continuously differentiable family at `x`."""
    return _at(func, x, "d", 0)


def eval_d2(func: GeneratedFunction, x) -> float:
    """Value of the twice continuously differentiable family at `x`."""
    return _at(func, x, "d2", 0)


def evaluate(func: GeneratedFunction, x, family: str) -> float:
    """Family-dispatching convenience wrapper."""
    return _at(func, x, _require_family(family), 0)


def eval_many(func: GeneratedFunction, family: str, points) -> np.ndarray:
    """Vectorized evaluation at an (n, dim) array of feasible points,
    bit-for-bit equal to the scalar evaluators.

    Per chunk of points, one matrix product gives each point's power
    score against every ball (the power diagram of the balls),
    ``|x - M_j|^2 - rho_j^2`` expanded about the vertex ``T`` as
    ``|M_j - T|^2 - rho_j^2 - 2 (x - T).(M_j - T) + |x - T|^2``; the last
    term moves to the threshold side, so a pair is a candidate when the
    rest is at most ``tau - |x - T|^2``, with ``tau`` a proven rounding
    bound.  The candidates, found as flat row-major indices of the score
    matrix, are confirmed with the scalar lookup's exact test, and the
    lowest confirmed row wins.  The basin kernel then runs once over all
    points in balls, with coefficients gathered per point and the scalar
    path's operations, all read from the plan.
    """
    _require_family(family)
    _require_function(func)
    # row-major, as the scalar path's arrays are: einsum sums a strided
    # row in another order
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != func.dim:
        raise ValueError(f"expected an (n, {func.dim}) array, got shape {pts.shape}")
    _require_feasible(np.logical_and.reduce(_in_box(func, pts), axis=None))

    table = func.minima
    centers = table.local_min[1:]
    plan = _plan(func, family)
    # The scores are taken about the vertex T, x' = fl(x - T) and
    # M' = fl(M - T) = -axes, so that they do not grow with the box's
    # offset.  Rounding bound (u = eps / 2, gamma_n = n u / (1 - n u),
    # P = (|x'| + |M'|)^2 + rho^2, which bounds |M'|^2, 2|x'||M'|, |x'|^2,
    # rho^2, |x - M|^2, tau and every partial result below, up to 1 + O(u)):
    # - translating moves |x - M|^2 by at most 2u P;
    # - the computed score fl(key + fl(2x'.axes)), with key =
    #   fl(fl(|M'|^2) - fl(rho^2)), plus sq = fl(|x'|^2), is off from
    #   |x' - M'|^2 - rho^2 by at most gamma_dim P for the three sums of
    #   products (any summation order, with or without FMA; doubling x'
    #   is exact) and rho^2, and by u (1 + gamma_dim) P for each of the
    #   two additions;
    # - the threshold fl(tau - sq) is off from tau - sq by at most u P;
    # - a pair passes the exact test when fl(sum fl(x_k - M_k)^2) <=
    #   fl(rho^2); the left side is within gamma_(dim+2) |x - M|^2 of
    #   the true value, so a pass means |x - M|^2 - rho^2 <=
    #   (gamma_(dim+2) + u) P.
    # So every passing pair scores within tau - sq if tau >= (2 dim + 8)
    # u P (1 + O(dim u)) = (dim + 4) eps P (1 + O(dim u)).  tau is twice
    # that, with P taken at the largest |M'| and rho; the factor 2 also
    # covers the rounding of tau itself (relative error below (dim + 6) u).
    # Underflow adds at most dim 2^-1074 per score, and the class check
    # keeps tau far above that.  So no hit is missed; a near miss only
    # costs a confirmation.
    scale = 2.0 * (func.dim + 4) * _EPS

    values = np.empty(len(pts))
    step = max(1, _CHUNK_CELLS // max(len(centers), func.dim))
    for start in range(0, len(pts), step):
        block = pts[start : start + step]
        diffs = block - func.vertex
        sq = _einsum("ij,ij->i", diffs, diffs)
        out = sq + func.params.paraboloid_min
        tau = scale * ((np.sqrt(sq) + plan.reach) ** 2 + plan.spread)
        score = (2.0 * diffs) @ plan.axes.T
        score += plan.keys
        point, row = np.divmod(np.flatnonzero(score <= (tau - sq)[:, None]), len(centers))
        # the exact test of the scalar lookup; flat indices are row-major,
        # so pairs come ordered by point, then row, and the first confirmed
        # pair of each run of one point holds its lowest row, which wins on
        # exact tangency
        d = block[point] - centers[row]
        dist_sq = _einsum("ij,ij->i", d, d)
        hit = np.flatnonzero(dist_sq <= plan.bounds[1:][row])
        first = np.ones(len(hit), dtype=bool)
        first[1:] = point[hit[1:]] != point[hit[:-1]]
        keep = hit[first]
        point, row, d, dist_sq = point[keep], row[keep], d[keep], dist_sq[keep]
        r = np.sqrt(dist_sq)
        c = _einsum("ij,ij->i", d, plan.axes[row])
        branch = _horner(plan.coef_a[row].T, r)[0] + c * _horner(plan.coef_c[row].T, r)[0]
        out[point] = np.where(r < PRECISION, table.f[1:][row], branch)
        values[start : start + step] = out
    return values


def d_deriv(func: GeneratedFunction, j: int, x) -> float:
    """Partial derivative of the "d" family with respect to variable `j`
    (1-based)."""
    return float(_at(_indexed(func, j), x, "d", 1)[j - 1])


def d2_deriv1(func: GeneratedFunction, j: int, x) -> float:
    """First partial derivative of the "d2" family with respect to
    variable `j` (1-based)."""
    return float(_at(_indexed(func, j), x, "d2", 1)[j - 1])


def d2_deriv2(func: GeneratedFunction, j: int, k: int, x) -> float:
    """Second partial derivative of the "d2" family with respect to
    variables `j` and `k` (1-based)."""
    return float(_at(_indexed(func, j, k), x, "d2", 2)[j - 1, k - 1])


def d_gradient(func: GeneratedFunction, x) -> np.ndarray:
    """Exact gradient of the "d" family at `x`."""
    return _derivative(func, x, "d", 1)


def d2_gradient(func: GeneratedFunction, x) -> np.ndarray:
    """Exact gradient of the "d2" family at `x`."""
    return _derivative(func, x, "d2", 1)


def d2_hessian(func: GeneratedFunction, x) -> np.ndarray:
    """Exact Hessian of the "d2" family at `x` (symmetric by construction)."""
    return _derivative(func, x, "d2", 2)
