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

Failures are reported as typed exceptions rather than a sentinel value;
the command-line front end converts them back to a sentinel for textual
compatibility with sentinel-style tooling.
"""

from __future__ import annotations

import math

import numpy as np

from .generator import GeneratedFunction
from .params import PRECISION, ErrorCode

FAMILIES = ("nd", "d", "d2")

_BATCH_CHUNK = 1 << 16


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


def _require_feasible(func: GeneratedFunction, points: np.ndarray) -> None:
    """Box test shared by the scalar and batch paths; NaN fails it."""
    if not ((func.lower <= points) & (points <= func.upper)).all():
        raise OutOfDomainError("a query point lies outside the admissible box or is NaN")


def _indexed(func: GeneratedFunction, *indices) -> GeneratedFunction:
    """`func`, after checking that it exists and that every 1-based
    variable index lies in 1..dim."""
    _require_function(func)
    for j in indices:
        if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= func.dim:
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
    _require_feasible(func, point)
    return point


def _locate_row(func: GeneratedFunction, point: np.ndarray):
    """0-based minimizer row whose ball contains `point` (0, the vertex
    row, when no ball does) and the squared distance to that row's
    center.  Balls are disjoint; on exact tangency the lowest row wins."""
    diffs = func.minima.local_min - point
    dist_sq = np.einsum("ij,ij->i", diffs, diffs)
    hits = np.nonzero(dist_sq[1:] <= func.minima.rho[1:] ** 2)[0]
    row = int(hits[0]) + 1 if hits.size else 0
    return row, float(dist_sq[row])


def locate_ball(func: GeneratedFunction, x):
    """Public ball lookup: (1-based minimizer index >= 2, distance to its
    center) when `x` lies in an attraction ball, else None.  A point
    outside the box, or with a NaN coordinate, raises OutOfDomainError."""
    row, dist_sq = _locate_row(func, _feasible_point(func, x))
    if row == 0:
        return None
    return row + 1, math.sqrt(dist_sq)


# ---------------------------------------------------------------------------
# the basin kernel: f = A(r) + c * C(r)


def _coefficients(func: GeneratedFunction, row: int, family: str):
    """Coefficients of A and C, lowest power first, for basin `row` of
    `family`.  B is the bridge constant ||T - M||^2 + t - f_min that makes
    the polynomial meet the paraboloid on the ball boundary."""
    f_min = float(func.minima.f[row])
    rho = float(func.minima.rho[row])
    b = float(func.bridge[row])
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


def _basin(
    func: GeneratedFunction, row: int, point: np.ndarray, r: float, family: str, order: int = 0
):
    """Value (order 0), gradient (1) or Hessian (2) of the basin
    polynomial of `row` at `point`, at distance `r` from its center,
    whether or not `point` is in its ball.  Within ``PRECISION`` of the
    minimizer: f_min, a zero gradient and delta * I."""
    if r < PRECISION:
        if order == 0:
            return float(func.minima.f[row])
        return np.zeros(func.dim) if order == 1 else func.delta * np.eye(func.dim)
    center = func.minima.local_min[row]
    d = point - center
    a = func.vertex - center
    c = float(np.einsum("i,i->", d, a))
    coef_a, coef_c = _coefficients(func, row, family)
    a0, a1, a2 = _horner(coef_a, r, order)
    c0, c1, c2 = _horner(coef_c, r, order)
    if order == 0:
        return a0 + c * c0
    u = d / r
    radial = a1 + c * c1
    if order == 1:
        return radial * u + c0 * a
    uu = np.outer(u, u)
    ua = np.outer(u, a)
    return (a2 + c * c2) * uu + c1 * (ua + ua.T) + (radial / r) * (np.eye(func.dim) - uu)


def _at(func: GeneratedFunction, x, family: str, order: int):
    """Value (order 0), gradient (1) or Hessian (2) of `family` at `x`."""
    point = _feasible_point(func, x)
    row, dist_sq = _locate_row(func, point)
    if row:
        return _basin(func, row, point, math.sqrt(dist_sq), family, order)
    if order == 0:
        return dist_sq + func.params.paraboloid_min
    return 2.0 * (point - func.vertex) if order == 1 else 2.0 * np.eye(func.dim)


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
    """Vectorized evaluation at an (n, dim) array of feasible points.

    Linear scan over the balls per chunk; bit-for-bit equal to the scalar
    evaluators but orders of magnitude faster for surface grids and
    budgeted benchmark sweeps.
    """
    _require_family(family)
    _require_function(func)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != func.dim:
        raise ValueError(f"expected an (n, {func.dim}) array, got shape {pts.shape}")
    _require_feasible(func, pts)

    table = func.minima
    values = np.empty(len(pts))
    for start in range(0, len(pts), _BATCH_CHUNK):
        block = pts[start : start + _BATCH_CHUNK]
        diffs = block - func.vertex
        out = np.einsum("ij,ij->i", diffs, diffs) + func.params.paraboloid_min
        # highest row first, so that on exact tangency the lowest row is
        # written last and wins, as in the scalar lookup
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
            coef_a, coef_c = _coefficients(func, row, family)
            branch = _horner(coef_a, r)[0] + c * _horner(coef_c, r)[0]
            out[mask] = np.where(r < PRECISION, float(table.f[row]), branch)
        values[start : start + _BATCH_CHUNK] = out
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
