"""Class-definition parameters, their validation, and the error-code contract.

A :class:`ClassParams` value pins down one class of 100 test functions:
the user-facing quintet (dimension, number of minima, global minimum
value, distance from the paraboloid vertex to the global minimizer, and
the attraction radius of the global minimizer) plus the admissible box
and three defaulted tuning values.  The precision and the radius weights
are fixed for every class (:data:`PRECISION`, :func:`radius_weights`).
How a class is written to and read from a notebook is the business of
:mod:`basingen.notebook` alone.
"""

from __future__ import annotations

import contextlib
import enum
import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

DEFAULT_NUM_MINIMA = 10
DEFAULT_GLOBAL_VALUE = -1.0
DEFAULT_PARABOLOID_MIN = 0.0
DEFAULT_DELTA_MAX = 10.0
DEFAULT_MAX_DIM = 100
# the most minima for which generator.function_seed gives distinct seeds
MAX_NUM_MINIMA = 10001

# margin from the box, distinctness and global-value tolerance, and the
# radius of the disc around each minimizer where its basin is flat
PRECISION = 1e-10

# Magnitudes that double precision holds.  D^2 = sum (hi - lo)^2, the
# squared box diagonal, bounds every squared distance between box points,
# and D every radius, so the fifth powers of the radii that the basin
# coefficients (evaluate._coefficients) form stay finite when D^2 <=
# _MAX_DIAGONAL_SQ.  Generation, the audit and eval_many's scores and tau
# sum at most 5 D^2.  Each value lies in [global_value, D^2 + t], so each
# bridge |T - M|^2 + t - f is at most 2 S, S = D^2 + |t| + |global_value|.
# In x = r / rho, a basin polynomial of a ball of radius rho is sum
# alpha_j x^j with |alpha_j| <= 15 (|bridge| + (1 + delta) rho^2) <= 15 V,
# V = 2 S + (1 + delta_max)(1 + D^2); the C polynomial's are at most 16,
# and |<x - M, T - M>| <= rho D.  For r <= rho and s = min(1, rho), every
# coefficient, Horner partial and term of a value, gradient or Hessian is
# then at most 1562 V / s^5: the Hessian's (600 + 320 + 288 + 354) V / s^5
# is the largest, and _MAGNITUDE_FACTOR = 2^11 leaves room for rounding.
# The global ball has rho = global_radius.  Every other ball is at least
# 0.99 min(PRECISION / 2, gap) wide up to rounding (its nearest neighbour
# lies beyond PRECISION, the global ball beyond the gap), so s >=
# min(global_radius, PRECISION / 4) unless gap < PRECISION / 2 lets a draw
# land within it of the global ball.
_MAGNITUDE_FACTOR = 2.0**11
_MAX_DIAGONAL_SQ = 0.5 * sys.float_info.max**0.4


class ErrorCode(enum.Enum):
    """Stable identifiers for every reportable failure condition."""

    DIM = "DimError"
    NUM_MINIMA = "NumMinimaError"
    BOUNDARY = "BoundaryError"
    GLOBAL_MIN_VALUE = "GlobalMinValueError"
    GLOBAL_DIST = "GlobalDistError"
    GLOBAL_RADIUS = "GlobalRadiusError"
    FUNC_NUMBER = "FuncNumberError"
    DERIV_EVAL = "DerivEvalError"
    TUNING = "TuningError"


@dataclass(frozen=True)
class ValidationError:
    """One violated condition: machine-readable code plus human detail."""

    code: ErrorCode
    detail: str

    def __str__(self) -> str:
        return f"{self.code.value}: {self.detail}"


class ParameterError(Exception):
    """Raised when an operation cannot proceed on invalid inputs.

    Carries the full list of violations so callers can report all of
    them, not just the first.
    """

    def __init__(self, errors):
        if isinstance(errors, ValidationError):
            errors = [errors]
        self.errors: list[ValidationError] = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))

    @property
    def codes(self) -> list[ErrorCode]:
        return [e.code for e in self.errors]


def radius_weights(num_minima: int) -> np.ndarray:
    """Radius weights: 1.0 for the global minimizer (row 1), 0.99 elsewhere."""
    return np.where(np.arange(num_minima) == 1, 1.0, 0.99)


def _is_size(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_float(value):
    """A real number other than a bool (numpy scalar, Fraction, int) as a
    float, a zero of either sign as 0.0 and ±inf when too large; else `value`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return value
    with contextlib.suppress(OverflowError):
        return float(value) + 0.0
    return math.inf if value > 0 else -math.inf


def _real(value) -> float:
    """`value` if a float, else NaN (a bool, str, None, array ...), which fails every test."""
    return value if isinstance(value, float) else math.nan


def _valid_dim(dim) -> bool:
    return _is_size(dim) and 2 <= dim <= DEFAULT_MAX_DIM


def _box_spans(params) -> tuple[int, list[float] | None]:
    """The length check asks of the box, and its spans right - left when check
    accepts it, else None.  A box is judged against a valid dimension, else
    its own length, so a bad dimension is reported alone; a finite span implies
    finite bounds, and _magnitude_errors keeps squared distances finite."""
    left, right = (v if type(v) is tuple else () for v in (params.domain_left, params.domain_right))
    width = params.dim if _valid_dim(params.dim) else max(len(left), 1)
    spans = [hi - lo for lo, hi in zip(left, right) if _real(lo) < _real(hi)]
    usable = len(left) == width == len(right) == len(spans) and all(map(math.isfinite, spans))
    return width, spans if usable else None


def _require_count(name: str, value, minimum: int) -> int:
    """`value` as a plain int, after checking it is an integer >= `minimum`."""
    if not _is_size(value) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ClassParams:
    """Immutable definition of one class of 100 test functions.

    A field left ``None`` takes its default: the box [-1, 1] per coordinate,
    a distance of a third of the smallest side (the default box's when check
    rejects the box), a radius of a sixth, or of half the distance when that
    is smaller, and a gap of the radius, or the default radius when the
    radius is not finite and above 0.  Sizes are stored as int and reals as
    float, a zero as 0.0: one spelling per class, so equal params generate
    equal records.  check reports the rest.
    """

    dim: int
    num_minima: int
    global_value: float
    global_dist: float | None = None
    global_radius: float | None = None
    domain_left: tuple[float, ...] | None = None
    domain_right: tuple[float, ...] | None = None
    paraboloid_min: float = DEFAULT_PARABOLOID_MIN
    delta_max: float = DEFAULT_DELTA_MAX
    gap: float | None = None

    def __post_init__(self):
        def default(name, value):
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)

        for f in fields(self):  # sizes as int, reals as float; anything else is for check
            value = getattr(self, f.name)
            if f.name in ("dim", "num_minima"):
                value = int(value) if _is_size(value) else value
            elif f.name.startswith("domain_"):
                with contextlib.suppress(TypeError):  # not a sequence
                    value = tuple(map(_as_float, value))
            else:
                value = _as_float(value)
            object.__setattr__(self, f.name, value)
        # a dimension that check rejects gets a capped box, so that it
        # allocates nothing and is reported alone
        width = min(max(self.dim, 1), DEFAULT_MAX_DIM + 1) if _is_size(self.dim) else 1
        default("domain_left", (-1.0,) * width)
        default("domain_right", (1.0,) * width)
        # a box that check rejects lends the default box's side, so that
        # the defaults below are not reported along with it
        side = min(_box_spans(self)[1] or [2.0])
        default("global_dist", side / 3.0)
        half = 0.5 * _real(self.global_dist)
        radius = min(side / 6.0, half if half > 0.0 else math.inf)
        default("global_radius", radius)
        given = _real(self.global_radius)
        default("gap", given if 0.0 < given < math.inf else radius)


def default_params(dim: int) -> ClassParams:
    """The default class for `dim`: :class:`ClassParams` with 10 minima,
    global value -1 and every other field at its default (box
    [-1, 1]^dim, vertex distance 2/3, attraction radius 1/3).  Raises
    :class:`ParameterError` with every violation `check` reports.
    """
    params = ClassParams(dim=dim, num_minima=DEFAULT_NUM_MINIMA, global_value=DEFAULT_GLOBAL_VALUE)
    errors = check(params)
    if errors:
        raise ParameterError(errors)
    return params


def check(params: ClassParams) -> list[ValidationError]:
    """Return every violated class condition (empty list means valid).

    Pure: inspects `params` only, and never raises for invalid values;
    anything but a :class:`ClassParams` is a ``TypeError``.
    """
    if not isinstance(params, ClassParams):
        raise TypeError(f"params must be a ClassParams, got {type(params).__name__}")
    errors: list[ValidationError] = []
    dim, n = params.dim, params.num_minima
    for code, name, value, ok, rule in (  # a float or a bool is not a size
        (ErrorCode.DIM, "dimension", dim, _valid_dim(dim), f"in [2, {DEFAULT_MAX_DIM}]"),
        (ErrorCode.NUM_MINIMA, "minima (vertex included)", n,
         _is_size(n) and 2 <= n <= MAX_NUM_MINIMA, f"in [2, {MAX_NUM_MINIMA}]"),
    ):
        if not ok:
            errors.append(ValidationError(code, f"{name} must be an integer {rule}, got {value!r}"))

    width, spans = _box_spans(params)
    if spans is None:
        errors.append(
            ValidationError(
                ErrorCode.BOUNDARY,
                f"domain bounds must be length-{width} vectors with "
                f"left < right componentwise and a finite span right - left",
            )
        )

    if not -math.inf < _real(params.global_value) < _real(params.paraboloid_min) < math.inf:
        errors.append(
            ValidationError(
                ErrorCode.GLOBAL_MIN_VALUE,
                f"global minimum value ({params.global_value!r}) must be finite and "
                f"strictly below the finite paraboloid minimum ({params.paraboloid_min!r})",
            )
        )
    dist, radius = _real(params.global_dist), _real(params.global_radius)
    if spans is not None:
        half_side = 0.5 * min(spans)
        # minimizers within the precision of each other coincide
        if not PRECISION < dist < half_side:
            errors.append(
                ValidationError(
                    ErrorCode.GLOBAL_DIST,
                    f"global-minimizer distance must satisfy {PRECISION} (the precision) < dist"
                    f" < {half_side} (half the smallest domain side), got {params.global_dist!r}",
                )
            )
    # half the distance bounds the radius where some radius fits the
    # distance; any other distance is reported once, by itself or the box
    half = 0.5 * dist
    rule = f"<= {half} (half the global-minimizer distance)" if half > 0.0 else "< inf"
    if not 0.0 < radius < math.inf or radius > half > 0.0:
        errors.append(
            ValidationError(
                ErrorCode.GLOBAL_RADIUS,
                f"global attraction radius must satisfy 0 < radius {rule}, "
                f"got {params.global_radius!r}",
            )
        )
    for name, value, rule, ok in (  # each test fails on NaN
        ("delta_max", params.delta_max, "finite and > 0", 0.0 < _real(params.delta_max) < math.inf),
        ("gap", params.gap, "finite and >= 0", 0.0 <= _real(params.gap) < math.inf),
    ):
        if not ok:
            errors.append(ValidationError(ErrorCode.TUNING, f"{name} must be {rule}, got {value}"))
    return errors or _magnitude_errors(params)


def _magnitude_errors(params: ClassParams) -> list[ValidationError]:
    """The field to blame when a valid class breaks the magnitude bound
    above: the box or the values (already at the default delta_max and
    any global radius), else delta_max, else global_radius."""
    diag_sq = sum((hi - lo) * (hi - lo) for lo, hi in zip(params.domain_left, params.domain_right))
    values = abs(params.paraboloid_min) + abs(params.global_value)

    def fits(delta_max: float, global_radius: float) -> bool:
        bound = 2.0 * (diag_sq + values) + (1.0 + delta_max) * (1.0 + diag_sq)
        narrowest = min(global_radius, 0.25 * PRECISION)
        return (
            diag_sq <= _MAX_DIAGONAL_SQ
            and _MAGNITUDE_FACTOR * bound <= sys.float_info.max * narrowest**5
        )

    if not fits(min(params.delta_max, DEFAULT_DELTA_MAX), math.inf):
        box = diag_sq >= values
        return [ValidationError(
            ErrorCode.BOUNDARY if box else ErrorCode.GLOBAL_MIN_VALUE,
            f"the squared box diagonal ({diag_sq!r}) and |paraboloid_min| + |global_value| "
            f"({values!r}) overflow double precision: the "
            f"{'box' if box else 'paraboloid minimum or global value'} is too large in magnitude",
        )]
    if not fits(params.delta_max, math.inf):
        return [ValidationError(
            ErrorCode.TUNING,
            f"delta_max ({params.delta_max!r}) overflows the basin polynomials in double precision",
        )]
    if not fits(params.delta_max, params.global_radius):
        return [ValidationError(
            ErrorCode.GLOBAL_RADIUS,
            f"global attraction radius ({params.global_radius!r}) is too small: its basin "
            f"polynomials overflow double precision",
        )]
    return []

