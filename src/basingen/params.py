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
    float, ±inf when too large for one; else `value`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return value
    with contextlib.suppress(OverflowError):
        return float(value)
    return math.inf if value > 0 else -math.inf


def _require_count(name: str, value, minimum: int) -> int:
    """`value` as a plain int, after checking it is an integer >= `minimum`."""
    if not _is_size(value) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ClassParams:
    """Immutable definition of one class of 100 test functions.

    A ``gap`` of ``None`` is the global attraction radius.  Sizes are stored
    as int and reals as float, one spelling per class; check reports the rest.
    """

    dim: int
    num_minima: int
    global_value: float
    global_dist: float
    global_radius: float
    domain_left: tuple[float, ...]
    domain_right: tuple[float, ...]
    paraboloid_min: float = DEFAULT_PARABOLOID_MIN
    delta_max: float = DEFAULT_DELTA_MAX
    gap: float | None = None

    def __post_init__(self):
        if self.gap is None:
            object.__setattr__(self, "gap", self.global_radius)
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


def default_params(dim: int) -> ClassParams:
    """Build the default class for `dim`: box [-1, 1]^dim, 10 minima,
    global value -1, vertex distance side/3, attraction radius side/6.
    """
    if not _is_size(dim) or not 2 <= dim <= DEFAULT_MAX_DIM:
        raise ParameterError(
            ValidationError(
                ErrorCode.DIM,
                f"dimension must satisfy 2 <= dim <= {DEFAULT_MAX_DIM}, got {dim!r}",
            )
        )
    side = 2.0  # smallest |right - left| of the default box
    return ClassParams(
        dim=dim,
        num_minima=DEFAULT_NUM_MINIMA,
        global_value=DEFAULT_GLOBAL_VALUE,
        global_dist=side / 3.0,
        global_radius=side / 6.0,
        domain_left=(-1.0,) * dim,
        domain_right=(1.0,) * dim,
    )


def check(params: ClassParams) -> list[ValidationError]:
    """Return every violated class condition (empty list means valid).

    Pure: inspects `params` only, never raises for invalid values.
    """
    errors: list[ValidationError] = []
    for code, name, value, top, rule in (  # a float or a bool is not a size
        (ErrorCode.DIM, "dimension", params.dim, DEFAULT_MAX_DIM, f"in [2, {DEFAULT_MAX_DIM}]"),
        (ErrorCode.NUM_MINIMA, "minima (vertex included)", params.num_minima, math.inf, ">= 2"),
    ):
        if not (_is_size(value) and 2 <= value <= top):
            errors.append(ValidationError(code, f"{name} must be an integer {rule}, got {value!r}"))

    def real(value) -> float:  # not a float (a bool, str, None, array ...): fails as NaN
        return value if isinstance(value, float) else math.nan

    left, right = (v if type(v) is tuple else () for v in (params.domain_left, params.domain_right))
    # a finite span implies finite bounds; _magnitude_errors keeps the
    # squared distances in the box finite
    domain_ok = len(left) == params.dim == len(right) and all(
        real(lo) < real(hi) and math.isfinite(hi - lo) for lo, hi in zip(left, right)
    )
    if not domain_ok:
        errors.append(
            ValidationError(
                ErrorCode.BOUNDARY,
                f"domain bounds must be length-{params.dim} vectors with "
                f"left < right componentwise and a finite span right - left",
            )
        )

    if not -math.inf < real(params.global_value) < real(params.paraboloid_min) < math.inf:
        errors.append(
            ValidationError(
                ErrorCode.GLOBAL_MIN_VALUE,
                f"global minimum value ({params.global_value!r}) must be finite and "
                f"strictly below the finite paraboloid minimum ({params.paraboloid_min!r})",
            )
        )
    if domain_ok:
        half_side = 0.5 * min((hi - lo for lo, hi in zip(left, right)), default=0.0)
        # minimizers within the precision of each other coincide
        if not PRECISION < real(params.global_dist) < half_side:
            errors.append(
                ValidationError(
                    ErrorCode.GLOBAL_DIST,
                    f"global-minimizer distance must satisfy {PRECISION} (the precision) < dist"
                    f" < {half_side} (half the smallest domain side), got {params.global_dist!r}",
                )
            )
    if not 0.0 < real(params.global_radius) <= 0.5 * real(params.global_dist):
        errors.append(
            ValidationError(
                ErrorCode.GLOBAL_RADIUS,
                f"global attraction radius must satisfy 0 < radius <= "
                f"{0.5 * real(params.global_dist)} (half the global-minimizer distance), "
                f"got {params.global_radius!r}",
            )
        )
    for name, value, rule, ok in (  # each test fails on NaN
        ("delta_max", params.delta_max, "finite and > 0", 0.0 < real(params.delta_max) < math.inf),
        ("gap", params.gap, "finite and >= 0", 0.0 <= real(params.gap) < math.inf),
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

