"""Class-definition parameters, their validation, and the error-code contract.

A :class:`ClassParams` value pins down one class of 100 test functions:
the user-facing quintet (dimension, number of minima, global minimum
value, distance from the paraboloid vertex to the global minimizer, and
the attraction radius of the global minimizer) plus the admissible box
and three defaulted tuning values.  The precision and the radius weights
are fixed for every class (:data:`PRECISION`, :func:`radius_weights`).
"""

from __future__ import annotations

import contextlib
import enum
import math
import numbers
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


class SchemaError(ValueError):
    """A stored value is missing or does not have the type and shape its
    schema requires; the message names the path of the value."""


def radius_weights(num_minima: int) -> np.ndarray:
    """Radius weights: 1.0 for the global minimizer (row 1), 0.99 elsewhere."""
    return np.where(np.arange(num_minima) == 1, 1.0, 0.99)


def _is_size(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_float(value):
    """A real number other than a bool (numpy scalar, Fraction, int) as a float; else `value`."""
    return value if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)


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
    # a finite span implies finite bounds and keeps box arithmetic finite
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
        if not 0.0 < real(params.global_dist) < half_side:
            errors.append(
                ValidationError(
                    ErrorCode.GLOBAL_DIST,
                    f"global-minimizer distance must satisfy 0 < dist < {half_side} "
                    f"(half the smallest domain side), got {params.global_dist!r}",
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
    return errors


def params_to_dict(params: ClassParams) -> dict:
    """JSON-ready mapping with the fixed key set of the class schema: one
    key per :class:`ClassParams` field, in field order."""
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


_JSON_NUMBERS = {int: ({int}, np.int64, "integers"), float: ({int, float}, np.float64, "numbers")}


def read_numbers(
    data, key: str, where: str, shape: tuple[int, ...] = (), kind: type = float
) -> np.ndarray:
    """Decode JSON value ``data[key]`` into an array of exactly `shape`:
    float64, or int64 where `kind` is int.

    `data` must be a JSON object holding `key`, and every leaf a JSON
    number (int or float, never bool, str, null or a container) or, where
    `kind` is int, a JSON integer.  Anything else, a number out of range
    included, raises :class:`SchemaError` naming ``where.key``.
    """
    if type(data) is not dict or key not in data:
        raise SchemaError(f"{where} must be an object with key {key!r}")
    where = f"{where}.{key}"
    leaves = [data[key]]
    for n in shape:
        if not all(type(v) is list and len(v) == n for v in leaves):
            raise SchemaError(f"{where} must be an array of shape {shape}")
        leaves = [x for v in leaves for x in v]
    allowed, dtype, noun = _JSON_NUMBERS[kind]
    if not set(map(type, leaves)) <= allowed:
        bad = next(type(v).__name__ for v in leaves if type(v) not in allowed)
        raise SchemaError(f"{where} must hold JSON {noun} only, got a {bad}")
    try:
        return np.array(leaves, dtype=dtype).reshape(shape)
    except OverflowError:
        raise SchemaError(f"{where} holds a number out of {dtype.__name__} range") from None


def params_from_dict(data: dict) -> ClassParams:
    """Inverse of :func:`params_to_dict`; every value goes through
    :func:`read_numbers`, so a missing key, a wrong type or a wrong length
    raises :class:`SchemaError`."""

    def read(key, shape=(), kind=float):
        return read_numbers(data, key, "class_params", shape, kind).tolist()

    dim, num_minima = read("dim", kind=int), read("num_minima", kind=int)
    # keys from when these were settable load at the fixed values only
    if "precision" in data and read("precision") != PRECISION:
        raise SchemaError(f"class_params.precision must be {PRECISION}, got {data['precision']}")
    if "weights" in data and read("weights", (num_minima,)) != radius_weights(num_minima).tolist():
        raise SchemaError("class_params.weights must be 0.99, and 1.0 for minimizer 2")
    shapes = {"domain_left": (dim,), "domain_right": (dim,)}
    rest = fields(ClassParams)[2:]  # every field after dim and num_minima
    values = {f.name: read(f.name, shapes.get(f.name, ())) for f in rest}
    return ClassParams(dim=dim, num_minima=num_minima, **values)
