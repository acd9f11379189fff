"""Ground-truth notebooks and plot-ready grids.

A notebook is a JSON document describing every function of a class:
class parameters, the family it was exported for, and per function the
stored columns of its minimizer table (coordinates, values, radii, basin
depths) and its curvature parameter.  Floats survive the round trip
exactly, so a loaded class evaluates bit-for-bit like the generated one,
without re-running the random stream.

:func:`export_class` writes ``"schema": 2`` and one JSON list per column
per function, compactly and one function at a time, so it holds one
function's lists and text at once; the bytes are those of one
``json.dumps`` call over the whole document.  :func:`load_class` reads
that layout only.  A file of any other schema, or without a ``schema``
key, is re-made with ``basingen gen`` from its ``class_params``.

Only this module knows the JSON layout: :func:`params_to_dict`,
``_entry`` and ``_document`` write it; :func:`params_from_dict`,
``_function_from_entry`` and :func:`load_class` read it, every value
through :func:`read_numbers`.
Any failure to read is a :class:`NotebookError` naming the bad value's
path.  The audit owns the rules on the class values and their names
(``generator._CLASS_VALUES``): a class value that every record
contradicts alike is named by its ``class_params`` key, in the audit's
words; any other contradiction names the first function whose audit
fails.  :func:`export_class` and :func:`load_class` both return a
:class:`LoadedClass` of records; the text summary is formatted from them.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .evaluate import FAMILIES, _require_family, eval_many
from .generator import (
    _CLASS_VALUES,
    FUNCTIONS_PER_CLASS,
    GeneratedFunction,
    MinimaTable,
    _class_functions,
    _signed,
    ground_truth_problems,
)
from .params import (
    ClassParams,
    ErrorCode,
    ParameterError,
    ValidationError,
    _require_count,
    check,
)


class NotebookError(Exception):
    """Malformed, truncated, or internally inconsistent notebook."""


class LoadedClass(NamedTuple):
    params: ClassParams
    functions: list[GeneratedFunction]
    function_type: str


# the schema export_class writes and load_class reads
SCHEMA = 2

# JSON key of each stored minimizer column -> its MinimaTable field, in export order
_MINIMA_KEYS = {"coords": "local_min", "f": "f", "rho": "rho", "peak": "peak"}

# points per write_grid block: its arrays and row lists stay near 2 MB
_GRID_POINTS = 1 << 14


def params_to_dict(params: ClassParams) -> dict:
    """JSON-ready mapping with the fixed key set of the class schema: one
    key per :class:`ClassParams` field, in field order."""
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


def _entry(func: GeneratedFunction) -> dict:
    """The notebook entry of one function: one JSON list per stored column,
    and none of the copies that the record derives."""
    return {
        "nf": func.nf,
        "delta": func.delta,
        **{key: getattr(func.minima, name).tolist() for key, name in _MINIMA_KEYS.items()},
    }


def _document(loaded: LoadedClass) -> dict:
    """The schema 2 notebook of `loaded`, its function entries last."""
    return {
        "schema": SCHEMA,
        "class_params": params_to_dict(loaded.params),
        "function_type": loaded.function_type,
        "functions": [_entry(func) for func in loaded.functions],
    }


def _compact(value) -> str:
    # dumps without indent runs the C encoder; json.dump to a file never does
    return json.dumps(value, separators=(",", ":"))


def _summary_text(loaded: LoadedClass) -> str:
    params = loaded.params
    lines = [
        "ground-truth notebook",
        f"function type: {loaded.function_type}",
        f"dimension: {params.dim}  minima per function: {params.num_minima}",
        f"global value: {params.global_value!r}  "
        f"vertex distance: {params.global_dist!r}  "
        f"attraction radius: {params.global_radius!r}",
        f"domain: {list(params.domain_left)} .. {list(params.domain_right)}",
        "",
        "nf  global minimizer(s)  [count]  delta",
    ]
    for func in loaded.functions:
        coords = "; ".join(
            "(" + ", ".join(map(repr, point)) + ")" for point in func.global_minimizers.tolist()
        )
        lines.append(f"{func.nf:3d}  {coords}  [{func.glob.num_global_minima}]  {func.delta!r}")
    return "\n".join(lines) + "\n"


def summary_path_for(path, suffix: str = ".txt") -> Path:
    """Companion path, never `path` itself, whatever the case of its suffix:
    c.json -> c.txt, c.txt -> c.txt.summary.txt, c.TXT -> c.TXT.summary.txt."""
    path = Path(path)
    if path.suffix and path.suffix.lower() != suffix.lower():
        return path.with_suffix(suffix)
    return path.with_name(f"{path.name}.summary{suffix}")


def export_class(params: ClassParams, function_type: str, path) -> LoadedClass:
    """Take all 100 functions of a class as :func:`generate` returns them (a
    record still held is reused), write their notebook JSON and a summary
    text alongside it, and return the records as the :class:`LoadedClass`
    that :func:`load_class` reads back from `path`."""
    _require_family(function_type)
    functions = list(_class_functions(params))
    loaded = LoadedClass(params=params, functions=functions, function_type=function_type)
    # the document's bytes, one entry encoded at a time: only one entry's
    # lists and text are alive at once, whatever the size of the class
    head = _compact(_document(loaded._replace(functions=[])))  # ...,"functions":[]}
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(head[: -len("]}")])
        for i, func in enumerate(functions):
            if i:
                fh.write(",")
            fh.write(_compact(_entry(func)))
        fh.write("]}\n")
    summary_path_for(path).write_text(_summary_text(loaded))
    return loaded


_JSON_NUMBERS = {int: ({int}, np.int64, "integers"), float: ({int, float}, np.float64, "numbers")}


def read_numbers(
    data, key: str, where: str, shape: tuple[int, ...] = (), kind: type = float
) -> np.ndarray:
    """Decode JSON value ``data[key]`` into an array of exactly `shape`:
    float64, or int64 where `kind` is int.

    `data` must be a JSON object holding `key`, and every leaf a JSON
    number (int or float, never bool, str, null or a container) or, where
    `kind` is int, a JSON integer.  Anything else, a number out of range
    included, raises :class:`NotebookError` naming ``where.key``.
    """
    if type(data) is not dict or key not in data:
        raise NotebookError(f"{where} must be an object with key {key!r}")
    where = f"{where}.{key}"
    leaves = [data[key]]
    for n in shape:
        if not all(type(v) is list and len(v) == n for v in leaves):
            raise NotebookError(f"{where} must be an array of shape {shape}")
        leaves = [x for v in leaves for x in v]
    allowed, dtype, noun = _JSON_NUMBERS[kind]
    if not set(map(type, leaves)) <= allowed:
        bad = next(type(v).__name__ for v in leaves if type(v) not in allowed)
        raise NotebookError(f"{where} must hold JSON {noun} only, got a {bad}")
    try:
        return np.array(leaves, dtype=dtype).reshape(shape)
    except OverflowError:
        raise NotebookError(f"{where} holds a number out of {dtype.__name__} range") from None


def params_from_dict(data: dict) -> ClassParams:
    """Inverse of :func:`params_to_dict`; every value goes through
    :func:`read_numbers`, so a missing key, a wrong type or a wrong length
    raises :class:`NotebookError`.  The class is not checked."""

    def read(key, shape=(), kind=float):
        return read_numbers(data, key, "class_params", shape, kind).tolist()

    dim, num_minima = read("dim", kind=int), read("num_minima", kind=int)
    shapes = {"domain_left": (dim,), "domain_right": (dim,)}
    rest = fields(ClassParams)[2:]  # every field after dim and num_minima
    values = {f.name: read(f.name, shapes.get(f.name, ())) for f in rest}
    return ClassParams(dim=dim, num_minima=num_minima, **values)


def _function_from_entry(entry, params: ClassParams, position: int) -> GeneratedFunction:
    """The record stored at ``functions[position]``, not yet audited."""
    where = f"functions[{position}]"
    m = params.num_minima
    nf = read_numbers(entry, "nf", where, kind=int).item()
    if nf != position + 1:
        raise NotebookError(f"{where} has nf={nf}, expected {position + 1}")
    table = {
        field: read_numbers(entry, key, where, (m, params.dim) if key == "coords" else (m,))
        for key, field in _MINIMA_KEYS.items()
    }
    return GeneratedFunction(
        params=params,
        nf=nf,
        minima=MinimaTable(**table),
        delta=read_numbers(entry, "delta", where).item(),
    )


def _require_class_values(params: ClassParams, functions: list[GeneratedFunction]) -> None:
    """Name the class value that every record contradicts with one value."""
    for key, (field, row, stored_name, class_name) in _CLASS_VALUES.items():
        stored = {_signed(float(getattr(func.minima, field)[row])) for func in functions}
        value = getattr(params, key)
        if len(stored) == 1 and stored != {_signed(value)}:
            raise NotebookError(
                f"class_params.{key} disagrees with every function: "
                f"{stored_name} {stored.pop()[0]!r} != {class_name} {value!r}"
            )


def load_class(path) -> LoadedClass:
    """Read and re-validate a schema 2 notebook; the stored ground truth is
    authoritative (the random stream is not re-run)."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise NotebookError(f"cannot read notebook: {exc}") from exc
    if type(document) is not dict:
        raise NotebookError("notebook root must be an object")
    schema = document.get("schema")
    if type(schema) is not int or schema != SCHEMA:
        found = json.dumps(schema) if "schema" in document else "no schema key"
        raise NotebookError(
            f"schema must be {SCHEMA}, got {found}; "
            "re-make the file with `basingen gen` from its class_params"
        )
    params = params_from_dict(document.get("class_params"))
    errors = check(params)
    if errors:
        raise NotebookError("stored class parameters are invalid: " + "; ".join(map(str, errors)))
    function_type = document.get("function_type")
    if function_type not in FAMILIES:
        raise NotebookError(f"unknown function_type {function_type!r}")
    entries = document.get("functions")
    if type(entries) is not list or len(entries) != FUNCTIONS_PER_CLASS:
        raise NotebookError(f"notebook must list {FUNCTIONS_PER_CLASS} functions")
    functions = [_function_from_entry(entry, params, i) for i, entry in enumerate(entries)]
    _require_class_values(params, functions)
    for i, func in enumerate(functions):
        problems = ground_truth_problems(func)
        if problems:
            raise NotebookError(
                f"functions[{i}] violates ground-truth invariants: " + "; ".join(problems)
            )
    return LoadedClass(params=params, functions=functions, function_type=function_type)


# ---------------------------------------------------------------------------
# surface grids


def _grid_axes(func: GeneratedFunction, resolution: int):
    """The x1 and x2 sample points of a surface grid, endpoints included,
    after checking that `func` is 2-D and `resolution` an integer >= 2."""
    if func.dim != 2:
        raise ParameterError(
            ValidationError(
                ErrorCode.DIM,
                f"surface grids require dimension 2, got {func.dim}",
            )
        )
    resolution = _require_count("resolution", resolution, 2)
    return [np.linspace(func.lower[i], func.upper[i], resolution) for i in (0, 1)]


def _grid_rows(func: GeneratedFunction, family: str, xs: np.ndarray, ys: np.ndarray):
    """(x1, x2, value) rows of the lattice xs by ys, x1-major."""
    g1, g2 = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([g1.ravel(), g2.ravel()])
    values = eval_many(func, family, points)
    return np.column_stack([points, values])


def grid_samples(func: GeneratedFunction, family: str, resolution: int) -> np.ndarray:
    """Uniform lattice over a 2-D domain, endpoints included: an
    (resolution**2, 3) array of (x1, x2, value) rows, x1-major."""
    return _grid_rows(func, family, *_grid_axes(func, resolution))


def write_grid(path, func: GeneratedFunction, family: str, resolution: int) -> int:
    """Write the grid as CSV with header ``x1,x2,f``; returns the row count.

    Blocks of x1-rows, about _GRID_POINTS points each, are evaluated and
    written in turn, so memory does not grow with the grid; as no point's
    value depends on the others of its call, the bytes are those of one
    call over the whole grid.  A bad family, dimension or resolution
    raises before the file is opened."""
    _require_family(family)
    xs, ys = _grid_axes(func, resolution)
    step = max(1, _GRID_POINTS // len(ys))
    with open(path, "w") as fh:
        fh.write("x1,x2,f\n")
        for start in range(0, len(xs), step):
            rows = _grid_rows(func, family, xs[start : start + step], ys)
            fh.writelines(f"{a!r},{b!r},{v!r}\n" for a, b, v in rows.tolist())
    return len(xs) * len(ys)
