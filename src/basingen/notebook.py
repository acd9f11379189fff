"""Ground-truth notebooks and plot-ready grids.

A notebook is a JSON document describing every function of a class:
class parameters, the family it was exported for, and per function the
full minimizer table (coordinates, values, radii, basin depths, weights),
the curvature parameter, and the global-minimizer bookkeeping.  Floats
survive the round trip exactly, so a loaded class evaluates bit-for-bit
like the generated one, without re-running the random stream.  Stored
weights and global bookkeeping must equal what the record derives.

:func:`export_class` and :func:`load_class` both return the class as a
:class:`LoadedClass` of records; only ``_function_entry`` (the writer)
and ``_function_from_entry`` with ``load_class`` (the reader) know the
JSON layout, and the plain-text summary is formatted from the records.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .evaluate import FAMILIES, _require_family, eval_many
from .generator import (
    FUNCTIONS_PER_CLASS,
    GeneratedFunction,
    MinimaTable,
    generate,
    ground_truth_problems,
)
from .params import (
    ClassParams,
    ErrorCode,
    ParameterError,
    SchemaError,
    ValidationError,
    _require_count,
    check,
    params_from_dict,
    params_to_dict,
    read_numbers,
)


class NotebookError(Exception):
    """Malformed, truncated, or internally inconsistent notebook."""


class LoadedClass(NamedTuple):
    params: ClassParams
    functions: list[GeneratedFunction]
    function_type: str


# JSON key of each minimizer column -> its MinimaTable field, in export order
_MINIMA_KEYS = {"coords": "local_min", "f": "f", "rho": "rho", "peak": "peak", "w": "w_rho"}


def _function_entry(func: GeneratedFunction) -> dict:
    columns = {key: getattr(func.minima, field).tolist() for key, field in _MINIMA_KEYS.items()}
    return {
        "nf": func.nf,
        "delta": float(func.delta),
        "minimizers": [
            {"index": i + 1, **{key: column[i] for key, column in columns.items()}}
            for i in range(func.num_minima)
        ],
        "global": {
            "value": float(func.params.global_value),
            "num_global_minima": func.glob.num_global_minima,
            "gm_index": func.glob.gm_index.tolist(),
        },
    }


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
        lines.append(
            f"{func.nf:3d}  {coords}  [{func.glob.num_global_minima}]  {float(func.delta)!r}"
        )
    return "\n".join(lines) + "\n"


def summary_path_for(path) -> Path:
    """Plain-text companion path: notebook.json -> notebook.txt."""
    path = Path(path)
    if path.suffix and path.suffix != ".txt":
        return path.with_suffix(".txt")
    return path.with_name(path.name + ".summary.txt")


def export_class(params: ClassParams, function_type: str, path) -> LoadedClass:
    """Generate all 100 functions of a class, write their notebook JSON
    and a plain-text summary alongside it, and return the records as the
    :class:`LoadedClass` that :func:`load_class` reads back from `path`."""
    _require_family(function_type)
    functions = [generate(params, nf) for nf in range(1, FUNCTIONS_PER_CLASS + 1)]
    loaded = LoadedClass(params=params, functions=functions, function_type=function_type)
    document = {
        "class_params": params_to_dict(params),
        "function_type": function_type,
        "functions": [_function_entry(func) for func in functions],
    }
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    summary_path_for(path).write_text(_summary_text(loaded))
    return loaded


def _function_from_entry(entry, params: ClassParams, position: int) -> GeneratedFunction:
    where = f"functions[{position}]"
    m = params.num_minima
    nf = read_numbers(entry, "nf", where, kind=int).item()
    if nf != position + 1:
        raise NotebookError(f"{where} has nf={nf}, expected {position + 1}")
    rows = entry.get("minimizers")
    if type(rows) is not list or len(rows) != m or not all(type(row) is dict for row in rows):
        raise NotebookError(f"{where}.minimizers must be an array of {m} objects")
    # a missing key reads as null, which read_numbers rejects
    columns = {key: [row.get(key) for row in rows] for key in ("index", *_MINIMA_KEYS)}
    rows_where = f"{where}.minimizers[*]"
    index = read_numbers(columns, "index", rows_where, (m,), int)
    if not np.array_equal(index, np.arange(1, m + 1)):
        raise NotebookError(f"{where}.minimizers are out of order")
    table = {
        field: read_numbers(columns, key, rows_where, (m, params.dim) if key == "coords" else (m,))
        for key, field in _MINIMA_KEYS.items()
    }
    glob = entry.get("global")
    glob_where = f"{where}.global"
    stored_value = read_numbers(glob, "value", glob_where).item()
    if stored_value != params.global_value:
        raise NotebookError(
            f"{glob_where}.value {stored_value!r} disagrees with the class "
            f"value {params.global_value!r}"
        )
    num_global = read_numbers(glob, "num_global_minima", glob_where, kind=int).item()
    gm_index = read_numbers(glob, "gm_index", glob_where, (m,), int)
    weights = table.pop("w_rho")
    func = GeneratedFunction(
        params=params,
        nf=nf,
        minima=MinimaTable(**table),
        delta=read_numbers(entry, "delta", where).item(),
    )
    problems = ground_truth_problems(func)
    if problems:
        raise NotebookError(f"{where} violates ground-truth invariants: " + "; ".join(problems))
    if not np.array_equal(weights, func.minima.w_rho):
        raise NotebookError(f"{rows_where}.w must be 0.99, and 1.0 for minimizer 2")
    derived = func.glob
    if num_global != derived.num_global_minima or not np.array_equal(gm_index, derived.gm_index):
        raise NotebookError(
            f"{glob_where} must list the global minimizers by value: num_global_minima "
            f"{derived.num_global_minima}, gm_index {derived.gm_index.tolist()}"
        )
    return func


def load_class(path) -> LoadedClass:
    """Read and re-validate a notebook; the stored ground truth is
    authoritative (the random stream is not re-run)."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise NotebookError(f"cannot read notebook: {exc}") from exc
    if type(document) is not dict:
        raise NotebookError("notebook root must be an object")
    try:  # every value is decoded by read_numbers, whose errors are reported here
        params = params_from_dict(document.get("class_params"))
        errors = check(params)
        if errors:
            raise NotebookError(
                "stored class parameters are invalid: " + "; ".join(map(str, errors))
            )
        function_type = document.get("function_type")
        if function_type not in FAMILIES:
            raise NotebookError(f"unknown function_type {function_type!r}")
        entries = document.get("functions")
        if type(entries) is not list or len(entries) != FUNCTIONS_PER_CLASS:
            raise NotebookError(f"notebook must list {FUNCTIONS_PER_CLASS} functions")
        functions = [
            _function_from_entry(entry, params, i) for i, entry in enumerate(entries)
        ]
    except SchemaError as exc:
        raise NotebookError(str(exc)) from exc
    return LoadedClass(params=params, functions=functions, function_type=function_type)


# ---------------------------------------------------------------------------
# surface grids


def grid_samples(func: GeneratedFunction, family: str, resolution: int) -> np.ndarray:
    """Uniform lattice over a 2-D domain, endpoints included: an
    (resolution**2, 3) array of (x1, x2, value) rows, x1-major."""
    if func.dim != 2:
        raise ParameterError(
            ValidationError(
                ErrorCode.DIM,
                f"surface grids require dimension 2, got {func.dim}",
            )
        )
    resolution = _require_count("resolution", resolution, 2)
    xs = np.linspace(func.lower[0], func.upper[0], resolution)
    ys = np.linspace(func.lower[1], func.upper[1], resolution)
    g1, g2 = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([g1.ravel(), g2.ravel()])
    values = eval_many(func, family, points)
    return np.column_stack([points, values])


def write_grid(path, func: GeneratedFunction, family: str, resolution: int) -> int:
    """Write the grid as CSV with header ``x1,x2,f``; returns the row count."""
    rows = grid_samples(func, family, resolution)
    lines = ["x1,x2,f"]
    lines.extend(
        f"{float(a)!r},{float(b)!r},{float(v)!r}" for a, b, v in rows
    )
    Path(path).write_text("\n".join(lines) + "\n")
    return len(rows)
