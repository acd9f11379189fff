"""Ground-truth notebooks and plot-ready grids.

A notebook is a JSON document describing every function of a class:
class parameters, the family it was exported for, and per function the
full minimizer table (coordinates, values, radii, basin depths, weights),
the curvature parameter, and the global-minimizer bookkeeping.  Floats
survive the round trip exactly, so a loaded class evaluates bit-for-bit
like the generated one, without re-running the random stream.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .evaluate import FAMILIES, eval_many
from .generator import (
    FUNCTIONS_PER_CLASS,
    GeneratedFunction,
    GlobalInfo,
    MinimaTable,
    generate,
    ground_truth_problems,
)
from .params import (
    ClassParams,
    ErrorCode,
    ParameterError,
    ValidationError,
    check,
    params_from_dict,
    params_to_dict,
)


class NotebookError(Exception):
    """Malformed, truncated, or internally inconsistent notebook."""


class LoadedClass(NamedTuple):
    params: ClassParams
    functions: list[GeneratedFunction]
    function_type: str


def _function_entry(func: GeneratedFunction) -> dict:
    table = func.minima
    return {
        "nf": func.nf,
        "delta": float(func.delta),
        "minimizers": [
            {
                "index": i + 1,
                "coords": [float(v) for v in table.local_min[i]],
                "f": float(table.f[i]),
                "rho": float(table.rho[i]),
                "peak": float(table.peak[i]),
                "w": float(table.w_rho[i]),
            }
            for i in range(func.num_minima)
        ],
        "global": {
            "value": float(func.params.global_value),
            "num_global_minima": func.glob.num_global_minima,
            "gm_index": [int(v) for v in func.glob.gm_index],
        },
    }


def build_class_document(params: ClassParams, function_type: str) -> dict:
    """Generate all 100 functions and assemble the notebook document."""
    if function_type not in FAMILIES:
        raise ValueError(
            f"unknown function type {function_type!r}, expected one of {FAMILIES}"
        )
    return {
        "class_params": params_to_dict(params),
        "function_type": function_type,
        "functions": [
            _function_entry(generate(params, nf))
            for nf in range(1, FUNCTIONS_PER_CLASS + 1)
        ],
    }


def _summary_text(document: dict) -> str:
    cp = document["class_params"]
    lines = [
        "ground-truth notebook",
        f"function type: {document['function_type']}",
        f"dimension: {cp['dim']}  minima per function: {cp['num_minima']}",
        f"global value: {cp['global_value']!r}  "
        f"vertex distance: {cp['global_dist']!r}  "
        f"attraction radius: {cp['global_radius']!r}",
        f"domain: {cp['domain_left']} .. {cp['domain_right']}",
        "",
        "nf  global minimizer(s)  [count]  delta",
    ]
    for entry in document["functions"]:
        table = entry["minimizers"]
        glob = entry["global"]
        heads = glob["gm_index"][: glob["num_global_minima"]]
        coords = "; ".join(
            "(" + ", ".join(repr(v) for v in table[idx - 1]["coords"]) + ")"
            for idx in heads
        )
        lines.append(
            f"{entry['nf']:3d}  {coords}  [{glob['num_global_minima']}]  "
            f"{entry['delta']!r}"
        )
    return "\n".join(lines) + "\n"


def summary_path_for(path) -> Path:
    """Plain-text companion path: notebook.json -> notebook.txt."""
    path = Path(path)
    if path.suffix and path.suffix != ".txt":
        return path.with_suffix(".txt")
    return path.with_name(path.name + ".summary.txt")


def export_class(params: ClassParams, function_type: str, path) -> dict:
    """Write the notebook JSON for a class plus a plain-text summary
    alongside it; returns the document."""
    document = build_class_document(params, function_type)
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    summary_path_for(path).write_text(_summary_text(document))
    return document


def _expect(mapping, key, kind, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise NotebookError(f"missing key {key!r} in {where}")
    value = mapping[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise NotebookError(f"key {key!r} in {where} must be a number")
        return float(value)
    if not isinstance(value, kind):
        raise NotebookError(f"key {key!r} in {where} must be {kind.__name__}")
    return value


def _function_from_entry(entry: dict, params: ClassParams, position: int) -> GeneratedFunction:
    where = f"functions[{position}]"
    nf = _expect(entry, "nf", int, where)
    if nf != position + 1:
        raise NotebookError(f"{where} has nf={nf}, expected {position + 1}")
    delta = _expect(entry, "delta", float, where)
    minimizers = _expect(entry, "minimizers", list, where)
    if len(minimizers) != params.num_minima:
        raise NotebookError(
            f"{where} lists {len(minimizers)} minimizers, expected {params.num_minima}"
        )
    local_min = np.empty((params.num_minima, params.dim))
    values = np.empty(params.num_minima)
    rho = np.empty(params.num_minima)
    peak = np.empty(params.num_minima)
    w_rho = np.empty(params.num_minima)
    for i, row in enumerate(minimizers):
        row_where = f"{where}.minimizers[{i}]"
        if _expect(row, "index", int, row_where) != i + 1:
            raise NotebookError(f"{row_where} is out of order")
        coords = _expect(row, "coords", list, row_where)
        if len(coords) != params.dim:
            raise NotebookError(f"{row_where} has {len(coords)} coordinates")
        local_min[i] = coords
        values[i] = _expect(row, "f", float, row_where)
        rho[i] = _expect(row, "rho", float, row_where)
        peak[i] = _expect(row, "peak", float, row_where)
        w_rho[i] = _expect(row, "w", float, row_where)
    glob_entry = _expect(entry, "global", dict, where)
    num_global = _expect(glob_entry, "num_global_minima", int, f"{where}.global")
    gm_index = _expect(glob_entry, "gm_index", list, f"{where}.global")
    stored_value = _expect(glob_entry, "value", float, f"{where}.global")
    if stored_value != params.global_value:
        raise NotebookError(
            f"{where}.global.value {stored_value!r} disagrees with the class "
            f"value {params.global_value!r}"
        )
    func = GeneratedFunction(
        params=params,
        nf=nf,
        minima=MinimaTable(local_min=local_min, f=values, rho=rho, peak=peak, w_rho=w_rho),
        glob=GlobalInfo(num_global_minima=num_global, gm_index=np.array(gm_index)),
        delta=delta,
    )
    problems = ground_truth_problems(func)
    if problems:
        raise NotebookError(f"{where} violates ground-truth invariants: " + "; ".join(problems))
    return func


def load_class(path) -> LoadedClass:
    """Read and re-validate a notebook; the stored ground truth is
    authoritative (the random stream is not re-run)."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise NotebookError(f"cannot read notebook: {exc}") from exc
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise NotebookError(f"not a valid notebook document: {exc}") from exc
    if not isinstance(document, dict):
        raise NotebookError("notebook root must be an object")

    params_dict = _expect(document, "class_params", dict, "notebook")
    try:
        params = params_from_dict(params_dict)
    except (KeyError, TypeError, ValueError) as exc:
        raise NotebookError(f"bad class_params: {exc}") from exc
    errors = check(params)
    if errors:
        raise NotebookError(
            "stored class parameters are invalid: " + "; ".join(map(str, errors))
        )
    function_type = _expect(document, "function_type", str, "notebook")
    if function_type not in FAMILIES:
        raise NotebookError(f"unknown function_type {function_type!r}")
    entries = _expect(document, "functions", list, "notebook")
    if len(entries) != FUNCTIONS_PER_CLASS:
        raise NotebookError(
            f"notebook lists {len(entries)} functions, expected {FUNCTIONS_PER_CLASS}"
        )
    functions = [
        _function_from_entry(entry, params, i) for i, entry in enumerate(entries)
    ]
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
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
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
