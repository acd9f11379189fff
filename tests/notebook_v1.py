"""Schema 1 notebook writer, kept as the reference for the schema 1 reader.

Schema 1 is the layout `export_class` wrote before schema 2: no
``schema`` key, one object per minimizer row, copies of what the record
derives (``index``, ``w`` and ``global``), and ``json.dump`` with
``indent=2``.  :func:`write_v1` reproduces those files byte for byte,
so schema 1 tests run on exactly the bytes such a notebook holds.
"""

import json
from pathlib import Path

from basingen.notebook import _MINIMA_KEYS, params_to_dict


def _function_entry(func) -> dict:
    columns = {key: getattr(func.minima, field).tolist() for key, field in _MINIMA_KEYS.items()}
    columns["w"] = func.minima.w_rho.tolist()
    return {
        "nf": func.nf,
        "delta": func.delta,
        "minimizers": [
            {"index": i + 1, **{key: column[i] for key, column in columns.items()}}
            for i in range(func.num_minima)
        ],
        "global": {
            "value": func.params.global_value,
            "num_global_minima": func.glob.num_global_minima,
            "gm_index": func.glob.gm_index.tolist(),
        },
    }


def document_v1(loaded) -> dict:
    """The schema 1 document of `loaded` (a ``LoadedClass``)."""
    return {
        "class_params": params_to_dict(loaded.params),
        "function_type": loaded.function_type,
        "functions": [_function_entry(func) for func in loaded.functions],
    }


def write_v1(loaded, path) -> Path:
    """Write the schema 1 notebook of `loaded` to `path`, as export_class did."""
    document = document_v1(loaded)
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    return path
