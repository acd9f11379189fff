import json
import re

import numpy as np
import pytest

from basingen import (
    LoadedClass,
    NotebookError,
    ParameterError,
    default_params,
    eval_d,
    eval_d2,
    eval_nd,
    export_class,
    generate,
    grid_samples,
    load_class,
    write_grid,
)
from basingen.notebook import summary_path_for

from conftest import sized_class


@pytest.fixture(scope="module")
def notebook_path(tmp_path_factory, params2):
    path = tmp_path_factory.mktemp("nb") / "class_d.json"
    export_class(params2, "d", path)
    return path


def test_export_writes_100_functions(notebook_path):
    document = json.loads(notebook_path.read_text())
    assert document["function_type"] == "d"
    assert len(document["functions"]) == 100
    assert [e["nf"] for e in document["functions"]] == list(range(1, 101))


def test_every_entry_has_the_class_global_value(notebook_path):
    document = json.loads(notebook_path.read_text())
    assert all(e["global"]["value"] == -1.0 for e in document["functions"])


def test_summary_written_alongside(notebook_path):
    summary = summary_path_for(notebook_path)
    assert summary.exists()
    text = summary.read_text()
    assert "function type: d" in text
    assert text.count("\n") >= 100


def test_export_is_reproducible(tmp_path, params2):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    export_class(params2, "d", a)
    export_class(params2, "d", b)
    assert a.read_bytes() == b.read_bytes()


def test_round_trip_reproduces_ground_truth(
    notebook_path, params2, default_class, pinned_classes, tmp_path
):
    path5 = tmp_path / "class_5d30.json"
    export_class(sized_class(5, 30), "d2", path5)
    for path, params, family, generated in (
        (notebook_path, params2, "d", default_class),
        (path5, sized_class(5, 30), "d2", pinned_classes[5, 30]),
    ):
        loaded = load_class(path)
        assert loaded.function_type == family
        assert loaded.params == params
        assert len(loaded.functions) == 100
        for original, restored in zip(generated, loaded.functions):
            assert_same_record(original, restored)


def assert_same_record(original, restored):
    """Every stored and derived field of two records is equal, bit for bit."""
    assert original.nf == restored.nf
    for field in ("local_min", "f", "rho", "peak", "w_rho"):
        stored = getattr(restored.minima, field)
        assert stored.dtype == np.float64
        assert np.array_equal(getattr(original.minima, field), stored)
    assert restored.glob.gm_index.dtype == np.int64
    assert np.array_equal(original.glob.gm_index, restored.glob.gm_index)
    assert original.glob.num_global_minima == restored.glob.num_global_minima
    assert original.delta == restored.delta and type(restored.delta) is float


def test_export_returns_the_class_load_reads(tmp_path, params2, default_class):
    path = tmp_path / "c.json"
    exported = export_class(params2, "d", path)
    loaded = load_class(path)
    assert type(exported) is LoadedClass
    assert exported.params is params2 and loaded.params == params2
    assert exported.function_type == loaded.function_type == "d"
    assert len(exported.functions) == len(loaded.functions) == 100
    for generated, written, restored in zip(default_class, exported.functions, loaded.functions):
        assert_same_record(generated, written)
        assert_same_record(written, restored)


def test_round_trip_evaluations_bitwise(notebook_path, default_class):
    loaded = load_class(notebook_path)
    rng = np.random.default_rng(31)
    points = rng.uniform(-1.0, 1.0, size=(200, 2))
    for nf in (1, 9, 100):
        original = default_class[nf - 1]
        restored = loaded.functions[nf - 1]
        for x in points:
            assert eval_d(original, x) == eval_d(restored, x)
            assert eval_nd(original, x) == eval_nd(restored, x)
            assert eval_d2(original, x) == eval_d2(restored, x)


def test_truncated_file_is_rejected(tmp_path, notebook_path):
    broken = tmp_path / "broken.json"
    broken.write_text(notebook_path.read_text()[:5000])
    with pytest.raises(NotebookError):
        load_class(broken)


def test_missing_file_is_reported(tmp_path):
    with pytest.raises(NotebookError):
        load_class(tmp_path / "absent.json")


def test_tampered_global_value_is_rejected(tmp_path, notebook_path):
    document = json.loads(notebook_path.read_text())
    document["functions"][3]["minimizers"][1]["f"] = -0.5
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(document))
    with pytest.raises(NotebookError):
        load_class(bad)


def test_tampered_radius_is_rejected(tmp_path, notebook_path):
    document = json.loads(notebook_path.read_text())
    document["functions"][0]["minimizers"][0]["rho"] = 5.0  # overlaps everything
    bad = tmp_path / "tampered_rho.json"
    bad.write_text(json.dumps(document))
    with pytest.raises(NotebookError):
        load_class(bad)


def test_non_finite_ground_truth_is_rejected(tmp_path, notebook_path):
    cases = [
        ("coords", float("nan")),
        ("f", float("nan")),
        ("rho", float("nan")),
        ("peak", float("nan")),
        ("peak", float("inf")),
    ]
    for key, value in cases:
        document = json.loads(notebook_path.read_text())
        row = document["functions"][4]["minimizers"][6]
        if key == "coords":
            row["coords"][1] = value
        else:
            row[key] = value
        bad = tmp_path / "non_finite.json"
        bad.write_text(json.dumps(document))
        with pytest.raises(NotebookError, match="must be finite"):
            load_class(bad)


# class_params keys of notebooks written while precision and the radius
# weights were settable, at the values every such notebook held
LEGACY_KEYS = {"precision": 1e-10, "weights": [0.99, 1.0] + [0.99] * 8}


def test_legacy_keys_load_at_the_fixed_values_only(tmp_path, notebook_path, default_class):
    document = json.loads(notebook_path.read_text())
    assert not LEGACY_KEYS.keys() & document["class_params"].keys()
    document["class_params"].update(LEGACY_KEYS)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(document))
    loaded = load_class(legacy)
    assert loaded.params == default_params(2)
    for original, restored in zip(default_class, loaded.functions):
        for field in ("local_min", "f", "rho", "peak", "w_rho"):
            assert np.array_equal(getattr(original.minima, field), getattr(restored.minima, field))
        assert original.delta == restored.delta
    for key, value in (
        ("precision", 1e-3),
        ("precision", 0.5),
        ("precision", None),
        ("weights", [0.99, 1.0, 0.5] + [0.99] * 7),
        ("weights", [0.99] * 10),
        ("weights", [0.99, 1.0] + [0.99] * 7),
    ):
        document["class_params"].update(LEGACY_KEYS, **{key: value})
        legacy.write_text(json.dumps(document))
        with pytest.raises(NotebookError, match=f"class_params.{key}"):
            load_class(legacy)


def _set(*path, value=None, literal=None, encoding="utf-8"):
    """Edit giving the notebook bytes with the value at `path` replaced by
    `value`, or by the raw JSON text `literal`, encoded with `encoding`."""

    def edit(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value if literal is None else "@literal@"
        text = json.dumps(document, ensure_ascii=False)
        if literal is not None:
            text = text.replace('"@literal@"', literal)
        return text.encode(encoding)

    return edit


_F4 = ("functions", 4)
_ROW = (*_F4, "minimizers", 3)
_BIG = "1" + "0" * 399  # fits json's digit limit, not a double or an int64

MALFORMED = {
    "gm_index_fraction": _set(*_F4, "global", "gm_index", 0, value=2.5),
    "dim_fraction": _set("class_params", "dim", value=2.7),
    "dim_string": _set("class_params", "dim", value="2"),
    "num_minima_fraction": _set("class_params", "num_minima", value=10.9),
    "domain_strings": _set("class_params", "domain_left", value=["-1.0", "-1.0"]),
    "global_value_string": _set("class_params", "global_value", value="-1"),
    "nf_bool": _set("functions", 0, "nf", value=True),
    "coord_string": _set(*_ROW, "coords", 0, value="a"),
    "coord_nested": _set(*_ROW, "coords", 0, value=[0.1]),
    "gm_index_string": _set(*_F4, "global", "gm_index", 0, value="a"),
    "coord_400_digits": _set(*_ROW, "coords", 0, literal=_BIG),
    "f_400_digits": _set(*_ROW, "f", literal=_BIG),
    "global_dist_400_digits": _set("class_params", "global_dist", literal=_BIG),
    "gm_index_400_digits": _set(*_F4, "global", "gm_index", 0, literal=_BIG),
    "coord_5000_digits": _set(*_ROW, "coords", 0, literal="1" + "0" * 4999),
    "not_utf8": _set("function_type", value="d\xe9", encoding="latin-1"),
    "nested_100000_deep": _set(*_ROW, "coords", literal="[" * 100_000 + "]" * 100_000),
    "weights_short": _set("class_params", "weights", value=[0.99] * 9),
    "index_bool": _set("functions", 0, "minimizers", 0, "index", value=True),
    "num_global_minima_bool": _set(*_F4, "global", "num_global_minima", value=True),
    "precision_null": _set("class_params", "precision", value=None),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_value_is_rejected(tmp_path, notebook_path, case):
    bad = tmp_path / "malformed.json"
    bad.write_bytes(MALFORMED[case](json.loads(notebook_path.read_text())))
    with pytest.raises(NotebookError):
        load_class(bad)


# a notebook's copies of what the record derives (the weights from the
# class, the global list from the values) must equal the derived ones;
# function 5 of the class has one global minimizer, minimizer 2.  The ids
# are those of the audit cases these checks moved from.
_GLOBAL = (*_F4, "global")
_W_PATH = "functions[4].minimizers[*].w"
_GLOBAL_PATH = "functions[4].global"
_LIST = [2, 1, 3, 4, 5, 6, 7, 8, 9, 10]

DERIVED_COPIES = {
    "w-length": (_set(*_ROW, "w", value=[0.99, 0.99]), _W_PATH),
    "w-nan": (_set(*_ROW, "w", value=float("nan")), _W_PATH),
    "weights": (_set(*_ROW, "w", value=0.5), _W_PATH),
    "vertex-weight-one": (_set(*_F4, "minimizers", 0, "w", value=1.0), _W_PATH),
    "not-permutation": (_set(*_GLOBAL, "gm_index", 1, value=2), _GLOBAL_PATH),
    "count-zero": (_set(*_GLOBAL, "num_global_minima", value=0), _GLOBAL_PATH),
    "count-high": (_set(*_GLOBAL, "num_global_minima", value=11), _GLOBAL_PATH),
    "global-missing": (_set(*_GLOBAL, "gm_index", value=sorted(_LIST)), _GLOBAL_PATH),
    "global-extra": (
        _set(*_GLOBAL, value=dict(value=-1.0, num_global_minima=2, gm_index=[2, 3, 1, *_LIST[3:]])),
        _GLOBAL_PATH,
    ),
    "groups-unsorted": (_set(*_GLOBAL, "gm_index", value=[2, 1, 4, 3, *_LIST[4:]]), _GLOBAL_PATH),
}


@pytest.mark.parametrize("case", DERIVED_COPIES)
def test_stored_copies_must_equal_the_derived_data(tmp_path, notebook_path, case):
    edit, where = DERIVED_COPIES[case]
    document = json.loads(notebook_path.read_text())
    assert document["functions"][4]["global"]["gm_index"] == _LIST
    bad = tmp_path / "derived.json"
    bad.write_bytes(edit(document))
    with pytest.raises(NotebookError, match=re.escape(where)):
        load_class(bad)


def test_wrong_function_count_is_rejected(tmp_path, notebook_path):
    document = json.loads(notebook_path.read_text())
    document["functions"] = document["functions"][:50]
    bad = tmp_path / "halved.json"
    bad.write_text(json.dumps(document))
    with pytest.raises(NotebookError):
        load_class(bad)


def test_unknown_family_rejected(params2, tmp_path):
    with pytest.raises(ValueError):
        export_class(params2, "smooth", tmp_path / "never.json")
    assert not (tmp_path / "never.json").exists()


def test_invalid_params_rejected(tmp_path):
    import dataclasses

    bad = dataclasses.replace(default_params(2), global_radius=0.4)
    with pytest.raises(ParameterError):
        export_class(bad, "d", tmp_path / "never.json")
    assert not (tmp_path / "never.json").exists()


# --------------------------------------------------------------------------
# grids


def test_grid_shape_and_lattice(func9):
    rows = grid_samples(func9, "d", 101)
    assert rows.shape == (101 * 101, 3)
    xs = np.unique(rows[:, 0])
    assert len(xs) == 101
    assert xs[0] == -1.0 and xs[-1] == 1.0
    # x1-major ordering: first 101 rows share x1 = -1
    assert np.all(rows[:101, 0] == -1.0)


def test_grid_never_below_global_minimum(func9):
    rows = grid_samples(func9, "d", 101)
    assert rows[:, 2].min() >= func9.params.global_value


def test_grid_minimum_near_global_minimizer(func9):
    rows = grid_samples(func9, "d", 401)
    best = rows[np.argmin(rows[:, 2])]
    spacing = 2.0 / 400.0
    dist = np.linalg.norm(best[:2] - func9.global_minimizer)
    assert dist <= func9.params.global_radius + spacing


def test_grid_corners_match_paraboloid(func9):
    rows = grid_samples(func9, "d", 2)
    assert rows.shape == (4, 3)
    from basingen import locate_ball

    for x1, x2, value in rows:
        corner = np.array([x1, x2])
        if locate_ball(func9, corner) is None:
            expected = float(np.sum((corner - func9.vertex) ** 2))
            assert value == pytest.approx(expected, abs=1e-14)


def test_grid_resolution_is_an_integer_of_at_least_2(func9):
    for resolution in (2.5, 2.0, "3", None, True, 1, 0, -4):
        with pytest.raises(ValueError, match="resolution must be an integer >= 2"):
            grid_samples(func9, "d", resolution)
    assert grid_samples(func9, "d", np.int64(2)).shape == (4, 3)


def test_grid_requires_2d():
    params = default_params(3)
    func = generate(params, 1)
    with pytest.raises(ParameterError):
        grid_samples(func, "d", 11)


def test_write_grid_csv(tmp_path, func9):
    path = tmp_path / "surface.csv"
    count = write_grid(path, func9, "d", 11)
    lines = path.read_text().splitlines()
    assert count == 121
    assert lines[0] == "x1,x2,f"
    assert len(lines) == 122
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -1.0
