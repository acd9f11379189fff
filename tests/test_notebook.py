import json
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from basingen import (
    FAMILIES,
    LoadedClass,
    NotebookError,
    ParameterError,
    default_params,
    eval_d,
    eval_d2,
    eval_many,
    eval_nd,
    export_class,
    generate,
    grid_samples,
    load_class,
    params_from_dict,
    params_to_dict,
    write_grid,
)
from basingen import generator, notebook
from basingen.notebook import summary_path_for

from conftest import sized_class


@pytest.fixture(scope="module")
def notebook_path(tmp_path_factory, params2):
    """The default 2-D class's `d` notebook as `export_class` writes it."""
    path = tmp_path_factory.mktemp("nb") / "class_d.json"
    export_class(params2, "d", path)
    return path


def test_export_writes_100_functions(notebook_path):
    text = notebook_path.read_text()
    document = json.loads(text)
    assert list(document) == ["schema", "class_params", "function_type", "functions"]
    assert document["schema"] == 2
    assert document["function_type"] == "d"
    assert len(document["functions"]) == 100
    assert [e["nf"] for e in document["functions"]] == list(range(1, 101))
    assert all(
        list(e) == ["nf", "delta", "coords", "f", "rho", "peak"] for e in document["functions"]
    )
    # compact: one line, no whitespace between tokens
    assert text == json.dumps(document, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("family", ["nd", "d", "d2"])
@pytest.mark.parametrize("shape", [(2, 10), (10, 100)])
def test_export_writes_the_bytes_of_one_dumps_call(tmp_path, pinned_classes, family, shape):
    # the writer encodes one function at a time; the file is the document
    # of the layout's one statement, encoded in one call
    path = tmp_path / "c.json"
    loaded = export_class(pinned_classes[shape][0].params, family, path)
    document = json.dumps(notebook._document(loaded), separators=(",", ":")) + "\n"
    assert path.read_bytes() == document.encode()


def test_export_memory_stays_below_a_quarter_of_the_file(tmp_path, pinned_classes):
    # one dumps call over the whole document held every function's lists
    # and the whole text, about 4 times the file; the writer holds one
    # function's.  The records are held, so none is generated here
    path = tmp_path / "c.json"
    params = pinned_classes[10, 100][0].params
    tracemalloc.start()
    try:
        export_class(params, "d2", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2 * 10**6
    assert peak < size / 4


def test_load_memory_stays_below_two_and_a_half_times_the_file(tmp_path, pinned_classes):
    # parsing the whole document into Python floats held about 3 times the
    # file; the loader packs each array as its object is parsed, so its peak
    # is the file's bytes and their decoded text
    path = tmp_path / "c.json"
    export_class(pinned_classes[10, 100][0].params, "d2", path)
    tracemalloc.start()
    try:
        load_class(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2 * 10**6
    assert peak < 2.5 * size


@pytest.mark.parametrize("family", FAMILIES)
def test_loaded_class_is_the_generated_one_bit_for_bit(tmp_path, pinned_classes, family):
    generated = pinned_classes[10, 100]
    path = tmp_path / "c.json"
    export_class(generated[0].params, family, path)
    loaded = load_class(path)
    assert loaded.function_type == family
    for original, restored in zip(generated, loaded.functions, strict=True):
        assert_same_record(original, restored)


def test_summary_written_alongside(notebook_path):
    summary = summary_path_for(notebook_path)
    assert summary.exists()
    text = summary.read_text()
    assert "function type: d" in text
    assert text.count("\n") >= 100


def test_summary_path_ignores_suffix_case():
    # a case-insensitive filesystem reads c.TXT and c.txt as one file
    assert summary_path_for("c.TXT") == Path("c.TXT.summary.txt")
    assert summary_path_for("c.JSON") == Path("c.txt")


def test_export_is_reproducible(tmp_path, params2):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    export_class(params2, "d", a)
    export_class(params2, "d", b)
    assert a.read_bytes() == b.read_bytes()


def test_export_after_a_generate_loop_reuses_its_records(tmp_path, params2, monkeypatch):
    funcs = [generate(params2, nf) for nf in range(1, 101)]
    with monkeypatch.context() as patch:
        patch.setattr(generator, "_generated", None)  # a call would raise TypeError
        reused = export_class(params2, "d2", tmp_path / "reused.json")
    assert all(a is b for a, b in zip(reused.functions, funcs, strict=True))
    monkeypatch.setattr(generator, "_records", weakref.WeakValueDictionary())
    fresh = export_class(params2, "d2", tmp_path / "fresh.json")
    assert not any(a is b for a, b in zip(fresh.functions, funcs, strict=True))
    for suffix in (".json", ".txt"):
        made = (tmp_path / f"fresh{suffix}").read_bytes()
        assert (tmp_path / f"reused{suffix}").read_bytes() == made


def test_round_trip_reproduces_ground_truth(
    notebook_path, params2, default_class, pinned_classes, tmp_path
):
    params5 = sized_class(5, 30)
    path5 = tmp_path / "class_5d30.json"
    export_class(params5, "d2", path5)
    for path, params, family, generated in (
        (notebook_path, params2, "d", default_class),
        (path5, params5, "d2", pinned_classes[5, 30]),
    ):
        loaded = load_class(path)
        assert loaded.function_type == family
        assert loaded.params == params
        assert len(loaded.functions) == 100
        for original, restored in zip(generated, loaded.functions):
            assert_same_record(original, restored)


def _bits(value):
    array = np.asarray(value)
    return type(value), array.dtype, array.shape, array.tobytes()


def assert_same_record(original, restored):
    """Every stored and derived field of two records is equal, bit for bit,
    in the same type: a zero keeps its sign.  A params field is equal bit
    for bit exactly when its repr is."""
    assert repr(restored.params) == repr(original.params)
    fields = [(original, restored, ("nf", "delta"))]
    fields.append((original.minima, restored.minima, ("local_min", "f", "rho", "peak", "w_rho")))
    fields.append((original.glob, restored.glob, ("num_global_minima", "gm_index")))
    for a, b, names in fields:
        for name in names:
            assert _bits(getattr(b, name)) == _bits(getattr(a, name)), name


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
    rng = np.random.default_rng(31)
    points = rng.uniform(-1.0, 1.0, size=(200, 2))
    loaded = load_class(notebook_path)
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
    with pytest.raises(NotebookError, match="cannot read notebook"):
        load_class(broken)


def test_missing_file_is_reported(tmp_path):
    with pytest.raises(NotebookError):
        load_class(tmp_path / "absent.json")


def test_tampered_global_value_is_rejected(tmp_path, notebook_path):
    document = json.loads(notebook_path.read_text())
    document["functions"][3]["f"][1] = -0.5
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(document))
    with pytest.raises(NotebookError):
        load_class(bad)


def test_tampered_radius_is_rejected(tmp_path, notebook_path):
    # a radius that overlaps everything, and one whose square overflows
    for nf, row, rho in ((1, 1, 5.0), (5, 4, 1e200)):
        document = json.loads(notebook_path.read_text())
        document["functions"][nf - 1]["rho"][row - 1] = rho
        bad = tmp_path / "tampered_rho.json"
        bad.write_text(json.dumps(document))
        with pytest.raises(NotebookError, match=f"attraction ball {row} overlaps"):
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
        column = document["functions"][4][key]
        if key == "coords":
            column[6][1] = value
        else:
            column[6] = value
        bad = tmp_path / "non_finite.json"
        bad.write_text(json.dumps(document))
        with pytest.raises(NotebookError, match="must be finite"):
            load_class(bad)


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
_BIG = "1" + "0" * 399  # fits json's digit limit, not a double or an int64


def test_class_radius_must_be_the_global_ball_radius(tmp_path, notebook_path):
    # every record keeps its value, so the class value is named
    for key, value, contradiction in (
        ("global_radius", 0.2, "global attraction radius 0.3333333333333333 != class radius 0.2"),
        ("global_value", -2.0, "global minimizer value -1.0 != class value -2.0"),
        ("paraboloid_min", 0.5, "vertex value 0.0 != paraboloid minimum 0.5"),
    ):
        document = json.loads(notebook_path.read_text())
        document["class_params"][key] = value
        bad = tmp_path / "class_value.json"
        bad.write_text(json.dumps(document))
        expected = f"class_params.{key} disagrees with every function: {contradiction}"
        with pytest.raises(NotebookError, match=re.escape(expected)):
            load_class(bad)


def test_a_class_value_keeps_the_sign_of_its_zero(tmp_path, notebook_path):
    # -0.0 == 0.0, yet a vertex value of -0.0 is not the class's 0.0: every
    # record edited names the class value, one record names its function
    message = "vertex value -0.0 != paraboloid minimum 0.0"
    for edited, expected in (
        (range(100), f"class_params.paraboloid_min disagrees with every function: {message}"),
        ([6], f"functions[6] violates ground-truth invariants: {message}"),
    ):
        document = json.loads(notebook_path.read_text())
        for i in edited:
            document["functions"][i]["f"][0] = -0.0
        bad = tmp_path / "negative_zero.json"
        bad.write_text(json.dumps(document))
        with pytest.raises(NotebookError, match=re.escape(expected)):
            load_class(bad)


def _delete(*path):
    """Edit giving the notebook bytes with the key at `path` removed."""

    def edit(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return json.dumps(document).encode()

    return edit


# malformed values and encodings, and the error's path: class_params
# leaves, the raw text, and function 1's columns functions[0].coords,
# .f and .nf
_F0 = ("functions", 0)
MALFORMED = {
    "dim_fraction": (_set("class_params", "dim", value=2.7), "class_params.dim"),
    "dim_string": (_set("class_params", "dim", value="2"), "class_params.dim"),
    "dim_list": (
        _set("class_params", "dim", value=[2]),
        "class_params.dim must hold JSON integers only, got a list",
    ),
    "dim_fraction_list": (
        _set("class_params", "dim", value=[2.0]),
        "class_params.dim must hold JSON integers only, got a list",
    ),
    "function_type_numbers": (
        _set("function_type", value=[2, 0.5]), "unknown function_type [2, 0.5]"
    ),
    "num_minima_fraction": (
        _set("class_params", "num_minima", value=10.9), "class_params.num_minima"
    ),
    "domain_strings": (
        _set("class_params", "domain_left", value=["-1.0", "-1.0"]), "class_params.domain_left"
    ),
    "global_value_string": (
        _set("class_params", "global_value", value="-1"), "class_params.global_value"
    ),
    "global_dist_400_digits": (
        _set("class_params", "global_dist", literal=_BIG), "class_params.global_dist"
    ),
    "nf_bool": (_set(*_F0, "nf", value=True), "functions[0].nf"),
    "coord_string": (_set(*_F0, "coords", 3, 0, value="a"), "functions[0].coords"),
    "coord_nested": (_set(*_F0, "coords", 3, 0, value=[0.1]), "functions[0].coords"),
    "coord_400_digits": (_set(*_F0, "coords", 3, 0, literal=_BIG), "functions[0].coords"),
    "f_400_digits": (_set(*_F0, "f", 3, literal=_BIG), "functions[0].f"),
    "coord_5000_digits": (
        _set(*_F0, "coords", 3, 0, literal="1" + "0" * 4999), "cannot read notebook"
    ),
    "not_utf8": (
        _set("function_type", value="d\xe9", encoding="latin-1"), "cannot read notebook"
    ),
    "nested_100000_deep": (
        _set(*_F0, "coords", literal="[" * 100_000 + "]" * 100_000), "cannot read notebook"
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_value_is_rejected(tmp_path, notebook_path, case):
    edit, message = MALFORMED[case]
    bad = tmp_path / "malformed.json"
    bad.write_bytes(edit(json.loads(notebook_path.read_text())))
    with pytest.raises(NotebookError, match=re.escape(message)):
        load_class(bad)


# malformed columns of function 5, functions[4].coords, .f, .rho and
# .peak, and its nf and delta, and the error's path
SCHEMA2_MALFORMED = {
    "coord_string": (_set(*_F4, "coords", 3, 0, value="a"), "functions[4].coords"),
    "coord_nan": (_set(*_F4, "coords", 3, 0, value=float("nan")), "must be finite"),
    "coord_nested": (_set(*_F4, "coords", 3, 0, value=[0.1]), "functions[4].coords"),
    "coord_bool": (
        _set(*_F4, "coords", 3, 1, value=True),
        "functions[4].coords must hold JSON numbers only, got a bool",
    ),
    # integers are numbers: the row is read, and the audit judges it
    "coords_integers": (
        _set(*_F4, "coords", 3, value=[0, 1]),
        "functions[4] violates ground-truth invariants: some minimizer is not interior",
    ),
    "coords_short_row": (_set(*_F4, "coords", 3, value=[0.1]), "functions[4].coords"),
    "coords_flat": (_set(*_F4, "coords", value=[0.1] * 20), "functions[4].coords"),
    "f_short": (_set(*_F4, "f", value=[-1.0] * 9), "functions[4].f"),
    "rho_missing": (_delete(*_F4, "rho"), "functions[4] must be an object with key 'rho'"),
    "peak_null": (_set(*_F4, "peak", value=None), "functions[4].peak"),
    "nf_wrong": (_set(*_F4, "nf", value=7), "functions[4] has nf=7"),
    "nf_bool": (_set(*_F4, "nf", value=True), "functions[4].nf"),
    "delta_bool": (_set(*_F4, "delta", value=True), "functions[4].delta"),
    "nf_list": (
        _set(*_F4, "nf", value=[5]), "functions[4].nf must hold JSON integers only, got a list"
    ),
    "delta_list": (
        _set(*_F4, "delta", value=[0.5]),
        "functions[4].delta must hold JSON numbers only, got a list",
    ),
    "peak_bool": (_set(*_F4, "peak", 2, value=True), "functions[4].peak"),
    "f_400_digits": (_set(*_F4, "f", 3, literal=_BIG), "functions[4].f"),
    "global_rho": (
        _set(*_F4, "rho", 1, value=0.2),
        "functions[4] violates ground-truth invariants: global attraction radius 0.2 != class "
        "radius 0.3333333333333333",
    ),
}


@pytest.mark.parametrize("case", SCHEMA2_MALFORMED)
def test_malformed_schema2_value_is_rejected(tmp_path, notebook_path, case):
    edit, message = SCHEMA2_MALFORMED[case]
    bad = tmp_path / "malformed.json"
    bad.write_bytes(edit(json.loads(notebook_path.read_text())))
    with pytest.raises(NotebookError, match=re.escape(message)):
        load_class(bad)


_NO_KEY = object()


# the key must be the JSON integer 2; a file without it is refused like
# any other, and is re-made from its class_params
@pytest.mark.parametrize(
    "schema", [3, "2", True, None, 2.0, 1, [2.0], pytest.param(_NO_KEY, id="absent")], ids=repr
)
def test_unknown_schema_is_rejected(tmp_path, notebook_path, schema):
    document = json.loads(notebook_path.read_text())
    if schema is _NO_KEY:
        del document["schema"]
    else:
        document["schema"] = schema
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(document))
    with pytest.raises(NotebookError, match="schema") as raised:
        load_class(bad)
    assert "basingen gen" in str(raised.value)


def test_params_from_dict_raises_notebook_errors(params2):
    data = params_to_dict(params2)
    data["dim"] = "2"
    with pytest.raises(NotebookError, match=re.escape("class_params.dim must hold JSON integers")):
        params_from_dict(data)


def test_wrong_function_count_is_rejected(tmp_path, notebook_path):
    document = json.loads(notebook_path.read_text())
    document["functions"] = document["functions"][:50]
    bad = tmp_path / "halved.json"
    bad.write_text(json.dumps(document))
    with pytest.raises(NotebookError, match="notebook must list 100 functions"):
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


def _joined_grid_csv(func, family, resolution):
    """The CSV text of the writer that built every line of the grid and
    joined them before writing: the reference for the block writer."""
    xs = np.linspace(func.lower[0], func.upper[0], resolution)
    ys = np.linspace(func.lower[1], func.upper[1], resolution)
    g1, g2 = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([g1.ravel(), g2.ravel()])
    rows = np.column_stack([points, eval_many(func, family, points)])
    lines = ["x1,x2,f"]
    lines.extend(f"{float(a)!r},{float(b)!r},{float(v)!r}" for a, b, v in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family", ["nd", "d", "d2"])
@pytest.mark.parametrize(
    "block, resolution",
    # None keeps _GRID_POINTS: one block at 2 and at 128, 4 blocks of 64
    # x1-rows at 256, 5 of 54 and one of 30 at 300; the small blocks give
    # 3 + 3 + 1 rows at 7, 4 + 4 at 8 and one row per block at 5
    [(None, 2), (None, 128), (None, 256), (None, 300), (21, 7), (32, 8), (3, 5)],
)
def test_write_grid_blocks_write_the_joined_bytes(tmp_path, func9, monkeypatch, family, block, resolution):
    if block is not None:
        monkeypatch.setattr(notebook, "_GRID_POINTS", block)
    path = tmp_path / "surface.csv"
    assert write_grid(path, func9, family, resolution) == resolution**2
    assert path.read_bytes() == _joined_grid_csv(func9, family, resolution).encode()


def test_write_grid_memory_stays_below_the_file_size(tmp_path, func9):
    # the joined writer held every line and their join, about 3 times the
    # file; a block holds about 2 MB whatever the resolution
    path = tmp_path / "surface.csv"
    tracemalloc.start()
    try:
        write_grid(path, func9, "d2", 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 10**7
    assert peak < size / 2


def test_refused_grid_writes_no_file(tmp_path, func9):
    path = tmp_path / "surface.csv"
    func3 = generate(default_params(3), 1)
    for func, family, resolution, error in (
        (func9, "smooth", 11, ValueError),
        (func9, "d", 1, ValueError),
        (func3, "d", 11, ParameterError),
    ):
        with pytest.raises(error):
            write_grid(path, func, family, resolution)
        assert not path.exists()
