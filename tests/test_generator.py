import collections
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from basingen import (
    ClassParams,
    ErrorCode,
    ParameterError,
    check,
    default_params,
    export_class,
    function_seed,
    generate,
    ground_truth_problems,
    load_class,
)
from basingen import generator
from basingen.generator import (
    FUNCTIONS_PER_CLASS,
    GLOBAL_ROW,
    VERTEX_ROW,
    GeneratedFunction,
    MinimaTable,
    _reflect_into_domain,
    _spherical_offset,
    compute_minima_values,
    compute_radii,
    identify_globals,
    place_local_minimizers,
    place_vertex_and_global,
)
from basingen.evaluate import FAMILIES, d2_gradient, d2_hessian, d_gradient, eval_many, evaluate
from basingen.notebook import LoadedClass, _document
from basingen.params import PRECISION, radius_weights
from basingen.rng import LaggedFibonacci
from audit_reference import ground_truth_problems as reference_problems
from conftest import sized_class, small_class
from fdtools import _distances_from, reference_radii


def records_equal(a, b):
    return (
        a.params == b.params
        and a.nf == b.nf
        and a.delta == b.delta
        and np.array_equal(a.minima.local_min, b.minima.local_min)
        and np.array_equal(a.minima.f, b.minima.f)
        and np.array_equal(a.minima.rho, b.minima.rho)
        and np.array_equal(a.minima.peak, b.minima.peak)
        and np.array_equal(a.minima.w_rho, b.minima.w_rho)
        and a.glob.num_global_minima == b.glob.num_global_minima
        and np.array_equal(a.glob.gm_index, b.glob.gm_index)
    )


# --------------------------------------------------------------------------
# generate


def test_generate_is_deterministic(params2, func9):
    assert records_equal(func9, generate(params2, 9))


# sha256 over one stored field of all 100 functions of a class, in
# function order (little-endian float64 / int64), recorded before the
# random stream and the radii moved to numpy arrays
PINNED_FIELD_DIGESTS = {
    (2, 10): {
        "local_min": "bfa896860608b1948f3d72797f143211e9a50e4ac0532d6d1e9fda2894da6cea",
        "f": "8eef709b90729cb6d16b9b2c992111711231b8509bcdf7ad371d0ad3cd259045",
        "rho": "a501a68d0a3afece08356d3caff16988525d99117b4991b2066eab1c5c57c2f7",
        "peak": "5593b3a399d75e1e82df6d6a16999cd56c31a870069a575618f0915a6c48c91d",
        "w_rho": "aa792e024dacd36dc80fbce4a618c4c4b005702cba1611ec5214a553d7fa1114",
        "gm_index": "11e828eb8925ad4584a75911be30e62e23ebfd2b5b0d5f60dc0dd7c95d3df7e5",
        "num_global_minima": "88163244840eeecf6554c622bb0701919ca70a3ff3761c4204e33af20acbde61",
        "delta": "047c032204845f5474c99c3a2e663be2b2ee821f6aa887d01d091fabe5567f5b",
    },
    (5, 30): {
        "local_min": "c00b296297a3e78ae18b2db7bb6fc37db3a1e354de889c0c9294f82fb27c6697",
        "f": "02d16c3bb733452f27b7876b5a77b3ece5d1924a0e4291fb98a2da45484c3696",
        "rho": "d4e4e22457d4893722e08f2a4b23de73c890455f8a4c31ce8b91e21987a11fdc",
        "peak": "0b938b9877b20c08a86db8cf5760b5a8443e266804dd8476b8deb73056571b90",
        "w_rho": "e9eb88e0d82c529e988be01197c2183c52cf7f14aa89410340dff411f9a89dda",
        "gm_index": "fd67bef259553d3d87d35786301cce47ad908c1b4f7a37e1c15107ca00f6201b",
        "num_global_minima": "88163244840eeecf6554c622bb0701919ca70a3ff3761c4204e33af20acbde61",
        "delta": "dc408a480f6d38b56e75e48fc720a2e70cdbaf2e4529498ee6dcd391776c08f2",
    },
    (10, 100): {
        "local_min": "38ab062af311254073b396aad0c5a002a5e2dded213778540c8fbf5607820253",
        "f": "34f7faa4677b91e8da07dc7d7022000d51eef81d023ea920417752e77be6da6b",
        "rho": "6ddfe27e7b2fb7ca4db60631614c163de2af8eba5bcf4cb572c0cef2909f1242",
        "peak": "c2d8c05dfdacb62af56d3b5b22886cf17592225ca8f9de2342c5a6e04cd86efd",
        "w_rho": "b6c5339b48e9bd43318e5c5ca0a1963874061a72dbd746cd197d006e3d5e2229",
        "gm_index": "26d2b916efc2bcf5bb2e4a86c75a426b176813cafe0351295e1eb02b437d5eda",
        "num_global_minima": "88163244840eeecf6554c622bb0701919ca70a3ff3761c4204e33af20acbde61",
        "delta": "357759c2749cd7cfcd01a1eb61a23f5843cdb812b694ca0bb20385775d389578",
    },
}


def stored_fields(func):
    """Every stored field of a record as little-endian bytes."""
    table = func.minima
    floats = dict(
        local_min=table.local_min,
        f=table.f,
        rho=table.rho,
        peak=table.peak,
        w_rho=table.w_rho,
        delta=[func.delta],
    )
    ints = dict(gm_index=func.glob.gm_index, num_global_minima=[func.glob.num_global_minima])
    fields = {name: np.ascontiguousarray(v, dtype="<f8") for name, v in floats.items()}
    fields.update({name: np.ascontiguousarray(v, dtype="<i8") for name, v in ints.items()})
    return {name: arr.tobytes() for name, arr in fields.items()}


@pytest.mark.skylakex
def test_generation_pinned_bit_for_bit(pinned_classes):
    for key, functions in pinned_classes.items():
        hashes = {name: hashlib.sha256() for name in PINNED_FIELD_DIGESTS[key]}
        for func in functions:
            for name, data in stored_fields(func).items():
                hashes[name].update(data)
        digests = {name: h.hexdigest() for name, h in hashes.items()}
        assert digests == PINNED_FIELD_DIGESTS[key], key


def test_function_number_bounds(params2):
    for nf in (0, 101, -3):
        with pytest.raises(ParameterError) as exc:
            generate(params2, nf)
        assert exc.value.codes == [ErrorCode.FUNC_NUMBER]


def test_numpy_integer_function_numbers(params2, func9):
    for kind in (np.int64, np.int32):
        func = generate(params2, kind(9))
        assert type(func.nf) is int
        assert stored_fields(func) == stored_fields(func9)
        notebooks = [json.dumps(_document(LoadedClass(params2, [f], "d"))) for f in (func, func9)]
        assert notebooks[0] == notebooks[1]
    assert [generate(params2, nf).nf for nf in np.arange(1, 4)] == [1, 2, 3]
    with pytest.raises(ParameterError) as exc:
        generate(params2, True)
    assert exc.value.codes == [ErrorCode.FUNC_NUMBER]


def test_invalid_params_rejected():
    bad = dataclasses.replace(default_params(2), global_radius=0.4)
    with pytest.raises(ParameterError) as exc:
        generate(bad, 1)
    assert ErrorCode.GLOBAL_RADIUS in exc.value.codes


def test_seed_formula():
    p = default_params(2)
    assert function_seed(p, 1) == (10 - 1) * 100 + 1_000_000
    assert function_seed(p, 9) == 8 + 900 + 1_000_000
    p5 = small_class(dim=5, num_minima=30)
    assert function_seed(p5, 1) == 29 * 100 + 4 * 1_000_000
    # distinct across the class
    seeds = {function_seed(p, nf) for nf in range(1, 101)}
    assert len(seeds) == 100


def test_distinct_functions_within_class(params2, default_class):
    vertices = {tuple(f.vertex) for f in default_class}
    assert len(vertices) == 100


def test_generated_record_is_frozen(func9):
    with pytest.raises(dataclasses.FrozenInstanceError):
        func9.delta = 1.0
    with pytest.raises(ValueError):
        func9.minima.f[0] = 5.0
    with pytest.raises(ValueError):
        func9.glob.gm_index[0] = 7


# --------------------------------------------------------------------------
# placement


def test_spherical_offset_zero_angle():
    offset = _spherical_offset(2.0 / 3.0, [0.0])
    assert offset == pytest.approx([2.0 / 3.0, 0.0])


def test_spherical_offset_norm_many_dims():
    rng = np.random.default_rng(4)
    for dim in (2, 3, 5, 9):
        for _ in range(200):
            angles = [np.pi * rng.random()] + list(
                2.0 * np.pi * rng.random(dim - 2)
            )
            offset = _spherical_offset(0.37, angles)
            assert np.linalg.norm(offset) == pytest.approx(0.37, abs=1e-12)


def test_reflection_preserves_distance():
    center = np.array([0.9, 0.0])
    raw = np.array([1.1, 0.0])
    lower = np.array([-1.0, -1.0])
    upper = np.array([1.0, 1.0])
    reflected = _reflect_into_domain(raw, center, lower, upper)
    assert reflected == pytest.approx([0.7, 0.0])
    assert abs(np.linalg.norm(reflected - center) - 0.2) < 1e-15


def test_vertex_and_global_distance():
    p = small_class(dim=3, num_minima=10)
    for seed in range(1000):
        rng = LaggedFibonacci(seed)
        vertex, gmin = place_vertex_and_global(p, rng)
        assert np.linalg.norm(gmin - vertex) == pytest.approx(p.global_dist, abs=1e-12)
        assert np.all(gmin > -1.0) and np.all(gmin < 1.0)
        assert np.all(vertex > -1.0) and np.all(vertex < 1.0)


def test_m2_has_no_extra_minimizers():
    p = small_class(num_minima=2)
    rng = LaggedFibonacci(0)
    vertex, gmin = place_vertex_and_global(p, rng)
    others = place_local_minimizers(p, vertex, gmin, rng)
    assert others.shape == (0, 2)
    func = generate(p, 1)
    assert func.minima.local_min.shape == (2, 2)


def test_gap_condition_enforced(default_class):
    p = default_class[0].params
    least = p.global_radius + p.gap
    for func in default_class:
        gaps = np.linalg.norm(
            func.minima.local_min[2:] - func.global_minimizer, axis=1
        )
        assert np.all(gaps >= least)


def test_infeasible_gap_fails_not_hangs():
    # a clearance larger than the domain diameter leaves nowhere to place
    p = small_class(num_minima=3, gap=3.0)
    with pytest.raises(ParameterError) as exc:
        generate(p, 1)
    assert exc.value.codes == [ErrorCode.NUM_MINIMA]
    assert "cannot place minimizers" in exc.value.errors[0].detail


@pytest.mark.parametrize(
    "params",
    [
        dataclasses.replace(default_params(2), gap=0.0),
        dataclasses.replace(default_params(3), num_minima=12, global_radius=0.25, gap=0.125),
    ],
    ids=["2d10-gap-0", "3d12-gap-half-radius"],
)
def test_gap_below_global_radius_generates_clean_classes(params):
    # half the distance to x* would cross the global ball; the local ball
    # starts at tangency with it instead
    for nf in range(1, 101):
        func = generate(params, nf)
        assert ground_truth_problems(func) == reference_problems(func) == []
        assert np.array_equal(func.minima.rho, reference_radii(func.minima.local_min, params))


def test_unplaceable_global_minimizer_is_a_parameter_error(monkeypatch):
    # a stream stuck at 0.0 puts every vertex draw on the box corner,
    # never inside the precision margin
    class StuckStream:
        def __init__(self, seed):
            pass

        def uniforms(self, count):
            return np.zeros(count)

    monkeypatch.setattr(generator, "LaggedFibonacci", StuckStream)
    with pytest.raises(ParameterError) as exc:
        generate(default_params(2), 1)
    assert exc.value.codes == [ErrorCode.GLOBAL_DIST]
    detail = exc.value.errors[0].detail
    assert "global_dist" in detail and "precision" in detail and "10000 draws" in detail


# --------------------------------------------------------------------------
# magnitudes that double precision cannot hold


def _square_box(lo, hi, scaled=False, **kw):
    """The default 2-D class on [lo, hi]^2; `scaled` sizes global_dist
    and global_radius to the box (side/3, side/6) as default_params does."""
    if scaled:
        kw.update(global_dist=(hi - lo) / 3.0, global_radius=(hi - lo) / 6.0, gap=None)
    return dataclasses.replace(default_params(2), domain_left=(lo, lo), domain_right=(hi, hi), **kw)


def _class_outcomes(params):
    """How the 100 functions of a class end: None for an audit-clean
    record, else the codes of the ParameterError."""
    outcomes = collections.Counter()
    for nf in range(1, 101):
        try:
            func = generate(params, nf)
        except ParameterError as exc:
            outcomes[tuple(exc.codes)] += 1
        else:
            assert ground_truth_problems(func) == []
            outcomes[None] += 1
    return outcomes


BOUNDARY, VALUES, DIST = (ErrorCode.BOUNDARY,), (ErrorCode.GLOBAL_MIN_VALUE,), (ErrorCode.GLOBAL_DIST,)


@pytest.mark.parametrize(
    "params, expected",
    [
        (dataclasses.replace(default_params(2), paraboloid_min=1e16), {VALUES: 100}),
        (dataclasses.replace(default_params(2), paraboloid_min=1e15), {VALUES: 22, None: 78}),
        (_square_box(-1e16, 1e16), {BOUNDARY: 100}),
        (_square_box(-1e16, 1e16, scaled=True), {BOUNDARY: 100}),
        pytest.param(
            _square_box(-1e13, 1e13, scaled=True), {BOUNDARY: 1, None: 99},
            marks=pytest.mark.skylakex,
        ),
        (_square_box(1e15, 1e15 + 2.0), {BOUNDARY: 16, None: 84}),
        (_square_box(1e14, 1e14 + 2.0), {BOUNDARY: 1, None: 99}),
        (_square_box(-6.13e15, -6.13e15 + 2.0, num_minima=2), {BOUNDARY: 100}),
        (small_class(num_minima=5, global_dist=1e-11, global_radius=5e-12), {DIST: 100}),
    ],
    ids=[
        "paraboloid-1e16", "paraboloid-1e15", "default-1e16", "scaled-1e16", "scaled-1e13",
        "narrow-1e15", "narrow-1e14", "narrow-at-6e15", "dist-below-precision",
    ],
)
def test_unrepresentable_magnitudes_are_parameter_errors(params, expected):
    # each of these ended in RuntimeError: the audit found the lost quantity;
    # check refuses a global_dist within the precision before any draw
    assert _class_outcomes(params) == expected
    assert tuple(e.code for e in check(params)) == (DIST if expected == {DIST: 100} else ())


# all 100 records of each class, as test_generation_pinned_bit_for_bit
# hashes them, all fields of a record in turn
ANCHOR_DIGESTS = {
    "default-1e6": "2b561f8139c58e572869103b8e030433f5ecb1abe86d23cbc49356af9445d76d",
    "default-1e13": "756e393476740757164bc110c39010159f1f27ab2ea68fff6879f293a586e910",
    "scaled-1e12": "d9f60d7b1447828e18009f5442d1532d33d7218f1783c05c43933adb99911287",
    "narrow-1e13": "08fe3927630ee053fcd1e92b53713c2a0e6cac272f765739073a06c41e2a0bcf",
    "paraboloid-1e14": "54d3e3b12ebd5c9bb2984103a2a306d9f4e9270242b76be73b1ef05d8409440e",
}
ANCHORS = {
    "default-1e6": _square_box(-1e6, 1e6),
    "default-1e13": _square_box(-1e13, 1e13),
    "scaled-1e12": _square_box(-1e12, 1e12, scaled=True),
    "narrow-1e13": _square_box(1e13, 1e13 + 2.0),
    "paraboloid-1e14": dataclasses.replace(default_params(2), paraboloid_min=1e14),
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param("default-1e6", marks=pytest.mark.skylakex),
        pytest.param("default-1e13", marks=pytest.mark.skylakex),
        pytest.param("scaled-1e12", marks=pytest.mark.skylakex),
        "narrow-1e13",
        "paraboloid-1e14",
    ],
)
def test_large_magnitudes_that_fit_still_generate(name):
    digest = hashlib.sha256()
    for nf in range(1, 101):
        func = generate(ANCHORS[name], nf)
        assert ground_truth_problems(func) == []
        for data in stored_fields(func).values():
            digest.update(data)
    assert digest.hexdigest() == ANCHOR_DIGESTS[name]


@pytest.mark.parametrize(
    "params, code",
    [
        (_square_box(-1e160, 1e160, scaled=True), ErrorCode.BOUNDARY),
        (_square_box(-1e155, 1e155, scaled=True), ErrorCode.BOUNDARY),
        (_square_box(-1e100, 1e100, scaled=True, num_minima=2), ErrorCode.BOUNDARY),
        (dataclasses.replace(default_params(2), paraboloid_min=1e308, global_value=-1e308),
         ErrorCode.GLOBAL_MIN_VALUE),
        (dataclasses.replace(default_params(2), global_value=-1e308), ErrorCode.GLOBAL_MIN_VALUE),
        (dataclasses.replace(default_params(2), delta_max=1e308), ErrorCode.TUNING),
        (dataclasses.replace(default_params(2), global_radius=1e-70, gap=1.0 / 3.0),
         ErrorCode.GLOBAL_RADIUS),
    ],
    ids=["box-1e160", "box-1e155", "two-minima-1e100", "values-1e308", "global-value-1e308",
         "delta-max-1e308", "global-radius-1e-70"],
)
def test_overflowing_magnitudes_are_refused_by_check(params, code):
    # each ended in an internal error, an overflow warning, or a record
    # whose values, derivatives or batch values were inf, NaN or raised
    assert [e.code for e in check(params)] == [code]
    with pytest.raises(ParameterError) as exc:
        generate(params, 1)
    assert exc.value.codes == [code]


def _ball_points(func):
    """Every ball's centre, a mid-radius point and a boundary point, kept in the box."""
    table = func.minima
    step = np.zeros(func.dim)
    step[0] = 1.0
    rows = [
        table.local_min[i] + k * table.rho[i] * step
        for i in range(1, func.num_minima) for k in (0.0, 0.5, 1.0)
    ]
    return np.clip(rows, func.lower, func.upper)


@pytest.mark.parametrize(
    "params",
    [
        dataclasses.replace(default_params(2), global_value=-1e300),
        dataclasses.replace(default_params(2), global_value=-1e250),
        dataclasses.replace(default_params(2), delta_max=1e300),
        dataclasses.replace(default_params(2), delta_max=1e250),
        dataclasses.replace(default_params(2), global_radius=1e-62, gap=1.0 / 3.0),
        dataclasses.replace(default_params(2), global_radius=1e-60, gap=1.0 / 3.0),
        _square_box(-1e60, 1e60, scaled=True, num_minima=2),
    ],
    ids=["global-value-1e300", "global-value-1e250", "delta-max-1e300", "delta-max-1e250",
         "global-radius-1e-62", "global-radius-1e-60", "two-minima-1e60"],
)
def test_large_magnitudes_refuse_or_evaluate_finitely(params):
    # a class check accepts gives finite values, gradients and Hessians, in
    # every ball of every function tried, also as batch values
    if check(params):
        with pytest.raises(ParameterError):
            generate(params, 1)
        return
    for nf in (1, 2, 3):
        func = generate(params, nf)
        points = _ball_points(func)
        for family in FAMILIES:
            assert np.isfinite(eval_many(func, family, points)).all()
            assert np.isfinite([evaluate(func, x, family) for x in points]).all()
        for x in points:
            for derivative in (d_gradient, d2_gradient, d2_hessian):
                assert np.isfinite(derivative(func, x)).all()


def test_broken_record_at_normal_scale_stays_internal(monkeypatch):
    # only lost magnitudes are the caller's fault; a generator bug is not
    radii = generator.compute_radii

    def overlapping(dists, params):
        rho = radii(dists, params)
        rho[2:] *= 3.0
        return rho

    monkeypatch.setattr(generator, "compute_radii", overlapping)
    with pytest.raises(RuntimeError, match="internal error.*overlaps a later ball"):
        generate(default_params(2), 1)


def test_only_the_audit_refuses_a_record(monkeypatch):
    # the audit refuses every function of paraboloid-1e16 (its depths are
    # lost in rounding); with the audit silenced, construction returns one
    monkeypatch.setattr(generator, "ground_truth_problems", lambda func, dists: [])
    func = generate(dataclasses.replace(default_params(2), paraboloid_min=1e16), 1)
    assert isinstance(func, GeneratedFunction)


@pytest.mark.parametrize(
    "apart, global_dist, code",
    # a global_dist within the precision is check's GLOBAL_DIST (test_params.py)
    [(0.6, 2.0 / 3.0, ErrorCode.BOUNDARY)],
)
def test_lost_magnitude_balls_meet(apart, global_dist, code):
    # 0.6 apart, the vertex ball (0.99 * 0.3) meets the global ball (1/3):
    # rounding moved the global minimizer
    p = small_class(num_minima=2, global_dist=global_dist, global_radius=global_dist / 2)
    points = np.array([[0.0, 0.0], [apart, 0.0]])
    rho = compute_radii(generator._distance_matrix(points), p)
    table = MinimaTable(points, f=[0.0, -1.0], rho=rho, peak=[0.0, 0.0])
    func = GeneratedFunction(params=p, nf=1, minima=table, delta=1.0)
    problems = ground_truth_problems(func)
    fault = generator._lost_magnitude(func, problems, generator._distance_matrix(points))
    assert problems and fault.code == code
    assert "too close for their attraction balls" in fault.detail


# --------------------------------------------------------------------------
# radii


def test_radii_hand_trace_tight():
    # two minimizers at distance 2/3 with global radius 1/3: the vertex
    # ball starts at 1/3, cannot expand, and is weighted to 0.33
    p = small_class(num_minima=2)
    points = np.array([[0.0, 0.0], [2.0 / 3.0, 0.0]])
    rho = compute_radii(generator._distance_matrix(points), p)
    assert rho[VERTEX_ROW] == pytest.approx(0.33)
    assert rho[GLOBAL_ROW] == pytest.approx(1.0 / 3.0)


def test_radii_hand_trace_expanding():
    # with global radius 0.2 the vertex ball expands from 1/3 to
    # 2/3 - 0.2 = 7/15 before weighting
    p = small_class(num_minima=2, global_radius=0.2)
    points = np.array([[0.0, 0.0], [2.0 / 3.0, 0.0]])
    rho = compute_radii(generator._distance_matrix(points), p)
    assert rho[VERTEX_ROW] == pytest.approx(0.99 * 7.0 / 15.0)
    assert rho[GLOBAL_ROW] == pytest.approx(0.2)


def test_radii_match_per_row_reference(pinned_classes):
    large = sized_class(20, 500)
    functions = [func for funcs in pinned_classes.values() for func in funcs]
    functions += [generate(large, nf) for nf in (1, 2, 3)]
    for func in functions:
        local_min = func.minima.local_min
        rho = compute_radii(generator._distance_matrix(local_min), func.params)
        assert np.array_equal(rho, reference_radii(local_min, func.params))
        assert np.array_equal(rho, func.minima.rho)


# (count, dim): 2 points; count * dim one below, at and one above the block
# size, where the block holds one row; 10-D/100 in blocks of 32 rows and a
# last block of 4; 20-D/500 in blocks of 3 rows
DISTANCE_SHAPES = [(2, 2), (151, 217), (128, 256), (331, 99), (100, 10), (500, 20)]


@pytest.mark.parametrize("count, dim", DISTANCE_SHAPES, ids=map(str, DISTANCE_SHAPES))
def test_distance_matrix_matches_per_row_reference(count, dim):
    points = np.random.default_rng(count * dim).uniform(-1.0, 1.0, (count, dim))
    dists = generator._distance_matrix(points)
    assert np.array_equal(dists, dists.T)
    assert np.all(np.diagonal(dists) == np.inf)
    for row in range(count):
        assert np.array_equal(dists[row], _distances_from(points, row))


def test_radii_expand_in_ascending_order():
    # collinear points whose gaps double: each ball's expansion sets the
    # next one's, so the result differs from expanding every ball at once
    # against the start radii, and a pass that reads the previous pass's
    # radii below the diagonal takes one pass per link of the chain
    xs = np.concatenate([[0.0], np.cumsum(2.0 ** np.arange(8))])
    points = np.zeros((len(xs) + 1, 2))
    points[VERTEX_ROW, 0] = xs[0]
    points[GLOBAL_ROW, 0] = -1e3
    points[2:, 0] = xs[1:]
    count = len(points)
    p = small_class(num_minima=count, global_radius=1.0)
    rho = compute_radii(generator._distance_matrix(points), p)
    assert np.array_equal(rho, reference_radii(points, p))

    dists = np.array([_distances_from(points, row) for row in range(count)])
    start = 0.5 * dists.min(axis=1)
    start[GLOBAL_ROW] = p.global_radius
    start[2:] = np.minimum(start[2:], dists[GLOBAL_ROW, 2:] - p.global_radius)
    weights = radius_weights(count)
    at_once = np.maximum(start, (dists - start).min(axis=1))
    at_once[GLOBAL_ROW] = p.global_radius
    assert not np.array_equal(at_once * weights, rho)

    later = np.triu(np.ones((count, count), dtype=bool), 1)
    current = start
    for passes in range(1, count + 1):
        current = np.maximum(start, np.where(later, dists - start, dists - current).min(axis=1))
        current[GLOBAL_ROW] = p.global_radius
        if np.array_equal(current * weights, rho):
            break
    assert np.array_equal(current * weights, rho) and passes >= 5


def test_radii_terminate_on_non_finite_distances():
    # distances overflow to inf and gaps become inf - inf; `check` keeps
    # `generate` from such a box, but `compute_radii` must still return
    points = np.array(
        [[0.0, 0.0], [1e200, 0.0], [-1e200, 0.0], [0.0, 1e200], [0.5, 0.0], [1e200, 1.0]]
    )
    p = small_class(num_minima=len(points), global_radius=0.25)
    with np.errstate(over="ignore", invalid="ignore"):
        rho = compute_radii(generator._distance_matrix(points), p)
        expected = reference_radii(points, p)
    assert not np.isfinite(expected).all()
    assert np.array_equal(rho, expected, equal_nan=True)


def test_one_distance_matrix_per_record(monkeypatch, pinned_classes, tmp_path):
    matrices, audits, read = [], [], []
    distance_matrix = generator._distance_matrix
    radii, audit = generator.compute_radii, generator.ground_truth_problems

    def counted(points):
        matrices.append(distance_matrix(points))
        return matrices[-1]

    def read_by_radii(dists, params):
        read.append(("radii", dists))
        return radii(dists, params)

    def recorded(func, dists=None):
        read.append(("audit", dists))
        audits.append(audit(func, dists))
        return audits[-1]

    monkeypatch.setattr(generator, "_distance_matrix", counted)
    monkeypatch.setattr(generator, "compute_radii", read_by_radii)
    monkeypatch.setattr(generator, "ground_truth_problems", recorded)
    for funcs in pinned_classes.values():
        for func in funcs:
            matrices.clear()
            audits.clear()
            read.clear()
            assert records_equal(generate(func.params, func.nf), func)
            assert len(matrices) == 1 and not matrices[0].flags.writeable
            assert audits == [[]] and ground_truth_problems(func) == []
            # one audit per record, on the very matrix the radii read
            assert [stage for stage, _ in read] == ["radii", "audit"]
            assert all(dists is matrices[0] for _, dists in read)

    path = tmp_path / "class.json"
    export_class(default_params(2), "d", path)
    matrices.clear()
    load_class(path)
    assert len(matrices) == FUNCTIONS_PER_CLASS


def test_balls_disjoint_across_class(default_class):
    for func in default_class:
        lm = func.minima.local_min
        rho = func.minima.rho
        for i in range(len(lm)):
            diffs = lm[i + 1 :] - lm[i]
            dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            assert np.all(dists >= rho[i] + rho[i + 1 :] - 1e-12)


def test_global_radius_kept(default_class):
    for func in default_class:
        assert func.minima.rho[GLOBAL_ROW] == func.params.global_radius


# --------------------------------------------------------------------------
# minima values


def test_boundary_minimum_closed_form():
    p = small_class(num_minima=3, gap=0.05, global_radius=0.1, global_dist=0.5)
    points = np.array([[0.0, 0.0], [0.5, 0.0], [0.8, 0.0]])
    rho = np.array([0.1, 0.1, 0.2])
    values, peaks = compute_minima_values(points, rho, p, LaggedFibonacci(1))
    # minimum of the paraboloid over the third ball boundary: (0.8 - 0.2)^2
    assert values[2] + peaks[2] == pytest.approx(0.36)


def test_value_ordering(default_class):
    for func in default_class:
        f = func.minima.f
        assert f[VERTEX_ROW] == func.params.paraboloid_min
        assert f[GLOBAL_ROW] == func.params.global_value
        assert f.min() == func.params.global_value
        assert np.all(f >= func.params.global_value)


def test_values_below_boundary_minimum(default_class):
    for func in default_class:
        lm = func.minima.local_min
        rho = func.minima.rho
        dists = np.linalg.norm(lm[2:] - func.vertex, axis=1)
        boundary_min = (dists - rho[2:]) ** 2 + func.params.paraboloid_min
        assert np.all(func.minima.f[2:] < boundary_min)
        assert np.all(func.minima.peak[2:] > 0.0)


def test_delta_within_bounds(default_class):
    for func in default_class:
        assert 0.0 < func.delta < func.params.delta_max


# --------------------------------------------------------------------------
# global bookkeeping


def test_identify_globals_unique():
    info = identify_globals(np.array([0.0, -1.0, -0.4, -0.7]))
    assert info.num_global_minima == 1
    assert info.gm_index.tolist() == [2, 1, 3, 4]


def test_identify_globals_tie():
    info = identify_globals(np.array([0.0, -1.0, -1.0, -0.5]))
    assert info.num_global_minima == 2
    assert info.gm_index.tolist() == [2, 3, 1, 4]


def test_record_stores_only_what_generation_produces(func9):
    assert [f.name for f in dataclasses.fields(MinimaTable)] == ["local_min", "f", "rho", "peak"]
    assert [f.name for f in dataclasses.fields(GeneratedFunction)] == [
        "params", "nf", "minima", "delta"
    ]
    assert np.array_equal(func9.minima.w_rho, radius_weights(10))
    with pytest.raises(ValueError):
        func9.minima.w_rho[0] = 1.0
    assert func9.glob.num_global_minima == 1
    assert func9.glob.gm_index.tolist() == [2, 1, 3, 4, 5, 6, 7, 8, 9, 10]
    # the global list follows the values: it cannot disagree with them
    tie = tamper(func9, f=edited(func9.minima.f, 4, -1.0))
    assert tie.glob.num_global_minima == 2
    assert tie.glob.gm_index.tolist() == [2, 5, 1, 3, 4, 6, 7, 8, 9, 10]


def test_single_global_in_practice(default_class):
    # continuous depth draws make value ties measure-zero
    assert all(f.glob.num_global_minima == 1 for f in default_class)
    assert all(f.glob.gm_index[0] == 2 for f in default_class)


def test_ground_truth_audit_accepts_generated(default_class):
    for func in default_class:
        assert ground_truth_problems(func) == []


TABLE_FIELDS = ("local_min", "f", "rho", "peak")


def tamper(func, **changes):
    """`func` with some table fields or `delta` replaced."""
    table = {name: changes.pop(name) for name in TABLE_FIELDS if name in changes}
    return dataclasses.replace(func, minima=dataclasses.replace(func.minima, **table), **changes)


def edited(arr, index, value):
    out = np.array(arr)
    out[index] = value
    return out


def _gap_intruder(t):
    # minimizer 5 moved 0.45 above x*: inside the 2/3 clearance, and clear
    # of every ball once its own radius is shrunk
    return dict(
        local_min=edited(t.local_min, 4, t.local_min[GLOBAL_ROW] + [0.0, 0.45]),
        rho=edited(t.rho, 4, 0.01),
    )


def _coincident_copy(t, vertex_radius=None):
    # minimizer 10 becomes a copy of minimizer 8, value and radius too,
    # so that only the pair itself breaks a rule
    rho = edited(t.rho, 9, t.rho[7])
    if vertex_radius is not None:
        rho[VERTEX_ROW] = vertex_radius
    return dict(
        local_min=edited(t.local_min, 9, t.local_min[7]),
        f=edited(t.f, 9, t.f[7]),
        rho=rho,
    )


def _boundary_minimum(t, i):
    # in 2-D this sum rounds exactly as the audit's distance row does; the
    # paraboloid minimum of the default class is 0
    vertex_dist = np.sqrt(np.sum((t.local_min[i] - t.local_min[VERTEX_ROW]) ** 2))
    return (vertex_dist - t.rho[i]) ** 2


NAN = float("nan")
INF = float("inf")

# (id, changes to the table of function 9 of the default 2-D class,
#  exact list of problems the audit reports)
AUDIT_CASES = [
    ("table-shape", lambda t: dict(local_min=t.local_min[:9]),
     ["minimizer table has shape (9, 2), expected (10, 2)"]),
    ("f-length", lambda t: dict(f=t.f[:9]), ["field f must have length 10"]),
    ("coords-nan", lambda t: dict(local_min=edited(t.local_min, (3, 1), NAN)),
     ["field local_min must be finite"]),
    ("f-nan", lambda t: dict(f=edited(t.f, 4, NAN)), ["field f must be finite"]),
    ("rho-inf", lambda t: dict(rho=edited(t.rho, 0, INF)), ["field rho must be finite"]),
    ("peak-nan", lambda t: dict(peak=edited(t.peak, 6, NAN)), ["field peak must be finite"]),
    ("interior", lambda t: dict(local_min=edited(t.local_min, (2, 1), -1.0 + 0.5e-10)),
     ["some minimizer is not interior to the domain"]),
    ("vertex-value", lambda t: dict(f=edited(t.f, 0, 0.5)),
     ["vertex value 0.5 != paraboloid minimum 0.0"]),
    ("global-value", lambda t: dict(f=edited(t.f, 1, -0.5)),
     ["global minimizer value -0.5 != class value -1.0"]),
    ("global-radius", lambda t: dict(rho=edited(t.rho, 1, 0.2)),
     ["global attraction radius 0.2 != class radius 0.3333333333333333"]),
    ("below-global", lambda t: dict(f=edited(t.f, 4, -2.0)),
     ["some minimum lies below the class global value"]),
    ("radius-zero", lambda t: dict(rho=edited(t.rho, 3, 0.0)),
     ["attraction radii must be positive"]),
    ("peak-zero", lambda t: dict(peak=edited(t.peak, 6, 0.0)),
     ["basin depths for minimizers 3..m must be positive"]),
    ("peak-global", lambda t: dict(peak=edited(t.peak, 1, 0.1)),
     ["basin depths for minimizers 1 and 2 must be stored as 0"]),
    ("overlap", lambda t: dict(rho=edited(t.rho, 2, 1.5 * t.rho[2])),
     ["attraction ball 3 overlaps a later ball"]),
    ("coincide", _coincident_copy,
     ["minimizers 8 and a later one coincide", "attraction ball 8 overlaps a later ball"]),
    ("row-order", lambda t: _coincident_copy(t, vertex_radius=5.0),
     ["attraction ball 1 overlaps a later ball",
      "minimizers 8 and a later one coincide",
      "attraction ball 8 overlaps a later ball"]),
    ("gap", _gap_intruder,
     ["a local minimizer intrudes on the global-ball gap"]),
    ("boundary-minimum", lambda t: dict(f=edited(t.f, 3, 5.0)),
     ["some minimum is not below the paraboloid minimum over its ball boundary"]),
    ("boundary-tie", lambda t: dict(f=edited(t.f, 3, _boundary_minimum(t, 3))),
     ["some minimum is not below the paraboloid minimum over its ball boundary"]),
    ("delta-zero", lambda t: dict(delta=0.0), ["delta 0.0 outside the open interval (0, 10.0)"]),
    ("delta-nan", lambda t: dict(delta=NAN), ["delta nan outside the open interval (0, 10.0)"]),
]


@pytest.mark.parametrize(
    "changes, expected", [case[1:] for case in AUDIT_CASES], ids=[case[0] for case in AUDIT_CASES]
)
def test_audit_rule_by_rule(func9, changes, expected):
    assert ground_truth_problems(tamper(func9, **changes(func9.minima))) == expected


def test_audit_on_a_passed_matrix_matches_a_fresh_one(pinned_classes, func9):
    # `generate` passes its own distance matrix; a loaded notebook's is built
    # afresh from the record
    functions = [func for funcs in pinned_classes.values() for func in funcs]
    functions += [tamper(func9, **changes(func9.minima)) for _, changes, _ in AUDIT_CASES]
    for func in functions:
        dists = generator._distance_matrix(func.minima.local_min)
        assert ground_truth_problems(func, dists) == ground_truth_problems(func)


def _coinciding_pair(func, rng):
    # a later minimizer put onto an earlier one, or within two precisions
    # of it on each axis
    table = func.minima
    i, j = np.sort(rng.choice(func.num_minima, 2, replace=False))
    offset = rng.uniform(-2.0, 2.0, func.dim) * PRECISION * rng.integers(2)
    return dict(local_min=edited(table.local_min, j, table.local_min[i] + offset))


def _enlarged_radius(func, rng):
    i = rng.integers(func.num_minima)
    return dict(rho=edited(func.minima.rho, i, func.minima.rho[i] * rng.uniform(1.0, 3.0)))


def _into_global_gap(func, rng):
    params = func.params
    i = rng.integers(2, func.num_minima)
    direction = rng.normal(size=func.dim)
    reach = (params.global_radius + params.gap) * rng.uniform(0.5, 1.1)
    moved = func.global_minimizer + reach * direction / np.linalg.norm(direction)
    return dict(local_min=edited(func.minima.local_min, i, moved))


def _raised_value(func, rng):
    # the value moved to within its depth of its ball's boundary minimum,
    # above or below it.  Not onto it: the reference sums the vertex
    # distance with np.linalg.norm and the library with einsum, which
    # differ in the last bit, so a value equal to the boundary minimum to
    # the last bit can get either verdict (the rule-by-rule test pins the
    # library's on a tie).
    table = func.minima
    i = rng.integers(2, func.num_minima)
    vertex_dist = np.linalg.norm(table.local_min[i] - func.vertex)
    boundary_min = (vertex_dist - table.rho[i]) ** 2 + func.params.paraboloid_min
    return dict(f=edited(table.f, i, boundary_min + table.peak[i] * rng.uniform(-1.0, 1.0)))


def _nudged(func, rng):
    rows = rng.random(func.num_minima) < 0.3
    scale = 10.0 ** rng.integers(-6, 0)
    noise = rng.normal(scale=scale, size=func.minima.local_min.shape) * rows[:, None]
    return dict(local_min=func.minima.local_min + noise)


def _rescaled_radii(func, rng):
    return dict(rho=func.minima.rho * rng.uniform(0.5, 2.0, func.num_minima))


CORRUPTIONS = (
    _coinciding_pair,
    _enlarged_radius,
    _into_global_gap,
    _raised_value,
    _nudged,
    _rescaled_radii,
)
# minimizers 3..m do not exist when m = 2
CORRUPTIONS_M2 = (_coinciding_pair, _enlarged_radius, _nudged, _rescaled_radii)


def test_audit_matches_row_by_row_reference(pinned_classes):
    functions = [func for funcs in pinned_classes.values() for func in funcs]
    for func in functions:
        assert ground_truth_problems(func) == reference_problems(func) == []

    pair_class = sized_class(3, 2)
    functions += [generate(pair_class, nf) for nf in range(1, 101)]
    rng = np.random.default_rng(20111103)
    seen = set()
    checked = 0
    for func in functions:
        kinds = CORRUPTIONS if func.num_minima > 2 else CORRUPTIONS_M2
        for kind in rng.choice(len(kinds), 3, replace=False):
            corrupted = tamper(func, **kinds[kind](func, rng))
            problems = ground_truth_problems(corrupted)
            assert problems == reference_problems(corrupted), (func.params, func.nf)
            seen.update(problems)
            checked += 1
    assert checked >= 1000
    # every geometric rule fired somewhere, so the comparison is not vacuous
    for rule in ("coincide", "overlaps", "intrudes", "boundary", "interior"):
        assert any(rule in problem for problem in seen), rule
