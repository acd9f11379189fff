import dataclasses
import math
from fractions import Fraction

import pytest

import numpy as np

from basingen import (
    ClassParams,
    ErrorCode,
    ParameterError,
    check,
    default_params,
    export_class,
    generate,
    params_from_dict,
    params_to_dict,
)
from basingen.params import PRECISION, radius_weights


def codes(errors):
    return {e.code for e in errors}


def test_defaults_2d():
    p = default_params(2)
    assert p.global_value == -1.0
    assert p.global_dist == pytest.approx(2.0 / 3.0)
    assert p.global_radius == pytest.approx(1.0 / 3.0)
    assert p.domain_left == (-1.0, -1.0)
    assert p.domain_right == (1.0, 1.0)
    assert p.num_minima == 10
    assert p.paraboloid_min == 0.0
    assert p.delta_max == 10.0
    assert p.gap == p.global_radius
    assert radius_weights(p.num_minima).tolist() == [0.99, 1.0] + [0.99] * 8
    assert PRECISION == 1e-10


def test_defaults_independent_of_dim():
    # the smallest side of [-1, 1]^N is 2 for every N
    assert default_params(5).global_dist == pytest.approx(2.0 / 3.0)


def test_default_params_rejects_dim_1():
    with pytest.raises(ParameterError) as exc:
        default_params(1)
    assert exc.value.codes == [ErrorCode.DIM]


def test_defaults_are_valid_across_dims():
    for dim in (2, 3, 10, 50, 100):
        assert check(default_params(dim)) == []


def test_class_params_owns_the_default_class():
    # the default class as default_params stated it before ClassParams
    # derived it: box [-1, 1]^dim, distance side / 3, radius side / 6
    side = 2.0
    for dim in range(2, 101):
        derived = ClassParams(dim=dim, num_minima=10, global_value=-1.0)
        stated = ClassParams(
            dim=dim,
            num_minima=10,
            global_value=-1.0,
            global_dist=side / 3.0,
            global_radius=side / 6.0,
            domain_left=(-1.0,) * dim,
            domain_right=(1.0,) * dim,
        )
        assert derived == stated == default_params(dim)
        for f in dataclasses.fields(ClassParams):
            a, b = getattr(derived, f.name), getattr(stated, f.name)
            if isinstance(b, float):
                assert type(a) is float and a.hex() == b.hex(), (dim, f.name)


def test_defaults_follow_the_given_values():
    # the distance and radius from the smallest side of the box
    p = ClassParams(dim=2, num_minima=10, global_value=-1.0,
                    domain_left=(0.0, 0.0), domain_right=(3.0, 6.0))
    assert (p.global_dist, p.global_radius, p.gap) == (1.0, 0.5, 0.5)
    assert check(p) == []
    # the radius is at most half a given distance
    p = ClassParams(dim=2, num_minima=10, global_value=-1.0, global_dist=0.5)
    assert (p.global_radius, p.gap) == (0.25, 0.25)
    assert check(p) == []
    # an unusable box lends the default box's side
    p = ClassParams(dim=2, num_minima=10, global_value=-1.0, domain_left=(1.0, 1.0))
    assert (p.global_dist, p.global_radius) == (2.0 / 3.0, 1.0 / 3.0)
    assert codes(check(p)) == {ErrorCode.BOUNDARY}
    # a dimension that is not a size gets a box of length 1, a huge one a capped box
    assert ClassParams(dim=2.0, num_minima=10, global_value=-1.0).domain_left == (-1.0,)
    assert len(ClassParams(dim=10**18, num_minima=10, global_value=-1.0).domain_right) == 101


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
def test_a_bad_radius_lends_no_gap(radius):
    p = ClassParams(dim=2, num_minima=10, global_value=-1.0, global_radius=radius)
    assert p.gap == 1.0 / 3.0
    assert codes(check(p)) == {ErrorCode.GLOBAL_RADIUS}


@pytest.mark.parametrize("dist", [0.0, -1.0, math.nan, -math.inf, "0.5"])
def test_a_distance_no_radius_fits_is_reported_once(dist):
    p = ClassParams(dim=2, num_minima=10, global_value=-1.0, global_dist=dist)
    assert codes(check(p)) == {ErrorCode.GLOBAL_DIST}
    # with an unusable box, the box alone is reported
    p = dataclasses.replace(p, domain_left=(1.0, 1.0))
    assert codes(check(p)) == {ErrorCode.BOUNDARY}
    # a given radius is still held to 0 < radius < inf
    for radius in (0.0, math.inf):
        p = ClassParams(dim=2, num_minima=10, global_value=-1.0, global_dist=dist,
                        global_radius=radius)
        assert codes(check(p)) == {ErrorCode.GLOBAL_DIST, ErrorCode.GLOBAL_RADIUS}


def test_check_reports_global_min_value():
    nan, inf = float("nan"), float("inf")
    for change in (
        {"global_value": 0.0},
        {"global_value": -inf},
        {"global_value": nan},
        {"paraboloid_min": inf},
        {"paraboloid_min": nan},
    ):
        p = dataclasses.replace(default_params(2), **change)
        assert ErrorCode.GLOBAL_MIN_VALUE in codes(check(p)), change


def test_check_reports_tuning_constants():
    # each must be a typed error before generation starts, never an internal error
    nan, inf = float("nan"), float("inf")
    for change in (
        {"delta_max": -1.0},
        {"delta_max": 0.0},
        {"delta_max": nan},
        {"delta_max": inf},
        {"gap": -0.5},
        {"gap": nan},
        {"gap": inf},
    ):
        p = dataclasses.replace(default_params(2), **change)
        assert codes(check(p)) == {ErrorCode.TUNING}, change
        with pytest.raises(ParameterError) as exc:
            generate(p, 1)
        assert exc.value.codes == [ErrorCode.TUNING], change
    # gap 0 is allowed
    assert check(dataclasses.replace(default_params(2), gap=0.0)) == []


def test_check_reports_global_dist():
    p = dataclasses.replace(default_params(2), global_dist=1.2)
    assert ErrorCode.GLOBAL_DIST in codes(check(p))


@pytest.mark.parametrize(
    "global_dist, ok",
    [(PRECISION, False), (1e-11, False), (np.nextafter(PRECISION, np.inf), True), (1.5e-10, True)],
)
def test_check_requires_global_dist_above_the_precision(global_dist, ok):
    # within the precision the vertex and the global minimizer coincide
    p = dataclasses.replace(
        default_params(2), global_dist=float(global_dist), global_radius=float(global_dist) / 2
    )
    assert codes(check(p)) == (set() if ok else {ErrorCode.GLOBAL_DIST})


def test_check_reports_global_radius():
    p = dataclasses.replace(default_params(2), global_radius=0.4)
    # 0.4 > 0.5 * (2/3)
    assert ErrorCode.GLOBAL_RADIUS in codes(check(p))


def test_check_reports_dim_and_minima():
    p = ClassParams(
        dim=1,
        num_minima=1,
        global_value=-1.0,
        global_dist=0.5,
        global_radius=0.25,
        domain_left=(-1.0,),
        domain_right=(1.0,),
    )
    got = codes(check(p))
    assert ErrorCode.DIM in got
    assert ErrorCode.NUM_MINIMA in got
    # one above the largest supported dimension
    p = dataclasses.replace(
        default_params(100), dim=101, domain_left=(-1.0,) * 101, domain_right=(1.0,) * 101
    )
    assert codes(check(p)) == {ErrorCode.DIM}
    # a box valid in its own right is not judged against an invalid dimension
    p = dataclasses.replace(default_params(2), dim=200)
    assert codes(check(p)) == {ErrorCode.DIM}


def test_check_reports_boundary():
    p = dataclasses.replace(default_params(2), domain_left=(1.0, -1.0))
    assert ErrorCode.BOUNDARY in codes(check(p))
    # length mismatch is also a boundary defect
    p = dataclasses.replace(default_params(2), domain_left=(-1.0, -1.0, -1.0))
    assert ErrorCode.BOUNDARY in codes(check(p))


@pytest.mark.parametrize(
    "left, right",
    [
        ((-math.inf, -1.0), (1.0, 1.0)),
        ((-1.0, -1.0), (1.0, math.inf)),
        ((-math.inf, -math.inf), (math.inf, math.inf)),
        ((-1e308, -1e308), (1e308, 1e308)),  # finite bounds, span overflows
    ],
)
def test_check_rejects_non_finite_domain(left, right):
    p = dataclasses.replace(default_params(2), domain_left=left, domain_right=right)
    assert codes(check(p)) == {ErrorCode.BOUNDARY}
    with pytest.raises(ParameterError) as info:
        generate(p, 1)
    assert info.value.codes == [ErrorCode.BOUNDARY]


def test_check_collects_multiple_violations():
    p = dataclasses.replace(
        default_params(2), global_value=5.0, global_dist=3.0, global_radius=9.0
    )
    got = codes(check(p))
    assert {
        ErrorCode.GLOBAL_MIN_VALUE,
        ErrorCode.GLOBAL_DIST,
        ErrorCode.GLOBAL_RADIUS,
    } <= got


def test_check_is_pure(params2):
    before = params_to_dict(params2)
    assert check(params2) == []
    assert check(params2) == []
    assert params_to_dict(params2) == before


def test_radius_boundary_case_is_allowed():
    # radius exactly half the distance is valid
    p = dataclasses.replace(default_params(2), global_radius=1.0 / 3.0)
    assert check(p) == []


def test_numpy_integer_sizes_generate_the_same_records(tmp_path):
    as_int = dataclasses.replace(default_params(3), num_minima=12)
    as_numpy = dataclasses.replace(as_int, dim=np.int64(3), num_minima=np.int32(12))
    assert as_numpy == as_int
    assert default_params(np.int64(3)) == default_params(3)
    assert type(as_numpy.dim) is int and type(as_numpy.num_minima) is int
    # every real value spelled as a numpy float, a Fraction or an int: values
    # exact in float32 and whole where an int spells them
    as_float = dataclasses.replace(as_int, global_dist=0.75, global_radius=0.25, gap=0.3125)
    reals = ("global_value", "global_dist", "global_radius", "paraboloid_min", "delta_max", "gap")
    spellings = [as_numpy]
    for kind in (np.float32, np.float64, Fraction, int):
        spelled = {name: kind(getattr(as_float, name)) for name in reals}
        spelled = {name: v for name, v in spelled.items() if v == getattr(as_float, name)}
        spelled["domain_left"] = (kind(-1.0), -1.0, -1.0)
        spellings.append(dataclasses.replace(as_float, **spelled))
    for spelling in spellings:
        plain = as_int if spelling is as_numpy else as_float
        assert spelling == plain and hash(spelling) == hash(plain)
        assert all(type(getattr(spelling, name)) is float for name in reals)
        assert all(type(v) is float for v in spelling.domain_left + spelling.domain_right)
        for nf in (1, 57):
            a, b = generate(plain, nf), generate(spelling, nf)
            assert np.array_equal(a.minima.local_min, b.minima.local_min)
            assert np.array_equal(a.minima.f, b.minima.f)
            assert np.array_equal(a.minima.rho, b.minima.rho)
            assert a.delta == b.delta and type(b.delta) is float
    export_class(as_float, "d2", tmp_path / "plain.json")
    for spelling in spellings[1:]:
        export_class(spelling, "d2", tmp_path / "spelled.json")
        for suffix in (".json", ".txt"):
            plain, spelled = (tmp_path / f"{stem}{suffix}" for stem in ("plain", "spelled"))
            assert spelled.read_bytes() == plain.read_bytes()


def _case(number, change, code):
    """A case with the id it was first collected under, so adding or
    deleting a case renames no other."""
    return pytest.param(change, code, id=f"change{number}-{code}")


@pytest.mark.parametrize(
    "change, code",
    [
        _case(0, {"dim": 2.0}, ErrorCode.DIM),
        _case(1, {"dim": True}, ErrorCode.DIM),
        _case(2, {"dim": np.float64(2.0)}, ErrorCode.DIM),
        _case(3, {"num_minima": 10.0}, ErrorCode.NUM_MINIMA),
        _case(4, {"num_minima": np.float32(10.0)}, ErrorCode.NUM_MINIMA),
        _case(5, {"num_minima": "10"}, ErrorCode.NUM_MINIMA),
        # a value that is not a real number, or is a bool, in a real field or a
        # bound; None asks for the default of the distance, the radius and the
        # gap, so a list, not a real number either, stands in for it there
        _case(6, {"global_value": "0.5"}, ErrorCode.GLOBAL_MIN_VALUE),
        _case(7, {"global_value": None}, ErrorCode.GLOBAL_MIN_VALUE),
        _case(8, {"global_value": True}, ErrorCode.GLOBAL_MIN_VALUE),
        _case(9, {"global_value": np.array(0.5)}, ErrorCode.GLOBAL_MIN_VALUE),
        _case(10, {"global_value": 0.5j}, ErrorCode.GLOBAL_MIN_VALUE),
        _case(11, {"paraboloid_min": "0.5"}, ErrorCode.GLOBAL_MIN_VALUE),
        _case(12, {"paraboloid_min": None}, ErrorCode.GLOBAL_MIN_VALUE),
        _case(13, {"paraboloid_min": True}, ErrorCode.GLOBAL_MIN_VALUE),
        _case(14, {"paraboloid_min": np.array(0.5)}, ErrorCode.GLOBAL_MIN_VALUE),
        _case(15, {"paraboloid_min": 0.5j}, ErrorCode.GLOBAL_MIN_VALUE),
        _case(16, {"global_dist": "0.5"}, ErrorCode.GLOBAL_DIST),
        _case(17, {"global_dist": [0.5]}, ErrorCode.GLOBAL_DIST),
        _case(18, {"global_dist": True}, ErrorCode.GLOBAL_DIST),
        _case(19, {"global_dist": np.array(0.5)}, ErrorCode.GLOBAL_DIST),
        _case(20, {"global_dist": 0.5j}, ErrorCode.GLOBAL_DIST),
        _case(21, {"global_radius": "0.5"}, ErrorCode.GLOBAL_RADIUS),
        _case(22, {"global_radius": [0.5]}, ErrorCode.GLOBAL_RADIUS),
        _case(23, {"global_radius": True}, ErrorCode.GLOBAL_RADIUS),
        _case(24, {"global_radius": np.array(0.5)}, ErrorCode.GLOBAL_RADIUS),
        _case(25, {"global_radius": 0.5j}, ErrorCode.GLOBAL_RADIUS),
        _case(26, {"delta_max": "0.5"}, ErrorCode.TUNING),
        _case(27, {"delta_max": None}, ErrorCode.TUNING),
        _case(28, {"delta_max": True}, ErrorCode.TUNING),
        _case(29, {"delta_max": np.array(0.5)}, ErrorCode.TUNING),
        _case(30, {"delta_max": 0.5j}, ErrorCode.TUNING),
        _case(31, {"gap": "0.5"}, ErrorCode.TUNING),
        _case(32, {"gap": [0.5]}, ErrorCode.TUNING),
        _case(33, {"gap": True}, ErrorCode.TUNING),
        _case(34, {"gap": np.array(0.5)}, ErrorCode.TUNING),
        _case(35, {"gap": 0.5j}, ErrorCode.TUNING),
        _case(36, {"domain_left": ("-1", -1.0)}, ErrorCode.BOUNDARY),
        _case(37, {"domain_left": (None, -1.0)}, ErrorCode.BOUNDARY),
        _case(38, {"domain_left": (False, -1.0)}, ErrorCode.BOUNDARY),
        _case(39, {"domain_left": (np.array(-1.0), -1.0)}, ErrorCode.BOUNDARY),
        _case(40, {"domain_left": (-1j, -1.0)}, ErrorCode.BOUNDARY),
        _case(41, {"domain_right": np.array(1.0)}, ErrorCode.BOUNDARY),
    ],
)
def test_non_integer_sizes_are_parameter_errors(change, code):
    p = dataclasses.replace(default_params(2), **change)
    # check never raises; dim=True also mismatches the box
    assert code in codes(check(p))
    with pytest.raises(ParameterError) as exc:
        generate(p, 1)
    assert code in exc.value.codes


HUGE = 10**400  # a real number too large for a float


@pytest.mark.parametrize(
    "name, value, code",
    [
        ("global_value", -HUGE, ErrorCode.GLOBAL_MIN_VALUE),
        ("global_value", Fraction(-HUGE, 3), ErrorCode.GLOBAL_MIN_VALUE),
        ("paraboloid_min", HUGE, ErrorCode.GLOBAL_MIN_VALUE),
        ("global_dist", Fraction(HUGE, 3), ErrorCode.GLOBAL_DIST),
        ("global_radius", HUGE, ErrorCode.GLOBAL_RADIUS),
        ("delta_max", HUGE, ErrorCode.TUNING),
        ("gap", Fraction(HUGE, 7), ErrorCode.TUNING),
        ("domain_left", (-HUGE, -1.0), ErrorCode.BOUNDARY),
        ("domain_right", (1.0, HUGE), ErrorCode.BOUNDARY),
    ],
    ids=lambda v: v if isinstance(v, str) else getattr(v, "value", type(v).__name__),
)
def test_reals_too_large_for_a_float_are_stored_as_inf(name, value, code):
    p = dataclasses.replace(default_params(2), **{name: value})
    stored = getattr(p, name)
    for given, kept in zip(value, stored) if name.startswith("domain_") else [(value, stored)]:
        assert type(kept) is float
        assert kept == (given if abs(given) < 2 else math.inf if given > 0 else -math.inf)
    assert code in codes(check(p))
    with pytest.raises(ParameterError) as exc:
        generate(p, 1)
    assert code in exc.value.codes


def test_any_minimizer_count_is_a_plain_replace():
    p = dataclasses.replace(default_params(2), num_minima=30)
    assert all(generate(p, nf).num_minima == 30 for nf in range(1, 101))


def test_dict_round_trip(params2):
    data = params_to_dict(params2)
    assert set(data) == {
        "dim",
        "num_minima",
        "global_value",
        "global_dist",
        "global_radius",
        "domain_left",
        "domain_right",
        "paraboloid_min",
        "delta_max",
        "gap",
    }
    restored = params_from_dict(data)
    assert restored == params2
