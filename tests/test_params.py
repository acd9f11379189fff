import dataclasses
import math

import pytest

import numpy as np

from basingen import (
    ClassParams,
    ErrorCode,
    ParameterError,
    check,
    default_params,
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


def test_numpy_integer_sizes_generate_the_same_records():
    as_int = dataclasses.replace(default_params(3), num_minima=12)
    as_numpy = dataclasses.replace(as_int, dim=np.int64(3), num_minima=np.int32(12))
    assert as_numpy == as_int
    assert default_params(np.int64(3)) == default_params(3)
    assert type(as_numpy.dim) is int and type(as_numpy.num_minima) is int
    for nf in (1, 57):
        a, b = generate(as_int, nf), generate(as_numpy, nf)
        assert np.array_equal(a.minima.local_min, b.minima.local_min)
        assert np.array_equal(a.minima.f, b.minima.f)
        assert np.array_equal(a.minima.rho, b.minima.rho)
        assert a.delta == b.delta


@pytest.mark.parametrize(
    "change, code",
    [
        ({"dim": 2.0}, ErrorCode.DIM),
        ({"dim": True}, ErrorCode.DIM),
        ({"dim": np.float64(2.0)}, ErrorCode.DIM),
        ({"num_minima": 10.0}, ErrorCode.NUM_MINIMA),
        ({"num_minima": np.float32(10.0)}, ErrorCode.NUM_MINIMA),
        ({"num_minima": "10"}, ErrorCode.NUM_MINIMA),
    ],
)
def test_non_integer_sizes_are_parameter_errors(change, code):
    p = dataclasses.replace(default_params(2), **change)
    assert code in codes(check(p))  # dim=True also mismatches the box
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
