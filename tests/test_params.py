import dataclasses
import math

import pytest

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
    assert p.weights == (0.99, 1.0) + (0.99,) * 8
    assert p.precision == 1e-10


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
        {"precision": 0.0},
        {"precision": nan},
        {"weights": (1.5,) + (0.99,) * 9},
        {"weights": (0.99, 0.0) + (0.99,) * 8},
        {"weights": (nan,) * 10},
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


def test_weights_length_mismatch():
    with pytest.raises(ValueError):
        ClassParams(
            dim=2,
            num_minima=3,
            global_value=-1.0,
            global_dist=0.5,
            global_radius=0.25,
            domain_left=(-1.0, -1.0),
            domain_right=(1.0, 1.0),
            weights=(1.0, 1.0),
        )


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
        "weights",
        "precision",
    }
    restored = params_from_dict(data)
    assert restored == params2
