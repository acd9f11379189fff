import numpy as np
import pytest

from basingen import (
    BadVariableIndexError,
    ClassParams,
    DerivEvalError,
    GeneratedFunction,
    GlobalInfo,
    MinimaTable,
    NoFunctionError,
    OutOfDomainError,
    d2_deriv1,
    d2_deriv2,
    d2_gradient,
    d2_hessian,
    d_deriv,
    d_gradient,
    eval_d,
    eval_d2,
    eval_many,
    eval_nd,
    generate,
    locate_ball,
)
from basingen.evaluate import _basin

from conftest import random_unit_vectors
from fdtools import (
    fd_gradient,
    fd_hessian,
    hessian_step,
    points_inside_ball,
    reference_basin_value,
    reference_paraboloid,
    sample_pure_points,
)

EVALUATORS = {"nd": eval_nd, "d": eval_d, "d2": eval_d2}


def handmade_function():
    """Tiny record with exactly representable geometry for edge cases."""
    params = ClassParams(
        dim=2,
        num_minima=2,
        global_value=-1.0,
        global_dist=0.5,
        global_radius=0.25,
        domain_left=(-1.0, -1.0),
        domain_right=(1.0, 1.0),
    )
    return GeneratedFunction(
        params=params,
        nf=1,
        minima=MinimaTable(
            local_min=np.array([[0.0, 0.0], [0.5, 0.0]]),
            f=np.array([0.0, -1.0]),
            rho=np.array([0.125, 0.25]),
            peak=np.array([0.0, 0.0]),
            w_rho=np.array([0.99, 1.0]),
        ),
        glob=GlobalInfo(num_global_minima=1, gm_index=np.array([2, 1])),
        delta=1.5,
    )


# --------------------------------------------------------------------------
# ball lookup


def test_locate_ball_at_centers(func9):
    for row in range(1, func9.num_minima):
        index, dist = locate_ball(func9, func9.minima.local_min[row])
        assert index == row + 1
        assert dist == 0.0


def test_vertex_is_in_no_ball(func9):
    assert locate_ball(func9, func9.vertex) is None


def test_exact_boundary_point_is_inside():
    func = handmade_function()
    # 0.75 = 0.5 + 0.25 exactly in binary
    index, dist = locate_ball(func, [0.75, 0.0])
    assert index == 2
    assert dist == 0.25


def test_locate_ball_applies_the_box_test(params2):
    func = generate(params2, 2)
    # just outside the right edge, yet within ball 3, which crosses it
    outside = [1.19167, 0.22905]
    nan = float("nan")
    for x in (outside, [nan, 0.0], [float("inf"), 0.0], [0.0, -float("inf")]):
        with pytest.raises(OutOfDomainError):
            locate_ball(func, x)


# --------------------------------------------------------------------------
# values


def test_values_at_minimizers(func9):
    for row in range(func9.num_minima):
        point = func9.minima.local_min[row]
        expected = func9.minima.f[row]
        for family, evaluator in EVALUATORS.items():
            assert evaluator(func9, point) == pytest.approx(expected, abs=1e-12), family


def test_value_at_vertex(func9):
    assert eval_d(func9, func9.vertex) == 0.0
    assert eval_nd(func9, func9.vertex) == 0.0
    assert eval_d2(func9, func9.vertex) == 0.0


def test_near_minimizer_guard(func9):
    point = func9.global_minimizer + 1e-12
    assert eval_d(func9, point) == func9.params.global_value


def test_paraboloid_outside_balls(func9):
    rng = np.random.default_rng(2)
    found = 0
    while found < 50:
        x = rng.uniform(-1.0, 1.0, size=2)
        if locate_ball(func9, x) is not None:
            continue
        found += 1
        expected = float(np.sum((x - func9.vertex) ** 2))
        for evaluator in EVALUATORS.values():
            assert evaluator(func9, x) == pytest.approx(expected, abs=1e-14)


def test_out_of_domain(func9):
    for evaluator in EVALUATORS.values():
        with pytest.raises(OutOfDomainError):
            evaluator(func9, [1.5, 0.0])
        with pytest.raises(OutOfDomainError):
            evaluator(func9, [0.0, -1.0000001])
        with pytest.raises(OutOfDomainError):
            evaluator(func9, [np.nan, 0.0])


def test_no_function():
    for evaluator in EVALUATORS.values():
        with pytest.raises(NoFunctionError):
            evaluator(None, [0.0, 0.0])
    with pytest.raises(NoFunctionError):
        d_gradient(None, [0.0, 0.0])


def test_boundary_identity_all_families(func9):
    # on the ball boundary every basin polynomial collapses to the paraboloid
    directions = random_unit_vectors(2, 100, seed=5)
    for row in range(1, func9.num_minima):
        center = func9.minima.local_min[row]
        rho = func9.minima.rho[row]
        for u in directions:
            xb = center + rho * u
            g = reference_paraboloid(func9, xb)
            for family in EVALUATORS:
                branch = _basin(func9, row, xb, rho, family)
                assert abs(branch - g) <= 1e-9 * max(1.0, abs(g))


def test_basin_kernel_matches_reference(func9, func5):
    for func in (func9, func5):
        for row in range(1, func.num_minima):
            for x in points_inside_ball(func, row, 20, seed=300 + row, margin_fraction=0.0):
                r = float(np.linalg.norm(x - func.minima.local_min[row]))
                for family in EVALUATORS:
                    expected = reference_basin_value(func, row, x, family)
                    value = _basin(func, row, x, r, family)
                    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), family


# --------------------------------------------------------------------------
# first derivatives


def test_gradient_outside_balls(func9):
    x = func9.vertex + np.array([0.3, -0.1])
    assert locate_ball(func9, x) is None
    assert d_gradient(func9, x) == pytest.approx([0.6, -0.2])
    assert d2_gradient(func9, x) == pytest.approx([0.6, -0.2])
    assert d_deriv(func9, 1, x) == pytest.approx(0.6)
    assert d2_deriv1(func9, 2, x) == pytest.approx(-0.2)


def test_gradients_vanish_at_minimizers(func9):
    for row in range(func9.num_minima):
        point = func9.minima.local_min[row]
        assert np.max(np.abs(d_gradient(func9, point))) <= 1e-10
        assert np.max(np.abs(d2_gradient(func9, point))) <= 1e-10


def test_gradient_matches_finite_differences(func9):
    points = sample_pure_points(func9, 1000, seed=11, stencil_radius=4e-6, pad=2e-6)
    for x in points:
        fd_d = fd_gradient(lambda z: eval_d(func9, z), x)
        fd_d2 = fd_gradient(lambda z: eval_d2(func9, z), x)
        an_d = d_gradient(func9, x)
        an_d2 = d2_gradient(func9, x)
        scale_d = np.maximum(1.0, np.maximum(np.abs(an_d), np.abs(fd_d)))
        scale_d2 = np.maximum(1.0, np.maximum(np.abs(an_d2), np.abs(fd_d2)))
        assert np.max(np.abs(an_d - fd_d) / scale_d) <= 1e-6
        assert np.max(np.abs(an_d2 - fd_d2) / scale_d2) <= 1e-6


def test_gradient_inside_balls_matches_fd(func9):
    for row in range(1, func9.num_minima):
        for x in points_inside_ball(func9, row, 20, seed=row):
            fd = fd_gradient(lambda z: eval_d(func9, z), x)
            analytic = d_gradient(func9, x)
            scale = np.maximum(1.0, np.abs(analytic))
            assert np.max(np.abs(analytic - fd) / scale) <= 1e-6


def test_bad_variable_index(func9):
    x = [0.1, 0.1]
    for j in (0, 3, -1):
        with pytest.raises(BadVariableIndexError):
            d_deriv(func9, j, x)
        with pytest.raises(BadVariableIndexError):
            d2_deriv1(func9, j, x)
    with pytest.raises(BadVariableIndexError):
        d2_deriv2(func9, 1, 5, x)


def test_deriv_eval_error_wraps_component_failure(func9):
    for outside in ([2.0, 0.0], [np.nan, 0.0]):
        with pytest.raises(DerivEvalError) as exc:
            d_gradient(func9, outside)
        assert isinstance(exc.value.__cause__, OutOfDomainError)
        with pytest.raises(DerivEvalError):
            d2_gradient(func9, outside)
        with pytest.raises(DerivEvalError):
            d2_hessian(func9, outside)


def test_deriv_out_of_domain(func9):
    with pytest.raises(OutOfDomainError):
        d_deriv(func9, 1, [2.0, 0.0])
    with pytest.raises(OutOfDomainError):
        d2_deriv2(func9, 1, 1, [2.0, 0.0])


# --------------------------------------------------------------------------
# second derivatives


def test_hessian_outside_balls(func9):
    x = func9.vertex + np.array([0.21, -0.07])
    assert locate_ball(func9, x) is None
    assert np.array_equal(d2_hessian(func9, x), 2.0 * np.eye(2))
    assert d2_deriv2(func9, 1, 2, x) == 0.0
    assert d2_deriv2(func9, 1, 1, x) == 2.0


def test_hessian_at_minimizers(func9):
    identity = np.eye(2)
    for row in range(1, func9.num_minima):
        hess = d2_hessian(func9, func9.minima.local_min[row])
        assert np.allclose(hess, func9.delta * identity, atol=1e-6)
    # the vertex sits outside every basin ball: pure paraboloid curvature
    assert np.array_equal(d2_hessian(func9, func9.vertex), 2.0 * identity)


def test_hessian_matches_finite_differences(func9):
    step = lambda x: 4.0 * hessian_step(func9, x)
    points = sample_pure_points(func9, 300, seed=13, stencil_radius=step, pad=5e-3)
    for x in points:
        h = hessian_step(func9, x)
        fd = fd_hessian(lambda z: eval_d2(func9, z), x, h=h)
        analytic = d2_hessian(func9, x)
        assert np.max(np.abs(analytic - fd)) <= 1e-4


def test_hessian_inside_balls_matches_fd(func9):
    for row in range(1, func9.num_minima):
        for x in points_inside_ball(func9, row, 10, seed=100 + row):
            h = hessian_step(func9, x)
            fd = fd_hessian(lambda z: eval_d2(func9, z), x, h=h)
            analytic = d2_hessian(func9, x)
            assert np.max(np.abs(analytic - fd)) <= 1e-4


def test_hessian_symmetry(func9):
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, size=2)
        hess = d2_hessian(func9, x)
        assert np.max(np.abs(hess - hess.T)) <= 1e-12


def test_single_entry_matches_matrix(func9):
    rng = np.random.default_rng(19)
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=2)
        hess = d2_hessian(func9, x)
        for j in (1, 2):
            for k in (1, 2):
                assert d2_deriv2(func9, j, k, x) == hess[j - 1, k - 1]
        grad2 = d2_gradient(func9, x)
        grad1 = d_gradient(func9, x)
        for j in (1, 2):
            assert d2_deriv1(func9, j, x) == grad2[j - 1]
            assert d_deriv(func9, j, x) == grad1[j - 1]


# --------------------------------------------------------------------------
# smoothness across basin boundaries


def test_smooth_branch_agreement_on_boundaries(func9):
    directions = random_unit_vectors(2, 60, seed=23)
    for row in range(1, func9.num_minima):
        center = func9.minima.local_min[row]
        rho = func9.minima.rho[row]
        for u in directions:
            xb = center + rho * u
            outer_grad = 2.0 * (xb - func9.vertex)
            assert np.max(np.abs(_basin(func9, row, xb, rho, "d", 1) - outer_grad)) <= 1e-8
            assert np.max(np.abs(_basin(func9, row, xb, rho, "d2", 1) - outer_grad)) <= 1e-8
            assert np.max(np.abs(_basin(func9, row, xb, rho, "d2", 2) - 2.0 * np.eye(2))) <= 1e-6


def test_nd_kinks_on_boundaries(default_class):
    # the quadratic blend has a radial slope jump on each ball boundary
    h = 1e-7
    for func in default_class:
        assert nd_witness(func, h), f"no kink witness for nf={func.nf}"


def nd_witness(func, h, threshold=1e-3):
    for row in range(1, func.num_minima):
        center = func.minima.local_min[row]
        rho = float(func.minima.rho[row])
        for theta in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
            u = np.array([np.cos(theta), np.sin(theta)])
            xb = center + rho * u
            xm = xb - h * u
            xp = xb + h * u
            if np.any(xm < func.lower) or np.any(xp < func.lower):
                continue
            if np.any(xm > func.upper) or np.any(xp > func.upper):
                continue
            hit_b = locate_ball(func, xb)
            hit_m = locate_ball(func, xm)
            if hit_b is None or hit_b[0] != row + 1:
                continue
            if hit_m is None or hit_m[0] != row + 1:
                continue
            if locate_ball(func, xp) is not None:
                continue
            inner = (eval_nd(func, xb) - eval_nd(func, xm)) / h
            outer = (eval_nd(func, xp) - eval_nd(func, xb)) / h
            if abs(outer - inner) > threshold:
                return True
    return False


# --------------------------------------------------------------------------
# batch evaluation


def test_batch_matches_scalar(func9, func5):
    rng = np.random.default_rng(29)
    inside = np.concatenate(
        [points_inside_ball(func5, row, 35, seed=row, margin_fraction=0.0) for row in range(1, 30)]
    )
    cases = [
        (func9, rng.uniform(-1.0, 1.0, size=(2000, 2))),
        (func5, np.concatenate([inside, rng.uniform(-1.0, 1.0, size=(len(inside), 5))])),
    ]
    for func, points in cases:
        for family, evaluator in EVALUATORS.items():
            batch = eval_many(func, family, points)
            scalar = np.array([evaluator(func, x) for x in points])
            assert np.array_equal(batch, scalar), (func.dim, family)


def test_batch_rejects_infeasible(func9):
    with pytest.raises(OutOfDomainError):
        eval_many(func9, "d", np.array([[0.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(OutOfDomainError):
        eval_many(func9, "d", np.array([[0.0, 0.0], [0.0, np.nan]]))


def test_batch_rejects_unknown_family(func9):
    with pytest.raises(ValueError):
        eval_many(func9, "smooth", np.zeros((1, 2)))


def test_point_length_is_checked(func9):
    with pytest.raises(ValueError):
        eval_d(func9, [0.0, 0.0, 0.0])
