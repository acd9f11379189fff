import dataclasses
import importlib
import itertools

import numpy as np
import pytest

from basingen import (
    BadVariableIndexError,
    ClassParams,
    DerivEvalError,
    GeneratedFunction,
    MinimaTable,
    NoFunctionError,
    OutOfDomainError,
    d2_deriv1,
    d2_deriv2,
    d2_gradient,
    d2_hessian,
    d_deriv,
    d_gradient,
    default_params,
    eval_d,
    eval_d2,
    eval_many,
    eval_nd,
    generate,
    locate_ball,
)
from basingen.evaluate import _CHUNK_CELLS, _in_box, _plan, evaluate
from basingen.generator import _einsum
from basingen.params import PRECISION

import eval_reference
from conftest import random_unit_vectors, sized_class, small_class
from fdtools import (
    basin,
    fd_gradient,
    fd_hessian,
    hessian_step,
    points_inside_ball,
    reference_basin_value,
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
        ),
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


def test_basin_kernel_matches_reference(func9, func5):
    for func in (func9, func5):
        for row in range(1, func.num_minima):
            for x in points_inside_ball(func, row, 20, seed=300 + row, margin_fraction=0.0):
                r = float(np.linalg.norm(x - func.minima.local_min[row]))
                for family in EVALUATORS:
                    expected = reference_basin_value(func, row, x, family)
                    value = basin(func, row, x, r, family)
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


def test_numpy_integer_variable_indices(func9):
    x = [0.1, -0.2]
    for kind in (np.int64, np.int32):
        for j in (1, 2):
            assert d_deriv(func9, kind(j), x) == d_deriv(func9, j, x)
            assert d2_deriv1(func9, kind(j), x) == d2_deriv1(func9, j, x)
            assert d2_deriv2(func9, kind(j), kind(3 - j), x) == d2_deriv2(func9, j, 3 - j, x)
    for j in (True, 1.0):  # a bool or a float is not an index
        with pytest.raises(BadVariableIndexError):
            d_deriv(func9, j, x)


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


def lookup_edge_points(func, seed):
    """Points where the ball lookup is hardest, kept if in the box: every
    ball center, points 0.5 and 1.5 PRECISION from it (either side of the
    edge of its flat disc) and 1e-12 rho from it, and points on the
    boundary (along a random direction and along an axis) with their
    neighbours one and two ulps inside and outside."""
    points = []
    for row in range(1, func.num_minima):
        center = func.minima.local_min[row]
        rho = float(func.minima.rho[row])
        u, v, w = random_unit_vectors(func.dim, 3, seed=seed + row)
        points += [center, center + 0.5 * PRECISION * u, center + 1.5 * PRECISION * u]
        points.append(center + 1e-12 * rho * v)
        on_axis = center.copy()
        on_axis[row % func.dim] += rho
        for x in (center + rho * w, on_axis):
            points.append(x)
            inward, outward = x, x
            for _ in range(2):
                inward = np.nextafter(inward, center)
                outward = np.nextafter(outward, 2.0 * x - center)
                points += [inward, outward]
    points = np.array(points)
    return points[np.all((func.lower <= points) & (points <= func.upper), axis=1)]


@pytest.fixture(scope="module")
def func20():
    """Function 1 of the default 20-D class with 500 minima."""
    return generate(sized_class(20, 500), 1)


@pytest.fixture(scope="module")
def func_wide():
    """Function 1 of a 3-D class on [-1e6, 1e6]^3, where the lookup's
    rounding bound is largest in absolute terms."""
    side = 2e6
    params = small_class(
        dim=3,
        num_minima=20,
        global_dist=side / 3.0,
        global_radius=side / 6.0,
        domain_left=(-1e6,) * 3,
        domain_right=(1e6,) * 3,
    )
    return generate(params, 1)


def assert_batch_exact(func, points, families=tuple(EVALUATORS)):
    """eval_many equals the ball-at-a-time scan and the scalar evaluators
    bit for bit at `points`, whatever the memory layout of `points`."""
    for family in families:
        batch = eval_many(func, family, points)
        assert batch.shape == (len(points),)
        assert np.array_equal(batch, eval_many(func, family, np.asfortranarray(points))), family
        assert np.array_equal(batch, eval_reference.eval_many(func, family, points)), family
        scalar = [EVALUATORS[family](func, x) for x in points]
        assert np.array_equal(batch, scalar), family


def test_batch_exact_at_ball_edges(func9, func5, func_wide):
    # func9 with ball 4 shrunk to rho = 1e-4 (evaluation takes a record
    # unaudited): 1.5 PRECISION from its center, its nd and d basin
    # polynomials no longer round to f_min
    rho = np.array(func9.minima.rho)
    rho[3] = 1e-4
    tiny_ball = dataclasses.replace(func9, minima=dataclasses.replace(func9.minima, rho=rho))
    rng = np.random.default_rng(31)
    for seed, func in enumerate((func9, func5, func_wide, tiny_ball)):
        edges = lookup_edge_points(func, seed=100 * seed)
        uniform = func.lower + (func.upper - func.lower) * rng.random((200, func.dim))
        points = np.concatenate([edges, uniform])
        assert_batch_exact(func, points)
        # the edge points straddle the boundaries: some are in no ball
        found = [locate_ball(func, x) for x in edges]
        assert any(hit is None for hit in found) and any(hit is not None for hit in found)


def test_batch_exact_on_20d_function(func20):
    points = lookup_edge_points(func20, seed=7)[::4]
    assert_batch_exact(func20, points, ("d2",))
    assert_batch_exact(func20, points[:300], ("nd", "d"))


def test_batch_exact_at_chunk_edges(func20):
    chunk = _CHUNK_CELLS // (func20.num_minima - 1)
    rng = np.random.default_rng(37)
    inside = lookup_edge_points(func20, seed=11)
    for rows in (chunk - 1, chunk, chunk + 1, 0):
        points = inside[rng.permutation(len(inside))[:rows]]
        assert len(points) == rows
        assert_batch_exact(func20, points, ("d2",))


@pytest.mark.parametrize(
    "params",
    [
        small_class(2, 2),
        small_class(20, 3),
        small_class(3, 20, domain_left=(1e6,) * 3, domain_right=(1e6 + 2.0,) * 3),
    ],
    ids=["one-ball", "dim-above-balls", "offset-box"],
)
def test_batch_exact_on_edge_records(params):
    """One ball, so the flat candidate index splits by 1; more coordinates
    than balls, so chunks are sized by dim; a box far from 0, so the scores
    depend on translating about T."""
    func = generate(params, 2)
    rng = np.random.default_rng(41)
    edges = lookup_edge_points(func, seed=13)
    uniform = func.lower + (func.upper - func.lower) * rng.random((200, func.dim))
    assert_batch_exact(func, np.concatenate([edges, uniform]))
    found = [locate_ball(func, x) for x in edges]
    assert any(hit is None for hit in found) and any(hit is not None for hit in found)


def test_batch_exact_across_a_chunk_sized_by_dim():
    func = generate(small_class(20, 3), 2)
    chunk = _CHUNK_CELLS // func.dim
    assert chunk < _CHUNK_CELLS // (func.num_minima - 1)
    rng = np.random.default_rng(43)
    edges = lookup_edge_points(func, seed=17)
    filler = func.lower + (func.upper - func.lower) * rng.random((chunk, func.dim))
    # the edge points straddle the first chunk's last row
    cut = chunk - len(edges) // 2
    points = np.concatenate([filler[:cut], edges, filler[cut:cut + 10]])
    assert_batch_exact(func, points)


def tangent_function():
    """Record whose balls 2 and 3 touch at (0.5, 0), exactly in binary;
    their basin values there differ in the last bits for every family."""
    params = ClassParams(
        dim=2,
        num_minima=3,
        global_value=-1.0,
        global_dist=0.75,
        global_radius=0.25,
        domain_left=(-1.0, -1.0),
        domain_right=(1.0, 1.0),
    )
    return GeneratedFunction(
        params=params,
        nf=1,
        minima=MinimaTable(
            local_min=np.array([[-0.5, 0.0], [0.25, 0.0], [0.75, 0.0]]),
            f=np.array([0.0, -1.0, -0.7]),
            rho=np.array([0.125, 0.25, 0.25]),
            peak=np.array([0.0, 0.0, 0.0]),
        ),
        delta=1.5,
    )


def test_lowest_row_wins_on_tangency():
    func = tangent_function()
    point = np.array([0.5, 0.0])
    assert locate_ball(func, point) == (2, 0.25)
    for family, evaluator in EVALUATORS.items():
        lowest = basin(func, 1, point, 0.25, family)
        assert lowest != basin(func, 2, point, 0.25, family)
        assert evaluator(func, point) == lowest
        assert eval_many(func, family, point[None]).tolist() == [lowest]
        assert eval_reference.eval_many(func, family, point[None]).tolist() == [lowest]
    assert_batch_exact(func, lookup_edge_points(func, seed=3))


# --------------------------------------------------------------------------
# the evaluation plan


def test_plan_is_built_once_per_record_and_family(params2, monkeypatch, fresh_records):
    # the package's `evaluate` names the function, not the module
    evaluate_module = importlib.import_module("basingen.evaluate")
    calls = []
    coefficients = evaluate_module._coefficients

    def counting(func, row, family, bridge):
        calls.append((row, family))
        return coefficients(func, row, family, bridge)

    monkeypatch.setattr(evaluate_module, "_coefficients", counting)
    func = generate(params2, 9)
    points = np.concatenate(
        [points_inside_ball(func, row, 25, seed=row) for row in range(1, func.num_minima)]
    )[:200]
    assert len(points) == 200
    for k, x in enumerate(points):
        assert locate_ball(func, x) is not None
        (eval_d2, d2_gradient, d2_hessian)[k % 3](func, x)
    eval_many(func, "d2", points)
    assert sorted(calls) == [(row, "d2") for row in range(1, func.num_minima)]


def test_plan_is_read_only_and_shares_its_geometry(func5):
    plans = {family: _plan(func5, family) for family in EVALUATORS}
    for plan in plans.values():
        arrays = [value for value in plan if isinstance(value, np.ndarray)]
        assert len(arrays) == 6
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0
        assert plan.coef_a.shape[0] == plan.axes.shape[0] == func5.num_minima - 1
        assert plan.axes is plans["nd"].axes and plan.eye is plans["nd"].eye
    assert plans["nd"].coef_a.shape != plans["d2"].coef_a.shape


SCALAR_ROUTINES = {
    **EVALUATORS,
    "d_gradient": d_gradient,
    "d2_gradient": d2_gradient,
    "d2_hessian": d2_hessian,
}


def _every_result(func, points, batch_first):
    """eval_many's values and every scalar routine's results at `points`,
    with each family's plan built by the batch or by the scalar path."""

    def batch():
        return {f"eval_many {family}": eval_many(func, family, points) for family in EVALUATORS}

    results = batch() if batch_first else {}
    for name, routine in SCALAR_ROUTINES.items():
        results[name] = np.array([routine(func, x) for x in points])
    return results if batch_first else {**results, **batch()}


def test_results_do_not_depend_on_which_path_builds_the_plan(params2, func5):
    records = [
        lambda: generate(params2, 9),
        lambda: generate(func5.params, func5.nf),
        tangent_function,
        handmade_function,
    ]
    for seed, make in enumerate(records):
        func = make()
        points = lookup_edge_points(func, seed=5 * seed)
        scalar_first = _every_result(func, points, batch_first=False)
        batch_first = _every_result(make(), points, batch_first=True)
        assert scalar_first.keys() == batch_first.keys()
        for key in scalar_first:
            assert np.array_equal(scalar_first[key], batch_first[key]), (seed, key)
            assert not np.isnan(scalar_first[key]).any()


def _bits(result):
    """`result` in a form whose equality is equality of bits."""
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    if isinstance(result, (float, np.ndarray)):
        arr = np.asarray(result)
        return type(result), arr.dtype, arr.shape, arr.tobytes()
    return result


EVERY_SCALAR_ROUTINE = {
    **SCALAR_ROUTINES,
    "evaluate d2": lambda func, x: evaluate(func, x, "d2"),
    "locate_ball": locate_ball,
    "d_deriv": lambda func, x: d_deriv(func, func.dim, x),
    "d2_deriv1": lambda func, x: d2_deriv1(func, 1, x),
    "d2_deriv2": lambda func, x: d2_deriv2(func, 1, func.dim, x),
}


def test_scalar_box_test_matches_in_box():
    # a box with a 0.0 bound, whose ball 3 crosses the bound y = -1
    params = dataclasses.replace(
        default_params(2), domain_left=(0.0, -1.0), global_dist=0.3, global_radius=0.1
    )
    func = generate(params, 4)
    assert func.minima.local_min[2, 1] - func.minima.rho[2] < -1.0
    bases = [0.5 * (func.lower + func.upper), *func.minima.local_min[1:]]
    points = []
    for k in range(func.dim):
        edges = [-0.0, np.inf, -np.inf, np.nan]
        for bound in (func.lower[k], func.upper[k]):
            edges += [bound, np.nextafter(bound, np.inf), np.nextafter(bound, -np.inf)]
        for base, edge in itertools.product(bases, edges):
            point = base.copy()
            point[k] = edge
            points.append(point)
    whole = [[0, 0], [0, -1], [1, 1], [1, -2], [-1, 0], [2, 0], [0, 2], [1, 0]]
    spellings = [*whole, *map(tuple, whole)]
    for point in points:
        spellings += [point.tolist(), tuple(point.tolist()), point.astype(np.float32)]
    inside = 0
    for x in spellings:
        as_float64 = np.asarray(x, dtype=float)
        feasible = bool(_in_box(func, as_float64).all())
        inside += feasible
        for name, routine in EVERY_SCALAR_ROUTINE.items():
            if feasible:
                assert _bits(routine(func, x)) == _bits(routine(func, as_float64)), (name, x)
            else:
                with pytest.raises((OutOfDomainError, DerivEvalError)):
                    routine(func, x)
    assert 0 < inside < len(spellings)
    assert sum(locate_ball(func, x) is not None for x in points if _in_box(func, x).all()) > 0


def test_scalar_query_reads_the_plan_once(func5, monkeypatch):
    evaluate_module = importlib.import_module("basingen.evaluate")
    counts = {"plan": 0, "einsum": 0}
    plan, einsum = evaluate_module._plan, evaluate_module._einsum
    for family in EVALUATORS:
        plan(func5, family)  # built, so only lookups are counted

    def counting(name, inner):
        def call(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        return call

    monkeypatch.setattr(evaluate_module, "_plan", counting("plan", plan))
    monkeypatch.setattr(evaluate_module, "_einsum", counting("einsum", einsum))
    x = points_inside_ball(func5, 3, 1, seed=2)[0]
    for routine, point, einsums in (
        (eval_d2, x, 2),
        (d2_gradient, x, 2),
        (d2_hessian, x, 2),
        (eval_nd, func5.vertex, 1),
    ):
        counts.update(plan=0, einsum=0)
        routine(func5, point)
        assert counts == {"plan": 1, "einsum": einsums}, routine.__name__


def test_einsum_alias_is_the_c_function_numpy_einsum_calls():
    # np.einsum dispatches to einsumfunc.einsum, which calls the c_einsum of
    # its module globals when optimize is False; so on numpy 1.x and 2.x
    implementation = getattr(np.einsum, "_implementation", np.einsum)
    einsumfunc = importlib.import_module(implementation.__module__)
    assert _einsum is implementation.__globals__["c_einsum"]
    assert _einsum is einsumfunc.c_einsum


@pytest.mark.parametrize("dim", [1, 2, 5, 10, 20])
def test_einsum_alias_equals_np_einsum_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    for scale in (1.0, 1e-3, 1e150, 1e-160):
        a = scale * rng.standard_normal((13, dim))
        b = scale * rng.standard_normal((13, dim))
        cube = a[:4] - b[:, None]  # as the distance matrix's blocks
        strided = np.asfortranarray(a)[::2]
        for subscripts, operands in (
            ("ij,ij->i", (a, b)),
            ("ij,ij->i", (a, a)),
            ("ij,ij->i", (strided, strided)),
            ("i,i->", (a[0], b[0])),
            ("i,i->", (a[:, 0], a[:, 0])),
            ("ijk,ijk->ij", (cube, cube)),
        ):
            assert _bits(_einsum(subscripts, *operands)) == _bits(
                np.einsum(subscripts, *operands)
            ), (subscripts, scale)


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
