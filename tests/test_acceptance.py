"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

The oracles here difference raw function values, enumerate grids, or
re-derive geometry directly from the stored tables; they do not reuse
the library's own audit helpers.
"""

import json
import time

import numpy as np
import pytest

from basingen import (
    BadVariableIndexError,
    ClassParams,
    DerivEvalError,
    ErrorCode,
    NoFunctionError,
    OutOfDomainError,
    ParameterError,
    check,
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
    load_class,
)
from basingen.cli import main

from conftest import random_unit_vectors
from fdtools import (
    basin,
    fd_gradient,
    fd_hessian,
    hessian_step,
    reference_paraboloid,
    sample_pure_points,
)
from test_evaluate import nd_witness


def _run(number, name, body):
    try:
        extra = body() or ""
    except BaseException:
        print(f"\n[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"\n[criterion {number:02d}] {name}: PASS{extra}")


def _class_params(dim, num_minima):
    return ClassParams(
        dim=dim,
        num_minima=num_minima,
        global_value=-1.0,
        global_dist=2.0 / 3.0,
        global_radius=1.0 / 3.0,
        domain_left=(-1.0,) * dim,
        domain_right=(1.0,) * dim,
    )


def _sampled_functions():
    """20 functions spanning dimensions and minimizer counts."""
    sample = [generate(default_params(2), nf) for nf in range(1, 11)]
    sample += [generate(_class_params(3, 10), nf) for nf in range(1, 6)]
    sample += [generate(_class_params(4, 30), nf) for nf in range(1, 6)]
    return sample


def test_c01_class_size_and_determinism(tmp_path):
    def body():
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        start = time.perf_counter()
        assert main(["gen", "--type", "d", "--out", str(first)]) == 0
        elapsed = time.perf_counter() - start
        assert main(["gen", "--type", "d", "--out", str(second)]) == 0
        document = json.loads(first.read_text())
        assert len(document["functions"]) == 100
        assert [e["nf"] for e in document["functions"]] == list(range(1, 101))
        assert first.read_bytes() == second.read_bytes()
        assert elapsed < 5.0
        return f" ({elapsed:.2f}s for 100 functions)"

    _run(1, "class size and determinism", body)


def test_c02_worked_example_relations(default_class):
    def body():
        for func in default_class:
            dist = np.linalg.norm(func.global_minimizer - func.vertex)
            assert abs(dist - 2.0 / 3.0) <= 1e-9
            assert abs(eval_d(func, func.global_minimizer) - (-1.0)) <= 1e-12
            assert abs(eval_d(func, func.vertex) - 0.0) <= 1e-12

    _run(2, "worked-example relations over the default class", body)


def test_c03_geometry_suite():
    def body():
        # the minimizer tables are shared by all three families, so one
        # generated record certifies the geometry for nd, d, and d2
        start = time.perf_counter()
        for dim in (2, 3, 4, 5):
            for num_minima in (2, 10, 30):
                params = _class_params(dim, num_minima)
                gap = params.global_radius + params.gap
                for nf in range(1, 101):
                    func = generate(params, nf)
                    table = func.minima
                    points = table.local_min
                    rho = table.rho
                    assert np.all(points > -1.0) and np.all(points < 1.0)
                    for i in range(num_minima):
                        diffs = points[i + 1 :] - points[i]
                        dist = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
                        assert np.all(dist > 1e-10)
                        assert np.all(dist - (rho[i] + rho[i + 1 :]) >= -1e-12)
                    if num_minima > 2:
                        toglobal = np.linalg.norm(points[2:] - points[1], axis=1)
                        assert np.all(toglobal >= gap)
                        tovertex = np.linalg.norm(points[2:] - points[0], axis=1)
                        boundary_min = (tovertex - rho[2:]) ** 2
                        assert np.all(table.f[2:] < boundary_min)
                    assert table.f[1] == -1.0
                    assert table.f.min() == -1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        return f" (12 classes x 100 functions in {elapsed:.1f}s)"

    _run(3, "geometry suite", body)


def test_c04_boundary_continuity():
    def body():
        for func in _sampled_functions():
            directions = random_unit_vectors(func.dim, 100, seed=func.nf)
            for row in range(1, func.num_minima):
                center = func.minima.local_min[row]
                rho = func.minima.rho[row]
                for u in directions:
                    xb = center + rho * u
                    g = reference_paraboloid(func, xb)
                    bound = 1e-9 * max(1.0, abs(g))
                    for family in ("nd", "d", "d2"):
                        assert abs(basin(func, row, xb, rho, family) - g) <= bound

    _run(4, "boundary continuity for all three families", body)


def test_c05_derivative_correctness():
    def body():
        sample = [
            generate(default_params(2), 9),
            generate(default_params(2), 42),
            generate(_class_params(3, 10), 7),
        ]
        for func in sample:
            points = sample_pure_points(
                func, 1000, seed=func.nf, stencil_radius=4e-6, pad=2e-6
            )
            for x in points:
                fd_d = fd_gradient(lambda z: eval_d(func, z), x, h=1e-6)
                fd_d2 = fd_gradient(lambda z: eval_d2(func, z), x, h=1e-6)
                an_d = d_gradient(func, x)
                an_d2 = d2_gradient(func, x)
                scale_d = np.maximum(1.0, np.maximum(np.abs(an_d), np.abs(fd_d)))
                scale_d2 = np.maximum(1.0, np.maximum(np.abs(an_d2), np.abs(fd_d2)))
                assert np.max(np.abs(an_d - fd_d) / scale_d) <= 1e-5
                assert np.max(np.abs(an_d2 - fd_d2) / scale_d2) <= 1e-5

            hess_points = sample_pure_points(
                func,
                1000,
                seed=1000 + func.nf,
                stencil_radius=lambda x: 4.0 * hessian_step(func, x),
                pad=5e-3,
            )
            for x in hess_points:
                analytic = d2_hessian(func, x)
                assert np.max(np.abs(analytic - analytic.T)) <= 1e-12
                fd = fd_hessian(
                    lambda z: eval_d2(func, z), x, h=hessian_step(func, x)
                )
                assert np.max(np.abs(analytic - fd)) <= 1e-4

            identity = np.eye(func.dim)
            for row in range(func.num_minima):
                minimizer = func.minima.local_min[row]
                assert np.max(np.abs(d_gradient(func, minimizer))) <= 1e-10
                assert np.max(np.abs(d2_gradient(func, minimizer))) <= 1e-10
                if row >= 1:
                    # basin minimizers carry the drawn curvature; the
                    # vertex sits outside every ball on the paraboloid
                    hess = d2_hessian(func, minimizer)
                    assert np.max(np.abs(hess - func.delta * identity)) <= 1e-6
            assert np.array_equal(
                d2_hessian(func, func.vertex), 2.0 * identity
            )

    _run(5, "derivative correctness against finite differences", body)


def test_c06_smoothness_across_boundaries(default_class):
    def body():
        for func in _sampled_functions():
            directions = random_unit_vectors(func.dim, 30, seed=200 + func.nf)
            for row in range(1, func.num_minima):
                center = func.minima.local_min[row]
                rho = func.minima.rho[row]
                for u in directions:
                    xb = center + rho * u
                    outer = 2.0 * (xb - func.vertex)
                    inner_d = basin(func, row, xb, rho, "d", 1)
                    inner_d2 = basin(func, row, xb, rho, "d2", 1)
                    assert np.max(np.abs(inner_d - outer)) <= 1e-8
                    assert np.max(np.abs(inner_d2 - outer)) <= 1e-8
                    hess = basin(func, row, xb, rho, "d2", 2)
                    assert np.max(np.abs(hess - 2.0 * np.eye(func.dim))) <= 1e-6
        for func in default_class:
            assert nd_witness(func, h=1e-7), f"no kink witness for nf={func.nf}"

    _run(6, "first/second-order continuity and nd kinks", body)


def test_c07_brute_force_global_check():
    def body():
        params = default_params(2)
        axis = np.linspace(-1.0, 1.0, 401)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        grid = np.column_stack([g1.ravel(), g2.ravel()])
        spacing = axis[1] - axis[0]
        for nf in range(1, 11):
            func = generate(params, nf)
            values = eval_many(func, "d", grid)
            best = grid[np.argmin(values)]
            assert values.min() >= -1.0
            assert values.min() <= -1.0 + 1e-2
            globals_ = func.minima.local_min[func.glob.global_indices - 1]
            dist = np.min(np.linalg.norm(globals_ - best, axis=1))
            assert dist <= params.global_radius
        return f" (10 functions on a 401x401 grid, spacing {spacing:.4f})"

    _run(7, "brute-force grid localizes the global minimum", body)


def test_c08_error_contract(func9):
    def body():
        defaults = default_params(2)

        def codes_of(params):
            return {e.code for e in check(params)}

        import dataclasses

        assert ErrorCode.DIM in codes_of(dataclasses.replace(defaults, dim=1))
        assert ErrorCode.NUM_MINIMA in codes_of(
            dataclasses.replace(defaults, num_minima=1)
        )
        assert ErrorCode.BOUNDARY in codes_of(
            dataclasses.replace(defaults, domain_left=(1.0, -1.0))
        )
        assert ErrorCode.GLOBAL_MIN_VALUE in codes_of(
            dataclasses.replace(defaults, global_value=0.0)
        )
        assert ErrorCode.GLOBAL_DIST in codes_of(
            dataclasses.replace(defaults, global_dist=1.2)
        )
        assert ErrorCode.GLOBAL_RADIUS in codes_of(
            dataclasses.replace(defaults, global_radius=0.4)
        )

        with pytest.raises(ParameterError) as exc:
            default_params(1)
        assert exc.value.codes == [ErrorCode.DIM]

        with pytest.raises(ParameterError) as exc:
            generate(defaults, 0)
        assert exc.value.codes == [ErrorCode.FUNC_NUMBER]
        with pytest.raises(ParameterError) as exc:
            generate(defaults, 101)
        assert exc.value.codes == [ErrorCode.FUNC_NUMBER]

        outside = [2.0, 0.0]
        with pytest.raises(OutOfDomainError):
            eval_d(func9, outside)
        with pytest.raises(OutOfDomainError):
            eval_nd(func9, outside)
        with pytest.raises(NoFunctionError):
            eval_d2(None, [0.0, 0.0])
        with pytest.raises(BadVariableIndexError):
            d_deriv(func9, 0, [0.0, 0.0])
        with pytest.raises(DerivEvalError) as exc:
            d_gradient(func9, outside)
        assert exc.value.code is ErrorCode.DERIV_EVAL

    _run(8, "error-contract conformance", body)


def test_c09_evaluation_throughput():
    def body():
        func = generate(_class_params(5, 30), 1)
        rng = np.random.default_rng(0)
        points = rng.uniform(-1.0, 1.0, size=(1_000_000, 5))
        start = time.perf_counter()
        values = eval_many(func, "d", points)
        elapsed = time.perf_counter() - start
        assert values.shape == (1_000_000,)
        assert values.min() >= func.params.global_value
        assert elapsed < 2.0
        return f" (1e6 evaluations in {elapsed:.2f}s)"

    _run(9, "evaluation throughput", body)


def test_c10_notebook_round_trip(tmp_path, params2, default_class):
    def body():
        path = tmp_path / "roundtrip.json"
        assert main(["gen", "--type", "d", "--out", str(path)]) == 0
        loaded = load_class(path)
        rng = np.random.default_rng(99)
        points = rng.uniform(-1.0, 1.0, size=(1000, 2))
        for nf in (1, 9, 100):
            original = default_class[nf - 1]
            restored = loaded.functions[nf - 1]
            for x in points:
                assert eval_d(original, x) == eval_d(restored, x)
                assert eval_nd(original, x) == eval_nd(restored, x)
                assert eval_d2(original, x) == eval_d2(restored, x)

    _run(10, "notebook round-trip reproduces evaluations bitwise", body)
