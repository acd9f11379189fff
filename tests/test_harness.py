import ast
import hashlib
import inspect
import json
import math
import struct
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from basingen import (
    ParameterError,
    d2_hessian,
    eval_many,
    evaluate,
    export_class,
    generate,
    locate_ball,
    make_multistart,
    make_random_search,
    oracle_solver,
    run_solver,
    write_report,
)
from basingen import generator, harness
from basingen.harness import BudgetExhausted, BudgetedObjective, _descend


def test_oracle_succeeds_everywhere(params2):
    report = run_solver(params2, "d", oracle_solver, budget=10)
    assert report.success_count == 100
    assert report.radius_success_count == 100
    assert report.value_success_count == 100
    assert all(o.evaluations == 1 for o in report.outcomes)
    assert report.mean_evals_to_success == 1.0
    assert report.median_evals_to_success == 1.0


def test_budget_is_enforced(params2):
    report = run_solver(params2, "d", make_random_search(seed=1), budget=200)
    assert all(o.evaluations <= 200 for o in report.outcomes)
    assert max(o.evaluations for o in report.outcomes) == 200


def test_budget_zero_rejected(params2):
    with pytest.raises(ValueError):
        run_solver(params2, "d", oracle_solver, budget=0)


@pytest.mark.parametrize(
    "value_tol",
    [
        float("nan"),
        float("inf"),
        -1e-3,
        # reals too large for a float, which are ±inf
        pytest.param(10**400, id="10**400"),
        pytest.param(Fraction(10**400, 3), id="10**400/3"),
        pytest.param(-(10**400), id="-10**400"),
    ],
)
def test_bad_value_tol_rejected_before_generation(params2, monkeypatch, fresh_records, value_tol):
    monkeypatch.setattr(generator, "_generated", None)  # a call would raise TypeError
    with pytest.raises(ValueError, match="value_tol"):
        run_solver(params2, "d", oracle_solver, budget=10, value_tol=value_tol)


@pytest.mark.parametrize("global_value", [None, "-1", float("nan")])
def test_invalid_class_rejected_before_generation(
    params2, monkeypatch, fresh_records, global_value
):
    # the default value_tol is computed from the class values
    monkeypatch.setattr(generator, "_generated", None)  # a call would raise TypeError
    bad = replace(params2, global_value=global_value)
    with pytest.raises(ParameterError, match="GlobalMinValueError"):
        run_solver(bad, "d", oracle_solver, budget=10)


def test_run_solver_checks_its_class_once(params2, monkeypatch):
    calls, check = [], generator.check

    def counted(params):
        calls.append(params)
        return check(params)

    monkeypatch.setattr(generator, "check", counted)
    monkeypatch.setattr(harness, "check", counted, raising=False)  # a restated check counts too
    run_solver(params2, "nd", oracle_solver, budget=1)
    assert calls == [params2]


def test_generation_failure_raises_after_the_runs_before_it(params2, monkeypatch, fresh_records):
    # each function is generated just before its run, as one generate call did
    ran, generated = [], generator._generated

    def failing_at_3(params, nf):
        if nf == 3:
            raise ParameterError([])
        return generated(params, nf)

    monkeypatch.setattr(generator, "_generated", failing_at_3)
    with pytest.raises(ParameterError):
        run_solver(params2, "d", lambda objective, func: ran.append(func.nf), budget=1)
    assert ran == [1, 2]


def test_solvers_get_the_records_the_caller_holds(params2, monkeypatch):
    held = [generate(params2, nf) for nf in range(1, 101)]
    seen = []

    def solver(objective, func):
        seen.append(func)
        oracle_solver(objective, func)

    monkeypatch.setattr(generator, "_generated", None)  # a call would raise TypeError
    report = run_solver(params2, "d", solver, budget=1)
    assert report.success_count == 100
    assert all(a is b for a, b in zip(seen, held, strict=True))


@pytest.mark.parametrize(
    "factory, kwargs",
    [
        (make_random_search, {"seed": -1}),
        (make_random_search, {"seed": 1.0}),
        (make_random_search, {"seed": True}),
        (make_multistart, {"starts": -3}),
        (make_multistart, {"starts": 0}),
        (make_multistart, {"starts": 2.5}),
        (make_multistart, {"local_steps": -1}),
        (make_multistart, {"local_steps": False}),
        (make_multistart, {"seed": -1}),
    ],
)
def test_solver_factories_reject_bad_arguments(factory, kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        factory(**kwargs)


def _report_bytes(path, report):
    write_report(report, path)
    return path.read_bytes() + path.with_suffix(".csv").read_bytes()


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_numpy_integer_arguments_give_the_same_reports(tmp_path, params2, kind):
    sweeps = {
        "random": lambda n: run_solver(
            params2, "d", make_random_search(seed=n(3)), budget=n(40)
        ),
        "multistart": lambda n: run_solver(
            params2, "d2", make_multistart(starts=n(2), local_steps=n(5), seed=n(1)), budget=n(40)
        ),
    }
    for name, sweep in sweeps.items():
        report = sweep(kind)
        assert type(report.budget) is int
        expected = _report_bytes(tmp_path / f"{name}.json", sweep(int))
        assert _report_bytes(tmp_path / f"{name}_{kind.__name__}.json", report) == expected
    with pytest.raises(ValueError, match="budget"):
        run_solver(params2, "d", oracle_solver, budget=True)


def test_objective_checks_its_arguments(func9):
    nan = float("nan")
    with pytest.raises(ValueError, match="unknown family"):
        BudgetedObjective(func9, "smooth", 2.5, nan)
    bad = [
        ("unknown family", ("smooth", 10, 1e-4)),
        ("budget", ("d", 2.5, 1e-4)),
        ("budget", ("d", 0, 1e-4)),
        ("budget", ("d", True, 1e-4)),
        ("budget", ("d", np.float64(3.0), 1e-4)),
        ("value_tol", ("d", 10, nan)),
        ("value_tol", ("d", 10, float("inf"))),
        ("value_tol", ("d", 10, -1e-3)),
        ("value_tol", ("d", 10, "0.1")),
        ("value_tol", ("d", 10, None)),
        ("value_tol", ("d", 10, True)),
        ("value_tol", ("d", 10, 10**400)),
        ("value_tol", ("d", 10, Fraction(-(10**400), 3))),
    ]
    for text, args in bad:
        with pytest.raises(ValueError, match=text):
            BudgetedObjective(func9, *args)
    for kind in (np.int64, np.int32):
        objective = BudgetedObjective(func9, "d", kind(3), 0.0)
        assert type(objective.budget) is int and objective.budget == 3
        for _ in range(3):
            objective.value(func9.vertex)
        with pytest.raises(BudgetExhausted):
            objective.value(func9.vertex)


def test_unknown_family_has_one_text(params2, func9, tmp_path):
    calls = (
        lambda: run_solver(params2, "smooth", oracle_solver, budget=1),
        lambda: export_class(params2, "smooth", tmp_path / "never.json"),
        lambda: evaluate(func9, [0.0, 0.0], "smooth"),
        lambda: eval_many(func9, "smooth", np.zeros((1, 2))),
    )
    texts = set()
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        texts.add(str(exc.value))
    assert texts == {"unknown family 'smooth', expected one of ('nd', 'd', 'd2')"}


def test_random_search_is_reproducible(params2):
    a = run_solver(params2, "d", make_random_search(seed=3), budget=300)
    b = run_solver(params2, "d", make_random_search(seed=3), budget=300)
    assert json.dumps(asdict(a)) == json.dumps(asdict(b))


def test_value_criterion_is_selective(params2):
    # hitting the broad attraction ball is easy for random search under
    # the default geometry; getting close to the minimum value is not
    report = run_solver(
        params2, "d", make_random_search(seed=5), budget=300, value_tol=0.05
    )
    assert report.radius_success_count > report.value_success_count
    assert 0 < report.value_success_count < 100


def test_out_of_domain_queries_filtered_and_charged(func9):
    objective = BudgetedObjective(func9, "d", budget=10, value_tol=1e-4)
    # outside the box, NaN, and the wrong length
    for k, point in enumerate(([5.0, 5.0], [float("nan"), 0.0], [0.0, 0.0, 0.0])):
        assert objective.value(point) == float("inf")
        assert objective.evaluations == 2 * k + 1
        assert objective.gradient(point) is None
        assert objective.evaluations == 2 * k + 2
    assert objective.best_value is None
    value = objective.value(func9.vertex)
    assert value == 0.0
    assert objective.best_value == 0.0


def test_success_by_radius_implies_feasible_best(params2):
    report = run_solver(params2, "d", make_random_search(seed=7), budget=100)
    lower = np.array(params2.domain_left)
    upper = np.array(params2.domain_right)
    for outcome in report.outcomes:
        if outcome.success_by_radius:
            point = np.array(outcome.best_point)
            assert np.all(point >= lower) and np.all(point <= upper)


def test_solver_exception_recorded(params2):
    calls = []

    def flaky(objective, func):
        calls.append(func.nf)
        if func.nf == 2:
            raise RuntimeError("boom")
        objective.value(func.global_minimizer)

    report = run_solver(params2, "d", flaky, budget=10)
    assert len(calls) == 100  # the sweep continued
    assert report.outcomes[1].solver_error == "RuntimeError: boom"
    assert not report.outcomes[1].success
    assert report.success_count == 99


def test_descent_from_inside_global_ball(params2):
    rng = np.random.default_rng(77)
    for family in ("d", "d2"):
        for nf in range(1, 101, 7):
            func = generate(params2, nf)
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            start = func.global_minimizer + 0.5 * params2.global_radius * direction
            start = np.clip(start, func.lower, func.upper)
            objective = BudgetedObjective(func, family, budget=100_000, value_tol=1e-4)
            _descend(objective, start, steps=700)
            distance = np.linalg.norm(objective.best_point - func.global_minimizer)
            assert distance <= 1e-6, (family, nf, distance)


def test_descent_stays_at_vertex(func9):
    objective = BudgetedObjective(func9, "d", budget=1000, value_tol=1e-4)
    _descend(objective, func9.vertex.copy(), steps=50)
    assert np.array_equal(objective.best_point, func9.vertex)


def test_multistart_deterministic_and_reasonable(params2):
    solver = make_multistart(starts=5, local_steps=50, seed=0)
    a = run_solver(params2, "d", solver, budget=4000)
    b = run_solver(params2, "d", solver, budget=4000)
    assert json.dumps(asdict(a)) == json.dumps(asdict(b))
    assert a.success_count > 30


def test_multistart_nd_falls_back_to_coordinate_search(params2):
    solver = make_multistart(starts=3, local_steps=40, seed=0)
    report = run_solver(params2, "nd", solver, budget=3000)
    assert report.success_count > 0
    assert all(o.solver_error is None for o in report.outcomes)


def test_gradient_refused_for_nd(func9):
    objective = BudgetedObjective(func9, "nd", budget=10, value_tol=1e-4)
    with pytest.raises(ValueError):
        objective.gradient(func9.vertex)


def test_report_files(tmp_path, params2):
    report = run_solver(params2, "d", oracle_solver, budget=5)
    # the CSV companion never overwrites the JSON report
    pairs = (
        ("a.json", "a.csv"),
        ("b.csv", "b.csv.summary.csv"),
        ("c", "c.summary.csv"),
        ("d.CSV", "d.CSV.summary.csv"),  # one file on a case-insensitive filesystem
    )
    for name, companion in pairs:
        write_report(report, tmp_path / name)
        data = json.loads((tmp_path / name).read_text())
        assert data["success_count"] == 100
        assert len(data["outcomes"]) == 100
        lines = (tmp_path / companion).read_text().splitlines()
        assert lines[0].startswith("nf,evaluations,best_value")
        assert len(lines) == 101


def _raises_on_function_3(objective, func):
    objective.value(func.vertex)
    if func.nf == 3:
        raise ValueError("boom on 3")
    objective.value(func.global_minimizer)


PINNED_REPORT_DIGESTS = {
    "oracle.json": "3ec787819891f8781fe2385428df6391b87bf771a76c1d47fd2890eaa80ce92b",
    "oracle.csv": "93aa1b2cd4827bbec901482ac3e730e624aca16dc6828cd18364fba5099d8559",
    "random.json": "a626e348de1fd94c370b6c4ebe86db7646a8712585f14c997568ebb8e4fe2aa0",
    "random.csv": "fed3f06e879d6a9baa3cbd1c46514e3cf683246c641c1f59e64ce71703b2772a",
    "multistart.json": "587825545f826b23038924aafd8959bff946def08a0281e324b5a6aed2c282b9",
    "multistart.csv": "54aa8e3dabbb0ebc5558ca213e12d6ae62be9a719f1a75ce75805b8e9aebd5db",
    "raises.json": "bf79c85c3c8af9a04e32a55158e73fd1b5df4d6c94990480c00eefa380bec722",
    "raises.csv": "6ef0f394831e910394fbc4b299437fa6e9576409e8d41d31d6c494edf0b3fabd",
}


@pytest.mark.skylakex
def test_report_bytes_are_pinned(tmp_path, params2):
    sweeps = {
        "oracle": ("d", oracle_solver, 3),
        "random": ("nd", make_random_search(4), 200),
        "multistart": ("d2", make_multistart(3, 20, 5), 200),
        "raises": ("d", _raises_on_function_3, 10),
    }
    digests = {}
    for name, (family, solver, budget) in sweeps.items():
        write_report(run_solver(params2, family, solver, budget), tmp_path / f"{name}.json")
        for suffix in (".json", ".csv"):
            blob = (tmp_path / f"{name}{suffix}").read_bytes()
            digests[name + suffix] = hashlib.sha256(blob).hexdigest()
    assert digests == PINNED_REPORT_DIGESTS


# the coordinate search of make_multistart on "nd", which the sweeps above
# do not reach
PINNED_ND_MULTISTART_DIGESTS = {
    ".json": "f7d729dcf24c47e999b757295d5166e8d85eb03f2e76d7b8eed964fcfa1e41da",
    ".csv": "825deb7deba3b332cbdab06562b3f215386aef37a4921db7f15d1b005df38273",
}


def test_nd_multistart_report_bytes_are_pinned(tmp_path, params2):
    report = run_solver(params2, "nd", make_multistart(3, 20, 5), 200)
    write_report(report, tmp_path / "multistart.json")
    digests = {
        suffix: hashlib.sha256((tmp_path / f"multistart{suffix}").read_bytes()).hexdigest()
        for suffix in PINNED_ND_MULTISTART_DIGESTS
    }
    assert digests == PINNED_ND_MULTISTART_DIGESTS


# the gradient descent of make_multistart on "d", through d_gradient
PINNED_D_MULTISTART_DIGESTS = {
    ".json": "736ffe30e06767ff1ee7397e0eb208716d9b0b70c7b6f035041e41152ad79e16",
    ".csv": "ca6330520a6d8888c86bec9e07068ac4d3c2f987b50a223bd11a8dfcba57caf3",
}


@pytest.mark.skylakex
def test_d_multistart_report_bytes_are_pinned(tmp_path, params2):
    report = run_solver(params2, "d", make_multistart(3, 20, 5), 200)
    write_report(report, tmp_path / "multistart.json")
    digests = {
        suffix: hashlib.sha256((tmp_path / f"multistart{suffix}").read_bytes()).hexdigest()
        for suffix in PINNED_D_MULTISTART_DIGESTS
    }
    assert digests == PINNED_D_MULTISTART_DIGESTS


# --------------------------------------------------------------------------
# one function's run


def _spend_budget(objective, func):
    while True:
        objective.value(func.vertex)


def _boom_after_two(objective, func):
    objective.value(func.vertex)
    objective.value(func.global_minimizer)
    raise ValueError("boom")


def _no_query(objective, func):
    pass


def test_run_spends_the_budget_without_error(func9):
    outcome = BudgetedObjective(func9, "d", budget=7, value_tol=1e-4).run(_spend_budget)
    assert outcome.solver_error is None
    assert outcome.evaluations == 7
    assert outcome.nf == 9


def test_run_records_a_solver_error(func9):
    outcome = BudgetedObjective(func9, "d", budget=10, value_tol=1e-4).run(_boom_after_two)
    assert outcome.solver_error == "ValueError: boom"
    assert outcome.evaluations == 2
    assert outcome.success and outcome.evals_to_success == 2
    assert outcome.best_point == func9.global_minimizer.tolist()


def test_run_without_queries_has_no_best(func9):
    outcome = BudgetedObjective(func9, "d2", budget=10, value_tol=1e-4).run(_no_query)
    assert outcome.best_point is None and outcome.best_value is None
    assert not (outcome.success or outcome.success_by_radius or outcome.success_by_value)
    assert outcome.evaluations == 0 and outcome.evals_to_success is None


@pytest.mark.parametrize(
    "family, solver", [("d", oracle_solver), ("nd", make_random_search(2)), ("d2", _boom_after_two)]
)
def test_run_matches_the_sweep(params2, func9, family, solver):
    outcome = BudgetedObjective(func9, family, budget=50, value_tol=1e-3).run(solver)
    report = run_solver(params2, family, solver, budget=50, value_tol=1e-3)
    assert outcome == report.outcomes[func9.nf - 1]


# --------------------------------------------------------------------------
# batched value queries


def _state(objective):
    best_point = None if objective.best_point is None else objective.best_point.tolist()
    return (
        objective.evaluations,
        objective.best_value,
        best_point,
        objective.evals_to_success,
    )


def _mixed_block(func, rng):
    """Rows that improve, fail to improve, hit the global ball and leave
    the box; the first row is infeasible."""
    span = func.upper - func.lower
    return np.vstack(
        [
            [func.upper + 1.0],  # out of the box
            func.lower + span * rng.random((3, func.dim)),
            [[np.nan] * func.dim],
            [func.vertex],
            [func.global_minimizer],
            [func.lower - 0.5],
            func.lower + span * rng.random((3, func.dim)),
            [func.global_minimizer],  # equal to the best: not an improvement
        ]
    )


@pytest.mark.parametrize("family", ["nd", "d", "d2"])
def test_values_match_scalar_queries(func9, family):
    rng = np.random.default_rng(11)
    span = func9.upper - func9.lower
    feasible = func9.lower + span * rng.random((50, func9.dim))
    mixed = _mixed_block(func9, rng)
    for block in (mixed, feasible):
        for warm_up in ([], [func9.upper], [func9.vertex]):
            batched = BudgetedObjective(func9, family, budget=100, value_tol=1e-4)
            scalar = BudgetedObjective(func9, family, budget=100, value_tol=1e-4)
            for point in warm_up:
                batched.value(point)
                scalar.value(point)
            got = batched.values(block)
            want = [scalar.value(row) for row in block]
            assert got.tolist() == want
            assert _state(batched) == _state(scalar)
            if block is mixed:
                assert scalar.evals_to_success is not None


def test_values_truncate_at_budget(func9):
    rng = np.random.default_rng(12)
    span = func9.upper - func9.lower
    block = func9.lower + span * rng.random((8, func9.dim))
    block[6] = func9.global_minimizer  # beyond the budget: never evaluated
    batched = BudgetedObjective(func9, "d", budget=5, value_tol=1e-4)
    scalar = BudgetedObjective(func9, "d", budget=5, value_tol=1e-4)
    batched.value(block[0])
    scalar.value(block[0])
    with pytest.raises(BudgetExhausted):
        batched.values(block[1:])
    for row in block[1:5]:
        scalar.value(row)
    assert batched.evaluations == 5
    assert _state(batched) == _state(scalar)
    assert batched.best_value > func9.params.global_value
    # a call once the budget is spent is refused and charges nothing
    with pytest.raises(BudgetExhausted):
        batched.values(block[:1])
    assert _state(batched) == _state(scalar)


def test_values_reject_bad_shape_uncharged(func9):
    objective = BudgetedObjective(func9, "d", budget=10, value_tol=1e-4)
    for block in (
        func9.vertex,
        np.zeros((3, func9.dim + 1)),
        np.zeros((3, func9.dim, 1)),
    ):
        with pytest.raises(ValueError):
            objective.values(block)
        assert objective.evaluations == 0


RAGGED, STRINGS = [[0.0], [0.0, 0.0]], ["a", "b"]
MALFORMED_POINTS = (RAGGED, STRINGS, [[0.0, 0.0]], np.zeros((1, 2, 1)))
INFEASIBLE_POINTS = ([5.0, 5.0], [np.nan, 0.0], [0.0, 0.0, 0.0])  # the box is in R^2


@pytest.mark.parametrize(
    "query, malformed, infeasible, answer",
    [
        ("value", MALFORMED_POINTS, INFEASIBLE_POINTS, math.inf),
        ("gradient", MALFORMED_POINTS, INFEASIBLE_POINTS, None),
        (
            "values",
            ([RAGGED], [STRINGS], [0.0, 0.0], np.zeros((1, 2, 1))),
            ([[5.0, 5.0]], [[np.nan, 0.0]]),
            [math.inf],
        ),
    ],
    ids=["value", "gradient", "values"],
)
def test_one_query_rule(func9, query, malformed, infeasible, answer):
    # the evaluator decides: input numpy cannot read as a float point (a
    # block, for values) raises ValueError uncharged, even once the budget
    # is spent; a query outside the box answers inf or None for one unit
    objective = BudgetedObjective(func9, "d", budget=len(infeasible), value_tol=1e-4)
    ask = getattr(objective, query)

    def refused_uncharged():
        for x in malformed:
            charged = objective.evaluations
            with pytest.raises(ValueError):
                ask(x)
            assert objective.evaluations == charged

    refused_uncharged()
    for k, x in enumerate(infeasible, 1):
        result = ask(x)
        assert (list(result) if query == "values" else result) == answer
        assert objective.evaluations == k
    refused_uncharged()
    with pytest.raises(BudgetExhausted):
        ask([func9.vertex] if query == "values" else func9.vertex)
    assert objective.best_value is None


NON_NUMBERS = (object(), [{}, 0.0])  # numpy's TypeError, where a ragged list is its ValueError


@pytest.mark.parametrize(
    "query",
    [
        lambda func, x: evaluate(func, x, "d2"),
        lambda func, x: eval_many(func, "d2", x),
        locate_ball,
        d2_hessian,
    ],
    ids=["evaluate", "eval_many", "locate_ball", "d2_hessian"],
)
def test_a_non_number_is_a_value_or_type_error(func9, query):
    for x in NON_NUMBERS:
        with pytest.raises((ValueError, TypeError)):
            query(func9, x)


@pytest.mark.parametrize("query", ["value", "gradient", "values"])
def test_a_non_number_query_is_not_charged(func9, query):
    objective = BudgetedObjective(func9, "d", budget=1, value_tol=1e-4)
    ask = getattr(objective, query)
    for spent in (0, 1):
        for x in NON_NUMBERS:
            with pytest.raises((ValueError, TypeError)):
                ask(x)
            assert objective.evaluations == spent
        if not spent:
            objective.value(func9.upper + 1.0)  # one unit for an infeasible point
    with pytest.raises(BudgetExhausted):
        objective.value(func9.vertex)
    assert objective.evaluations == 1 and objective.best_value is None


def test_harness_states_no_query_rule():
    # harness.py hands every query to the evaluator unconverted
    tree = ast.parse(inspect.getsource(harness))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"shape", "ndim", "asarray", "ascontiguousarray"}


def test_evals_to_success_outlives_a_lower_best(func9):
    # evals_to_success is the first evaluation at which the best-so-far met
    # either criterion; a later, lower best outside the global ball and
    # above value_tol fails the outcome but keeps it
    axis = (func9.global_minimizer - func9.vertex) / np.linalg.norm(
        func9.global_minimizer - func9.vertex
    )
    in_ball = func9.global_minimizer + 0.9 * func9.params.global_radius * axis
    values = []

    def solver(objective, func):
        values.extend((objective.value(in_ball), objective.value(func.vertex)))

    outcome = BudgetedObjective(func9, "d", budget=2, value_tol=1e-4).run(solver)
    assert values == [pytest.approx(0.89), 0.0]
    assert outcome.best_value == 0.0 and outcome.best_point == func9.vertex.tolist()
    assert not outcome.success
    assert outcome.evals_to_success == 1


def _scalar_random_search(seed):
    """The one-point-per-query random search that batching replaced."""

    def solver(objective, func):
        rng = np.random.default_rng([seed, func.nf])
        span = objective.upper - objective.lower
        while True:
            objective.value(objective.lower + span * rng.random(objective.dim))

    return solver


@pytest.mark.parametrize(
    "family, budget", [("nd", 1), ("nd", 7), ("d", 1), ("d", 7), ("d2", 1), ("d2", 7), ("nd", 1000)]
)
def test_random_search_matches_scalar_reference(tmp_path, params2, family, budget):
    batched = run_solver(params2, family, make_random_search(seed=4), budget)
    scalar = run_solver(params2, family, _scalar_random_search(4), budget)
    assert asdict(batched) == asdict(scalar)
    write_report(batched, tmp_path / "batched.json")
    write_report(scalar, tmp_path / "scalar.json")
    for suffix in (".json", ".csv"):
        assert (tmp_path / f"batched{suffix}").read_bytes() == (
            tmp_path / f"scalar{suffix}"
        ).read_bytes()


@pytest.mark.parametrize("dim", range(1, 21))
def test_descent_step_length_is_np_linalg_norm(dim):
    # _descend spells the gradient norm as np.linalg.norm computes it for a
    # 1-D float vector, sqrt(g.dot(g)): the same ddot, so the same bits
    rng = np.random.default_rng(dim)
    gradients = [scale * rng.standard_normal(dim) for scale in (1.0, 1e-3, 1e200, 1e-170, 1e-320)]
    gradients += [np.zeros(dim), np.full(dim, np.nan), np.where(np.arange(dim) == 0, np.nan, 1.0)]
    for grad in gradients:
        with np.errstate(over="ignore"):  # 1e200 squared: both give inf
            ours, numpys = math.sqrt(grad.dot(grad)), float(np.linalg.norm(grad))
        if math.isnan(numpys):
            assert math.isnan(ours)
        else:
            assert struct.pack("<d", ours) == struct.pack("<d", numpys), grad
