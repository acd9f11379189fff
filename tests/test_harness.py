import json
from dataclasses import asdict

import numpy as np
import pytest

from basingen import (
    eval_many,
    evaluate,
    export_class,
    generate,
    make_multistart,
    make_random_search,
    oracle_solver,
    run_solver,
    write_report,
)
from basingen import harness
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


@pytest.mark.parametrize("value_tol", [float("nan"), float("inf"), -1e-3])
def test_bad_value_tol_rejected_before_generation(params2, monkeypatch, value_tol):
    monkeypatch.setattr(harness, "generate", None)  # a call would raise TypeError
    with pytest.raises(ValueError, match="value_tol"):
        run_solver(params2, "d", oracle_solver, budget=10, value_tol=value_tol)


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
    json_path = tmp_path / "report.json"
    write_report(report, json_path)
    data = json.loads(json_path.read_text())
    assert data["success_count"] == 100
    assert len(data["outcomes"]) == 100
    csv_path = tmp_path / "report.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("nf,evaluations,best_value")
    assert len(lines) == 101


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
