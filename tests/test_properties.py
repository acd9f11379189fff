"""Property tests: batch evaluation against the scalar evaluators, and
block queries against one-at-a-time queries.

Examples are derandomized and their number bounded, so every run checks
the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basingen import eval_d, eval_d2, eval_many, eval_nd
from basingen.harness import BudgetExhausted, BudgetedObjective
from basingen.params import PRECISION

EVALUATORS = {"nd": eval_nd, "d": eval_d, "d2": eval_d2}

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)

unit = st.floats(-1.0, 1.0)


def draw_point(data, func):
    """A feasible point of `func`: uniform in the box, at or near a ball
    center, on a ball boundary give or take a few ulps, or on a box face."""
    lower, upper, dim = func.lower, func.upper, func.dim
    kind = data.draw(st.sampled_from(["uniform", "center", "boundary", "face"]))
    if kind in ("uniform", "face"):
        x = np.array([data.draw(st.floats(lower[k], upper[k])) for k in range(dim)])
        if kind == "face":
            axis = data.draw(st.integers(0, dim - 1))
            x[axis] = data.draw(st.sampled_from([lower[axis], upper[axis]]))
        return x
    row = data.draw(st.integers(1, func.num_minima - 1))
    center = func.minima.local_min[row]
    direction = np.array(data.draw(st.lists(unit, min_size=dim, max_size=dim)))
    norm = np.linalg.norm(direction)
    direction = direction / norm if norm > 0.0 else np.eye(dim)[0]
    if kind == "center":
        scale = data.draw(st.sampled_from([0.0, 0.5 * PRECISION, 2.0 * PRECISION]))
        x = center + scale * direction
    else:
        x = center + float(func.minima.rho[row]) * direction
        ulps = data.draw(st.integers(-3, 3))
        target = center if ulps < 0 else 2.0 * x - center
        for _ in range(abs(ulps)):
            x = np.nextafter(x, target)
    return np.clip(x, lower, upper)


@PROPERTY
@given(data=st.data())
def test_eval_many_equals_scalar_evaluators(default_class, func5, data):
    func = data.draw(st.sampled_from([*default_class, func5]))
    count = data.draw(st.integers(1, 6))
    points = np.array([draw_point(data, func) for _ in range(count)])
    for family, evaluator in EVALUATORS.items():
        batch = eval_many(func, family, points)
        assert batch.tolist() == [evaluator(func, x) for x in points], family


def _state(objective):
    best_point = None if objective.best_point is None else objective.best_point.tolist()
    return objective.evaluations, objective.best_value, best_point, objective.evals_to_success


@PROPERTY
@given(data=st.data())
def test_block_queries_equal_single_queries(default_class, data):
    func = data.draw(st.sampled_from(default_class))
    family = data.draw(st.sampled_from(sorted(EVALUATORS)))
    budget = data.draw(st.integers(1, 12))
    rows = []
    for _ in range(data.draw(st.integers(0, 10))):
        kind = data.draw(st.sampled_from(["feasible", "outside", "nan", "global"]))
        if kind == "feasible":
            rows.append(draw_point(data, func))
        elif kind == "outside":
            rows.append(func.upper + data.draw(st.floats(1e-9, 1.0)))
        elif kind == "nan":
            rows.append(np.where(np.arange(func.dim) == 0, np.nan, func.vertex))
        else:
            rows.append(func.global_minimizer)
    block = np.array(rows).reshape(-1, func.dim)
    warm_up = data.draw(st.sampled_from([None, func.vertex, func.upper + 1.0]))

    batched = BudgetedObjective(func, family, budget, 1e-4)
    scalar = BudgetedObjective(func, family, budget, 1e-4)
    if warm_up is not None:
        batched.value(warm_up)
        scalar.value(warm_up)
    left = budget - scalar.evaluations
    want = [scalar.value(row) for row in block[:left]]
    if left == 0 or len(block) > left:  # the block is cut off at the budget
        with pytest.raises(BudgetExhausted):
            batched.values(block)
    else:
        assert batched.values(block).tolist() == want
    assert _state(batched) == _state(scalar)
