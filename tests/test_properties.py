"""Property tests: batch evaluation against the scalar evaluators, block
queries against one-at-a-time queries, notebooks with one leaf edited, and
generation over boxes and values of every magnitude double precision holds.

Examples are derandomized and their number bounded, so every run checks
the same cases.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basingen import (
    ClassParams,
    NotebookError,
    ParameterError,
    eval_d,
    eval_d2,
    eval_many,
    eval_nd,
    export_class,
    generate,
    ground_truth_problems,
    load_class,
)
from basingen.harness import BudgetExhausted, BudgetedObjective
from basingen.notebook import _document
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


@pytest.fixture(scope="module")
def float32_class(params2):
    """The default 2-D class with every real value spelled as np.float32."""
    reals = ("global_value", "global_dist", "global_radius", "paraboloid_min", "delta_max", "gap")
    spelled = {name: np.float32(getattr(params2, name)) for name in reals}
    for side in ("domain_left", "domain_right"):
        spelled[side] = tuple(map(np.float32, getattr(params2, side)))
    params = dataclasses.replace(params2, **spelled)
    return [generate(params, nf) for nf in range(1, 101)]


@PROPERTY
@given(data=st.data())
def test_eval_many_equals_scalar_evaluators(default_class, func5, float32_class, data):
    func = data.draw(st.sampled_from([*default_class, func5, *float32_class]))
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


# --------------------------------------------------------------------------
# notebooks with one leaf edited


@pytest.fixture(scope="module")
def notebook_text(tmp_path_factory, params2):
    path = tmp_path_factory.mktemp("leaf") / "class.json"
    export_class(params2, "d2", path)
    return path.read_text()


def _paths(node, path=()):
    """Every path into a JSON document, the root's included."""
    yield path
    children = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _at(document, path):
    for key in path:
        document = document[key]
    return document


def _same_json(a, b, class_value=False):
    """Equal JSON values, where an int equals the float it reads as, and
    a bool equals no number.  A number under "class_params" is compared as
    ClassParams stores it, a zero of either sign as 0.0, so without its
    sign; every other number keeps its sign."""
    if type(a) is dict or type(b) is dict:
        same_keys = type(a) is type(b) and a.keys() == b.keys()
        return same_keys and all(
            _same_json(a[k], b[k], class_value or k == "class_params") for k in a
        )
    if type(a) is list or type(b) is list:
        return (
            type(a) is type(b) and len(a) == len(b)
            and all(_same_json(x, y, class_value) for x, y in zip(a, b))
        )
    if type(a) is str or type(b) is str:
        return a == b
    numbers = (int, float)
    return (
        type(a) in numbers and type(b) in numbers and a == b
        and (class_value or math.copysign(1.0, a) == math.copysign(1.0, b))
    )


LEAF_VALUES = st.one_of(
    st.sampled_from([1e300, -1e300, 0.0, -0.0, 5e-324]),
    st.sampled_from([0, 1, 2, -1, 101, 2**70]),
    st.booleans(),
    st.just("0.5"),
    st.none(),
    st.just([0.5]),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_leaf_edit_loads_or_is_a_notebook_error(notebook_text, tmp_path_factory, data):
    document = json.loads(notebook_text)
    op = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "replace":
        wanted = (p for p in _paths(document) if type(_at(document, p)) not in (dict, list))
    elif op == "delete":
        wanted = (p for p in _paths(document) if p and type(p[-1]) is str)
    else:
        wanted = (p for p in _paths(document) if type(_at(document, p)) is dict)
    # draw the kind of path first (list positions as *), so that the few
    # class-level leaves are drawn as often as the many minimizer leaves
    kinds = {}
    for path in wanted:
        kinds.setdefault(tuple("*" if type(k) is int else k for k in path), []).append(path)
    path = data.draw(st.sampled_from(kinds[data.draw(st.sampled_from(sorted(kinds)))]))
    edited = json.loads(notebook_text)
    if op == "add":  # an unknown key is ignored
        _at(edited, path)["extra"] = 1
    elif op == "delete":
        del _at(edited, path[:-1])[path[-1]]
    else:
        _at(edited, path[:-1])[path[-1]] = data.draw(LEAF_VALUES)
    # the load is a NotebookError, or audit-clean records that write back as
    # the edited document, and never a RuntimeWarning
    file = tmp_path_factory.getbasetemp() / "edited.json"
    file.write_text(json.dumps(edited))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            loaded = load_class(file)
        except NotebookError:
            return
    assert not any(ground_truth_problems(func) for func in loaded.functions)
    assert _same_json(_document(loaded), document if op == "add" else edited)



# --------------------------------------------------------------------------
# generation


def _power(data, low, high):
    return 10.0 ** data.draw(st.floats(low, high))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_generate_is_clean_or_a_parameter_error(data):
    dim = data.draw(st.integers(2, 5))
    half = np.array([_power(data, -3, 17) for _ in range(dim)])
    offset = data.draw(st.sampled_from([0.0, -1.0, 1.0])) * _power(data, 0, 17)
    left, right = offset - half, offset + half
    half_side = 0.5 * float((right - left).min())
    global_dist = half_side * data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    global_radius = 0.5 * global_dist * data.draw(st.floats(0.0, 1.0, exclude_min=True))
    paraboloid_min = data.draw(st.sampled_from([0.0, -1.0, 1.0])) * _power(data, -3, 17)
    params = ClassParams(
        dim=dim,
        num_minima=data.draw(st.integers(2, 20)),
        global_value=paraboloid_min - _power(data, -3, 17),
        global_dist=global_dist,
        global_radius=global_radius,
        domain_left=tuple(left.tolist()),
        domain_right=tuple(right.tolist()),
        paraboloid_min=paraboloid_min,
    )
    # a quantity lost in rounding is the caller's ParameterError, never an
    # internal RuntimeError, and no step overflows or divides by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            func = generate(params, data.draw(st.integers(1, 100)))
        except ParameterError:
            return
    assert ground_truth_problems(func) == []
