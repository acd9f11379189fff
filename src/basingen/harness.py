"""Reference benchmarking loop: run a solver against a full class and
score it against the known ground truth.

Two success criteria are tracked separately and combined with "or":

* radius: the best feasible query lies within the global attraction
  radius of some listed global minimizer;
* value: the best feasible value is within ``value_tol`` of the global
  minimum value.

The harness owns the evaluation counter and the evaluator the query rule:
every value or gradient query charges one unit against the budget, points
outside the box (NaN or of the wrong length) answer +inf or None and are
still charged, a query that is no vector of floats raises ValueError or
TypeError uncharged, and exhausting the budget stops the solver.

``BudgetedObjective.run(solver)`` owns one function's run: it calls
``solver(objective, func)``, ends normally on ``BudgetExhausted``, records
any other exception as the outcome's ``solver_error`` and returns the
``FunctionOutcome``; ``run_solver`` sweeps a class through it.

``BudgetedObjective.values(X)`` answers a whole ``(k, dim)`` block of
value queries with one ``eval_many`` call on its feasible rows.  It
charges one unit per row, evaluates only the rows the budget still
covers and then raises ``BudgetExhausted`` if any row was cut off;
infeasible rows answer +inf.  The best point, the best value and the
evaluation at which success was first reached come out exactly as if
the rows had been sent through ``value()`` one at a time.  Random search
draws its points in such blocks.

``BudgetedObjective`` (and so ``run_solver``, before it generates
anything) takes a known family, an integer ``budget`` >= 1 and a finite
``value_tol`` >= 0; the solver factories take integers ``seed``,
``local_steps`` >= 0 and ``starts`` >= 1.  A numpy integer is an
integer, a bool is not.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .evaluate import (
    DerivEvalError,
    OutOfDomainError,
    _block,
    _in_box,
    _require_family,
    d2_gradient,
    d_gradient,
    eval_many,
    evaluate,
)
from .generator import GeneratedFunction, _class_functions, _einsum
from .notebook import summary_path_for
from .params import ClassParams, _as_float, _require_count

VALUE_TOL_SCALE = 1e-4  # of the paraboloid-minimum-to-global-value drop

# rows per random-search block: one block covers the usual budgets, and
# the cap keeps memory bounded whatever the budget
_RANDOM_BLOCK = 1 << 16


def _objective_arguments(family: str, budget, value_tol) -> tuple[str, int, float]:
    """The arguments of a :class:`BudgetedObjective`, checked: a known
    family, an integer budget >= 1 and a real, finite value_tol >= 0
    (a bool is not one), returned as an int and a float."""
    _require_family(family)
    budget = _require_count("budget", budget, 1)
    value_tol = _as_float(value_tol)
    if not (isinstance(value_tol, float) and 0.0 <= value_tol < math.inf):  # NaN fails too
        raise ValueError(f"value_tol must be finite and >= 0, got {value_tol!r}")
    return family, budget, value_tol


class BudgetExhausted(Exception):
    """Control-flow signal: the per-function evaluation budget is spent."""


class BudgetedObjective:
    """Budgeted, domain-filtered view of one generated function.

    Solvers see only this object (plus, for oracle-style replay, the
    ground truth record passed alongside).  Tracks the best feasible
    query and the first evaluation at which the best-so-far satisfied
    either success criterion.  Raises ``ValueError`` for an unknown
    family, a budget that is not an integer >= 1, or a ``value_tol``
    that is not a finite real number >= 0.
    """

    def __init__(
        self,
        func: GeneratedFunction,
        family: str,
        budget: int,
        value_tol: float,
    ):
        family, budget, value_tol = _objective_arguments(family, budget, value_tol)
        self._func = func
        self.family = family
        self.budget = budget
        self.lower = func.lower
        self.upper = func.upper
        self.dim = func.dim
        self.supports_gradient = family != "nd"
        self.evaluations = 0
        self.best_value: float | None = None
        self.best_point: np.ndarray | None = None
        self.evals_to_success: int | None = None
        self._value_threshold = func.params.global_value + value_tol
        self._radius = func.params.global_radius
        self._global_points = func.global_minimizers

    def _charge(self) -> None:
        if self.evaluations >= self.budget:
            raise BudgetExhausted
        self.evaluations += 1

    def _note_best(self, point, value: float, evaluation: int) -> None:
        if value < (math.inf if self.best_value is None else self.best_value):
            self.best_point = point = np.array(point, dtype=float)
            self.best_value = value
            if self.evals_to_success is None and (
                value <= self._value_threshold or self._hits_global_ball(point)
            ):
                self.evals_to_success = evaluation

    def _hits_global_ball(self, point: np.ndarray) -> bool:
        diffs = self._global_points - point
        dist = np.sqrt(_einsum("ij,ij->i", diffs, diffs))
        return bool((dist <= self._radius).any())

    def value(self, x) -> float:
        """Objective value; +inf for infeasible queries (still charged)."""
        try:
            val = evaluate(self._func, x, self.family)
        except OutOfDomainError:
            val = math.inf
        self._charge()
        self._note_best(x, val, self.evaluations)
        return val

    def values(self, X) -> np.ndarray:
        """Objective values at the rows of a ``(k, dim)`` block, one
        budget unit per row; +inf for infeasible rows (still charged).

        Only the rows the budget still covers are evaluated and charged;
        if any row is cut off, or the budget is already spent,
        :class:`BudgetExhausted` is raised after the covered rows have
        been recorded.  A block of another shape raises ``ValueError`` uncharged.
        """
        points = _block(self._func, X)
        start = self.evaluations
        if start >= self.budget:
            raise BudgetExhausted
        block = points[: self.budget - start]
        feasible = _in_box(self._func, block).all(axis=1)
        vals = np.full(len(block), math.inf)
        vals[feasible] = eval_many(self._func, self.family, block[feasible])
        # rows that strictly lower the running minimum, in query order;
        # value() would have recorded exactly these
        best = math.inf if self.best_value is None else self.best_value
        before = np.minimum.accumulate(np.concatenate(([best], vals[:-1])))
        for i in np.flatnonzero(vals < before):
            self._note_best(block[i], float(vals[i]), start + int(i) + 1)
        self.evaluations = start + len(block)
        if len(block) < len(points):
            raise BudgetExhausted
        return vals

    def gradient(self, x) -> np.ndarray | None:
        """Exact gradient; None for infeasible queries (still charged)."""
        if not self.supports_gradient:
            raise ValueError("gradient queries are unavailable for the nd family")
        try:
            grad = (d_gradient if self.family == "d" else d2_gradient)(self._func, x)
        except DerivEvalError:
            grad = None
        self._charge()
        return grad

    def run(self, solver) -> FunctionOutcome:
        """Call ``solver(self, func)`` and return the outcome of the final
        best feasible query.  Spending the budget ends the run normally;
        any other solver exception is recorded as ``solver_error``."""
        error = None
        try:
            solver(self, self._func)
        except BudgetExhausted:
            pass
        except Exception as exc:  # noqa: BLE001 - solver faults are data
            error = f"{type(exc).__name__}: {exc}"
        found = self.best_point is not None
        by_radius = found and self._hits_global_ball(self.best_point)
        by_value = found and self.best_value <= self._value_threshold
        return FunctionOutcome(
            nf=self._func.nf,
            evaluations=self.evaluations,
            best_value=self.best_value,
            best_point=self.best_point.tolist() if found else None,
            success=by_radius or by_value,
            success_by_radius=by_radius,
            success_by_value=by_value,
            evals_to_success=self.evals_to_success,
            solver_error=error,
        )


@dataclass
class FunctionOutcome:
    """One function's run.  ``evals_to_success`` is the first evaluation at which
    the best-so-far met either criterion; a later, lower best can leave the global
    ball, so a failed outcome may carry it too (run_solver's mean and median skip it)."""

    nf: int
    evaluations: int
    best_value: float | None
    best_point: list[float] | None
    success: bool
    success_by_radius: bool
    success_by_value: bool
    evals_to_success: int | None
    solver_error: str | None = None


@dataclass
class SolverReport:
    """Per-function outcomes for one class sweep plus the aggregates."""

    function_type: str
    budget: int
    value_tol: float
    success_count: int
    radius_success_count: int
    value_success_count: int
    mean_evals_to_success: float | None
    median_evals_to_success: float | None
    outcomes: list[FunctionOutcome]


def run_solver(
    params: ClassParams,
    family: str,
    solver,
    budget: int,
    value_tol: float | None = None,
) -> SolverReport:
    """Benchmark `solver` on all 100 functions of a class, one
    :meth:`BudgetedObjective.run` per function: a solver exception is
    recorded as a per-function failure and the sweep continues.  An
    invalid class is a :class:`ParameterError` before anything else.
    Each function is taken as :func:`generate` returns it just before its
    run: a record the caller still holds is reused, any other is generated
    then, so one that cannot be generated raises after the runs before it.
    """
    functions = _class_functions(params)  # checks the class, whose values value_tol reads
    if value_tol is None:
        value_tol = VALUE_TOL_SCALE * (params.paraboloid_min - params.global_value)
    # the objective's checks, once before anything is generated
    family, budget, value_tol = _objective_arguments(family, budget, value_tol)

    outcomes = [
        BudgetedObjective(func, family, budget, value_tol).run(solver)
        for func in functions
    ]

    # a successful outcome always has one: its best met a criterion when noted
    hits = [o.evals_to_success for o in outcomes if o.success]
    return SolverReport(
        function_type=family,
        budget=budget,
        value_tol=value_tol,
        success_count=sum(o.success for o in outcomes),
        radius_success_count=sum(o.success_by_radius for o in outcomes),
        value_success_count=sum(o.success_by_value for o in outcomes),
        mean_evals_to_success=statistics.fmean(hits) if hits else None,
        median_evals_to_success=float(statistics.median(hits)) if hits else None,
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# built-in solvers


def oracle_solver(objective: BudgetedObjective, func: GeneratedFunction) -> None:
    """Replay the stored global minimizer: one evaluation, always succeeds."""
    objective.value(func.global_minimizer)


def make_random_search(seed: int = 0):
    """Pure random search; deterministic per (seed, function number)."""
    seed = _require_count("seed", seed, 0)

    def solver(objective: BudgetedObjective, func: GeneratedFunction) -> None:
        rng = np.random.default_rng([seed, func.nf])
        span = objective.upper - objective.lower
        while True:  # stopped by the budget
            rows = min(objective.budget - objective.evaluations, _RANDOM_BLOCK)
            objective.values(objective.lower + span * rng.random((rows, objective.dim)))

    return solver


def _descend(objective: BudgetedObjective, x: np.ndarray, steps: int) -> None:
    """Gradient descent with backtracking (step halving on no decrease),
    clipped to the box.  The first trial displacement of every iteration
    is capped at a quarter of the smallest domain side so the local phase
    stays local; exploration is the restarts' job."""
    reach = 0.25 * float((objective.upper - objective.lower).min())
    fx = objective.value(x)
    if not math.isfinite(fx):
        return
    for _ in range(steps):
        grad = objective.gradient(x)
        if grad is None:
            return
        # np.linalg.norm's own spelling for a 1-D float vector: one BLAS ddot
        gnorm = math.sqrt(grad.dot(grad))
        if gnorm < 1e-12:
            return
        step = min(1.0, reach / gnorm)
        improved = False
        while step * gnorm > 1e-13:
            # np.maximum, then np.minimum, as always: np.clip keeps a signed
            # zero at a bound (see _coordinate_search), so a best point could change
            candidate = x - step * grad
            np.maximum(candidate, objective.lower, out=candidate)
            np.minimum(candidate, objective.upper, out=candidate)
            fc = objective.value(candidate)
            if fc < fx:
                x, fx = candidate, fc
                improved = True
                break
            step *= 0.5
        if not improved:
            return


def _coordinate_search(objective: BudgetedObjective, x: np.ndarray, steps: int) -> None:
    """Axis-wise pattern search for the non-differentiable family."""
    fx = objective.value(x)
    if not np.isfinite(fx):
        return
    step = 0.25 * (objective.upper - objective.lower)
    for _ in range(steps):
        improved = False
        for axis in range(objective.dim):
            for direction in (1.0, -1.0):
                candidate = x.copy()
                # on a scalar, builtin min and max keep a signed zero at a
                # bound as np.clip does; np.minimum and np.maximum do not
                candidate[axis] = min(
                    max(candidate[axis] + direction * step[axis], objective.lower[axis]),
                    objective.upper[axis],
                )
                fc = objective.value(candidate)
                if fc < fx:
                    x, fx = candidate, fc
                    improved = True
        if not improved:
            step *= 0.5
            if float(step.max()) < 1e-9:
                return


def make_multistart(starts: int = 10, local_steps: int = 100, seed: int = 0):
    """Uniform random restarts with a gradient-descent local phase
    (coordinate search on the nd family); deterministic per
    (seed, function number)."""
    starts = _require_count("starts", starts, 1)
    local_steps = _require_count("local_steps", local_steps, 0)
    seed = _require_count("seed", seed, 0)

    def solver(objective: BudgetedObjective, func: GeneratedFunction) -> None:
        rng = np.random.default_rng([seed, func.nf])
        span = objective.upper - objective.lower
        for _ in range(starts):
            start = objective.lower + span * rng.random(objective.dim)
            if objective.supports_gradient:
                _descend(objective, start, local_steps)
            else:
                _coordinate_search(objective, start, local_steps)

    return solver


# ---------------------------------------------------------------------------
# report serialization


_CSV_FIELDS = [f.name for f in fields(FunctionOutcome) if f.name != "best_point"]


def write_report(report: SolverReport, path) -> None:
    """Write the full report as JSON to `path` and a per-function CSV summary
    to ``summary_path_for(path, ".csv")``: r.json -> r.csv, r.csv -> r.csv.summary.csv."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")
    with open(summary_path_for(path, ".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for o in report.outcomes:
            values = (getattr(o, name) for name in _CSV_FIELDS)
            writer.writerow([int(v) if isinstance(v, bool) else v for v in values])
