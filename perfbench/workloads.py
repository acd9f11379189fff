"""Benchmark worker: set up one workload, run it in a closed loop for a
fixed time, check every output, and print the result as one JSON line.

``perfbench/run.py`` starts this file in fresh single-threaded
processes; it is not meant to be run by hand.  Protocol on standard
output: the line ``ready`` as soon as the workload's inputs exist (the
runner times set-up from process start to that line), then, unless
``--setup-only`` is given, one JSON line with the figures, counts and
check results.  With ``--trace`` the worker installs the timing shims
of tracing.py and runs exactly one round.

Class parameters are fixed.  The workload seed drives only the point
blocks, the solver seeds and which function of a class is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# sha256 over the per-function digests (see class_digest) of each class
# the classgen workload generates.  Generation is promised to be
# reproducible bit for bit, so a different digest is a failed check.
PINNED_DIGESTS = {
    "2d10": "9e22ce817ec10e68402ca72b4a7c2b8988066e21e9c4e1e8ffcb83d3c309077a",
    "10d100": "9d7f366a9f114a63f7fb58678c6ec879869c4fa72d397e440f34c62cc7080b4f",
    "2d3": "e402b830b47810384da31dcfdac2cef7cc6e0c11eae768be3fb809097ce54ca0",
    "3d5": "d5efeec19345f419209432602a56106943851902043b0bc9637e981ec4f2c497",
}

# Sizes of every input.  "full" is the measured benchmark; "tiny" runs
# the same code paths at a size a smoke test can afford.
PROFILES = {
    "full": {
        "classes": (("2d10", 2, 10), ("10d100", 10, 100)),
        "budget": 1000,
        "starts": 10,
        "local_steps": 100,
        "batch5": (5, 30, 1 << 18),
        "batch20": (20, 500, 1 << 14),
        "deriv_points": 1024,
        "check_points": 256,
    },
    "tiny": {
        "classes": (("2d3", 2, 3), ("3d5", 3, 5)),
        "budget": 20,
        "starts": 2,
        "local_steps": 5,
        "batch5": (3, 5, 1 << 10),
        "batch20": (4, 12, 1 << 8),
        "deriv_points": 16,
        "check_points": 16,
    },
}

BATCH_FAMILIES = ("nd", "d", "d2")
BATCH20_FAMILY = "d2"
# Scalar and batch evaluation may differ in the last bits.  Values near 0
# come from cancellation of terms of the size of the class's global
# value, so the tolerance is relative to the larger of the value and
# that scale.
EVAL_RTOL = 1e-12


def import_basingen():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "basingen" / "__init__.py").is_file():
        sys.exit(f"perfbench: no basingen sources under {src}")
    sys.path.insert(0, str(src))
    import basingen

    if Path(basingen.__file__).resolve().parent != (src / "basingen").resolve():
        sys.exit(f"perfbench: imported basingen from {basingen.__file__}, not {src}")
    return basingen


class Tally:
    """Operations and correctness checks attempted and failed."""

    def __init__(self):
        self.ops = 0
        self.failed_ops = 0
        self.checks = 0
        self.failed_checks = 0
        self.messages: list[str] = []

    def check(self, ok, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failed_checks += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def make_class(bg, dim: int, num_minima: int):
    """The default class for `dim` (box, global value, distance and
    radius), with `num_minima` minima."""
    base = bg.default_params(dim)
    return bg.ClassParams(
        dim=dim,
        num_minima=num_minima,
        global_value=base.global_value,
        global_dist=base.global_dist,
        global_radius=base.global_radius,
        domain_left=base.domain_left,
        domain_right=base.domain_right,
    )


def function_digest(func) -> bytes:
    """sha256 over every stored field of one generated function."""
    h = hashlib.sha256()
    table = func.minima
    for arr in (table.local_min, table.f, table.rho, table.peak, table.w_rho):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(func.glob.gm_index, dtype="<i8").tobytes())
    h.update(np.array([func.delta], dtype="<f8").tobytes())
    h.update(np.array([func.nf, func.glob.num_global_minima], dtype="<i8").tobytes())
    return h.digest()


def class_digest(functions) -> str:
    return hashlib.sha256(b"".join(function_digest(f) for f in functions)).hexdigest()


def untraced(tracer):
    """Context in which the benchmark's own checks record no spans."""
    return tracer.pause() if tracer else nullcontext()


# On the shared 2-vCPU VM this benchmark was tuned on, the speed for the
# same work drifts by up to 1.9x over tens of seconds, from load outside
# the process.  The drift is common to work of one kind.  Every timed
# call is therefore bracketed by a fixed probe of its kind and reported
# at the reference speed, where the probe takes PROBE_REF_S[kind].  The
# "interp" probe runs interpreter loops and small numpy calls, like the
# generator, harness, notebook and scalar evaluators; the "array" probe
# runs the whole-block subtract-and-reduce of eval_many.  Neither calls
# basingen code.
PROBE_REF_S = {"interp": 0.024, "array": 0.020}
_PROBE_BLOCK = np.linspace(0.0, 1.0, 5 << 16).reshape(-1, 5)
_PROBE_CENTER = np.linspace(0.0, 1.0, 5)


def probe(kind: str) -> float:
    """Seconds the fixed probe work of `kind` takes now (about 20 ms)."""
    t0 = perf_counter()
    if kind == "interp":
        total = 0
        for i in range(80_000):
            total += i * i
        small = np.ones(4)
        for _ in range(4000):
            small = np.clip(small * 1.0000001, -2.0, 2.0)
    else:
        for _ in range(12):
            d = _PROBE_BLOCK - _PROBE_CENTER
            np.einsum("ij,ij->i", d, d)
    return perf_counter() - t0


class Clock:
    """Times the calls of one round, per figure, in raw seconds and in
    seconds at the reference speed.  A call is split into segments at
    its checkpoints; each segment counts raw x PROBE_REF_S[kind] / the
    mean of the probes of its kind run just before and just after it.
    Probe time is not counted.  Each timed call starts a new trace
    request."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.raw: dict[str, float] = defaultdict(float)
        self.scaled: dict[str, float] = defaultdict(float)
        self._before: dict[str, float] = {}
        self._figure = ""
        self._kind = ""
        self._t0 = 0.0

    def time(self, figure: str, fn, *args, kind: str = "interp"):
        if kind not in self._before:
            self._before = {kind: probe(kind)}
        if self.tracer:
            self.tracer.new_request()
        self._figure, self._kind = figure, kind
        self._t0 = perf_counter()
        result = fn(*args)
        self.checkpoint()
        return result

    def checkpoint(self) -> None:
        """End a segment of the call being timed.  Long calls check in
        from inside, every second or so, because the host's speed can
        change within them.  Traced runs skip these inner checkpoints,
        which would land inside the spans."""
        segment = perf_counter() - self._t0
        kind = self._kind
        after = probe(kind)
        self.raw[self._figure] += segment
        mean = 0.5 * (self._before[kind] + after)
        self.scaled[self._figure] += segment * PROBE_REF_S[kind] / mean
        self._before = {kind: after}
        self._t0 = perf_counter()

    def inner_checkpoint(self) -> None:
        if not self.tracer:
            self.checkpoint()


class Workload:
    """One closed loop: `round` runs the workload's calls once, timing
    them with the round's Clock, and returns its figures at the
    reference speed; `slots` names the three figures reported as the
    end-to-end metrics stage1_s, stage2_s and stage3_s."""

    figures: dict[str, str] = {}
    slots: tuple[str, str, str] = ()
    fine_name = ""

    def __init__(self, bg, api, profile, rng, check_rng, tally, counters):
        self.bg, self.api, self.profile = bg, api, profile
        self.rng, self.check_rng = rng, check_rng
        self.tally, self.counters = tally, counters

    def close(self) -> None:
        pass


class ClassGen(Workload):
    """Generate all 100 functions of two classes, export each class as a
    ``d2`` notebook and load it back."""

    figures = {"class_gen_s": "s", "notebook_export_s": "s", "notebook_load_s": "s"}
    slots = ("class_gen_s", "notebook_export_s", "notebook_load_s")
    fine_name = "generate_call_s"

    def __init__(self, *args):
        super().__init__(*args)
        self.classes = [
            (name, make_class(self.bg, dim, m)) for name, dim, m in self.profile["classes"]
        ]
        OUT.mkdir(parents=True, exist_ok=True)
        self.paths = {
            name: OUT / f"notebook-{os.getpid()}-{name}.json" for name, _ in self.classes
        }

    def generate_class(self, params, fine, clock):
        functions = []
        for nf in range(1, self.bg.FUNCTIONS_PER_CLASS + 1):
            c0 = perf_counter()
            functions.append(self.api.generate(params, nf))
            fine.append(perf_counter() - c0)
            if nf % 50 == 0 and nf < self.bg.FUNCTIONS_PER_CLASS:
                clock.inner_checkpoint()
        return functions

    def round(self, samples, clock):
        api = self.api
        fine = samples.setdefault(self.fine_name, [])
        for name, params in self.classes:
            path = self.paths[name]
            functions = clock.time("class_gen_s", self.generate_class, params, fine, clock)
            clock.time("notebook_export_s", api.export_class, params, "d2", path)
            loaded = clock.time("notebook_load_s", api.load_class, path)
            self.tally.ops += len(functions) + 2
            size = path.stat().st_size
            self.counters["notebook.export.bytes"] += size
            self.counters["notebook.load.bytes"] += size
            with untraced(clock.tracer):
                self.verify(name, params, functions, loaded)
        return dict(clock.scaled)

    def verify(self, name, params, functions, loaded):
        check = self.tally.check
        digest = class_digest(functions)
        check(digest == PINNED_DIGESTS[name], f"class {name}: digest {digest}")
        check(loaded.params == params, f"class {name}: loaded params differ")
        check(loaded.function_type == "d2", f"class {name}: loaded family differs")
        check(
            [function_digest(f) for f in loaded.functions]
            == [function_digest(f) for f in functions],
            f"class {name}: loaded notebook differs from the generated class",
        )
        lowest = min(float(f.minima.f.min()) for f in functions)
        check(lowest >= params.global_value, f"class {name}: minimum {lowest} below global")

    def close(self):
        for path in self.paths.values():
            for p in (path, self.bg.notebook.summary_path_for(path)):
                p.unlink(missing_ok=True)


class SolverSweep(Workload):
    """Sweep random search over the standard 2-D class on ``nd`` and
    multistart descent on ``d2``, one harness query at a time."""

    figures = {
        "sweep_random_s": "s",
        "sweep_multistart_s": "s",
        "harness_queries_per_s": "1/s",
        "harness_s_per_query": "s",
    }
    slots = ("sweep_random_s", "sweep_multistart_s", "harness_s_per_query")
    fine_name = "solver_call_s"

    def __init__(self, *args):
        super().__init__(*args)
        self.params = self.bg.default_params(2)
        self.functions = None  # generated on first use, for the checks only

    def round(self, samples, clock):
        bg, api, profile = self.bg, self.api, self.profile
        fine = samples.setdefault(self.fine_name, [])

        def timed_solver(solver):
            def run(objective, func):
                t0 = perf_counter()
                try:
                    solver(objective, func)
                finally:
                    fine.append(perf_counter() - t0)
                    if func.nf % 20 == 0 and func.nf < bg.FUNCTIONS_PER_CLASS:
                        clock.inner_checkpoint()

            return run

        random_seed, multi_seed = (int(s) for s in self.rng.integers(0, 2**31, size=2))
        sweeps = (
            ("sweep_random_s", "nd", bg.make_random_search(random_seed)),
            (
                "sweep_multistart_s",
                "d2",
                bg.make_multistart(profile["starts"], profile["local_steps"], multi_seed),
            ),
        )
        queries = 0
        for figure, family, solver in sweeps:
            report = clock.time(
                figure, api.run_solver, self.params, family, timed_solver(solver), profile["budget"]
            )
            self.tally.ops += 1
            queries += sum(o.evaluations for o in report.outcomes)
            with untraced(clock.tracer):
                self.verify(family, profile["budget"], report)
        self.counters["harness.queries"] += queries
        out = dict(clock.scaled)
        swept = out["sweep_random_s"] + out["sweep_multistart_s"]
        out["harness_queries_per_s"] = queries / swept
        out["harness_s_per_query"] = swept / queries
        return out

    def verify(self, family, budget, report):
        check = self.tally.check
        bg = self.bg
        if self.functions is None:
            self.functions = [
                bg.generate(self.params, nf) for nf in range(1, bg.FUNCTIONS_PER_CLASS + 1)
            ]
        check(len(report.outcomes) == len(self.functions), f"{family}: outcome count")
        for o in report.outcomes:
            where = f"{family} nf={o.nf}"
            check(o.solver_error is None, f"{where}: solver error {o.solver_error}")
            check(1 <= o.evaluations <= budget, f"{where}: {o.evaluations} evaluations")
            check(
                o.evals_to_success is None or o.evals_to_success <= o.evaluations,
                f"{where}: evals_to_success {o.evals_to_success} > {o.evaluations}",
            )
            if o.best_point is None:
                check(False, f"{where}: no feasible query")
                continue
            again = self.api.evaluate(self.functions[o.nf - 1], o.best_point, family)
            check(again == o.best_value, f"{where}: best_value {o.best_value} != {again}")
            check(
                o.best_value >= self.params.global_value,
                f"{where}: best_value {o.best_value} below the global value",
            )


def sample_block(rng, func, count: int) -> np.ndarray:
    """`count` feasible points: half uniform over the box, half uniform
    inside randomly chosen attraction balls (minimizers 2..m)."""
    lower, upper, dim = func.lower, func.upper, func.dim
    uniform = lower + (upper - lower) * rng.random((count - count // 2, dim))
    inside = []
    need = count // 2
    centers, rho = func.minima.local_min, func.minima.rho
    while need > 0:
        rows = rng.integers(1, func.num_minima, size=2 * need)
        direction = rng.standard_normal((2 * need, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = rho[rows] * rng.random(2 * need) ** (1.0 / dim)
        pts = centers[rows] + direction * radius[:, None]
        pts = pts[np.all((pts >= lower) & (pts <= upper), axis=1)][:need]
        inside.append(pts)
        need -= len(pts)
    return np.concatenate([uniform, *inside])


def in_ball_count(func, points) -> int:
    """How many of `points` lie in some attraction ball (minimizers 2..m)."""
    centers = func.minima.local_min[1:]
    rho_sq = func.minima.rho[1:] ** 2
    step = max(1, (1 << 21) // centers.size)  # bounds the (step, m, dim) temporary
    hits = 0
    for start in range(0, len(points), step):
        d = points[start : start + step, None, :] - centers[None, :, :]
        hits += int(np.any(np.einsum("ijk,ijk->ij", d, d) <= rho_sq, axis=1).sum())
    return hits


class BatchEval(Workload):
    """``eval_many`` blocks on a 5-D and a 20-D function, and scalar
    derivatives at in-ball points of the 5-D one."""

    figures = {
        "batch_5d30_s": "s",
        "batch_20d500_s": "s",
        "scalar_derivs_s": "s",
        "batch_5d30_points_per_s": "1/s",
        "batch_20d500_points_per_s": "1/s",
        "scalar_derivs_per_s": "1/s",
    }
    slots = ("batch_5d30_s", "batch_20d500_s", "scalar_derivs_s")
    fine_name = "scalar_deriv_call_s"

    def __init__(self, *args):
        super().__init__(*args)
        dim5, m5, self.n5 = self.profile["batch5"]
        dim20, m20, self.n20 = self.profile["batch20"]
        nf5, nf20 = (
            int(v) for v in self.rng.integers(1, self.bg.FUNCTIONS_PER_CLASS + 1, size=2)
        )
        self.f5 = self.api.generate(make_class(self.bg, dim5, m5), nf5)
        self.f20 = self.api.generate(make_class(self.bg, dim20, m20), nf20)

    def scalar_derivs(self, points, fine):
        results = []
        for x in points:
            for fn in (self.api.d_gradient, self.api.d2_gradient, self.api.d2_hessian):
                c0 = perf_counter()
                results.append(fn(self.f5, x))
                fine.append(perf_counter() - c0)
        return results

    def round(self, samples, clock):
        api, rng, counters = self.api, self.rng, self.counters
        f5, f20 = self.f5, self.f20
        block5 = sample_block(rng, f5, self.n5)
        block20 = sample_block(rng, f20, self.n20)
        count = self.profile["deriv_points"]
        derivs = sample_block(rng, f5, 2 * count)[count:]
        if clock.tracer:
            counters["evaluate.in_ball.points"] += len(block5) + len(block20)
            counters["evaluate.in_ball.hits"] += in_ball_count(f5, block5) + in_ball_count(
                f20, block20
            )
            counters["evaluate.eval_many.ball_row_visits"] += len(BATCH_FAMILIES) * len(
                block5
            ) * (f5.num_minima - 1) + len(block20) * (f20.num_minima - 1)

        values5 = clock.time(
            "batch_5d30_s",
            lambda: [api.eval_many(f5, fam, block5) for fam in BATCH_FAMILIES],
            kind="array",
        )
        values20 = clock.time(
            "batch_20d500_s", api.eval_many, f20, BATCH20_FAMILY, block20, kind="array"
        )
        results = clock.time(
            "scalar_derivs_s", self.scalar_derivs, derivs, samples.setdefault(self.fine_name, [])
        )

        points5 = len(BATCH_FAMILIES) * len(block5)
        self.tally.ops += len(BATCH_FAMILIES) + 1 + len(results)
        counters["evaluate.eval_many.points"] += points5 + len(block20)
        with untraced(clock.tracer):
            for family, values in zip(BATCH_FAMILIES, values5):
                self.verify(f5, family, block5, values)
            self.verify(f20, BATCH20_FAMILY, block20, values20)
            for value in results:
                self.tally.check(np.all(np.isfinite(value)), "derivative not finite")
            for hessian in results[2::3]:
                self.tally.check(np.array_equal(hessian, hessian.T), "Hessian not symmetric")
        out = dict(clock.scaled)
        out["batch_5d30_points_per_s"] = points5 / out["batch_5d30_s"]
        out["batch_20d500_points_per_s"] = len(block20) / out["batch_20d500_s"]
        out["scalar_derivs_per_s"] = len(results) / out["scalar_derivs_s"]
        return out

    def verify(self, func, family, block, values):
        check = self.tally.check
        where = f"{func.dim}-D/{func.num_minima} {family}"
        check(values.shape == (len(block),), f"{where}: shape {values.shape}")
        low = float(values.min())
        global_value = func.params.global_value
        check(low >= global_value, f"{where}: value {low} below the global value")
        scale = abs(global_value)
        picks = self.check_rng.choice(len(block), size=self.profile["check_points"], replace=False)
        for i in picks:
            scalar = self.api.evaluate(func, block[i], family)
            batch = float(values[i])
            check(
                abs(batch - scalar) <= EVAL_RTOL * max(abs(batch), abs(scalar), scale),
                f"{where}: eval_many {batch!r} vs scalar {scalar!r} at row {i}",
            )


WORKLOADS = {"classgen": ClassGen, "solver-sweep": SolverSweep, "batch-eval": BatchEval}

LAYER_METRICS = {
    "rng.seed.calls": "count",
    "rng.seed.busy_s": "s",
    "rng.uniform.calls": "count",
    "generator.draws_per_function": "count",
    "generator.draw_yield": "ratio",
    "params.check.calls": "count",
    "params.check.busy_s": "s",
    "generator.generate.calls": "count",
    "generator.generate.busy_s": "s",
    "generator.generate.self_s": "s",
    "generator.generate.p50_ms": "ms",
    "generator.generate.p99_ms": "ms",
    "generator.audit.calls": "count",
    "generator.audit.busy_s": "s",
    "notebook.export.busy_s": "s",
    "notebook.export.self_s": "s",
    "notebook.export.bytes": "bytes",
    "notebook.load.busy_s": "s",
    "notebook.load.self_s": "s",
    "notebook.load.bytes": "bytes",
    "evaluate.value.calls": "count",
    "evaluate.value.busy_s": "s",
    "evaluate.gradient.calls": "count",
    "evaluate.gradient.busy_s": "s",
    "evaluate.hessian.calls": "count",
    "evaluate.hessian.busy_s": "s",
    "evaluate.eval_many.points": "count",
    "evaluate.eval_many.busy_s": "s",
    "evaluate.in_ball_share": "ratio",
    "evaluate.eval_many.ball_row_visits": "count",
    "harness.run_solver.calls": "count",
    "harness.run_solver.busy_s": "s",
    "harness.run_solver.self_s": "s",
    "harness.queries": "count",
    "harness.gradient_queries": "count",
    "harness.overhead_us_per_query": "us",
}


def layer_metrics(tracer, counters) -> dict[str, float]:
    """Every per-layer metric by name; layers a workload leaves idle
    read 0.  ``ball_row_visits`` is computed as points x (m - 1)."""
    values = defaultdict(float, tracer.layer_metrics())
    values.update(counters)
    values.update(tracer.counters)
    generated = values["generator.generate.calls"]
    draws = values["generator.draws"]
    values["generator.draws_per_function"] = draws / generated if generated else 0.0
    values["generator.draw_yield"] = values["generator.min_draws"] / draws if draws else 0.0
    points = values["evaluate.in_ball.points"]
    values["evaluate.in_ball_share"] = values["evaluate.in_ball.hits"] / points if points else 0.0
    queries = values["harness.queries"]
    values["harness.overhead_us_per_query"] = (
        1e6 * values["harness.run_solver.self_s"] / queries if queries else 0.0
    )
    return {name: values[name] for name in LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # one CPU for the whole run, so the probes see the CPU the work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    bg = import_basingen()
    api = SimpleNamespace(
        generate=bg.generate,
        run_solver=bg.run_solver,
        export_class=bg.export_class,
        load_class=bg.load_class,
        eval_many=bg.eval_many,
        evaluate=bg.evaluate,
        d_gradient=bg.d_gradient,
        d2_gradient=bg.d2_gradient,
        d2_hessian=bg.d2_hessian,
    )
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(api)

    counters = defaultdict(float)
    tally = Tally()
    workload = WORKLOADS[args.workload](
        bg,
        api,
        PROFILES[args.profile],
        np.random.default_rng(args.seed),
        np.random.default_rng([args.seed, 1]),
        tally,
        counters,
    )
    print("ready", flush=True)
    setup_probe = sorted(probe("interp") for _ in range(3))[1]
    if args.setup_only:
        workload.close()
        print(json.dumps({"probe_s": setup_probe}), flush=True)
        return 0

    samples: dict[str, list[float]] = {}
    figures = {name: [] for name in workload.figures}
    raw: dict[str, list[float]] = {}
    start = perf_counter()
    # Untraced, a round starts only if one more of the last one's length
    # fits in the time; traced, exactly one round runs, so counts repeat.
    last = 0.0
    try:
        while not figures[workload.slots[0]] or (
            tracer is None and perf_counter() - start + last <= args.seconds
        ):
            begun = perf_counter()
            clock = Clock(tracer)
            try:
                values = workload.round(samples, clock)
            except Exception:  # noqa: BLE001 - a failed round is counted; the run goes on
                tally.ops += 1
                tally.failed_ops += 1
                traceback.print_exc()
                if perf_counter() - start >= args.seconds:
                    break
                continue
            finally:
                last = perf_counter() - begun
            for name, value in values.items():
                figures[name].append(value)
            for name, value in clock.raw.items():
                raw.setdefault(name, []).append(value)
    finally:
        workload.close()

    result = {
        "measured_s": perf_counter() - start,
        "probe_s": setup_probe,
        "figures": figures,
        "raw": raw,
        "units": workload.figures,
        "slots": workload.slots,
        "fine": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": tally.ops,
        "failed_ops": tally.failed_ops,
        "checks": tally.checks,
        "failed_checks": tally.failed_checks,
        "messages": tally.messages,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
    }
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["span_count"] = len(tracer.start)
        result["layers"] = layer_metrics(tracer, counters)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
