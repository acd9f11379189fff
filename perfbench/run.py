"""Layered benchmark for basingen.

    python3 perfbench/run.py --workload classgen --seed 1 --seconds 40 --trace 0

Runs one workload (classgen, solver-sweep or batch-eval) in fresh
single-threaded worker processes started from the root of a checkout,
prints a report with every metric by name and unit, and ends with one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Set-up is timed from
process start until the workload's inputs are ready, several times, and
the median is reported; then one worker runs the workload's closed loop
for ``--seconds`` and the median of each stage over its rounds is
reported.  Times are reported at a reference speed of the host, set by
a fixed probe timed around each call (see ``workloads.Clock``); the raw
wall times are printed too.  ``--trace 1`` runs the workload untraced for half of
``--seconds``, then one round traced, and reports the per-layer metrics
of the traced round plus the tracing overhead (traced minus untraced)
of every end-to-end metric.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
OUT = HERE / "out"
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # a run must end within 180 s
# One process, one thread: BLAS and OpenMP pools are pinned in every worker.
THREAD_PINS = dict.fromkeys(
    (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ),
    "1",
)


class WorkerError(RuntimeError):
    pass


class Runner:
    """Starts workers for one workload and keeps the run's deadline."""

    def __init__(self, args, env):
        self.args = args
        self.env = env
        self.deadline = perf_counter() + DEADLINE_S

    def start(self, *extra, seconds=None):
        """Run one worker; return its set-up time at the reference speed
        and its parsed last output line."""
        a = self.args
        cmd = [
            sys.executable,
            str(WORKER),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", repr(a.seconds if seconds is None else seconds),
            "--profile", a.profile,
            *extra,
        ]  # fmt: skip
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(max(self.deadline - t0, 1.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise WorkerError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
        result = json.loads(rest.strip().splitlines()[-1])
        return setup_s * workloads.PROBE_REF_S["interp"] / result["probe_s"], result


def tail(samples):
    """(percentile, value) of the highest percentile that has at least
    ten samples beyond it, or None with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    n = len(samples)
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(samples, unit: str) -> str:
    text = f"median {statistics.median(samples):.6g} {unit}"
    high = tail(samples)
    if high is not None:
        text += f", p{high[0]:.4g} {high[1]:.6g} {unit}"
    return text + f", n={len(samples)}"


def end_to_end(result, setup_samples) -> dict[str, tuple[float, str]]:
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    for i, figure in enumerate(result["slots"], 1):
        metrics[f"stage{i}_s"] = (statistics.median(result["figures"][figure]), "s")
    return metrics


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, pins, versions) -> dict:
    return {
        "machine": f"{platform.machine()} {cpu_model()}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "thread_pins": pins,
        "worker_cpu": max(os.sched_getaffinity(0)),
        "probe_ref_s": workloads.PROBE_REF_S,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "profile": args.profile,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def print_figures(result) -> None:
    units = result["units"]
    print(
        f"workload figures per round, at the reference speed "
        f"({result['measured_s']:.1f} s measured):"
    )
    for name, values in result["figures"].items():
        print(f"  {name:28s} {describe(values, units[name])}")
    for name, values in result["raw"].items():
        print(f"  {name:28s} {describe(values, 's')}  (raw wall time)")
    for name, values in result["fine"].items():
        print(f"  {name:28s} {describe(values, 's')}  (per call)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--profile",
        choices=sorted(workloads.PROFILES),
        default="full",
        help="input sizes; 'tiny' is for the smoke test",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "basingen" / "__init__.py").is_file():
        print(f"perfbench: no basingen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {**os.environ, **THREAD_PINS}
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports from the bytecode cache
    runner = Runner(args, env)

    try:
        if args.trace == 0:
            runner.start("--setup-only")  # fills the bytecode cache; not timed
            setups = [runner.start("--setup-only")[0] for _ in range(SETUP_REPEATS)]
            setup_s, result = runner.start()
            setups.append(setup_s)
            runs = [result]
            metrics = end_to_end(result, setups)
        else:
            half = args.seconds / 2
            plain_setup, plain = runner.start(seconds=half)
            traced_setup, traced = runner.start("--trace", seconds=half)
            runs = [plain, traced]
            base = end_to_end(plain, [plain_setup])
            with_trace = end_to_end(traced, [traced_setup])
            metrics = {
                name: (value, workloads.LAYER_METRICS[name])
                for name, value in traced["layers"].items()
            }
            for name, (value, unit) in base.items():
                metrics[f"trace.overhead.{name}"] = (with_trace[name][0] - value, unit)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["ops"] + r["checks"] for r in runs)
    failed = sum(r["failed_ops"] + r["failed_checks"] for r in runs)
    env_record = environment(args, THREAD_PINS, runs[0]["versions"])

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(env_record))
    for r in runs:
        if r is runs[-1] and args.trace:
            print(f"traced run: {r['span_count']} spans written to {r['spans_file']}")
        print_figures(r)
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations and checks)")
    for r in runs:
        for message in r["messages"]:
            print(f"  failed: {message}")

    OUT.mkdir(exist_ok=True)
    record = {
        "environment": env_record,
        "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k != "fine"} for r in runs],
        "failed_ratio": failed / attempted,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
