"""Command-line front end.

Subcommands: ``check`` (validate class parameters), ``gen`` (write a
ground-truth notebook), ``eval`` (evaluate a function, gradient, or
Hessian from a notebook), ``grid`` (export a 2-D surface grid as CSV),
and ``bench`` (run a built-in solver over a class).

Exit codes: 0 on success, 1 on domain or validation failures and when a
class is too large for memory, 2 on usage errors.  Failed evaluations
print the sentinel value 1e100 so text-level consumers of sentinel-style
tooling keep working; the library itself raises typed errors instead.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .evaluate import FAMILIES, EvaluationError, d2_gradient, d2_hessian, d_gradient, evaluate
from .generator import FUNCTIONS_PER_CLASS, _require_function_number
from .harness import make_multistart, make_random_search, oracle_solver, run_solver, write_report
from .notebook import NotebookError, export_class, load_class, summary_path_for, write_grid
from .params import (
    ClassParams,
    DEFAULT_DELTA_MAX,
    DEFAULT_GLOBAL_VALUE,
    DEFAULT_NUM_MINIMA,
    DEFAULT_PARABOLOID_MIN,
    ParameterError,
    check,
)

SENTINEL_VALUE = 1e100
# points per axis of `grid`: it bounds the file, as 2048**2 rows are about
# 250 MB of CSV; memory does not grow with it, as write_grid streams blocks
MAX_GRID_RES = 2048


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _parse_vector(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{flag} expects comma-separated numbers, got {text!r}"
        )


def _bounded_int(minimum: int, maximum: int | None = None):
    """argparse type for an integer no smaller than `minimum` and, when
    `maximum` is given, no larger than it."""
    bound = f"must be at least {minimum}"
    if maximum is not None:
        bound += f" and at most {maximum}"

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < minimum or (maximum is not None and value > maximum):
            raise argparse.ArgumentTypeError(f"{bound}, got {value}")
        return value

    return integer


def _add_class_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=2, help="problem dimension (default 2)")
    parser.add_argument(
        "--minima", dest="num_minima", metavar="MINIMA", type=int, default=DEFAULT_NUM_MINIMA,
        help="number of local minima, vertex included (default %(default)s)",
    )
    parser.add_argument(
        "--global-value", type=float, default=DEFAULT_GLOBAL_VALUE,
        help="global minimum value (default %(default)s)",
    )
    parser.add_argument(
        "--global-dist", type=float, default=None,
        help="distance from the paraboloid vertex to the global minimizer "
        "(default: smallest domain side / 3)",
    )
    parser.add_argument(
        "--global-radius", type=float, default=None,
        help="attraction radius of the global minimizer "
        "(default: smallest domain side / 6, or half the distance if smaller)",
    )
    parser.add_argument(
        "--domain-left", type=str, default=None, metavar="A1,A2,...",
        help="left domain bounds (default -1 everywhere)",
    )
    parser.add_argument(
        "--domain-right", type=str, default=None, metavar="B1,B2,...",
        help="right domain bounds (default 1 everywhere)",
    )
    parser.add_argument(
        "--paraboloid-min", type=float, default=DEFAULT_PARABOLOID_MIN,
        help="paraboloid minimum value (default %(default)s)",
    )
    parser.add_argument(
        "--delta-max", type=float, default=DEFAULT_DELTA_MAX,
        help="upper bound of the curvature draw for the d2 family "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--gap", type=float, default=None,
        help="clearance between local minimizers and the global ball "
        "(default: the attraction radius)",
    )


def _params_from_args(args) -> ClassParams:
    """Each class flag to its field, None where ClassParams fills it in; the
    box is parsed here, so that its usage errors keep their text."""
    values = {f.name: getattr(args, f.name) for f in fields(ClassParams)}
    for side in ("left", "right"):
        text = values[f"domain_{side}"]
        values[f"domain_{side}"] = None if text is None else _parse_vector(text, f"--domain-{side}")
    return ClassParams(**values)


def _print_violations(errors) -> None:
    for err in errors:
        print(f"{err.code.value}: {err.detail}", file=sys.stderr)


def _usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def cmd_check(args) -> int:
    params = _params_from_args(args)
    errors = check(params)
    if errors:
        _print_violations(errors)
        return 1
    print("ok")
    return 0


def cmd_gen(args) -> int:
    loaded = export_class(_params_from_args(args), args.type, args.out)
    print(f"wrote {args.out} ({len(loaded.functions)} functions) "
          f"and {summary_path_for(args.out)}")
    for func in loaded.functions:
        coords = "; ".join(
            "(" + ", ".join(map(_fmt, point)) + ")" for point in func.global_minimizers
        )
        print(f"nf {func.nf:3d}: global minimizer(s) {coords}")
    return 0


def _notebook_function(args):
    """Function `--nf` of notebook `--notebook`, and the family to use:
    `--type`, else the notebook's."""
    loaded = load_class(args.notebook)
    func = loaded.functions[_require_function_number(args.nf) - 1]
    return func, args.type or loaded.function_type


def cmd_eval(args) -> int:
    func, family = _notebook_function(args)
    point = _parse_vector(args.point, "--point")
    if args.grad and family == "nd":
        return _usage("gradients are unavailable for the nd family")
    if args.hess and family != "d2":
        return _usage("Hessians are only available for the d2 family")
    try:
        if args.grad:
            vec = (d_gradient if family == "d" else d2_gradient)(func, point)
            print(", ".join(_fmt(v) for v in vec))
        elif args.hess:
            matrix = d2_hessian(func, point)
            for row in matrix:
                print(", ".join(_fmt(v) for v in row))
        else:
            print(_fmt(evaluate(func, point, family)))
        return 0
    except EvaluationError as exc:
        print(_fmt(SENTINEL_VALUE))
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_grid(args) -> int:
    func, family = _notebook_function(args)
    rows = write_grid(args.out, func, family, args.res)
    print(f"wrote {args.out} ({rows} rows)")
    return 0


def cmd_bench(args) -> int:
    if args.solver == "random":
        solver = make_random_search(seed=args.seed)
    elif args.solver == "multistart":
        solver = make_multistart(seed=args.seed)
    else:
        solver = oracle_solver
    report = run_solver(_params_from_args(args), args.type, solver, budget=args.budget)
    write_report(report, args.out)
    print(
        f"{args.solver} on the {args.type} class: "
        f"{report.success_count}/{FUNCTIONS_PER_CLASS} successes "
        f"({report.radius_success_count} by radius, "
        f"{report.value_success_count} by value); report in {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basingen",
        description="Generate, inspect, and benchmark classes of "
        "multiextremal test functions with known ground truth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate class parameters")
    _add_class_flags(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a class and write its notebook")
    _add_class_flags(p_gen)
    p_gen.add_argument("--type", choices=FAMILIES, required=True)
    p_gen.add_argument("--out", required=True, help="notebook path (JSON)")
    p_gen.set_defaults(handler=cmd_gen)

    p_eval = sub.add_parser("eval", help="evaluate a notebook function at a point")
    p_eval.add_argument("--notebook", required=True)
    p_eval.add_argument("--nf", type=int, required=True)
    p_eval.add_argument("--type", choices=FAMILIES, default=None,
                        help="family (default: the notebook's)")
    p_eval.add_argument(
        "--point", required=True, metavar="X1,X2,...",
        help="evaluation point; use --point=-0.5,0.2 when the first "
        "coordinate is negative",
    )
    group = p_eval.add_mutually_exclusive_group()
    group.add_argument("--grad", action="store_true", help="print the gradient")
    group.add_argument("--hess", action="store_true", help="print the Hessian")
    p_eval.set_defaults(handler=cmd_eval)

    p_grid = sub.add_parser("grid", help="export a 2-D surface grid as CSV")
    p_grid.add_argument("--notebook", required=True)
    p_grid.add_argument("--nf", type=int, required=True)
    p_grid.add_argument("--type", choices=FAMILIES, default=None)
    p_grid.add_argument(
        "--res", type=_bounded_int(2, MAX_GRID_RES), default=101,
        help=f"points per axis, 2..{MAX_GRID_RES} (default %(default)s)",
    )
    p_grid.add_argument("--out", required=True, help="CSV path")
    p_grid.set_defaults(handler=cmd_grid)

    p_bench = sub.add_parser("bench", help="benchmark a built-in solver on a class")
    _add_class_flags(p_bench)
    p_bench.add_argument("--type", choices=FAMILIES, required=True)
    p_bench.add_argument(
        "--solver", choices=("multistart", "random", "oracle"), default="multistart"
    )
    p_bench.add_argument(
        "--budget", type=_bounded_int(1), default=1000,
        help="evaluations per function (default %(default)s)",
    )
    p_bench.add_argument("--seed", type=_bounded_int(0), default=0)
    p_bench.add_argument("--out", required=True, help="report path (JSON)")
    p_bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except argparse.ArgumentTypeError as exc:
        return _usage(str(exc))
    except ParameterError as exc:
        _print_violations(exc.errors)
        return 1
    except NotebookError as exc:
        print(f"notebook error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
