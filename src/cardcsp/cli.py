"""Command-line entry point.

Exit codes: 0 success, 2 usage or input error, 3 capacity exceeded,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .errors import CapacityError, CardCspError, NumericalError, ParseError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_NUMERICAL = 4


def _read_instance(path: str):
    from .instance import CspInstance, load_edge_list

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc))
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return CspInstance.from_json(text)
    return load_edge_list(text)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_solved(text: str, out_path: str | None, statuses):
    """Write a command's JSON, then fail with exit 4 unless every one of its
    solves ended ``optimal``."""
    _emit(text, out_path)
    failed = sorted(set(statuses) - {"optimal"})
    if failed:
        raise NumericalError(f"solver status {', '.join(failed)}, not optimal")
    return EXIT_OK


def _solver_config(args):
    from .sdp_solver import SolverConfig

    flags = {"max_iterations": args.max_iterations, "tolerance": args.tolerance}
    return SolverConfig(**{k: v for k, v in flags.items() if v is not None})


def cmd_solve(args):
    from . import sdp_solver
    from .lasserre import build_relaxation, check_feasibility, solution_objective

    instance = _read_instance(args.input)
    program = build_relaxation(instance, args.level)
    solution, report = sdp_solver.solve(program, _solver_config(args))
    feas = check_feasibility(solution, instance)
    doc = {
        "schema": "cardcsp.solve/1",
        "objective": solution_objective(solution, instance),
        "status": report.status,
        "iterations": report.iterations,
        "primal_residual": report.primal_residual,
        "dual_residual": report.dual_residual,
        "rho": report.rho,
        "blocks": report.blocks,
        "seconds": report.seconds,
        "level": args.level,
        "feasibility": {
            "psd_violation": feas.psd_violation,
            "consistency_violation": feas.consistency_violation,
            "cardinality_violation": feas.cardinality_violation,
        },
    }
    if args.trace:
        doc["residual_history"] = [
            {"iteration": it, "primal": float(pri), "dual": float(dual)}
            for it, pri, dual in report.residual_history]
    if args.full:
        doc["solution"] = json.loads(solution.to_json())
    return _emit_solved(json.dumps(doc, indent=2), args.out, [report.status])


def cmd_round(args):
    from .rounding import pipeline

    instance = _read_instance(args.input)
    result = pipeline(instance, level=args.level, alpha_target=args.alpha,
                      trials=args.trials, seed=args.seed,
                      solver_config=_solver_config(args))
    report = result.solve_report
    doc = {
        "schema": "cardcsp.round/1",
        "status": report.status,
        "iterations": report.iterations,
        "best": json.loads(result.best.to_json()),
        "sdp_objective": result.sdp_objective,
        "achieved_alpha": result.achieved_alpha,
        "value_mean": result.value_mean,
        "value_var": result.value_var,
        "balance_mean": result.balance_mean,
        "trials": result.trials,
        "seed": args.seed,
    }
    return _emit_solved(json.dumps(doc, indent=2), args.out, [report.status])


def cmd_landscape(args):
    from .landscape import landscape_csv, ratio_search, sqrt_eps_curve

    if args.mode == "ratio":
        cert = ratio_search(args.kind, resolution=args.resolution)
        _emit(cert.to_json(), args.out)
    elif args.mode == "csv":
        pieces = landscape_csv(args.kind, resolution=args.resolution)
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            fh.writelines(pieces)
    elif args.mode == "sqrt-eps":
        curve = sqrt_eps_curve(args.eps, resolution=args.resolution)
        _emit(json.dumps(curve, indent=2), args.out)
    return EXIT_OK


def cmd_dict(args):
    from .dictator import build_gadget, completeness, soundness_enumerate
    from .lasserre import solution_objective
    from .rounding import solve_feasible

    instance = _read_instance(args.input)
    solution, report = solve_feasible(instance, args.level,
                                      _solver_config(args))
    gadget = build_gadget(solution, instance, args.eps, args.R,
                          provenance={"input": args.input, "level": args.level})
    value = solution_objective(solution, instance)
    comp = completeness(gadget, value)
    doc = {
        "schema": "cardcsp.dict/1",
        "status": report.status,
        "iterations": report.iterations,
        "R": args.R,
        "eps": args.eps,
        "sdp_value": value,
        "min_dictator_value": comp.min_dictator_value,
        "max_abs_balance": comp.max_abs_balance,
        "completeness_ok": comp.ok,
    }
    if args.soundness:
        sound = soundness_enumerate(gadget, args.tau, mode=args.sound_mode)
        doc["soundness"] = {
            "tau": sound.tau, "mode": sound.mode, "empty": sound.empty,
            "max_value": sound.max_value, "candidates": sound.candidates,
        }
    if args.gadget_out:
        with open(args.gadget_out, "w") as fh:
            fh.write(gadget.to_json())
    return _emit_solved(json.dumps(doc, indent=2), args.out, [report.status])


def cmd_bench(args):
    from .suite import default_suite, entries_from_config, run_bench

    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        entries = entries_from_config(doc)
    else:
        entries = default_suite()
    report = run_bench(entries, level=args.level, trials=args.trials,
                       seed=args.seed, alpha_target=args.alpha,
                       solver_config=_solver_config(args))
    return _emit_solved(report.to_json(), args.out,
                        [row.status for row in report.rows])


def cmd_oracle(args):
    from .oracle import brute_force

    instance = _read_instance(args.input)
    exact = brute_force(instance, respect_cardinality=not args.unconstrained)
    _emit(exact.to_json(), args.out)
    return EXIT_OK


def number_list(text):
    """Comma-separated floats; argparse turns a ValueError into exit 2."""
    return [float(x) for x in text.split(",")]


def _add_solver_flags(p):
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cardcsp",
        description="Approximation pipeline for cut and 2-Sat problems with "
                    "cardinality (bisection) constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the moment relaxation")
    p.add_argument("input")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--full", action="store_true",
                   help="embed the full moment solution in the output")
    p.add_argument("--trace", action="store_true",
                   help="add the residuals of every convergence check")
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("round", help="solve, decorrelate, round, and repair")
    p.add_argument("input")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.1,
                   help="average pairwise mutual information (bits) at "
                        "which conditioning stops; 1 turns it off")
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("landscape",
                       help="worst-case ratio certificates and scans")
    p.add_argument("mode", choices=["ratio", "csv", "sqrt-eps"])
    p.add_argument("--kind", default="cut", choices=["cut", "max2sat"])
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--eps", default="0.0025,0.01,0.04,0.09", type=number_list,
                   help="comma-separated eps values for sqrt-eps mode")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("dict", help="dictatorship-test gadget from a solve")
    p.add_argument("input")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("-R", "--R", type=int, default=3, dest="R")
    p.add_argument("--soundness", action="store_true")
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--sound-mode", default="boolean_exhaustive",
                   choices=["boolean_exhaustive", "grid"])
    p.add_argument("--gadget-out", default=None)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_dict)

    p = sub.add_parser("bench", help="run the benchmark suite")
    p.add_argument("--config", default=None,
                   help="JSON file listing instances; defaults to the "
                        "built-in 12-instance suite")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force exact optimum")
    p.add_argument("input")
    p.add_argument("--unconstrained", action="store_true",
                   help="ignore the cardinality constraint")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (CardCspError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_CAPACITY if isinstance(exc, CapacityError) else
                EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
