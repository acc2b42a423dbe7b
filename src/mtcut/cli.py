"""Command-line interface: solve one instance, kernelize it, or run a
benchmark sweep. Exit codes: 0 success, 2 infeasible input, 3 parse error."""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    DEFAULT_TAUS,
    InstanceSpec,
    prepare_instance,
    run_experiment,
    write_profile_csv,
    write_results_jsonl,
)
from .graph import BoundState, GraphError
from .graphio import GraphParseError
from .reductions import run_reduction_loop
from .solver import SolverConfig, save_events, solve_prepared

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3


def _add_instance_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--graph", required=True, help="graph file (adjacency format)")
    cmd.add_argument("--k", type=int, required=True, help="number of terminals")
    cmd.add_argument("--preset-fraction", type=float, default=0.0,
                     help="fraction of vertices grown into the terminals")
    cmd.add_argument("--seed", type=int, default=0)


def _add_solver_args(cmd: argparse.ArgumentParser) -> None:
    defaults = SolverConfig()
    cmd.add_argument("--mode", choices=("exact", "inexact"), default=defaults.mode)
    cmd.add_argument("--time-limit", type=float, default=defaults.time_limit)
    cmd.add_argument("--ilp-edge-limit", type=int, default=defaults.ilp_edge_limit)
    cmd.add_argument("--ilp-timeout", type=float, default=defaults.ilp_timeout_seconds)
    cmd.add_argument("--delta", type=float, default=defaults.delta)
    cmd.add_argument("--beta", type=int, default=defaults.beta)
    cmd.add_argument("--branch-rule", choices=("vertex", "edge"), default=defaults.branch_rule)
    cmd.add_argument("--ilp-command", default=defaults.ilp_command,
                     help="solver command template with {model} and {solution}")


def _config_from(args) -> SolverConfig:
    return SolverConfig(
        mode=args.mode,
        time_limit=args.time_limit,
        ilp_edge_limit=args.ilp_edge_limit,
        ilp_timeout_seconds=args.ilp_timeout,
        delta=args.delta,
        beta=args.beta,
        seed=args.seed,
        branch_rule=args.branch_rule,
        ilp_command=args.ilp_command,
    )


def _prepare_instance(args):
    return prepare_instance(InstanceSpec(args.graph, args.k, args.preset_fraction, args.seed))


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_solve(args) -> int:
    problem = _prepare_instance(args)
    result = solve_prepared(problem, _config_from(args))
    _write_json({**result.record(), "assignment": result.labels}, args.output)
    if args.progress:
        save_events(args.progress, result.events)
    return EXIT_OK


def _cmd_kernelize(args) -> int:
    problem = _prepare_instance(args)
    report = run_reduction_loop(problem, BoundState())
    _write_json({**report.to_dict(), "deleted_weight": problem.deleted_weight,
                 "active_terminals": problem.active_count()}, args.output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    with open(args.spec) as fh:
        spec_doc = json.load(fh)
    try:
        specs = [InstanceSpec(**entry) for entry in spec_doc["instances"]]
        algorithms = {}
        for name, overrides in spec_doc.get("algorithms", {"exact": {}}).items():
            algorithms[name] = SolverConfig(**overrides)
        taus = spec_doc.get("taus", list(DEFAULT_TAUS))
        if not isinstance(taus, list) or not all(
                isinstance(t, (int, float)) and not isinstance(t, bool) and t >= 1
                for t in taus):
            raise ValueError(f"taus must be a list of numbers >= 1, got {taus!r}")
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        print(f"error: malformed spec {args.spec}: {exc!r}", file=sys.stderr)
        return EXIT_PARSE
    rows, profiles, summary = run_experiment(specs, algorithms, taus)
    if args.output:
        write_results_jsonl(args.output, rows)
    if args.profile:
        write_profile_csv(args.profile, profiles)
    print(json.dumps(summary))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mtcut", description="minimum multiterminal cut solver")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("solve", help="solve one instance")
    _add_instance_args(cmd)
    _add_solver_args(cmd)
    cmd.add_argument("--output", default=None, help="write result JSON here")
    cmd.add_argument("--progress", default=None, help="write progress CSV here")
    cmd.set_defaults(func=_cmd_solve)

    cmd = sub.add_parser("kernelize", help="run the reductions and report")
    _add_instance_args(cmd)
    cmd.add_argument("--output", default=None, help="write report JSON here")
    cmd.set_defaults(func=_cmd_kernelize)

    cmd = sub.add_parser("bench", help="run a benchmark sweep from a spec file")
    cmd.add_argument("--spec", required=True, help="JSON file with instances and algorithms")
    cmd.add_argument("--output", default=None, help="write per-run JSONL here")
    cmd.add_argument("--profile", default=None, help="write profile CSV here")
    cmd.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
