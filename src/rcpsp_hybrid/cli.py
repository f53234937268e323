"""Command-line interface: solve, bench, rank and validate subcommands."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .bench import (
    compare_bounds,
    format_table,
    read_bounds_csv,
    run_benchmark,
)
from .psplib import dataset_files, parse_sm
from .ranking import rank_and_weigh
from .solver import SolverConfig, solve


class InputError(Exception):
    pass


def _load_instance(path: str):
    if not os.path.isfile(path):
        raise InputError(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_sm(text, name=os.path.splitext(os.path.basename(path))[0])
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _build_config(args) -> SolverConfig:
    config_path = getattr(args, "config", None)
    if config_path and not os.path.isfile(config_path):
        raise InputError(f"no such config file: {config_path}")
    overrides = {}
    if getattr(args, "lam", None) is not None:
        overrides["lambda_budget"] = args.lam
    if getattr(args, "time_limit", None) is not None:
        overrides["time_limit"] = args.time_limit
        if getattr(args, "lam", None) is None:
            overrides["lambda_budget"] = None
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    try:
        config = SolverConfig.from_file(config_path) if config_path else SolverConfig()
        return replace(config, **overrides)
    except OSError as exc:
        raise InputError(f"cannot read config file {config_path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"bad configuration: {exc}") from exc


def cmd_solve(args) -> int:
    inst = _load_instance(args.file)
    sched, stats = solve(inst, _build_config(args))
    print(f"instance      : {inst.name or args.file}")
    print(f"makespan      : {sched.makespan}")
    print(f"cp lower bound: {stats.cp_bound}")
    print(f"schedules     : {stats.schedules_generated}")
    print(f"seconds       : {stats.seconds:.2f}")
    if args.starts:
        print("starts        :", " ".join(map(str, sched.starts)))
    return 0


def cmd_bench(args) -> int:
    if not os.path.isdir(args.directory):
        raise InputError(f"no such directory: {args.directory}")
    config = _build_config(args)
    bounds = None
    if args.bounds:
        if not os.path.isfile(args.bounds):
            raise InputError(f"no such bounds file: {args.bounds}")
        try:
            bounds = read_bounds_csv(args.bounds)
        except (OSError, ValueError) as exc:  # a decode error is a ValueError
            raise InputError(f"bad bounds file {args.bounds}: {exc}") from exc
    try:
        report = run_benchmark(
            args.directory,
            config,
            out_path=args.out,
            csv_path=args.csv,
            threads=args.threads,
        )
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    print(format_table(report))
    if bounds is not None:
        improvements = compare_bounds(report, bounds)
        if improvements:
            print("improved over best known:")
            for name, achieved, known in improvements:
                print(f"  {name}: {achieved} < {known}")
        else:
            print("no improvements over best known bounds")
    if report.failed:
        raise InputError(
            f"{len(report.failed)} instance(s) failed: "
            + "; ".join(f"{r.name}: {r.error}" for r in report.failed)
        )
    return 0


def cmd_rank(args) -> int:
    inst = _load_instance(args.file)
    result = rank_and_weigh(inst, mode="ratio")
    print(f"instance          : {inst.name or args.file}")
    print(f"relaxed makespan  : {result.relaxed_makespan}")
    print(f"residues          : {' '.join(map(str, result.residues))}")
    print(f"rank (scarce 1st) : {' '.join(str(k + 1) for k in result.rank)}")
    print(f"ratio weights     : {' '.join(f'{w:.3f}' for w in result.weights)}")
    return 0


def cmd_validate(args) -> int:
    target = args.path
    if not os.path.isdir(target):
        _load_instance(target)  # parse_sm rejects an invalid instance
        print("ok")
        return 0
    bad = 0
    try:
        for name, _, text in dataset_files(target):
            try:
                parse_sm(text, name=name)
            except ValueError as exc:
                print(f"{name}: {exc}")
                bad += 1
            else:
                print(f"{name}: ok")
    except OSError as exc:
        raise InputError(str(exc)) from exc
    if bad:
        raise InputError(f"{bad} invalid instance(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcpsp-hybrid",
        description="Hybrid GA + neighborhood-search RCPSP solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a single .sm instance")
    p_solve.add_argument("file")
    p_bench = sub.add_parser("bench", help="benchmark a dataset directory")
    p_bench.add_argument("directory")
    for p in (p_solve, p_bench):
        p.add_argument("--lambda", dest="lam", type=int, help="schedule budget")
        p.add_argument("--time-limit", type=float, help="wall-clock cap in seconds")
        p.add_argument("--seed", type=int)
        p.add_argument("--config", help="key = value config file")
    p_solve.add_argument("--starts", action="store_true", help="print the start vector")
    p_solve.set_defaults(func=cmd_solve)

    p_bench.add_argument("--threads", type=int, default=1)
    p_bench.add_argument("--out", help="makespan file path")
    p_bench.add_argument("--csv", help="machine-readable summary path")
    p_bench.add_argument("--bounds", help="CSV of (instance, best-known)")
    p_bench.set_defaults(func=cmd_bench)

    p_rank = sub.add_parser("rank", help="print relaxation makespan, residues, ranks, weights")
    p_rank.add_argument("file")
    p_rank.set_defaults(func=cmd_rank)

    p_validate = sub.add_parser("validate", help="validate an instance file or directory")
    p_validate.add_argument("path")
    p_validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
