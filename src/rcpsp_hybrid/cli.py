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
    write_csv,
    write_makespans,
)
from .psplib import dataset_files, read_sm
from .ranking import rank_and_weigh
from .solver import SolverConfig, solve


class InputError(Exception):
    pass


def _load_instance(path: str):
    try:
        return read_sm(path)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _build_config(args) -> SolverConfig:
    overrides = {}
    if args.lam is not None:
        overrides["lambda_budget"] = args.lam
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        config = SolverConfig.from_file(args.config) if args.config else SolverConfig()
        return replace(config, **overrides)
    except OSError as exc:
        raise InputError(f"cannot read config file {args.config}: {exc}") from exc
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
    config = _build_config(args)
    if args.threads < 1:
        raise InputError(f"threads must be >= 1, not {args.threads}")
    bounds = None
    if args.bounds:
        try:
            bounds = read_bounds_csv(args.bounds)
        except (OSError, ValueError) as exc:  # a decode error is a ValueError
            raise InputError(f"bad bounds file {args.bounds}: {exc}") from exc
    # a bad output path fails before any solve; "a" keeps an older file
    outputs = [("--out", args.out, write_makespans), ("--csv", args.csv, write_csv)]
    outputs = [(option, path, write) for option, path, write in outputs if path]
    for option, path, _ in outputs:
        try:
            open(path, "a").close()
        except OSError as exc:
            raise InputError(f"cannot write {option} file {path}: {exc}") from exc
    # both files exist now; one path for both would lose the makespans
    if args.out and args.csv and os.path.samefile(args.out, args.csv):
        raise InputError(f"--out and --csv name one file: {args.out}")
    try:
        report = run_benchmark(args.directory, config, threads=args.threads)
    except OSError as exc:  # the dataset listing or an unreadable file
        raise InputError(str(exc)) from exc
    for option, path, write in outputs:
        try:
            write(report, path)
        except OSError as exc:
            raise InputError(f"cannot write {option} file {path}: {exc}") from exc
    print(format_table(report))
    if bounds is not None:
        for name in sorted(bounds.keys() - {r.name for r in report.rows}):
            print(f"warning: bounds list unknown instance '{name}'", file=sys.stderr)
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
    result = rank_and_weigh(inst)
    print(f"instance          : {inst.name or args.file}")
    print(f"relaxed makespan  : {result.relaxed_makespan}")
    print(f"residues          : {' '.join(map(str, result.residues))}")
    print(f"rank (scarce 1st) : {' '.join(str(k + 1) for k in result.rank)}")
    print(f"weights           : {' '.join(f'{w:.3f}' for w in result.weights)}")
    return 0


def cmd_validate(args) -> int:
    target = args.path
    if not os.path.isdir(target):
        _load_instance(target)  # read_sm rejects an invalid instance
        print("ok")
        return 0
    bad = 0
    try:
        for name, path in dataset_files(target):
            try:
                read_sm(path)
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


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is bad input: it exits 1, as every input error does,
    and leaves 2 to internal errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    except Exception as exc:  # internal failure; a MemoryError has no message
        detail = f": {exc}" if str(exc) else ""
        print(f"internal error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
