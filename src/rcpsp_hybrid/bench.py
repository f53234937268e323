"""Benchmark harness: run a dataset under a schedule budget, compute the
average percent deviation from the critical-path lower bound, and emit
per-instance makespan files and summary tables.  A file that does not
parse gets a failure row with its reason, and the other instances still
run."""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional

from .psplib import dataset_files, parse_sm
from .solver import SolverConfig, solve


@dataclass(frozen=True)
class InstanceResult:
    """One instance's row; a failed one has no makespan and bound, only
    the reason it failed."""

    name: str
    makespan: Optional[int]
    cp_bound: Optional[int]
    schedules: int
    seconds: float
    error: Optional[str] = None

    @property
    def deviation_pct(self) -> float:
        return 100.0 * (self.makespan - self.cp_bound) / max(self.cp_bound, 1)


@dataclass
class BenchReport:
    rows: list[InstanceResult]

    @property
    def solved(self) -> list[InstanceResult]:
        return [r for r in self.rows if r.error is None]

    @property
    def failed(self) -> list[InstanceResult]:
        return [r for r in self.rows if r.error is not None]

    @property
    def apd(self) -> float:
        """Over the solved rows only."""
        solved = self.solved
        if not solved:
            return 0.0
        return sum(r.deviation_pct for r in solved) / len(solved)


def _solve_one(args) -> InstanceResult:
    name, inst, config = args
    t0 = time.monotonic()
    sched, stats = solve(inst, config)
    return InstanceResult(
        name=name,
        makespan=sched.makespan,
        cp_bound=stats.cp_bound,
        schedules=stats.schedules_generated,
        seconds=time.monotonic() - t0,
    )


def run_benchmark(
    dataset_dir: str,
    config: SolverConfig,
    out_path: Optional[str] = None,
    csv_path: Optional[str] = None,
    threads: int = 1,
) -> BenchReport:
    """Solve every instance with an independently seeded run; deterministic
    for a given (seed, config, dataset) regardless of worker count.  At
    most one worker process per instance is started.  The i-th file, in
    name order, solves with seed `config.seed + i`.  A file that does not
    parse gives a failure row; an unreadable file (OSError) and any
    exception from a solve propagate."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, not {threads}")
    rows: list[InstanceResult] = []
    jobs = []
    for idx, (name, _, text) in enumerate(dataset_files(dataset_dir)):
        try:
            inst = parse_sm(text, name=name)
        except ValueError as exc:
            rows.append(InstanceResult(name, None, None, 0, 0.0, error=str(exc)))
            continue
        jobs.append((name, inst, replace(config, seed=config.seed + idx)))
    # the pool forks all its workers at once, whether or not they get a job
    workers = min(threads, len(jobs))
    if workers <= 1:
        rows += map(_solve_one, jobs)
    else:
        # imported here: multiprocessing adds about 20 ms to every import
        # of the package, and only a pool uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows += pool.map(_solve_one, jobs, chunksize=1)
    rows.sort(key=lambda r: r.name)
    report = BenchReport(rows)
    if out_path:
        write_makespans(report, out_path)
    if csv_path:
        write_csv(report, csv_path)
    return report


def write_makespans(report: BenchReport, path: str) -> None:
    """One line per instance: `<name> <makespan>`, or `<name> failed:
    <reason>`, lexicographic order."""
    with open(path, "w", encoding="ascii", errors="replace", newline="\n") as fh:
        for row in sorted(report.rows, key=lambda r: r.name):
            if row.error is None:
                fh.write(f"{row.name} {row.makespan}\n")
            else:
                fh.write(f"{row.name} failed: {row.error}\n")


def write_csv(report: BenchReport, path: str) -> None:
    """One row per instance and an APD row.  When an instance failed, an
    `error` column holds its reason and its makespan, bound and deviation
    are empty."""
    # only a run with a failure has the error column, so a clean run's file
    # stays as it was
    extra = [""] if report.failed else []
    with open(path, "w", encoding="ascii", errors="replace", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["name", "makespan", "cp_bound", "deviation_pct", "schedules", "seconds"]
            + ["error"] * len(extra)
        )
        for row in sorted(report.rows, key=lambda r: r.name):
            if row.error is None:
                solved = [row.makespan, row.cp_bound, f"{row.deviation_pct:.4f}"]
                tail = extra
            else:
                solved = ["", "", ""]
                tail = [row.error]
            writer.writerow([row.name, *solved, row.schedules, f"{row.seconds:.3f}", *tail])
        writer.writerow(["APD", "", "", f"{report.apd:.2f}", "", ""] + extra)


def read_bounds_csv(path: str) -> dict[str, int]:
    """CSV of (instance, best-known) in UTF-8; a row whose second column
    is not a finite number, such as a header, is skipped."""
    bounds: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if len(row) < 2:
                continue
            name, value = row[0].strip(), row[1].strip()
            try:
                bounds[name] = int(float(value))
            except (ValueError, OverflowError):
                continue  # header, stray line, nan or inf
    return bounds


def compare_bounds(
    report: BenchReport, bounds: dict[str, int]
) -> list[tuple[str, int, int]]:
    """(name, achieved, best_known) for solved instances beating the best
    known; unknown names in the bounds map are skipped with a warning."""
    by_name = {r.name: r for r in report.rows}
    improvements = []
    for name, best_known in sorted(bounds.items()):
        row = by_name.get(name)
        if row is None:
            print(f"warning: bounds list unknown instance '{name}'", file=sys.stderr)
            continue
        if row.error is None and row.makespan < best_known:
            improvements.append((name, row.makespan, best_known))
    return improvements


def format_table(report: BenchReport) -> str:
    header = f"{'instance':<16} {'makespan':>9} {'cp':>6} {'dev%':>8} {'scheds':>8} {'sec':>7}"
    lines = [header, "-" * len(header)]
    for row in sorted(report.rows, key=lambda r: r.name):
        if row.error is None:
            lines.append(
                f"{row.name:<16} {row.makespan:>9} {row.cp_bound:>6} "
                f"{row.deviation_pct:>8.2f} {row.schedules:>8} {row.seconds:>7.2f}"
            )
        else:
            lines.append(f"{row.name:<16} failed: {row.error}")
    lines.append("-" * len(header))
    lines.append(f"APD over {len(report.solved)} instances: {report.apd:.2f}%")
    if report.failed:
        lines.append(f"failed: {len(report.failed)} instance(s)")
    return "\n".join(lines)
