"""Benchmark harness: run a dataset under a schedule budget, compute the
average percent deviation from the critical-path lower bound, and emit
per-instance makespan files and summary tables."""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional

from .psplib import load_dataset
from .solver import SolverConfig, solve


@dataclass(frozen=True)
class InstanceResult:
    name: str
    makespan: int
    cp_bound: int
    schedules: int
    seconds: float

    @property
    def deviation_pct(self) -> float:
        return 100.0 * (self.makespan - self.cp_bound) / max(self.cp_bound, 1)


@dataclass
class BenchReport:
    rows: list[InstanceResult]

    @property
    def apd(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.deviation_pct for r in self.rows) / len(self.rows)


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
    most one worker process per instance is started."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, not {threads}")
    instances = load_dataset(dataset_dir)
    jobs = [
        (name, inst, replace(config, seed=config.seed + idx))
        for idx, (name, inst) in enumerate(instances)
    ]
    # the pool forks all its workers at once, whether or not they get a job
    workers = min(threads, len(jobs))
    if workers <= 1:
        rows = [_solve_one(job) for job in jobs]
    else:
        # imported here: multiprocessing adds about 20 ms to every import
        # of the package, and only a pool uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_solve_one, jobs, chunksize=1))
    rows.sort(key=lambda r: r.name)
    report = BenchReport(rows)
    if out_path:
        write_makespans(report, out_path)
    if csv_path:
        write_csv(report, csv_path)
    return report


def write_makespans(report: BenchReport, path: str) -> None:
    """One line per instance: `<name> <makespan>`, lexicographic order."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in sorted(report.rows, key=lambda r: r.name):
            fh.write(f"{row.name} {row.makespan}\n")


def write_csv(report: BenchReport, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["name", "makespan", "cp_bound", "deviation_pct", "schedules", "seconds"]
        )
        for row in sorted(report.rows, key=lambda r: r.name):
            writer.writerow(
                [
                    row.name,
                    row.makespan,
                    row.cp_bound,
                    f"{row.deviation_pct:.4f}",
                    row.schedules,
                    f"{row.seconds:.3f}",
                ]
            )
        writer.writerow(["APD", "", "", f"{report.apd:.2f}", "", ""])


def read_bounds_csv(path: str) -> dict[str, int]:
    """CSV of (instance, best-known); a non-numeric second column on the
    first row is treated as a header."""
    bounds: dict[str, int] = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if len(row) < 2:
                continue
            name, value = row[0].strip(), row[1].strip()
            try:
                bounds[name] = int(float(value))
            except ValueError:
                continue  # header or stray line
    return bounds


def compare_bounds(
    report: BenchReport, bounds: dict[str, int]
) -> list[tuple[str, int, int]]:
    """(name, achieved, best_known) for instances beating the best known;
    unknown names in the bounds map are skipped with a warning."""
    by_name = {r.name: r for r in report.rows}
    improvements = []
    for name, best_known in sorted(bounds.items()):
        row = by_name.get(name)
        if row is None:
            print(f"warning: bounds list unknown instance '{name}'", file=sys.stderr)
            continue
        if row.makespan < best_known:
            improvements.append((name, row.makespan, best_known))
    return improvements


def format_table(report: BenchReport) -> str:
    header = f"{'instance':<16} {'makespan':>9} {'cp':>6} {'dev%':>8} {'scheds':>8} {'sec':>7}"
    lines = [header, "-" * len(header)]
    for row in sorted(report.rows, key=lambda r: r.name):
        lines.append(
            f"{row.name:<16} {row.makespan:>9} {row.cp_bound:>6} "
            f"{row.deviation_pct:>8.2f} {row.schedules:>8} {row.seconds:>7.2f}"
        )
    lines.append("-" * len(header))
    lines.append(f"APD over {len(report.rows)} instances: {report.apd:.2f}%")
    return "\n".join(lines)
