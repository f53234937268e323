import concurrent.futures
import csv
import random
from dataclasses import replace

import pytest

from rcpsp_hybrid import bench
from rcpsp_hybrid.bench import (
    BenchReport,
    InstanceResult,
    compare_bounds,
    format_table,
    read_bounds_csv,
    run_benchmark,
    write_csv,
    write_makespans,
)
from rcpsp_hybrid.psplib import write_sm
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.solver import SolverConfig, solve


def _row(name, makespan, cp, schedules=100, seconds=0.1):
    return InstanceResult(name, makespan, cp, schedules, seconds)


# ------------------------------------------------------------------ report


def test_apd_arithmetic():
    report = BenchReport([_row("a", 11, 10), _row("b", 22, 20)])
    assert report.apd == 10.0


def test_apd_empty():
    assert BenchReport([]).apd == 0.0


def test_apd_permutation_invariant():
    rows = [_row(f"i{k}", 10 + k, 10) for k in range(6)]
    forward = BenchReport(rows).apd
    backward = BenchReport(rows[::-1]).apd
    assert forward == backward


def test_deviation_pct():
    assert _row("x", 77, 70).deviation_pct == pytest.approx(10.0)
    assert _row("y", 70, 70).deviation_pct == 0.0


# ---------------------------------------------------------------- outputs


def test_write_makespans_format(tmp_path):
    report = BenchReport([_row("b1", 12, 10), _row("a2", 77, 70)])
    path = tmp_path / "makespans.txt"
    write_makespans(report, str(path))
    assert path.read_bytes() == b"a2 77\nb1 12\n"


def test_write_makespans_empty(tmp_path):
    path = tmp_path / "empty.txt"
    write_makespans(BenchReport([]), str(path))
    assert path.read_bytes() == b""


def test_write_csv_has_apd_row(tmp_path):
    report = BenchReport([_row("a", 11, 10), _row("b", 22, 20)])
    path = tmp_path / "out.csv"
    write_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("name,")
    assert lines[-1].startswith("APD,")
    assert ",10.00," in lines[-1]


def test_format_table_mentions_apd():
    report = BenchReport([_row("a", 11, 10)])
    text = format_table(report)
    assert "APD over 1 instances: 10.00%" in text


# ----------------------------------------------------------------- bounds


def test_read_bounds_csv(tmp_path):
    path = tmp_path / "bounds.csv"
    path.write_text("instance,best\nj1,78\nj2,55\n")
    assert read_bounds_csv(str(path)) == {"j1": 78, "j2": 55}


def test_compare_bounds_improvement():
    report = BenchReport([_row("j1", 77, 70)])
    assert compare_bounds(report, {"j1": 78}) == [("j1", 77, 78)]


def test_compare_bounds_tie_not_listed():
    report = BenchReport([_row("j1", 78, 70)])
    assert compare_bounds(report, {"j1": 78}) == []


def test_compare_bounds_unknown_name_warns(capsys):
    report = BenchReport([_row("j1", 77, 70)])
    assert compare_bounds(report, {"ghost": 1}) == []
    assert "ghost" in capsys.readouterr().err


def test_compare_bounds_empty():
    assert compare_bounds(BenchReport([_row("j1", 77, 70)]), {}) == []


# -------------------------------------------------------------- benchmark


def _write_dataset(tmp_path, count=3, seed=0):
    rng = random.Random(seed)
    for idx in range(count):
        inst = random_instance(rng, rng.randint(4, 10), 2)
        (tmp_path / f"inst{idx}.sm").write_text(write_sm(inst))


def test_run_benchmark_deterministic_files(tmp_path):
    _write_dataset(tmp_path)
    cfg = SolverConfig(lambda_budget=150, population_capacity=6, seed=42)
    outs = []
    for run in range(2):
        out = tmp_path / f"makespans_{run}.txt"
        run_benchmark(str(tmp_path), cfg, out_path=str(out))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_benchmark_threads_match_serial(tmp_path):
    _write_dataset(tmp_path)
    cfg = SolverConfig(lambda_budget=150, population_capacity=6, seed=7)
    serial = run_benchmark(str(tmp_path), cfg, threads=1)
    pooled = run_benchmark(str(tmp_path), cfg, threads=2)
    assert [(r.name, r.makespan) for r in serial.rows] == [
        (r.name, r.makespan) for r in pooled.rows
    ]


class _PoolRecorder:
    """Stands in for ProcessPoolExecutor: records the worker count asked
    for and runs the jobs in this process, so no process is started."""

    workers: list = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "count, threads, workers",
    [(3, 5000, [3]), (3, 2, [2]), (1, 8, []), (3, 1, [])],
)
def test_run_benchmark_starts_at_most_one_worker_per_instance(
    tmp_path, monkeypatch, count, threads, workers
):
    _write_dataset(tmp_path, count=count)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolRecorder)
    monkeypatch.setattr(_PoolRecorder, "workers", [])
    cfg = SolverConfig(lambda_budget=50, population_capacity=4, seed=3)
    report = run_benchmark(str(tmp_path), cfg, threads=threads)
    assert _PoolRecorder.workers == workers
    assert len(report.rows) == count


@pytest.mark.parametrize("threads", [0, -1])
def test_run_benchmark_rejects_fewer_than_one_thread(tmp_path, monkeypatch, threads):
    _write_dataset(tmp_path)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolRecorder)
    monkeypatch.setattr(_PoolRecorder, "workers", [])
    with pytest.raises(ValueError, match="threads"):
        run_benchmark(str(tmp_path), SolverConfig(lambda_budget=50), threads=threads)
    assert _PoolRecorder.workers == []


def test_run_benchmark_rows_sorted_and_complete(tmp_path):
    _write_dataset(tmp_path, count=4)
    cfg = SolverConfig(lambda_budget=100, population_capacity=4, seed=1)
    report = run_benchmark(str(tmp_path), cfg)
    names = [r.name for r in report.rows]
    assert names == sorted(names)
    assert len(names) == 4
    for r in report.rows:
        assert r.makespan >= r.cp_bound


def test_run_benchmark_parse_failure_names_file(tmp_path):
    (tmp_path / "broken.sm").write_text("not a psplib file")
    cfg = SolverConfig(lambda_budget=50)
    report = run_benchmark(str(tmp_path), cfg)
    assert [(r.name, r.makespan) for r in report.rows] == [("broken", None)]
    assert report.rows[0].error
    assert report.failed == report.rows and report.solved == []


def _write_mixed_dataset(tmp_path):
    """Three good instances on two resources and a file that does not
    parse."""
    rng = random.Random(5)
    good = {}
    for name in ("a0", "c1", "e2"):
        good[name] = random_instance(rng, rng.randint(4, 10), 2)
        (tmp_path / f"{name}.sm").write_text(write_sm(good[name]))
    (tmp_path / "b_broken.sm").write_text("not a psplib file")
    return good


@pytest.mark.parametrize("threads", [1, 2])
def test_run_benchmark_reports_bad_instances_and_solves_the_rest(tmp_path, monkeypatch, threads):
    data = tmp_path / "data"
    data.mkdir()
    good = _write_mixed_dataset(data)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolRecorder)
    monkeypatch.setattr(_PoolRecorder, "workers", [])
    cfg = SolverConfig(lambda_budget=60, population_capacity=4, seed=3)
    out, csv_out = tmp_path / "makespans.txt", tmp_path / "summary.csv"
    report = run_benchmark(str(data), cfg, out_path=str(out), csv_path=str(csv_out), threads=threads)

    assert _PoolRecorder.workers == ([2] if threads == 2 else [])
    assert [r.name for r in report.rows] == ["a0", "b_broken", "c1", "e2"]
    assert [r.name for r in report.failed] == ["b_broken"]
    # each good file solves with the seed of its place among all files
    for idx, name in ((0, "a0"), (2, "c1"), (3, "e2")):
        sched, _ = solve(good[name], replace(cfg, seed=cfg.seed + idx))
        assert next(r.makespan for r in report.rows if r.name == name) == sched.makespan
    assert report.apd == sum(r.deviation_pct for r in report.solved) / 3

    lines = out.read_text().splitlines()
    assert lines[1] == f"b_broken failed: {report.failed[0].error}"
    rows = list(csv.reader(csv_out.read_text().splitlines()))
    assert rows[0][-1] == "error" and len({len(row) for row in rows}) == 1
    assert rows[2][:4] == ["b_broken", "", "", ""] and rows[2][-1] == report.failed[0].error
    assert rows[1][-1] == ""
    table = format_table(report)
    assert "APD over 3 instances" in table and "failed: 1 instance(s)" in table
    assert "b_broken         failed: " in table


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_run_benchmark_lets_other_errors_through(tmp_path, monkeypatch, error):
    """Only a file that does not parse gets a failure row; an error from a
    solve is a solver bug and propagates."""
    _write_dataset(tmp_path)

    def crash(inst, config):
        raise error("solver bug")

    monkeypatch.setattr(bench, "solve", crash)
    with pytest.raises(error, match="solver bug"):
        run_benchmark(str(tmp_path), SolverConfig(lambda_budget=50))


def test_clean_run_files_have_no_error_column(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    _write_dataset(data)
    csv_out = tmp_path / "summary.csv"
    report = run_benchmark(str(data), SolverConfig(lambda_budget=50), csv_path=str(csv_out))
    assert csv_out.read_text().splitlines()[0] == "name,makespan,cp_bound,deviation_pct,schedules,seconds"
    assert "failed" not in format_table(report)
