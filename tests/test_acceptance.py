"""End-to-end acceptance suite.

Each test states its target and tolerance inline and prints a one-line
verdict so a full run doubles as a scorecard.  The PSPLIB dataset tests
need the instance files (and, for j30, an optima CSV) on disk; point
PSPLIB_DIR at a directory containing j30/, j60/, j120/ or place them
under data/psplib/.  Without the datasets those tests skip with an
explicit reason rather than silently passing.
"""

import os
import random
import time

import pytest

from rcpsp_hybrid.bench import run_benchmark
from rcpsp_hybrid.genetic import Individual
from rcpsp_hybrid.model import (
    critical_path_lower_bound,
    is_feasible,
    random_feasible_list,
)
from rcpsp_hybrid.neighborhood import (
    create_block,
    grasp_knapsack,
    neighborhood_a_move,
    neighborhood_b_move,
)
from rcpsp_hybrid.psplib import write_sm
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.ranking import solve_cumulative_relaxation
from rcpsp_hybrid.sgs import fbi, left_shift, parallel_sgs, serial_sgs
from rcpsp_hybrid.solver import SolverConfig, solve
from oracles import brute_force_knapsack, brute_force_optimum


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _psplib_dir(name: str):
    candidates = []
    env = os.environ.get("PSPLIB_DIR")
    if env:
        candidates.append(os.path.join(env, name))
    candidates.append(
        os.path.join(os.path.dirname(__file__), "..", "data", "psplib", name)
    )
    for cand in candidates:
        if os.path.isdir(cand) and any(
            f.lower().endswith(".sm") for f in os.listdir(cand)
        ):
            return cand
    return None


def _bounds_csv(name: str):
    env = os.environ.get("PSPLIB_DIR")
    candidates = []
    if env:
        candidates.append(os.path.join(env, f"{name}_optima.csv"))
    candidates.append(
        os.path.join(
            os.path.dirname(__file__), "..", "data", "psplib", f"{name}_optima.csv"
        )
    )
    for cand in candidates:
        if os.path.isfile(cand):
            return cand
    return None


# ---------------------------------------------------------------------------
# 1. Feasibility: 1000 random instances, every emitted schedule feasible.


def test_criterion_1_feasibility_suite():
    rng = random.Random(1001)
    t0 = time.monotonic()
    for i in range(1000):
        inst = random_instance(rng, rng.randint(1, 50), rng.randint(1, 4))
        lst = random_feasible_list(inst, rng)
        serial = serial_sgs(inst, lst)
        parallel = parallel_sgs(inst, lst)
        polished = fbi(inst, serial)
        shifted = left_shift(inst, parallel)
        emitted = [serial, parallel, polished, shifted]

        if inst.n_real >= 2:
            j = rng.randrange(1, inst.sink)
            block = create_block(inst, j, serial, 4, rng)
            moved = neighborhood_a_move(
                inst, serial, block, (1.0,) * inst.n_resources, 3, rng
            )
            if moved is not None:
                emitted.append(moved)
            rebuilt = neighborhood_b_move(
                inst, lst, serial, block, (1.0,) * inst.n_resources, rng
            )
            if rebuilt is not None:
                emitted.append(serial_sgs(inst, rebuilt))

        solved, _ = solve(
            inst,
            SolverConfig(lambda_budget=30, population_capacity=4, seed=i),
        )
        emitted.append(solved)
        for sched in emitted:
            assert is_feasible(inst, sched)
    elapsed = time.monotonic() - t0
    _verdict("1 feasibility", elapsed < 120, f"1000 instances in {elapsed:.1f}s")
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 2. Oracle equivalence: solve at λ=2000 matches exhaustive optimum ≥ 49/50.


def _tiny_instances(seed: int, count: int):
    rng = random.Random(seed)
    return [
        random_instance(rng, rng.randint(1, 6), rng.randint(1, 2), max_duration=6)
        for _ in range(count)
    ]


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    instances = _tiny_instances(2002, 50)
    matched = 0
    for i, inst in enumerate(instances):
        optimum = brute_force_optimum(inst)
        sched, _ = solve(
            inst,
            SolverConfig(lambda_budget=2000, population_capacity=6, seed=i),
        )
        if sched.makespan == optimum:
            matched += 1
    elapsed = time.monotonic() - t0
    _verdict(
        "2 oracle equivalence",
        matched >= 49 and elapsed < 60,
        f"{matched}/50 optimal in {elapsed:.1f}s",
    )
    assert matched >= 49
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 3. Relaxation bound: cp ≤ relaxed makespan ≤ optimum, every instance.


def test_criterion_3_relaxation_bound():
    instances = _tiny_instances(2002, 50)
    for inst in instances:
        cp = critical_path_lower_bound(inst)
        relaxed, _ = solve_cumulative_relaxation(inst)
        optimum = brute_force_optimum(inst)
        assert cp <= relaxed.makespan <= optimum
    _verdict("3 relaxation bound", True, "50/50 orderings hold")


# ---------------------------------------------------------------------------
# 4–6. PSPLIB reproductions; skip with reason when datasets are absent.


@pytest.mark.skipif(
    _psplib_dir("j30") is None or _bounds_csv("j30") is None,
    reason="PSPLIB j30 dataset/optima not present (set PSPLIB_DIR or "
    "populate data/psplib/j30 and data/psplib/j30_optima.csv)",
)
def test_criterion_4_j30_sanity():
    from rcpsp_hybrid.bench import read_bounds_csv

    config = SolverConfig(lambda_budget=50000, seed=0)
    report = run_benchmark(_psplib_dir("j30"), config, threads=8)
    optima = read_bounds_csv(_bounds_csv("j30"))
    assert len(report.rows) == 480
    hits = 0
    devs = []
    for row in report.rows:
        best = optima[row.name]
        if row.makespan == best:
            hits += 1
        devs.append(100.0 * (row.makespan - best) / best)
    hit_rate = hits / len(report.rows)
    avg_dev = sum(devs) / len(devs)
    ok = hit_rate >= 0.85 and avg_dev <= 0.30
    _verdict("4 j30 sanity", ok, f"optimal {hit_rate:.1%}, avg dev {avg_dev:.3f}%")
    assert hit_rate >= 0.85
    assert avg_dev <= 0.30


@pytest.mark.skipif(
    _psplib_dir("j60") is None,
    reason="PSPLIB j60 dataset not present (set PSPLIB_DIR or populate "
    "data/psplib/j60)",
)
def test_criterion_5_j60_apd():
    config = SolverConfig(lambda_budget=50000, seed=0)
    report = run_benchmark(_psplib_dir("j60"), config, threads=8)
    _verdict("5 j60 APD", report.apd <= 10.80, f"APD {report.apd:.2f} (target ≤ 10.80)")
    assert report.apd <= 10.80


@pytest.mark.skipif(
    _psplib_dir("j120") is None,
    reason="PSPLIB j120 dataset not present (set PSPLIB_DIR or populate "
    "data/psplib/j120)",
)
def test_criterion_6_j120_apd():
    config = SolverConfig(lambda_budget=50000, seed=0)
    report = run_benchmark(_psplib_dir("j120"), config, threads=8)
    _verdict("6 j120 APD", report.apd <= 31.60, f"APD {report.apd:.2f} (target ≤ 31.60)")
    assert report.apd <= 31.60


# ---------------------------------------------------------------------------
# 7. FBI/left-shift: monotone and idempotent on 10000 pairs, zero tolerance.


def test_criterion_7_fbi_monotone_idempotent():
    rng = random.Random(7007)
    for _ in range(10000):
        inst = random_instance(rng, rng.randint(1, 20), rng.randint(1, 3))
        sched = serial_sgs(inst, random_feasible_list(inst, rng))
        for op in (fbi, left_shift):
            out = op(inst, sched)
            assert out.makespan <= sched.makespan
            assert is_feasible(inst, out)
            assert op(inst, out) == out
    _verdict("7 FBI monotone+idempotent", True, "10000/10000 pairs")


# ---------------------------------------------------------------------------
# 8. Knapsack quality: feasible 100%, ≥ greedy 100%, = optimum ≥ 90%.


def _greedy_value(demands, remaining, values):
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    rem = list(remaining)
    total = 0.0
    for i in order:
        if all(d <= r for d, r in zip(demands[i], rem)):
            total += values[i]
            rem = [r - d for r, d in zip(rem, demands[i])]
    return total


def test_criterion_8_knapsack_quality():
    rng = random.Random(8008)
    trials = 500
    optimal = 0
    for _ in range(trials):
        m = rng.randint(1, 15)
        n_res = rng.randint(1, 4)
        remaining = [rng.randint(3, 14) for _ in range(n_res)]
        demands, values = [], []
        while len(demands) < m:
            d = tuple(rng.randint(0, 7) for _ in range(n_res))
            if all(x <= c for x, c in zip(d, remaining)):
                demands.append(d)
                values.append(round(rng.uniform(0.05, 1.0), 3))
        picked = grasp_knapsack(
            list(range(m)), remaining, demands, values, rng
        )
        for k, cap in enumerate(remaining):
            assert sum(demands[i][k] for i in picked) <= cap
        total = sum(values[i] for i in picked)
        assert total >= _greedy_value(demands, remaining, values) - 1e-9
        if abs(total - brute_force_knapsack(demands, remaining, values)) < 1e-9:
            optimal += 1
    rate = optimal / trials
    _verdict("8 knapsack quality", rate >= 0.90, f"optimal on {rate:.1%} of {trials}")
    assert rate >= 0.90


# ---------------------------------------------------------------------------
# 9. Determinism: byte-identical makespan files for identical seed/config.


def test_criterion_9_bench_determinism(tmp_path):
    rng = random.Random(9009)
    data = tmp_path / "data"
    data.mkdir()
    for idx in range(5):
        inst = random_instance(rng, rng.randint(10, 25), rng.randint(1, 4))
        (data / f"inst{idx}.sm").write_text(write_sm(inst))
    config = SolverConfig(lambda_budget=300, population_capacity=8, seed=99)
    payloads = []
    for run in range(2):
        out = tmp_path / f"makespans_{run}.txt"
        run_benchmark(str(data), config, out_path=str(out))
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1]
    _verdict("9 determinism", ok, f"{len(payloads[0])}-byte files identical")
    assert ok


# ---------------------------------------------------------------------------
# 10. Throughput: one 120-activity instance, λ=50000, ≤ 60 s single-threaded.
# Run on a synthetic 120-activity/4-resource instance when PSPLIB is absent.


def test_criterion_10_throughput():
    directory = _psplib_dir("j120")
    if directory is not None:
        from rcpsp_hybrid.psplib import load_dataset

        inst = load_dataset(directory)[0][1]
    else:
        inst = random_instance(random.Random(1010), 120, 4, edge_probability=0.1)
    t0 = time.monotonic()
    sched, stats = solve(inst, SolverConfig(lambda_budget=50000, seed=0))
    elapsed = time.monotonic() - t0
    assert is_feasible(inst, sched)
    assert stats.schedules_generated >= 50000
    source = "j120" if directory else "synthetic 120-activity"
    _verdict("10 throughput", elapsed <= 60, f"{source} instance in {elapsed:.1f}s")
    assert elapsed <= 60
