"""Tests of the benchmark itself: the ProGen-style generator, the layer
tracer, the output checks and BENCHMARK.json's agreement with run.py."""

import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
for _p in (str(BENCH_DIR), str(REPO / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import rcpsp_hybrid as rh  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from progen import K, PER_PICK, ProgenParams, generate, stratified  # noqa: E402


# ------------------------------------------------------------- generator


@pytest.mark.parametrize("n,nc,rf,rs", [(30, 1.5, 0.5, 0.2), (30, 2.1, 1.0, 0.5), (120, 1.8, 0.75, 0.3)])
def test_generator_deterministic_per_seed(n, nc, rf, rs):
    p = ProgenParams(n=n, nc=nc, rf=rf, rs=rs)
    a, rec_a = generate(random.Random(7), p, name="x")
    b, rec_b = generate(random.Random(7), p, name="x")
    c, _ = generate(random.Random(8), p, name="x")
    assert rh.write_sm(a) == rh.write_sm(b)
    assert rec_a == rec_b
    assert rh.write_sm(a) != rh.write_sm(c)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("rf,rs", [(0.25, 0.2), (0.5, 0.5), (0.75, 0.7), (1.0, 1.0), (0.5, 0.0)])
def test_generator_meets_rf_exactly_and_rs_within_rounding(seed, rf, rs):
    n = 32  # rf * n * K is whole for every rf above
    inst, rec = generate(random.Random(seed), ProgenParams(n=n, rf=rf, rs=rs))
    used = sum(1 for j in range(1, inst.sink) for d in inst.demands[j] if d)
    assert used == rf * n * K
    assert rec["rf"] == rf
    for k in range(K):
        lo, hi = rec["k_min"][k], rec["k_max"][k]
        assert lo == max(inst.demands[j][k] for j in range(len(inst)))
        assert lo <= inst.capacities[k] <= max(lo, hi)
        if hi > lo:
            assert abs((inst.capacities[k] - lo) / (hi - lo) - rs) <= 0.5 / (hi - lo) + 1e-12


def test_generator_network_and_round_trip():
    inst, rec = generate(random.Random(3), ProgenParams(n=30, nc=1.8))
    assert rh.validate_instance(inst) is None
    assert abs(rec["nc"] - 1.8) < 0.1
    # every activity uses at least one resource; none is a hidden dummy
    assert all(any(inst.demands[j]) for j in range(1, inst.sink))
    again = rh.parse_sm(rh.write_sm(inst))
    assert again.arcs == inst.arcs and again.demands == inst.demands
    assert again.capacities == inst.capacities


def test_stratified_picks_the_middle_of_each_energy_stratum():
    p = ProgenParams(n=30, rf=1.0, rs=0.3)
    picks = stratified(random.Random(5), p, 3)
    rng = random.Random(5)
    candidates = sorted((generate(rng, p) for _ in range(3 * PER_PICK)),
                        key=lambda c: c[1]["energy_ratio"])
    middles = [i * PER_PICK + PER_PICK // 2 for i in range(3)]
    assert [rh.write_sm(i) for i, _ in picks] == [rh.write_sm(candidates[i][0]) for i in middles]
    for inst, rec in picks:
        assert rec["cp"] == rh.critical_path_lower_bound(inst)


# ---------------------------------------------------------------- tracer


def _ns_instance():
    return rh.random_instance(random.Random(3), 14, 2, edge_probability=0.2)


def _ns_config():
    # an NS burst after every non-improving generation, so N_A and N_B run
    return rh.SolverConfig(lambda_budget=900, population_capacity=10,
                           stagnation_trigger=1, ns_burst=120, seed=5)


@pytest.fixture(scope="module")
def traced_solve():
    inst, config = _ns_instance(), _ns_config()
    plain_sched, plain_stats = rh.solve(inst, config)
    tracer = layertrace.Tracer()
    t0 = time.perf_counter()
    with layertrace.traced(tracer):
        sched, stats = rh.solve(inst, config)
    wall = time.perf_counter() - t0
    return plain_sched, plain_stats, sched, stats, tracer, wall


def test_tracing_leaves_schedules_identical(traced_solve):
    plain_sched, plain_stats, sched, stats, tracer, _ = traced_solve
    assert sched.starts == plain_sched.starts
    assert sched.makespan == plain_sched.makespan
    assert stats.trace == plain_stats.trace
    assert stats.schedules_generated == plain_stats.schedules_generated
    # the run exercised the layers the benchmark attributes time to
    for span in ("solver.solve", "genetic.init_population", "neighborhood.ns_run",
                 "neighborhood.neighborhood_a_move", "neighborhood.neighborhood_b_move",
                 "sgs.serial_sgs", "sgs.fbi", "sgs.left_shift"):
        assert tracer.calls[span] > 0, span


def test_self_times_nonnegative_and_within_wall(traced_solve):
    *_, tracer, wall = traced_solve
    assert all(tracer.self_s[s] >= 0 for s in layertrace.SPANS)
    assert sum(tracer.self_s.values()) <= wall
    assert tracer.incl_s["solver.solve"] <= wall
    metrics = layertrace.layer_metrics(tracer, wall)
    assert sum(metrics[f"{s}.self_share"] for s in layertrace.SPANS) <= 1.0


def test_lambda_share_sums_to_one(traced_solve):
    _, _, _, stats, tracer, wall = traced_solve
    assert sum(tracer.charges.values()) == stats.schedules_generated
    shares = layertrace.lambda_shares(tracer)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["solver.lambda_share.other"] == 0.0
    assert all(shares[f"solver.lambda_share.{o}"] > 0 for o in layertrace.OPERATORS)


def test_traced_restores_every_binding():
    import rcpsp_hybrid.genetic as genetic
    import rcpsp_hybrid.sgs as sgs
    import rcpsp_hybrid.solver as solver

    before = (genetic.serial_sgs, sgs.left_shift, solver.Budget.charge, rh.solve)
    with layertrace.traced(layertrace.Tracer()):
        assert genetic.serial_sgs is not before[0]
        assert rh.bench.solve is rh.solve is solver.solve
    assert (genetic.serial_sgs, sgs.left_shift, solver.Budget.charge, rh.solve) == before
    assert not hasattr(genetic.serial_sgs, "__wrapped__")


# ---------------------------------------------------------- output checks


def _dataset(tmp_path, count=3):
    data = tmp_path / "data"
    data.mkdir()
    rng = random.Random(11)
    for i in range(count):
        inst, _ = generate(rng, ProgenParams(n=12, rf=0.5), name=f"t{i}")
        (data / f"t{i}.sm").write_text(rh.write_sm(inst))
    cap = tmp_path / "capture"
    cap.mkdir()
    return data, cap, dict(rh.load_dataset(str(data)))


def test_one_failing_instance_is_counted_not_fatal(tmp_path, monkeypatch):
    data, cap, instances = _dataset(tmp_path)
    real_solve = rh.solver.solve

    def flaky(inst, config):
        if inst.name == "t1":
            raise RuntimeError("boom")
        return real_solve(inst, config)

    monkeypatch.setattr(rh.solver, "solve", flaky)
    w = run.Workload("t", lam=150, threads=1)
    rnd = run.run_round(rh, w, data, cap, instances, threads=1)
    assert rnd.failed == {"t1"}
    assert [r["name"] for r in rnd.rows if r["ok"]] == ["t0", "t2"]
    assert any("boom" in p for p in rnd.problems)


def test_checks_pass_on_real_solves_and_catch_a_bad_schedule(tmp_path):
    data, cap, instances = _dataset(tmp_path, count=2)
    w = run.Workload("t", lam=150, threads=1)
    rnd = run.run_round(rh, w, data, cap, instances, threads=1)
    assert not rnd.problems and not rnd.failed
    again = run.run_round(rh, w, data, cap, instances, threads=1)
    assert again.digest == rnd.digest

    bad = run.Round(rnd.wall, rnd.cpu, 1, [dict(r) for r in rnd.rows])
    bad.rows[0]["starts"] = [0] * len(bad.rows[0]["starts"])
    bad.rows[1]["schedules"] = 10
    run.check_round(rh, bad, instances, 150, None)
    assert bad.failed == {"t0", "t1"}
    assert bad.digest != rnd.digest


def test_metrics_survive_a_round_where_every_solve_failed():
    row = {"name": "a", "ok": False, "pid": 0, "maxrss_kb": 1, "entry_rss_kb": 1, "seconds": 1.0, "cpu_s": 1.0, "ref_units": 0, "ref_cpu_s": 0.0}
    metrics, _ = run.end_to_end([run.Round(1.0, 1.0, 1, [row])], 0.5, 1)
    assert all(value == value for value, _ in metrics.values())  # no NaN


def test_tail_percentile_leaves_ten_beyond():
    assert run.tail_percentile(1) == 100
    assert run.tail_percentile(60) == 83
    for n in (11, 60, 100, 250):
        pct = run.tail_percentile(n)
        assert n - __import__("math").ceil(pct / 100 * n) >= run.TAIL_BEYOND


# ---------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    row = {"name": "a", "ok": True, "pid": 0, "maxrss_kb": 1, "entry_rss_kb": 1, "seconds": 1.0, "cpu_s": 1.0, "ref_units": 0, "ref_cpu_s": 0.0,
           "schedules": 10, "makespan": 5, "cp_bound": 4, "relaxed_makespan": 4}
    e2e, _ = run.end_to_end([run.Round(1.0, 1.0, 1, [row])], 0.5, 1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}

    layers = dict(layertrace.layer_metrics(layertrace.Tracer(), 1.0))
    layers.update({"bench.pool_busy_frac": 0, "trace.overhead_frac": 0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.layer_unit(k) for k in layers
    }


def test_times_are_cpu_seconds_and_workers_add_only_their_growth():
    mine = run.os.getpid()
    rows = [
        {"name": "a", "ok": True, "pid": mine + 1, "maxrss_kb": 5000, "entry_rss_kb": 4000,
         "seconds": 4.0, "cpu_s": 2.0, "ref_units": 0, "ref_cpu_s": 0.0, "schedules": 10, "makespan": 5, "cp_bound": 4,
         "relaxed_makespan": 4},
        {"name": "b", "ok": True, "pid": mine + 1, "maxrss_kb": 6000, "entry_rss_kb": 4000,
         "seconds": 4.0, "cpu_s": 3.0, "ref_units": 0, "ref_cpu_s": 0.0, "schedules": 10, "makespan": 5, "cp_bound": 4,
         "relaxed_makespan": 4},
    ]
    e2e, beside = run.end_to_end([run.Round(8.0, 10.0, 2, rows)], 0.5, 2)
    assert e2e["schedules_per_s"][0] == pytest.approx(20 / 5.0)
    assert e2e["instances_per_s"][0] == pytest.approx(2 / 10.0)
    assert e2e["solve_s_p50"][0] == pytest.approx(2.5)
    assert beside["schedules_per_wall_s"] == pytest.approx(20 / 8.0)
    own_mb = run._maxrss_kb() / 1024
    assert e2e["peak_rss_mb"][0] == pytest.approx(own_mb + 2000 / 1024, abs=1)

    # probes that ran at twice the nominal rate: the host was twice as fast,
    # and the probes' own CPU is not the round's
    rows[0].update(ref_units=2 * hostspeed.REF_RATE, ref_cpu_s=0.5)
    rows[1].update(ref_units=2 * hostspeed.REF_RATE, ref_cpu_s=1.5)
    e2e, beside = run.end_to_end([run.Round(8.0, 12.0, 2, rows)], 0.5, 2)
    assert beside["host_speed"] == pytest.approx(2.0)
    assert e2e["solve_s_p50"][0] == pytest.approx(5.0)
    assert e2e["schedules_per_s"][0] == pytest.approx(20 / 10.0)
    assert e2e["instances_per_s"][0] == pytest.approx(2 / 20.0)


def test_speed_probe_samples_while_the_block_runs():
    with hostspeed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert probe.units > 0 and probe.cpu > 0
    assert hostspeed.factor(probe.units, probe.cpu) > 0
    assert hostspeed.factor(0, 0.0) == 1.0
