import hashlib
import inspect
import random
from dataclasses import fields

import pytest

from rcpsp_hybrid.genetic import Individual, Population
from rcpsp_hybrid.model import is_feasible, random_feasible_list
from rcpsp_hybrid.neighborhood import ns_run
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.sgs import fbi, serial_sgs
from rcpsp_hybrid.solver import (
    SIGMA1,
    SIGMA2,
    AdaptiveState,
    Budget,
    RunStats,
    SolverConfig,
    _SubBudget,
    adapt_parameters,
    classify_subset,
    solve,
)
from conftest import scaled_durations, with_zero_durations
from oracles import brute_force_optimum


# ----------------------------------------------------------- configuration


def test_config_defaults_valid():
    cfg = SolverConfig()
    assert cfg.lambda_budget == 50000
    # the operator parameters start at the paper's values
    assert SIGMA1 == 0.2 and SIGMA2 == 0.6
    state = AdaptiveState()
    assert state.parent_probability == 0.25
    assert state.dense_threshold == 0.75
    assert state.block_size == 4


def test_config_fields_are_run_settings():
    assert [f.name for f in fields(SolverConfig)] == [
        "lambda_budget",
        "time_limit",
        "population_capacity",
        "ns_burst",
        "stagnation_trigger",
        "weight_mode",
        "seed",
    ]


# operator parameters that are constants beside their operators, not
# configuration: naming one is a TypeError
REMOVED_FIELDS = {
    "sigma1", "sigma2", "parent_probability", "dense_threshold", "block_size",
    "lambda_ns", "elite_count", "parents_size", "mutation_iterations",
    "tabu_capacity", "grasp_constructions", "fbi_passes",
}


@pytest.mark.parametrize(
    "bad",
    [
        dict(lambda_budget=None),
        dict(lambda_budget=0),
        dict(lambda_budget=-5),
        dict(time_limit=0.0),
        dict(lambda_budget=None, time_limit=-1.0),
        dict(lambda_budget=None, time_limit=float("inf")),
        dict(time_limit=float("inf")),
        dict(lambda_budget=None, time_limit=float("nan")),
        dict(block_size=0),
        dict(fbi_passes=-1),
        dict(tabu_capacity=-3),
        dict(grasp_constructions=0),
        dict(population_capacity=2.5),
        dict(population_capacity=0),
        dict(population_capacity=1),
        dict(weight_mode="bogus"),
        dict(sigma1="abc"),
        dict(dense_threshold="abc"),
        dict(dense_threshold=-0.1),
        dict(lambda_ns=0),
        dict(mutation_iterations=-1),
        dict(ns_burst=-1),
        dict(stagnation_trigger=2.5),
        dict(stagnation_trigger=-1),
        dict(elite_count=-3),
        dict(elite_count=0),
        dict(parents_size=0),
        dict(seed=1.5),
        dict(seed=True),
    ],
    ids=repr,
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(TypeError if REMOVED_FIELDS & set(bad) else ValueError):
        SolverConfig(**bad)


def test_config_accepts_edge_values():
    SolverConfig(lambda_budget=None, time_limit=0.5)
    SolverConfig(ns_burst=0, stagnation_trigger=0, seed=-7)
    SolverConfig(population_capacity=2)
    for mode in ("random", "steep", "shallow", "uniform", "ratio"):
        SolverConfig(weight_mode=mode)


def test_config_from_file(tmp_path):
    path = tmp_path / "solver.conf"
    path.write_text(
        "# solver settings\n"
        "lambda_budget = 1234\n"
        "stagnation_trigger = 3\n"
        "weight_mode = uniform  # fixed for reproducibility\n"
        "population_capacity = 2\n"
        "ns_burst = none\n"
    )
    cfg = SolverConfig.from_file(str(path))
    assert cfg.lambda_budget == 1234
    assert cfg.stagnation_trigger == 3
    assert cfg.weight_mode == "uniform"
    assert cfg.population_capacity == 2
    assert cfg.ns_burst is None


def test_config_from_file_reads_each_field_as_its_type(tmp_path):
    path = tmp_path / "solver.conf"
    path.write_text("time_limit = 2\nseed = 7\nweight_mode = none\n")
    with pytest.raises(ValueError, match="weight_mode must be"):
        SolverConfig.from_file(str(path))
    for limit in ("inf", "nan"):
        path.write_text(f"lambda_budget = none\ntime_limit = {limit}\n")
        with pytest.raises(ValueError, match="time_limit must be"):
            SolverConfig.from_file(str(path))
    path.write_text("time_limit = 2\nseed = 7\n")
    cfg = SolverConfig.from_file(str(path))
    assert cfg.time_limit == 2.0 and isinstance(cfg.time_limit, float)
    assert cfg.seed == 7


@pytest.mark.parametrize(
    "text, key",
    [
        ("population_capacity = 2.5\n", "population_capacity"),
        ("population_capacity = 1\n", "population_capacity"),
        # ablations and operator parameters are not config keys
        ("use_crossover = 1\n", "use_crossover"),
        ("unique_init = false\n", "unique_init"),
        ("dense_threshold = abc\nlambda_budget = 3000\n", "dense_threshold"),
        ("elite_count = -3\n", "elite_count"),
        ("fbi_passes = 2\n", "unknown key 'fbi_passes'"),
        ("sigma1 = 0.1\n", "unknown key 'sigma1'"),
        ("tabu_capacity = 10\n", "unknown key 'tabu_capacity'"),
    ],
)
def test_config_from_file_rejects_bad_values(tmp_path, text, key):
    path = tmp_path / "bad.conf"
    path.write_text(text)
    with pytest.raises(ValueError, match=key):
        SolverConfig.from_file(str(path))


def test_config_from_file_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("no_such_option = 3\n")
    with pytest.raises(ValueError, match="no_such_option"):
        SolverConfig.from_file(str(path))


# ------------------------------------------------------------------ budget


def test_budget_counts_and_exhausts():
    b = Budget(3)
    assert not b.exhausted
    b.charge(2)
    assert not b.exhausted
    b.charge()
    assert b.exhausted
    assert b.used == 3


def test_budget_unlimited_without_caps():
    b = Budget(None, None)
    b.charge(10**6)
    assert not b.exhausted


@pytest.mark.parametrize("k", [1, 3, 10, 40])
def test_ns_burst_charges_at_most_its_allowance(k):
    """A burst of k steps under a sub-budget of k schedules never charges
    more than k, though an N_A step may charge up to NA_TRIES; an empty
    step charges nothing, so a burst can also end with allowance left."""
    used = []
    for seed in range(30):
        rng = random.Random(seed)
        inst = random_instance(rng, rng.randint(3, 25), rng.randint(1, 3))
        lst = random_feasible_list(inst, rng)
        start = Individual(lst, serial_sgs(inst, lst))
        budget = Budget(None)
        ns_run(inst, start, (1.0,) * len(inst.capacities), k, rng,
               P=rng.randint(1, 6), budget=_SubBudget(budget, k))
        used.append(budget.used)
    assert max(used) <= k
    assert min(used) < k


# ----------------------------------------------------------- classification


def test_classify_subset_examples():
    assert classify_subset(11, 10) == 1
    assert classify_subset(13, 10) == 2
    assert classify_subset(17, 10) == 3


def test_classify_subset_scale_invariant():
    for scale in (2, 3, 10):
        assert classify_subset(13 * scale, 10 * scale) == 2


# -------------------------------------------------------------- adaptation


def test_adapt_blocks_grow_on_nonempty_neighbors():
    state = AdaptiveState()
    state.ns_nonempty, state.ns_empty = 9, 1
    adapt_parameters(state)
    assert state.block_size == 5


def test_adapt_blocks_shrink_on_empty_neighbors():
    state = AdaptiveState()
    state.ns_nonempty, state.ns_empty = 1, 9
    adapt_parameters(state)
    assert state.block_size == 3


def test_adapt_block_floor_is_one():
    state = AdaptiveState(block_size=1)
    state.ns_nonempty, state.ns_empty = 0, 10
    adapt_parameters(state)
    assert state.block_size == 1


def test_adapt_counts_changes_without_record():
    state = AdaptiveState()
    for expected in (1, 2, 3, 4, 5):
        state.ns_nonempty, state.ns_empty = 10, 0
        state.record_improved = False
        adapt_parameters(state)
        assert state.p_changes_without_record == expected


def test_adapt_record_resets_change_count():
    state = AdaptiveState(p_changes_without_record=4)
    state.ns_nonempty, state.ns_empty = 10, 0
    state.record_improved = True
    adapt_parameters(state)
    assert state.p_changes_without_record == 0


def test_adapt_dense_threshold_moves_toward_supply():
    state = AdaptiveState()
    state.dense_gene_counts = [6, 7, 8]
    adapt_parameters(state)
    assert state.dense_threshold == 0.70

    state.dense_gene_counts = [0, 0]
    adapt_parameters(state)
    assert state.dense_threshold == 0.75


def test_adapt_parent_probability_bounds():
    state = AdaptiveState(parent_probability=0.5)
    state.record_improved = False
    adapt_parameters(state)
    assert state.parent_probability == 0.5  # capped

    state = AdaptiveState(parent_probability=0.25)
    for _ in range(10):
        state.record_improved = False
        adapt_parameters(state)
    assert state.parent_probability == 0.5


# ------------------------------------------------------------------- solve


def test_solve_tiny1(tiny1):
    sched, stats = solve(tiny1, SolverConfig(lambda_budget=100, population_capacity=6, seed=1))
    assert sched.makespan == 5  # brute-force optimum
    assert is_feasible(tiny1, sched)
    assert stats.cp_bound == 3
    assert stats.relaxed_makespan == 4


def test_solve_tiny2_minimal_budget(tiny2):
    sched, stats = solve(tiny2, SolverConfig(lambda_budget=10, population_capacity=4, seed=2))
    assert sched.makespan == 9
    assert stats.subset == 1


def test_solve_deterministic(tiny1):
    cfg = SolverConfig(lambda_budget=300, population_capacity=6, seed=7)
    runs = [solve(tiny1, cfg) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].trace == runs[1][1].trace
    assert runs[0][1].schedules_generated == runs[1][1].schedules_generated


def test_solve_deterministic_on_larger_instance():
    rng = random.Random(3)
    inst = random_instance(rng, 25, 3)
    cfg = SolverConfig(lambda_budget=800, population_capacity=10, seed=11)
    a = solve(inst, cfg)
    b = solve(inst, cfg)
    assert a[0] == b[0]
    assert a[1].trace == b[1].trace


def test_solve_criterion_10_instance_pinned():
    """A short fixed-seed solve of the acceptance criterion-10 instance.
    The expected values come from the decoders before their memo and scan
    changes; a speed-up must leave the search path exactly as it is."""
    inst = random_instance(random.Random(1010), 120, 4, edge_probability=0.1)
    sched, stats = solve(inst, SolverConfig(lambda_budget=3000, seed=0))
    assert stats.trace == [(300, 482)]
    assert stats.schedules_generated == 3000
    assert (stats.generations, stats.ns_bursts) == (5, 1)
    digest = hashlib.sha256(repr(sched.starts).encode()).hexdigest()[:16]
    assert digest == "ef43631f8703d3f8"


def test_solve_is_invariant_to_the_time_unit():
    """Durations a thousand times longer scale every start by a thousand
    and leave the search path as it was: the relaxation, the regime and
    the bursts see only ratios of times."""
    bursts = 0
    for seed in range(12):
        rng = random.Random(seed)
        inst = random_instance(rng, rng.randint(8, 20), rng.randint(1, 4), edge_probability=0.15)
        cfg = SolverConfig(lambda_budget=1500, weight_mode="uniform", seed=seed)
        sched, stats = solve(inst, cfg)
        long_sched, long_stats = solve(scaled_durations(inst, 1000), cfg)
        assert long_sched.starts == tuple(1000 * s for s in sched.starts)
        assert long_stats.schedules_generated == stats.schedules_generated
        assert long_stats.ns_bursts == stats.ns_bursts
        bursts += stats.ns_bursts
    assert bursts >= 5


def test_solve_trace_monotone_and_bounded():
    rng = random.Random(4)
    for _ in range(5):
        inst = random_instance(rng, rng.randint(5, 25), 2)
        cfg = SolverConfig(lambda_budget=600, population_capacity=8, seed=rng.randrange(1000))
        sched, stats = solve(inst, cfg)
        assert is_feasible(inst, sched)
        assert sched.makespan >= stats.cp_bound
        assert stats.relaxed_makespan <= sched.makespan
        spans = [m for _, m in stats.trace]
        assert spans == sorted(spans, reverse=True)
        assert sched.makespan == spans[-1]


def test_solve_matches_brute_force_on_tiny_instances():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_instance(rng, rng.randint(2, 6), 2, max_duration=4)
        cfg = SolverConfig(lambda_budget=500, population_capacity=8, seed=rng.randrange(1000))
        sched, _ = solve(inst, cfg)
        assert sched.makespan == brute_force_optimum(inst)


def test_solve_budget_respected():
    rng = random.Random(6)
    inst = random_instance(rng, 20, 2)
    cfg = SolverConfig(lambda_budget=400, population_capacity=8, seed=1)
    _, stats = solve(inst, cfg)
    # in-flight decodes may overshoot by at most one FBI batch
    fbi_passes = inspect.signature(fbi).parameters["max_passes"].default
    assert stats.schedules_generated <= 400 + 2 * fbi_passes + 2


def test_solve_pure_ga_ablation():
    rng = random.Random(8)
    inst = random_instance(rng, 15, 2)
    cfg = SolverConfig(lambda_budget=400, population_capacity=8, ns_burst=0, seed=3)
    sched, stats = solve(inst, cfg)
    assert is_feasible(inst, sched)


def test_solve_smallest_population(monkeypatch):
    # two members: every stagnation refresh removes one, so one is left to
    # seed the NS burst
    left = []
    remove_worst = Population.remove_worst

    def counting(pop, count=1):
        remove_worst(pop, count)
        left.append(len(pop))

    monkeypatch.setattr(Population, "remove_worst", counting)
    inst = random_instance(random.Random(9), 15, 2)
    cfg = SolverConfig(
        lambda_budget=400, population_capacity=2, stagnation_trigger=0, seed=4
    )
    sched, stats = solve(inst, cfg)
    assert is_feasible(inst, sched)
    assert sched.makespan >= stats.cp_bound
    assert stats.ns_bursts > 0
    assert left and min(left) == 1


def test_solve_two_members_feasible_and_repeatable():
    rng = random.Random(12)
    for _ in range(6):
        inst = random_instance(rng, rng.randint(1, 15), rng.randint(1, 4))
        for variant in (inst, with_zero_durations(inst, rng)):
            cfg = SolverConfig(
                lambda_budget=300, population_capacity=2, seed=rng.randrange(1000)
            )
            sched, stats = solve(variant, cfg)
            assert is_feasible(variant, sched)
            assert sched.makespan >= stats.cp_bound
            again, _ = solve(variant, cfg)
            assert again == sched


def test_solve_rejects_invalid_instance():
    from rcpsp_hybrid.model import Activity, ProjectInstance

    bad = ProjectInstance(
        [Activity(0, 0, (0,)), Activity(1, 1, (9,)), Activity(2, 0, (0,))],
        {(0, 1), (1, 2)},
        (4,),
    )
    with pytest.raises(ValueError, match="invalid instance"):
        solve(bad, SolverConfig(lambda_budget=10))


def test_solve_releases_its_memos(monkeypatch):
    """After solve returns, and after it raises, the instance's serial and
    FBI memos are empty; the run had filled both."""
    from rcpsp_hybrid import solver

    inst = random_instance(random.Random(13), 12, 2)
    solve(inst, SolverConfig(lambda_budget=200, population_capacity=6, seed=1))
    assert len(inst.serial_memo) == 0 and len(inst.fbi_memo) == 0

    filled = []

    def fail(*args):
        filled.append((len(inst.serial_memo), len(inst.fbi_memo)))
        raise RuntimeError("stop after the initial population")

    monkeypatch.setattr(solver, "select_parents", fail)
    with pytest.raises(RuntimeError, match="stop after"):
        solve(inst, SolverConfig(lambda_budget=200, population_capacity=6, seed=1))
    assert filled and min(filled[0]) > 0
    assert len(inst.serial_memo) == 0 and len(inst.fbi_memo) == 0


def test_solve_time_limit_only():
    rng = random.Random(10)
    inst = random_instance(rng, 20, 2)
    cfg = SolverConfig(lambda_budget=None, time_limit=0.3, population_capacity=8, seed=5)
    sched, stats = solve(inst, cfg)
    assert is_feasible(inst, sched)
    assert stats.seconds < 5.0
