import gc
import hashlib
import inspect
import random
import weakref
from dataclasses import fields, replace

import pytest

from rcpsp_hybrid import genetic, neighborhood, sgs, solver
from rcpsp_hybrid.genetic import (
    DENSE_THRESHOLD,
    PARENT_PROBABILITY,
    Individual,
    Population,
    decode_and_improve,
)
from rcpsp_hybrid.model import is_feasible, random_feasible_list
from rcpsp_hybrid.neighborhood import neighborhood_b_move, ns_run
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.ranking import rank_and_weigh
from rcpsp_hybrid.sgs import fbi, serial_sgs
from rcpsp_hybrid.solver import Budget, RunStats, SolverConfig, _Run, solve
from conftest import scaled_durations, with_zero_durations
from oracles import brute_force_optimum


# ----------------------------------------------------------- configuration


def test_config_defaults_valid():
    cfg = SolverConfig()
    assert cfg.lambda_budget == 50000
    assert (cfg.stagnation_trigger, cfg.ns_burst) == (10, 1000)
    # the operator parameters are the paper's values
    assert PARENT_PROBABILITY == 0.25
    assert DENSE_THRESHOLD == 0.75
    assert inspect.signature(ns_run).parameters["P"].default == 4


def test_config_fields_are_run_settings():
    assert [f.name for f in fields(SolverConfig)] == [
        "lambda_budget",
        "time_limit",
        "population_capacity",
        "ns_burst",
        "stagnation_trigger",
        "seed",
    ]


# operator parameters that are constants beside their operators, and the
# weight mode, which each solve draws: not configuration, so naming one is
# a TypeError
REMOVED_FIELDS = {
    "sigma1", "sigma2", "parent_probability", "dense_threshold", "block_size",
    "lambda_ns", "elite_count", "parents_size", "mutation_iterations",
    "tabu_capacity", "grasp_constructions", "fbi_passes", "weight_mode",
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
        dict(ns_burst=None),
        dict(stagnation_trigger=2.5),
        dict(stagnation_trigger=-1),
        dict(stagnation_trigger=None),
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


def test_config_from_file(tmp_path):
    path = tmp_path / "solver.conf"
    path.write_text(
        "# solver settings\n"
        "lambda_budget = 1234\n"
        "stagnation_trigger = 3  # checkpoint every third stale generation\n"
        "population_capacity = 2\n"
        "ns_burst = 500\n"
    )
    cfg = SolverConfig.from_file(str(path))
    assert cfg.lambda_budget == 1234
    assert cfg.stagnation_trigger == 3
    assert cfg.population_capacity == 2
    assert cfg.ns_burst == 500


def test_config_from_file_reads_each_field_as_its_type(tmp_path):
    path = tmp_path / "solver.conf"
    path.write_text("time_limit = 2\nseed = 7\n")
    cfg = SolverConfig.from_file(str(path))
    assert (cfg.time_limit, type(cfg.time_limit), cfg.seed) == (2.0, float, 7)
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
        # every instance gets the same checkpoint: none is not a setting
        ("ns_burst = none\n", "ns_burst"),
        ("stagnation_trigger = none\n", "stagnation_trigger"),
        ("stagnation_trigger =\n", "stagnation_trigger"),
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
    """A burst of k steps under the cap `_burst` sets, k schedules more
    than the budget has used, never charges more than k, though an N_A
    step may charge up to NA_TRIES; an empty step charges nothing, so a
    burst can also end with allowance left."""
    used = []
    for seed in range(30):
        rng = random.Random(seed)
        inst = random_instance(rng, rng.randint(3, 25), rng.randint(1, 3))
        lst = random_feasible_list(inst, rng)
        start = Individual(lst, serial_sgs(inst, lst))
        budget = Budget(k)
        ns_run(inst, start, (1.0,) * len(inst.capacities), k, rng,
               P=rng.randint(1, 6), budget=budget)
        used.append(budget.used)
    assert max(used) <= k
    assert min(used) < k


@pytest.mark.parametrize("steps", [1, 3, 20])
@pytest.mark.parametrize("limit", [None, 10, 10**6])
def test_ns_burst_restores_the_budget_limit(limit, steps):
    """`_burst` caps its walk at `steps` more schedules by lowering the
    run budget's limit, and puts the limit back afterwards: under a λ
    cap, which can also end the walk, and under a time-limit-only
    budget, whose limit is none."""
    for seed in range(10):
        rng = random.Random(seed)
        inst = random_instance(rng, rng.randint(3, 25), rng.randint(1, 3))
        lst = random_feasible_list(inst, rng)
        start = Individual(lst, serial_sgs(inst, lst))
        pop = Population()
        pop.insert(start)
        budget = Budget(limit, time_limit=None if limit else 60.0)
        budget.charge(5)
        run = _Run(inst, SolverConfig(ns_burst=steps), rng, budget, RunStats(),
                   (1.0,) * len(inst.capacities), pop, start)
        solver._burst(run)
        assert budget.limit == limit
        assert run.stats.ns_bursts == 1
        assert budget.used <= 5 + steps
        assert limit is None or budget.used <= limit


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
    """A short fixed-seed solve of the acceptance criterion-10 instance,
    with the default checkpoint; a speed-up must leave the search path
    exactly as it is."""
    inst = random_instance(random.Random(1010), 120, 4, edge_probability=0.1)
    sched, stats = solve(inst, SolverConfig(lambda_budget=3000, seed=0))
    assert stats.trace == [(300, 482), (1681, 479), (2928, 476)]
    assert stats.schedules_generated == 3000
    assert (stats.generations, stats.ns_bursts) == (19, 0)
    digest = hashlib.sha256(repr(sched.starts).encode()).hexdigest()[:16]
    assert digest == "fdda50b57cd69dd8"


def test_solve_criterion_10_instance_with_a_burst_pinned(monkeypatch):
    """The same solve at λ = 5 000 reaches the stagnation checkpoint and
    runs one NS burst; its N_B moves, whose prefixes the serial placement
    decodes, are pinned with the search path."""
    moves = []

    def spy(*args, **kwargs):
        moves.append(neighborhood_b_move(*args, **kwargs))
        return moves[-1]

    monkeypatch.setattr(neighborhood, "neighborhood_b_move", spy)
    inst = random_instance(random.Random(1010), 120, 4, edge_probability=0.1)
    sched, stats = solve(inst, SolverConfig(lambda_budget=5000, seed=0))
    assert stats.trace == [(300, 482), (1681, 479), (2928, 476)]
    assert stats.schedules_generated == 5000
    assert (stats.generations, stats.ns_bursts) == (28, 1)
    assert sched.makespan == 476
    digest = hashlib.sha256(repr(sched.starts).encode()).hexdigest()[:16]
    assert digest == "fdda50b57cd69dd8"
    assert (len(moves), moves.count(None)) == (178, 34)
    assert hashlib.sha256(repr(moves).encode()).hexdigest()[:16] == "a0371dd8370ea4c0"


@pytest.mark.parametrize(
    "inst, lam, low, high",
    [
        (random_instance(random.Random(5), 15, 2, edge_probability=0.5), 3000, 0.0, 0.2),
        (random_instance(random.Random(1), 15, 2, edge_probability=0.5), 3000, 0.2, 0.6),
        (random_instance(random.Random(1010), 120, 4, edge_probability=0.1), 5000, 0.6, 10.0),
    ],
    ids=["gap-below-0.2", "gap-0.2-to-0.6", "criterion-10"],
)
def test_checkpoint_is_the_same_for_every_initial_gap(monkeypatch, inst, lam, low, high):
    """The default checkpoint does not depend on how far the initial
    record lies above the critical path: whatever the gap, every burst
    walks 1 000 steps."""
    steps = []

    def spy(*args, **kwargs):
        steps.append(kwargs["steps"])
        return ns_run(*args, **kwargs)

    monkeypatch.setattr(solver, "ns_run", spy)
    _, stats = solve(inst, SolverConfig(lambda_budget=lam, seed=0))
    assert low <= (stats.trace[0][1] - stats.cp_bound) / stats.cp_bound < high
    assert steps and set(steps) == {1000}
    assert stats.ns_bursts == len(steps)


def test_solve_is_invariant_to_the_time_unit():
    """Durations a thousand times longer scale every start by a thousand
    and leave the search path as it was: the relaxation and the bursts
    see only ratios of times."""
    bursts = 0
    for seed in range(12):
        rng = random.Random(seed)
        inst = random_instance(rng, rng.randint(8, 20), rng.randint(1, 4), edge_probability=0.15)
        cfg = SolverConfig(lambda_budget=1500, stagnation_trigger=5, seed=seed)
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


def test_solve_pure_ga_ablation(monkeypatch):
    """ns_burst = 0 runs no burst: the checkpoints still refresh the
    population, but none draws a seed or calls ns_run."""
    def no_burst(*args, **kwargs):
        raise AssertionError("ns_run called with ns_burst = 0")

    monkeypatch.setattr(solver, "ns_run", no_burst)
    refreshed = []
    monkeypatch.setattr(
        solver, "random_feasible_list", lambda *a: refreshed.append(a) or random_feasible_list(*a)
    )
    rng = random.Random(8)
    inst = random_instance(rng, 15, 2)
    cfg = SolverConfig(
        lambda_budget=400, population_capacity=8, ns_burst=0, stagnation_trigger=0, seed=3
    )
    sched, stats = solve(inst, cfg)
    assert is_feasible(inst, sched)
    assert stats.ns_bursts == 0
    assert refreshed


def test_solve_inserts_no_member_twice(monkeypatch):
    """A burst that finds nothing better returns its seed, which the
    population already holds; only an improved burst result goes in."""
    held = []
    insert = Population.insert

    def checked(pop, ind):
        held.append(any(m is ind for m in pop))
        insert(pop, ind)

    monkeypatch.setattr(Population, "insert", checked)
    inst = random_instance(random.Random(9), 15, 2)
    cfg = SolverConfig(
        lambda_budget=3000, population_capacity=6, ns_burst=20, stagnation_trigger=0, seed=4
    )
    sched, stats = solve(inst, cfg)
    assert is_feasible(inst, sched)
    assert stats.ns_bursts >= 10
    assert held and not any(held)


def test_solve_draws_the_weights_once(monkeypatch):
    """The resource weights are drawn once per run, before the initial
    population, and every burst and dense-gene call uses that draw."""
    draws = []

    def drawing(*args, **kwargs):
        draws.append(rank_and_weigh(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr(solver, "rank_and_weigh", drawing)
    inst = random_instance(random.Random(9), 15, 2)
    cfg = SolverConfig(
        lambda_budget=3000, population_capacity=6, ns_burst=20, stagnation_trigger=0, seed=4
    )
    _, stats = solve(inst, cfg)
    assert stats.ns_bursts >= 10
    assert len(draws) == 1
    assert stats.weights == draws[0].weights


def test_solve_starts_no_burst_on_a_spent_budget(monkeypatch):
    """A checkpoint's refresh can spend the last of λ; then no burst
    follows, so ns_run never gets a spent budget and ns_bursts counts
    only bursts that took a step."""
    bursts, refresh_spent = [], []

    def burst(*args, **kwargs):
        spent = kwargs["budget"].exhausted
        best = ns_run(*args, **kwargs)
        bursts.append((spent, kwargs["stats"].empty + kwargs["stats"].nonempty))
        return best

    def refresh(*args, **kwargs):
        sched = decode_and_improve(*args, **kwargs)
        refresh_spent.append(kwargs["budget"].exhausted)
        return sched

    monkeypatch.setattr(solver, "ns_run", burst)
    monkeypatch.setattr(solver, "decode_and_improve", refresh)
    inst = random_instance(random.Random(9), 15, 2)
    spent_runs = 0
    for lam in range(320, 336):
        bursts.clear()
        refresh_spent.clear()
        cfg = SolverConfig(
            lambda_budget=lam, population_capacity=10, ns_burst=20, stagnation_trigger=0, seed=4
        )
        _, stats = solve(inst, cfg)
        spent_runs += any(refresh_spent)
        assert not any(spent for spent, _ in bursts)
        assert all(steps > 0 for _, steps in bursts)
        assert stats.ns_bursts == len(bursts)
    # some of these runs end in a refresh that spends the budget
    assert spent_runs > 0


def test_solve_records_a_refresh_member_that_beats_the_record(monkeypatch):
    """A refresh member better than the record becomes the record: the
    refresh here always decodes to a schedule from a long run, which a
    short run ending soon after its first refresh has not found."""
    inst = random_instance(random.Random(9), 30, 3)
    good, _ = solve(inst, SolverConfig(lambda_budget=5000, seed=0))
    refreshes = []

    def planted(inst, lst, budget):
        budget.charge()
        refreshes.append(lst)
        return good

    monkeypatch.setattr(solver, "decode_and_improve", planted)
    refreshed = 0
    for seed in range(2):
        for lam in range(40, 200, 4):
            refreshes.clear()
            cfg = SolverConfig(
                lambda_budget=lam, population_capacity=10, ns_burst=0,
                stagnation_trigger=0, seed=seed,
            )
            sched, stats = solve(inst, cfg)
            if refreshes:
                refreshed += 1
                assert sched.makespan <= good.makespan
                assert stats.trace[-1][1] == sched.makespan
    assert refreshed >= 20


def test_burst_step_rebound_to_a_no_op_is_pure_ga(monkeypatch):
    """`_burst` is looked up as a module global at each checkpoint, so a
    script can rebind it; a no-op in its place runs the same search as
    ns_burst = 0."""
    inst = random_instance(random.Random(9), 15, 2)
    pure, bursts = [], 0
    for seed in range(4):
        cfg = SolverConfig(
            lambda_budget=1500, population_capacity=8, stagnation_trigger=0, seed=seed
        )
        pure.append(solve(inst, replace(cfg, ns_burst=0)) + (cfg,))
        bursts += solve(inst, cfg)[1].ns_bursts
    assert bursts > 0
    monkeypatch.setattr(solver, "_burst", lambda run: None)
    for sched, stats, cfg in pure:
        again, again_stats = solve(inst, cfg)
        assert again == sched
        assert again_stats.trace == stats.trace
        assert again_stats.schedules_generated == stats.schedules_generated
        assert again_stats.ns_bursts == stats.ns_bursts == 0


def test_solve_computes_dense_genes_once_per_drawn_schedule(monkeypatch):
    """dense_activities runs at most once per schedule in a solve (the run
    draws its weights once), and only for parents that a child drew."""
    drawn, computed = set(), []
    for name in ("crossover_a", "crossover_b"):

        def crossing(inst, p1, p2, *rest, real=getattr(genetic, name)):
            drawn.update((p1.schedule, p2.schedule))
            return real(inst, p1, p2, *rest)

        monkeypatch.setattr(genetic, name, crossing)
    dense = genetic.dense_activities

    def extracting(inst, sched, *rest):
        computed.append(sched)
        return dense(inst, sched, *rest)

    monkeypatch.setattr(genetic, "dense_activities", extracting)
    inst = random_instance(random.Random(9), 20, 2)
    cfg = SolverConfig(lambda_budget=1500, population_capacity=20, seed=4)
    _, stats = solve(inst, cfg)
    assert stats.generations >= 5
    assert computed and len(computed) == len(set(computed))
    assert set(computed) <= drawn


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


@pytest.mark.parametrize("seed", range(8))
def test_solve_without_resources(no_resources, seed):
    """With no resource every weight mode gives the empty vector, the
    "ratio" mode too, and the critical path is optimal."""
    sched, stats = solve(no_resources, SolverConfig(lambda_budget=40, population_capacity=4, seed=seed))
    assert sched.makespan == stats.cp_bound == 3
    assert stats.weights == ()


def _memo_sizes():
    return (
        sgs._serial_decode.cache_info().currsize,
        sgs._fbi_pass.cache_info().currsize,
        genetic.dense_genes.cache_info().currsize,
    )


def test_solve_releases_its_memos(monkeypatch):
    """After solve returns, and after it raises, the serial, FBI and
    dense-gene memos are empty; the run had filled all three."""
    inst = random_instance(random.Random(13), 12, 2)
    solve(inst, SolverConfig(lambda_budget=200, population_capacity=6, seed=1))
    assert _memo_sizes() == (0, 0, 0)

    filled = []

    def fail(*args):
        filled.append(_memo_sizes())
        raise RuntimeError("stop after the first generation")

    monkeypatch.setattr(solver, "next_generation", fail)
    with pytest.raises(RuntimeError, match="stop after"):
        solve(inst, SolverConfig(lambda_budget=200, population_capacity=6, seed=1))
    assert filled and min(filled[0]) > 0
    assert _memo_sizes() == (0, 0, 0)


def test_solve_keeps_no_instance_alive(monkeypatch):
    """The memos are module-level, keyed on the instance: once solve has
    returned, or raised, and the caller drops the instance, nothing in the
    package holds it."""
    config = SolverConfig(lambda_budget=200, population_capacity=6, seed=1)
    inst = random_instance(random.Random(13), 12, 2)
    solve(inst, config)
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None

    def fail(*args):
        raise RuntimeError("stop after the first generation")

    monkeypatch.setattr(solver, "next_generation", fail)
    inst = random_instance(random.Random(13), 12, 2)
    ref = weakref.ref(inst)
    try:
        solve(inst, config)
    except RuntimeError:
        pass
    else:
        pytest.fail("solve did not raise")
    del inst
    gc.collect()
    assert ref() is None


def test_solve_time_limit_only():
    rng = random.Random(10)
    inst = random_instance(rng, 20, 2)
    cfg = SolverConfig(lambda_budget=None, time_limit=0.3, population_capacity=8, seed=5)
    sched, stats = solve(inst, cfg)
    assert is_feasible(inst, sched)
    assert stats.seconds < 5.0
