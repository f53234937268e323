import gc
import hashlib
import inspect
import random
import weakref
from dataclasses import fields, replace

import pytest

from rcpsp_hybrid import genetic, neighborhood, sgs, solver
from rcpsp_hybrid.genetic import DENSE_THRESHOLD, PARENT_PROBABILITY, Individual, Population
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
        "population_capacity",
        "ns_burst",
        "stagnation_trigger",
        "seed",
    ]


# operator parameters that are constants beside their operators, the
# weight mode, which the resource rank fixes, and the wall-clock cap, since
# λ is a run's only stop: not configuration, so naming one is a TypeError
REMOVED_FIELDS = {
    "sigma1", "sigma2", "parent_probability", "dense_threshold", "block_size",
    "lambda_ns", "elite_count", "parents_size", "mutation_iterations",
    "tabu_capacity", "grasp_constructions", "fbi_passes", "weight_mode",
    "time_limit",
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
    SolverConfig(lambda_budget=1)
    SolverConfig(ns_burst=0, stagnation_trigger=0, seed=-7)
    SolverConfig(population_capacity=2)


def test_config_from_file(tmp_path):
    """The same settings with and without a UTF-8 byte-order mark before
    the first key."""
    path = tmp_path / "solver.conf"
    for bom in ("", "\ufeff"):
        path.write_text(
            bom + "lambda_budget = 1234\n"
            "# solver settings\n"
            "stagnation_trigger = 3  # checkpoint every third stale generation\n"
            "population_capacity = 2\n"
            "ns_burst = 500\n",
            encoding="utf-8",
        )
        cfg = SolverConfig.from_file(str(path))
        assert cfg.lambda_budget == 1234
        assert cfg.stagnation_trigger == 3
        assert cfg.population_capacity == 2
        assert cfg.ns_burst == 500


def test_config_from_file_reads_each_field_as_its_type(tmp_path):
    """Every field is an integer, so every key is read as an int; the
    wall-clock cap is gone, and λ has no 'none' spelling."""
    path = tmp_path / "solver.conf"
    path.write_text(
        "lambda_budget = 300\npopulation_capacity = 4\nns_burst = 0\n"
        "stagnation_trigger = 2\nseed = -7\n"
    )
    cfg = SolverConfig.from_file(str(path))
    values = [getattr(cfg, f.name) for f in fields(SolverConfig)]
    assert values == [300, 4, 0, 2, -7]
    assert all(type(v) is int for v in values)
    path.write_text("time_limit = 2\nseed = 7\n")
    with pytest.raises(ValueError, match=":1: unknown key 'time_limit'"):
        SolverConfig.from_file(str(path))
    path.write_text("lambda_budget = none\n")
    with pytest.raises(ValueError, match=":1: lambda_budget"):
        SolverConfig.from_file(str(path))


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
        # a repeated key is refused, not overwritten by its last value
        ("seed = 1\n# again\nseed = 2\n", ":3: key 'seed' repeats line 1"),
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
@pytest.mark.parametrize("limit", [10, 10**6])
def test_ns_burst_restores_the_budget_limit(limit, steps):
    """`_burst` caps its walk at `steps` more schedules by lowering the
    run budget's limit, and puts the limit back afterwards: under a λ
    cap that can also end the walk, and under one far off."""
    for seed in range(10):
        rng = random.Random(seed)
        inst = random_instance(rng, rng.randint(3, 25), rng.randint(1, 3))
        lst = random_feasible_list(inst, rng)
        start = Individual(lst, serial_sgs(inst, lst))
        pop = Population()
        pop.insert(start)
        budget = Budget(limit)
        budget.charge(5)
        run = _Run(inst, SolverConfig(ns_burst=steps), rng, budget, RunStats(),
                   (1.0,) * len(inst.capacities), pop, start)
        solver._burst(run)
        assert budget.limit == limit
        assert run.stats.ns_bursts == 1
        assert budget.used <= 5 + steps
        assert budget.used <= limit


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
    assert stats.trace == [(300, 482), (809, 481), (1134, 480)]
    assert stats.schedules_generated == 3000
    assert (stats.generations, stats.ns_bursts) == (16, 1)
    digest = hashlib.sha256(repr(sched.starts).encode()).hexdigest()[:16]
    assert digest == "bf1499ec7c1a203e"


def test_solve_criterion_10_instance_with_a_burst_pinned(monkeypatch):
    """The same solve at λ = 5 000 reaches the stagnation checkpoint and
    runs one NS burst; its N_B moves, whose prefixes the serial placement
    decodes, are pinned with the search path.  The checkpoint runs the
    burst alone, and the walk moves to every non-empty neighbor."""
    moves = []

    def spy(*args, **kwargs):
        moves.append(neighborhood_b_move(*args, **kwargs))
        return moves[-1]

    monkeypatch.setattr(neighborhood, "neighborhood_b_move", spy)
    inst = random_instance(random.Random(1010), 120, 4, edge_probability=0.1)
    sched, stats = solve(inst, SolverConfig(lambda_budget=5000, seed=0))
    assert stats.trace == [
        (300, 482), (809, 481), (1134, 480), (3895, 479), (4429, 478), (4876, 477)
    ]
    assert stats.schedules_generated == 5003
    assert (stats.generations, stats.ns_bursts) == (27, 1)
    assert sched.makespan == 477
    digest = hashlib.sha256(repr(sched.starts).encode()).hexdigest()[:16]
    assert digest == "8b191c0e156ce108"
    assert (len(moves), moves.count(None)) == (195, 53)
    assert hashlib.sha256(repr(moves).encode()).hexdigest()[:16] == "57ae3e43fe983c29"


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
    """With ns_burst = 0 a checkpoint is a no-op: the run equals one whose
    checkpoint never comes, in schedule, trace and schedules spent."""
    def no_burst(*args, **kwargs):
        raise AssertionError("ns_run called with ns_burst = 0")

    monkeypatch.setattr(solver, "ns_run", no_burst)
    inst = random_instance(random.Random(8), 15, 2)
    for seed in range(3):
        cfg = SolverConfig(
            lambda_budget=400, population_capacity=8, ns_burst=0, stagnation_trigger=0,
            seed=seed,
        )
        sched, stats = solve(inst, cfg)
        never, never_stats = solve(inst, replace(cfg, stagnation_trigger=10**9))
        assert is_feasible(inst, sched)
        assert sched == never
        assert stats.trace == never_stats.trace
        assert stats.schedules_generated == never_stats.schedules_generated
        assert stats.ns_bursts == never_stats.ns_bursts == 0


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


def test_solve_weighs_once(monkeypatch):
    """The resource weights are computed once per run, before the initial
    population, from the resource rank alone, and every burst and
    dense-gene call uses them."""
    calls = []

    def weighing(*args, **kwargs):
        calls.append(rank_and_weigh(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(solver, "rank_and_weigh", weighing)
    inst = random_instance(random.Random(9), 15, 2)
    cfg = SolverConfig(
        lambda_budget=3000, population_capacity=6, ns_burst=20, stagnation_trigger=0, seed=4
    )
    _, stats = solve(inst, cfg)
    assert stats.ns_bursts >= 10
    assert len(calls) == 1
    assert stats.weights == calls[0].weights == rank_and_weigh(inst).weights


def test_solve_starts_no_burst_on_a_spent_budget(monkeypatch):
    """A generation that spends the last of λ starts no burst, so ns_run
    never gets a spent budget and ns_bursts counts only bursts that took
    a step."""
    bursts, generations_spent = [], []

    def burst(*args, **kwargs):
        spent = kwargs["budget"].exhausted
        best = ns_run(*args, **kwargs)
        bursts.append((spent, kwargs["stats"].empty + kwargs["stats"].nonempty))
        return best

    solver_generation = solver._generation

    def generation(run):
        record = solver_generation(run)
        generations_spent.append(run.budget.exhausted)
        return record

    monkeypatch.setattr(solver, "ns_run", burst)
    monkeypatch.setattr(solver, "_generation", generation)
    inst = random_instance(random.Random(9), 15, 2)
    spent_runs = 0
    for lam in range(300, 340):
        bursts.clear()
        generations_spent.clear()
        cfg = SolverConfig(
            lambda_budget=lam, population_capacity=10, ns_burst=20, stagnation_trigger=0, seed=4
        )
        _, stats = solve(inst, cfg)
        spent_runs += generations_spent[-1]
        assert not any(spent for spent, _ in bursts)
        assert all(steps > 0 for _, steps in bursts)
        assert stats.ns_bursts == len(bursts)
    # some of these runs end in a generation that spends the budget, with
    # a checkpoint due after it
    assert spent_runs > 0


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
    # two members: each generation drops the worst before its child goes
    # in, and every checkpoint seeds its NS burst from the two
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
    """With no resource the weight vector is empty, and the critical path
    is optimal."""
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

