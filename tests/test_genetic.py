import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from rcpsp_hybrid import genetic
from rcpsp_hybrid.genetic import (
    DenseGene,
    Individual,
    Population,
    crossover_a,
    crossover_b,
    dense_activities,
    init_population,
    make_child,
    mutate,
    next_generation,
    repair_precedence,
    select_parents,
)
from rcpsp_hybrid.model import (
    Activity,
    ProjectInstance,
    Schedule,
    is_feasible,
    random_feasible_list,
)
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.sgs import fbi, serial_sgs
from rcpsp_hybrid.solver import Budget
from conftest import schedule_from_starts, small_instances, with_zero_durations
from oracles import (
    is_precedence_feasible_list,
    reference_dense_genes,
    reference_repair_precedence,
)


def _individual(inst, order):
    lst = tuple(order)
    return Individual(lst, serial_sgs(inst, lst))


# ---------------------------------------------------------------- population


def test_population_sorted_inserts(tiny1):
    pop = Population()
    for order in ([0, 2, 1, 3], [0, 1, 2, 3]):
        pop.insert(_individual(tiny1, order))
    spans = [m.makespan for m in pop]
    assert spans == sorted(spans)
    assert pop.best.makespan <= pop.worst.makespan


def test_init_population_tiny1_waiver_fills(tiny1):
    # only two active schedules exist; uniqueness is waived to fill 4 slots
    pop = init_population(tiny1, 4, random.Random(0))
    assert len(pop) == 4
    assert {m.schedule.starts for m in pop} <= {(0, 0, 2, 5), (0, 3, 0, 5)}


def test_init_population_tiny2_all_optimal(tiny2):
    pop = init_population(tiny2, 3, random.Random(1))
    assert [m.makespan for m in pop] == [9, 9, 9]


def test_init_population_sorted_and_consistent():
    rng = random.Random(2)
    inst = random_instance(rng, 20, 3)
    pop = init_population(inst, 12, rng)
    assert len(pop) == 12
    spans = [m.makespan for m in pop]
    assert spans == sorted(spans)
    for m in pop:
        assert serial_sgs(inst, m.list).makespan <= m.makespan
        assert m.schedule.makespan == m.makespan


def test_select_parents_probability_one(tiny1):
    pop = init_population(tiny1, 4, random.Random(3))
    chosen = select_parents(pop, 2, 1.0, random.Random(0))
    assert chosen == pop.members[:2]


def test_select_parents_probability_zero(tiny1):
    pop = init_population(tiny1, 4, random.Random(3))
    chosen = select_parents(pop, 2, 0.0, random.Random(0))
    assert chosen == pop.members[:2]


def test_select_parents_exact_size_and_bias():
    rng = random.Random(4)
    inst = random_instance(rng, 15, 2)
    pop = init_population(inst, 10, rng)
    picks = [select_parents(pop, 5, 0.25, rng) for _ in range(200)]
    assert all(len(p) == 5 for p in picks)
    # the best member can only be skipped with probability 0.75 per scan
    hits = sum(pop.best in p for p in picks)
    assert hits > 100


# -------------------------------------------------------------- dense genes


def test_dense_genes_tiny1(tiny1):
    sched = Schedule((0, 0, 2, 5), 5)
    genes = dense_activities(tiny1, sched, 0.75, (1.0,))
    assert [(set(g.activities), g.weight, g.time) for g in genes] == [
        ({1}, 0.5, 0),
        ({2}, 0.25, 2),
    ]


def test_dense_genes_tight_threshold(tiny1):
    sched = Schedule((0, 0, 2, 5), 5)
    genes = dense_activities(tiny1, sched, 0.3, (1.0,))
    assert [set(g.activities) for g in genes] == [{2}]


def test_dense_genes_skip_idle_intervals(tiny2):
    # zero demands: every interval has v_t = 1.0, never below threshold
    sched = Schedule((0, 0, 2, 5, 9), 9)
    assert dense_activities(tiny2, sched, 0.75, (1.0,)) == []


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.data())
def test_dense_genes_match_the_slot_by_slot_oracle(case, data):
    """Any start vector (overlaps over capacity included), weights and
    threshold: the genes found at start and finish events are the ones a
    scan of every unit slot finds, with the same v_t to the last bit."""
    inst, _ = case
    n_res = inst.n_resources
    starts = [0] + [data.draw(st.integers(0, 6)) for _ in range(1, len(inst))]
    sched = schedule_from_starts(inst, starts)
    # weights of all 53 bits, so that summing the terms in another order
    # would change the last bits of some v_t
    draw = random.Random(data.draw(st.integers(0, 2**32))).random
    weights = [draw() for _ in range(n_res)]
    threshold = data.draw(st.floats(0, 3.5))
    genes = dense_activities(inst, sched, threshold, weights)
    assert [(g.activities, g.weight, g.time) for g in genes] == reference_dense_genes(
        inst, sched.starts, sched.makespan, threshold, weights
    )


def test_dense_gene_saturated_interval_weight_zero():
    inst = ProjectInstance(
        [Activity(0, 0, (0,)), Activity(1, 2, (4,)), Activity(2, 0, (0,))],
        {(0, 1), (1, 2)},
        (4,),
    )
    sched = Schedule((0, 0, 2), 2)
    genes = dense_activities(inst, sched, 0.75, (1.0,))
    assert len(genes) == 1
    assert genes[0].weight == 0.0
    assert set(genes[0].activities) == {1}


def test_dense_genes_overlap_keeps_lighter(tiny1):
    # schedule with both activities running together is infeasible for
    # tiny1, so build a looser twin with capacity 5
    inst = ProjectInstance(
        [
            Activity(0, 0, (0,)),
            Activity(1, 2, (2,)),
            Activity(2, 3, (3,)),
            Activity(3, 0, (0,)),
        ],
        {(0, 1), (0, 2), (1, 3), (2, 3)},
        (5,),
        name="tiny1-cap5",
    )
    sched = Schedule((0, 0, 0, 3), 3)
    genes = dense_activities(inst, sched, 0.9, (1.0,))
    # J(0)={1,2} (v=0), J(2)={2} (v=0.4): both dense, {2} overlaps {1,2}
    assert [set(g.activities) for g in genes] == [{1, 2}]


def test_cached_dense_genes_equal_a_fresh_call(monkeypatch):
    """An individual computes its dense genes once per (threshold,
    weights): the cached genes equal a fresh call, also after the
    threshold moves and after the weights are re-drawn."""
    rng = random.Random(31)
    inst = random_instance(rng, 30, 3)
    ind = _individual(inst, random_feasible_list(inst, rng))
    calls = []
    real = genetic.dense_activities
    monkeypatch.setattr(genetic, "dense_activities", lambda *a: calls.append(a) or real(*a))
    drawn = (1.0, 1.5, 2.0)
    redrawn = (2.0, 1.0, 1.25)
    steps = [
        (0.75, drawn),
        (0.75, list(drawn)),  # equal weights hit, whatever their type
        (1.2, drawn),  # the threshold moves
        (1.2, drawn),
        (1.2, redrawn),  # the weights are re-drawn
        (1.2, redrawn),
        (0.75, drawn),
    ]
    for threshold, weights in steps:
        got = ind.dense_genes(inst, threshold, weights)
        assert list(got) == dense_activities(inst, ind.schedule, threshold, weights)
    assert len(calls) == 4
    assert len({ind.dense_genes(inst, t, w) for t, w in steps}) > 1
    assert ind == Individual(ind.list, ind.schedule)
    assert "genes" not in repr(ind)


# --------------------------------------------------------------- crossovers


def _tiny1_parents(tiny1):
    p1 = _individual(tiny1, [0, 1, 2, 3])
    p2 = _individual(tiny1, [0, 2, 1, 3])
    g1 = dense_activities(tiny1, p1.schedule, 0.75, (1.0,))
    g2 = dense_activities(tiny1, p2.schedule, 0.75, (1.0,))
    return p1, p2, g1, g2


def test_crossover_a_tiny1(tiny1):
    p1, p2, g1, g2 = _tiny1_parents(tiny1)
    child = crossover_a(tiny1, p1, p2, g1, g2)
    assert child == (0, 2, 1, 3)


def test_crossover_a_no_genes_returns_shorter(tiny1):
    p1, p2, _, _ = _tiny1_parents(tiny1)
    child = crossover_a(tiny1, p1, p2, [], [])
    shorter = p1 if p1.makespan <= p2.makespan else p2
    assert child == shorter.list


def test_crossover_a_identical_parents(tiny1):
    p1, _, g1, _ = _tiny1_parents(tiny1)
    child = crossover_a(tiny1, p1, p1, g1, g1)
    assert child == p1.list


def test_crossover_b_chain_returns_donor_order(tiny2):
    p = _individual(tiny2, [0, 1, 2, 3, 4])
    genes = [DenseGene(frozenset({1}), 0.5, 0)]
    child = crossover_b(tiny2, p, p, genes, genes, random.Random(0))
    assert child == (0, 1, 2, 3, 4)


def test_crossover_b_no_genes_returns_shorter(tiny1):
    p1, p2, _, _ = _tiny1_parents(tiny1)
    child = crossover_b(tiny1, p1, p2, [], [], random.Random(0))
    shorter = p1 if p1.makespan <= p2.makespan else p2
    assert child == shorter.list


def test_crossovers_closed_and_feasible():
    rng = random.Random(6)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(2, 25), rng.randint(1, 3))
        p1 = _individual(inst, random_feasible_list(inst, rng))
        p2 = _individual(inst, random_feasible_list(inst, rng))
        g1 = dense_activities(inst, p1.schedule, 0.75, (1.0,) * inst.n_resources)
        g2 = dense_activities(inst, p2.schedule, 0.75, (1.0,) * inst.n_resources)
        for child in (
            crossover_a(inst, p1, p2, g1, g2),
            crossover_b(inst, p1, p2, g1, g2, rng),
        ):
            assert sorted(child) == list(range(len(inst)))
            assert is_precedence_feasible_list(inst, child)


# ----------------------------------------------------------------- mutation


def test_mutate_chain_is_rigid(tiny2):
    rng = random.Random(7)
    lst = (0, 1, 2, 3, 4)
    for _ in range(50):
        assert mutate(tiny2, lst, 3, rng) == lst


def test_mutate_zero_iterations_identity(tiny1):
    lst = (0, 1, 2, 3)
    assert mutate(tiny1, lst, 0, random.Random(0)) == lst


def test_mutate_tiny1_reaches_both_orders(tiny1):
    rng = random.Random(8)
    seen = {mutate(tiny1, (0, 1, 2, 3), 2, rng) for _ in range(200)}
    assert seen == {(0, 1, 2, 3), (0, 2, 1, 3)}


def test_mutate_always_feasible():
    rng = random.Random(9)
    for _ in range(80):
        inst = random_instance(rng, rng.randint(2, 25), rng.randint(1, 3))
        lst = random_feasible_list(inst, rng)
        out = mutate(inst, lst, 2, rng)
        assert sorted(out) == list(range(len(inst)))
        assert is_precedence_feasible_list(inst, out)


# ---------------------------------------------------------------- offspring


def test_make_child_valid_and_charged_per_decode():
    """Each child is a precedence-feasible list with a feasible schedule
    no better than the list's own serial decode; it costs one serial
    decode, one more for a changed mutant, and two per FBI pass."""
    fbi_passes = inspect.signature(fbi).parameters["max_passes"].default
    rng = random.Random(12)
    for _ in range(30):
        base = random_instance(rng, rng.randint(2, 25), rng.randint(1, 3))
        for inst in (base, with_zero_durations(base, rng)):
            weights = (1.0,) * inst.n_resources
            parents = [
                _individual(inst, random_feasible_list(inst, rng)) for _ in range(4)
            ]
            genes = {
                id(p): dense_activities(inst, p.schedule, 0.75, weights)
                for p in parents
            }
            for _ in range(5):
                budget = Budget(None)
                child = make_child(inst, parents, genes, rng, budget=budget)
                assert is_precedence_feasible_list(inst, child.list)
                assert is_feasible(inst, child.schedule)
                assert serial_sgs(inst, child.list).makespan <= child.makespan
                assert 3 <= budget.used <= 2 + 2 * fbi_passes


# --------------------------------------------------------------- succession


def test_repair_precedence_identity_on_feasible(tiny1):
    assert repair_precedence(tiny1, [0, 2, 1, 3]) == [0, 2, 1, 3]


def test_repair_precedence_fixes_violations(tiny2):
    assert repair_precedence(tiny2, [0, 3, 1, 2, 4]) == [0, 1, 2, 3, 4]


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_repair_precedence_keeps_feasible_input_and_repairs_the_rest(case):
    """Any order of the activities is repaired as the rescanning oracle
    repairs it, and a feasible one comes back as it is."""
    inst, order = case
    repaired = repair_precedence(inst, order)
    assert repaired == reference_repair_precedence(inst, order)
    assert repair_precedence(inst, tuple(repaired)) == repaired


@pytest.mark.parametrize(
    "seq",
    [[0, 1, 3], [0, 1, 1, 2, 3], [0, 1, 2, 7], [0, 1, 2, 3, 3], [0, 1, 1, 3], [0, 2, 1, -1]],
    ids=str,
)
def test_repair_precedence_rejects_a_non_permutation(tiny1, seq):
    with pytest.raises(ValueError, match="not a permutation"):
        repair_precedence(tiny1, seq)


def test_next_generation_replaces_even_when_worse(tiny1):
    pop = Population()
    for _ in range(4):
        pop.insert(_individual(tiny1, [0, 1, 2, 3]))  # all makespan 5
    worse = _individual(tiny1, [0, 2, 1, 3])
    worse = Individual(worse.list, Schedule((0, 3, 0, 7), 7))
    out = next_generation(pop, [worse], 1)
    assert len(out) == 4
    assert out.worst.makespan == 7


def test_next_generation_zero_elites(tiny1):
    pop = init_population(tiny1, 4, random.Random(10))
    before = [m.makespan for m in pop]
    out = next_generation(pop, [_individual(tiny1, [0, 1, 2, 3])], 0)
    assert [m.makespan for m in out] == before


def test_next_generation_counts(tiny1):
    pop = init_population(tiny1, 4, random.Random(11))
    offspring = [_individual(tiny1, [0, 1, 2, 3]) for _ in range(3)]
    out = next_generation(pop, offspring, 2)
    assert len(out) == 4
    spans = [m.makespan for m in out]
    assert spans == sorted(spans)


# ------------------------------------------------- properties on small instances


@st.composite
def parent_pairs(draw):
    """Two individuals on a small instance (conftest.small_instances), from
    drawn lists repaired and decoded serially, their dense genes at a drawn
    threshold and weights, and an rng."""
    inst, order = draw(small_instances())
    other = draw(st.permutations(range(len(inst))))
    parents = [_individual(inst, repair_precedence(inst, o)) for o in (order, other)]
    k = inst.n_resources
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    threshold = draw(st.floats(0.0, 1.0)) * sum(weights)
    genes = [p.dense_genes(inst, threshold, weights) for p in parents]
    return inst, parents, genes, random.Random(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(parent_pairs())
def test_crossovers_and_mutation_give_precedence_feasible_lists(case):
    inst, (p1, p2), (g1, g2), rng = case
    assert is_precedence_feasible_list(inst, crossover_a(inst, p1, p2, g1, g2))
    assert is_precedence_feasible_list(inst, crossover_b(inst, p1, p2, g1, g2, rng))
    for iterations in (1, 2, 5):
        assert is_precedence_feasible_list(inst, mutate(inst, p1.list, iterations, rng))
