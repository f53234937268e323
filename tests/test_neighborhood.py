import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from rcpsp_hybrid import neighborhood
from rcpsp_hybrid.genetic import Individual, repair_precedence
from rcpsp_hybrid.model import (
    Schedule,
    is_feasible,
    random_feasible_list,
)
from rcpsp_hybrid.neighborhood import (
    GRASP_CONSTRUCTIONS,
    RCL_FRACTION,
    Block,
    NsStats,
    TabuList,
    booked_profile,
    compute_windows,
    create_block,
    grasp_knapsack,
    neighborhood_a_move,
    neighborhood_b_move,
    ns_run,
    tabu_status,
)
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.sgs import fbi, parallel_sgs, schedule_to_list, serial_sgs
from conftest import packed_knapsack, schedule_from_starts, small_instances, with_zero_durations
from oracles import (
    brute_force_knapsack,
    is_precedence_feasible_list,
    reference_create_block,
    reference_grasp,
    reference_neighborhood_a_move,
    reference_neighborhood_b_move,
)


def _individual(inst, order):
    lst = tuple(order)
    return Individual(lst, serial_sgs(inst, lst))


# --------------------------------------------------------------- tabu list


def test_tabu_status(tiny1, tiny2):
    assert tabu_status(tiny1, Schedule((0, 0, 2, 5), 5)) == 2
    assert tabu_status(tiny2, Schedule((0, 0, 2, 5, 9), 9)) == 7
    assert tabu_status(tiny1, Schedule((0, 0, 0, 0), 0)) == 0


def test_tabu_list_fifo_eviction():
    tl = TabuList(2)
    tl.push(10)
    tl.push(20)
    assert 10 in tl and 20 in tl
    tl.push(30)
    assert 10 not in tl
    assert 20 in tl and 30 in tl
    assert len(tl) == 2


def test_tabu_list_duplicate_values():
    tl = TabuList(2)
    tl.push(7)
    tl.push(7)
    tl.push(9)  # evicts one copy of 7
    assert 7 in tl and 9 in tl


# ------------------------------------------------------------ create_block


def test_create_block_tiny1(tiny1):
    sched = Schedule((0, 0, 2, 5), 5)
    block = create_block(tiny1, 1, sched, 2, random.Random(0))
    assert block.members == {1, 2}


def test_create_block_p1_is_core_only(tiny1):
    sched = Schedule((0, 0, 2, 5), 5)
    for seed in range(5):
        block = create_block(tiny1, 2, sched, 1, random.Random(seed))
        assert block.members == {2}


def test_create_block_pn_is_everything():
    rng = random.Random(12)
    inst = random_instance(rng, 12, 2)
    sched = serial_sgs(inst, random_feasible_list(inst, rng))
    block = create_block(inst, 3, sched, inst.n_real, rng)
    assert block.members == set(range(1, inst.sink))


def test_create_block_size_capped():
    rng = random.Random(13)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(3, 20), 2)
        sched = serial_sgs(inst, random_feasible_list(inst, rng))
        j = rng.randrange(1, inst.sink)
        P = rng.randint(1, inst.n_real)
        block = create_block(inst, j, sched, P, rng)
        assert j in block.members
        assert len(block.members) <= P


@st.composite
def walk_states(draw):
    """A random instance of 1 to 30 real activities, about a quarter of
    them taking no time, a random precedence-feasible list with its serial
    schedule (sometimes delayed after the source, so that N_A can improve
    it), any activity as the core, a block size from 0 to n + 1, and an
    rng seed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    inst = random_instance(
        rng,
        draw(st.integers(1, 30)),
        draw(st.integers(1, 4)),
        edge_probability=draw(st.sampled_from([0.05, 0.2, 0.5])),
        max_capacity=draw(st.sampled_from([3, 10, 30])),
    )
    inst = with_zero_durations(inst, rng)
    lst = random_feasible_list(inst, rng)
    delay = draw(st.sampled_from([0, 0, 2]))
    sched = schedule_from_starts(inst, [0] + [s + delay for s in serial_sgs(inst, lst).starts[1:]])
    core = draw(st.integers(0, inst.sink))
    P = draw(st.integers(0, inst.n_real + 1))
    return inst, lst, sched, core, P, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(walk_states())
def test_create_block_matches_the_scanning_reference(case):
    inst, _, sched, core, P, seed = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        block = create_block(inst, core, sched, P, rng)
        want = reference_create_block(inst, core, sched, P, ref_rng)
        assert (block.core, block.members) == (want.core, want.members)
        assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(walk_states(), st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_neighborhood_a_matches_the_rebuilding_reference(case, weights):
    inst, _, sched, core, P, seed = case
    weights = weights[: inst.n_resources]
    block = create_block(inst, core, sched, P, random.Random(seed))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    moved = neighborhood_a_move(inst, sched, booked_profile(inst, sched), block, weights, 5, rng)
    assert moved == reference_neighborhood_a_move(inst, sched, block, weights, 5, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(walk_states(), st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_neighborhood_b_matches_the_rescanning_reference(case, weights):
    inst, lst, sched, core, P, seed = case
    weights = weights[: inst.n_resources]
    block = create_block(inst, core, sched, P, random.Random(seed))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    rebuilt = neighborhood_b_move(inst, lst, sched, block, weights, rng)
    assert rebuilt == reference_neighborhood_b_move(inst, lst, sched, block, weights, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


# --------------------------------------------------------------- windows


def test_windows_tiny2_singleton(tiny2):
    sched = Schedule((0, 0, 2, 5, 9), 9)
    block = Block(core=2, members={2})
    assert compute_windows(tiny2, sched, block) == {2: (2, 5)}


def test_windows_whole_project(tiny1):
    sched = Schedule((0, 0, 2, 5), 5)
    block = Block(core=1, members={1, 2})
    windows = compute_windows(tiny1, sched, block)
    # only dummies are outside: EST from source finish, LFT from sink start
    assert windows == {1: (0, 5), 2: (0, 5)}


def test_windows_fit_durations_and_respect_outside():
    rng = random.Random(14)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(3, 15), 2)
        sched = serial_sgs(inst, random_feasible_list(inst, rng))
        j = rng.randrange(1, inst.sink)
        block = create_block(inst, j, sched, 3, rng)
        windows = compute_windows(inst, sched, block)
        for i, (est, lft) in windows.items():
            assert est + inst.durations[i] <= lft
            # any placement inside the window keeps outside precedence
            s = rng.randint(est, lft - inst.durations[i])
            for p in inst.preds[i]:
                if p not in block.members:
                    assert sched.starts[p] + inst.durations[p] <= s
            for q in inst.succs[i]:
                if q not in block.members:
                    assert s + inst.durations[i] <= sched.starts[q]


# ----------------------------------------------------------- neighborhood A


def test_na_no_improvement_on_optimum(tiny1):
    sched = Schedule((0, 0, 2, 5), 5)  # brute-force optimal
    block = Block(core=1, members={1, 2})
    out = neighborhood_a_move(
        tiny1, sched, booked_profile(tiny1, sched), block, (1.0,), tries=20, rng=random.Random(0)
    )
    assert out is None


def test_na_zero_tries(tiny1):
    sched = Schedule((0, 0, 2, 5), 5)
    block = Block(core=1, members={1, 2})
    booked = booked_profile(tiny1, sched)
    assert neighborhood_a_move(tiny1, sched, booked, block, (1.0,), 0, random.Random(0)) is None


def test_na_closes_gap(tiny2):
    gapped = Schedule((0, 0, 4, 7, 11), 11)
    block = Block(core=2, members={2})
    out = neighborhood_a_move(
        tiny2, gapped, booked_profile(tiny2, gapped), block, (1.0,), 5, random.Random(0)
    )
    assert out is not None
    assert out.makespan == 9
    assert is_feasible(tiny2, out)


def test_na_outputs_always_feasible_and_better():
    rng = random.Random(15)
    improved = 0
    for _ in range(60):
        inst = random_instance(rng, rng.randint(3, 20), 2)
        sched = serial_sgs(inst, random_feasible_list(inst, rng))
        j = rng.randrange(1, inst.sink)
        block = create_block(inst, j, sched, 4, rng)
        out = neighborhood_a_move(inst, sched, booked_profile(inst, sched), block, (1.0, 1.0), 5, rng)
        if out is not None:
            improved += 1
            assert is_feasible(inst, out)
            assert out.makespan < sched.makespan
    assert improved > 0  # the move does fire on random schedules


# ----------------------------------------------------------- neighborhood B


def test_nb_chain_block_contains_predecessor(tiny2):
    lst = (0, 1, 2, 3, 4)
    sched = serial_sgs(tiny2, lst)
    block = Block(core=2, members={1, 2})
    assert neighborhood_b_move(tiny2, lst, sched, block, (1.0,), random.Random(0)) is None


def test_nb_tiny1_rebuild(tiny1):
    lst = (0, 1, 2, 3)
    sched = serial_sgs(tiny1, lst)
    block = Block(core=1, members={1, 2})
    out = neighborhood_b_move(tiny1, lst, sched, block, (1.0,), random.Random(0))
    assert out is not None
    assert out == (0, 2, 1, 3)


def test_nb_empty_block_unchanged(tiny1):
    lst = (0, 1, 2, 3)
    sched = serial_sgs(tiny1, lst)
    block = Block(core=1, members=set())
    out = neighborhood_b_move(tiny1, lst, sched, block, (1.0,), random.Random(0))
    assert out == lst


def test_nb_outputs_valid_lists():
    rng = random.Random(16)
    nonempty = 0
    for _ in range(60):
        inst = random_instance(rng, rng.randint(3, 20), 2)
        lst = random_feasible_list(inst, rng)
        sched = serial_sgs(inst, lst)
        j = rng.randrange(1, inst.sink)
        block = create_block(inst, j, sched, 4, rng)
        out = neighborhood_b_move(inst, lst, sched, block, (1.0, 1.0), rng)
        if out is not None:
            nonempty += 1
            assert sorted(out) == list(range(len(inst)))
            assert is_precedence_feasible_list(inst, out)
    assert nonempty > 0


# --------------------------------------------------------- pinned moves


def _move_digest(cases, polish=True):
    """Digest of the N_A schedule, the N_B list and the rng state after
    each move on seeded (instance, block) pairs."""
    h = hashlib.sha256()
    for inst, seed in cases:
        rng = random.Random(seed)
        weights = tuple(rng.uniform(0.5, 2.0) for _ in range(inst.n_resources))
        lst = random_feasible_list(inst, rng)
        sched = serial_sgs(inst, lst)
        if rng.random() < 0.5 and polish:
            sched = fbi(inst, sched)
            lst = schedule_to_list(inst, sched)
        for P in (2, 4, 8):
            block = create_block(inst, rng.randrange(1, inst.sink), sched, P, rng)
            out = neighborhood_a_move(inst, sched, booked_profile(inst, sched), block, weights, 5, rng)
            h.update(repr((out and out.starts, rng.getstate())).encode())
            block = create_block(inst, rng.randrange(1, inst.sink), sched, P, rng)
            out = neighborhood_b_move(inst, lst, sched, block, weights, rng)
            h.update(repr((out, rng.getstate())).encode())
    return h.hexdigest()[:16]


def _random_cases(seed, zero_durations=False):
    rng = random.Random(seed)
    cases = []
    for s in range(40):
        inst = random_instance(
            rng,
            rng.randint(2, 30),
            rng.randint(1, 4),
            edge_probability=rng.choice([0.05, 0.2, 0.5]),
            max_capacity=rng.choice([3, 10, 30]),
        )
        if zero_durations:
            inst = with_zero_durations(inst, rng)
        cases.append((inst, s))
    return cases


def test_moves_pinned():
    """N_A and N_B give the schedules, lists and rng states recorded before
    they were routed through profile.py.  The zero-duration cases skip FBI,
    whose backward order was mended for them since."""
    c10 = random_instance(random.Random(1010), 120, 4, edge_probability=0.1)
    assert _move_digest([(c10, s) for s in range(8)]) == "3b360418d3d4e0a7"
    assert _move_digest(_random_cases(31)) == "7cc5292fe1d3a920"
    assert _move_digest(_random_cases(37, True), polish=False) == "5bfcb797dc119436"


# ------------------------------------------------------------------ GRASP


def test_grasp_prefers_heavier_item():
    # two items, only one fits: the higher-value one wins
    picked = grasp_knapsack(
        [1, 2], *packed_knapsack([4], [(2,), (3,)]), [0.5, 0.75], random.Random(0)
    )
    assert picked == [1]


def test_grasp_empty():
    assert grasp_knapsack([], *packed_knapsack([4], []), [], random.Random(0)) == []


def test_grasp_all_fit_takes_all():
    picked = grasp_knapsack(
        [5, 6, 7],
        *packed_knapsack([10, 10], [(1, 2), (2, 1), (3, 3)]),
        [0.2, 0.3, 0.4],
        random.Random(0),
    )
    assert picked == [0, 1, 2]


def _random_knapsack(rng, m, n_res):
    demands = [
        tuple(rng.randint(0, 6) for _ in range(n_res)) for _ in range(m)
    ]
    remaining = [rng.randint(3, 12) for _ in range(n_res)]
    values = [round(rng.uniform(0.05, 1.0), 3) for _ in range(m)]
    # exclude items that cannot fit alone, mirroring the caller's contract
    keep = [
        i
        for i in range(m)
        if all(d <= c for d, c in zip(demands[i], remaining))
    ]
    return (
        [demands[i] for i in keep],
        remaining,
        [values[i] for i in keep],
    )


def test_grasp_feasible_and_near_optimal():
    rng = random.Random(17)
    optimal = 0
    trials = 200
    for _ in range(trials):
        demands, remaining, values = _random_knapsack(rng, rng.randint(1, 10), 2)
        picked = grasp_knapsack(
            list(range(len(demands))), *packed_knapsack(remaining, demands), values, rng
        )
        for k, cap in enumerate(remaining):
            assert sum(demands[i][k] for i in picked) <= cap
        total = sum(values[i] for i in picked)
        best = brute_force_knapsack(demands, remaining, values)
        assert total <= best + 1e-9
        if abs(total - best) < 1e-9:
            optimal += 1
    assert optimal >= 0.9 * trials


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n_res: st.tuples(
            st.lists(st.tuples(*[st.integers(0, 6)] * n_res), max_size=8),
            st.lists(st.integers(0, 30), min_size=n_res, max_size=n_res),
        )
    ),
    st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]), min_size=8, max_size=8),
    st.integers(0, 2**32),
)
def test_grasp_picks_and_draws_match_the_reference(knapsack, values, seed):
    """Often every item fits at once (large capacities), sometimes one
    item alone does not fit: the picks and the rng state afterwards are
    those of every construction run in full."""
    demands, remaining = knapsack
    values = values[: len(demands)]
    rng, ref_rng = random.Random(seed), random.Random(seed)
    picked = grasp_knapsack(
        list(range(len(demands))), *packed_knapsack(remaining, demands), values, rng
    )
    want = reference_grasp(demands, remaining, values, ref_rng, GRASP_CONSTRUCTIONS, RCL_FRACTION)
    assert picked == want
    assert rng.getstate() == ref_rng.getstate()


def test_grasp_all_fit_books_one_item_at_a_time():
    """Ten items of demand 1 on a capacity of 1, in fields of 4 bits: their
    packed sum borrows past the first field and leaves every guard bit
    set, so a fit test on the sum would take all ten.  Booked one at a
    time, only one fits."""
    remaining, demands, guard = packed_knapsack([1, 7], [(1, 0)] * 10)
    assert (remaining - sum(demands)) & guard == guard
    picked = grasp_knapsack(list(range(10)), remaining, demands, guard, [0.5] * 10, random.Random(0))
    assert len(picked) == 1


# ------------------------------------------------------------------ ns_run


def test_ns_run_zero_steps(tiny1):
    start = _individual(tiny1, [0, 1, 2, 3])
    out = ns_run(tiny1, start, (1.0,), 0, random.Random(0))
    assert out is start


def test_ns_run_keeps_optimum(tiny1):
    start = _individual(tiny1, [0, 1, 2, 3])  # makespan 5, optimal
    out = ns_run(tiny1, start, (1.0,), 30, random.Random(0))
    assert out.makespan == 5


def test_ns_run_never_worse_and_feasible():
    rng = random.Random(18)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(4, 20), 2)
        start = _individual(inst, random_feasible_list(inst, rng))
        out = ns_run(inst, start, (1.0, 1.0), 25, rng)
        assert out.makespan <= start.makespan
        assert is_feasible(inst, out.schedule)
        assert serial_sgs(inst, out.list).makespan <= out.makespan


def test_ns_run_improves_random_starts():
    rng = random.Random(19)
    improved = 0
    for _ in range(15):
        inst = random_instance(rng, 15, 2)
        start = _individual(inst, random_feasible_list(inst, rng))
        out = ns_run(inst, start, (1.0, 1.0), 40, rng)
        if out.makespan < start.makespan:
            improved += 1
    assert improved > 0


def test_ns_run_profile_cache_matches_a_rebuild_per_move(monkeypatch):
    """Walks that move on, with and without the cached profile of the
    current schedule: N_A given a profile rebuilt on every move leaves the
    same best individual, statistics and rng state."""
    rng = random.Random(20)
    cases = []
    for _ in range(12):
        inst = random_instance(rng, rng.randint(8, 25), 2)
        start = _individual(inst, random_feasible_list(inst, rng))
        cases.append((inst, start, rng.randrange(2**32)))

    def walk(inst, start, seed):
        walk_rng = random.Random(seed)
        stats = NsStats()
        best = ns_run(inst, start, (1.0, 1.0), 60, walk_rng, P=4, stats=stats)
        return best, stats, walk_rng.getstate()

    cached = [walk(*case) for case in cases]
    moved_from = []
    cached_move = neighborhood.neighborhood_a_move

    def rebuilt_move(inst, sched, booked, *args, **kwargs):
        moved_from.append(sched)
        return cached_move(inst, sched, booked_profile(inst, sched), *args, **kwargs)

    monkeypatch.setattr(neighborhood, "neighborhood_a_move", rebuilt_move)
    assert [walk(*case) for case in cases] == cached
    # N_A also ran from schedules the walks moved to, not only from the starts
    assert len(set(moved_from)) > 3 * len(cases)


# ------------------------------------------------- properties on small instances


@st.composite
def moves(draw):
    """A small instance (conftest.small_instances) with a real activity, an
    individual on it (a drawn list, repaired, decoded serially or in
    parallel, and sometimes delayed after the source so that N_A can
    improve it), a block around a drawn core, weights and an rng."""
    inst, order = draw(small_instances().filter(lambda case: case[0].n_real))
    lst = tuple(repair_precedence(inst, order))
    decode = draw(st.sampled_from([serial_sgs, parallel_sgs]))
    delay = draw(st.sampled_from([0, 0, 2]))
    starts = [0] + [s + delay for s in decode(inst, lst).starts[1:]]
    ind = Individual(lst, schedule_from_starts(inst, starts))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    core = draw(st.integers(1, inst.n_real))
    block = create_block(inst, core, ind.schedule, draw(st.integers(1, 6)), rng)
    k = inst.n_resources
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    return inst, ind, block, weights, rng


@settings(max_examples=300, deadline=None)
@given(moves())
def test_neighborhood_a_gives_none_or_a_feasible_shorter_schedule(case):
    inst, ind, block, weights, rng = case
    booked = booked_profile(inst, ind.schedule)
    moved = neighborhood_a_move(inst, ind.schedule, booked, block, weights, tries=5, rng=rng)
    if moved is not None:
        assert is_feasible(inst, moved)
        assert moved.makespan < ind.makespan


@settings(max_examples=300, deadline=None)
@given(moves())
def test_neighborhood_b_gives_none_or_a_precedence_feasible_list(case):
    inst, ind, block, weights, rng = case
    rebuilt = neighborhood_b_move(inst, ind.list, ind.schedule, block, weights, rng)
    if rebuilt is not None:
        assert is_precedence_feasible_list(inst, rebuilt)
