import hashlib
import random

import pytest

from rcpsp_hybrid.genetic import Individual
from rcpsp_hybrid.model import (
    Schedule,
    is_feasible,
    random_feasible_list,
)
from rcpsp_hybrid.neighborhood import (
    Block,
    TabuList,
    compute_windows,
    create_block,
    grasp_knapsack,
    neighborhood_a_move,
    neighborhood_b_move,
    ns_run,
    tabu_status,
)
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.sgs import fbi, schedule_to_list, serial_sgs
from conftest import packed_knapsack, with_zero_durations
from oracles import brute_force_knapsack, is_precedence_feasible_list


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
    out = neighborhood_a_move(tiny1, sched, block, (1.0,), tries=20, rng=random.Random(0))
    assert out is None


def test_na_zero_tries(tiny1):
    sched = Schedule((0, 0, 2, 5), 5)
    block = Block(core=1, members={1, 2})
    assert neighborhood_a_move(tiny1, sched, block, (1.0,), 0, random.Random(0)) is None


def test_na_closes_gap(tiny2):
    gapped = Schedule((0, 0, 4, 7, 11), 11)
    block = Block(core=2, members={2})
    out = neighborhood_a_move(tiny2, gapped, block, (1.0,), 5, random.Random(0))
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
        out = neighborhood_a_move(inst, sched, block, (1.0, 1.0), 5, rng)
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
            out = neighborhood_a_move(inst, sched, block, weights, 5, rng)
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
