import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from rcpsp_hybrid import sgs
from rcpsp_hybrid.model import (
    Activity,
    ProjectInstance,
    Schedule,
    is_feasible,
    random_feasible_list,
)
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.sgs import (
    fbi,
    left_shift,
    parallel_sgs,
    schedule_to_list,
    serial_sgs,
)
from rcpsp_hybrid.solver import Budget
from conftest import with_zero_durations
from oracles import (
    brute_force_optimum,
    is_precedence_feasible_list,
    iter_topological_orders,
    reference_parallel_starts,
    reference_right_justify_starts,
    reference_serial_starts,
)


def _criterion_10_instance():
    return random_instance(random.Random(1010), 120, 4, edge_probability=0.1)


def test_serial_tiny1_both_orders(tiny1):
    assert serial_sgs(tiny1, [0, 1, 2, 3]).starts == (0, 0, 2, 5)
    assert serial_sgs(tiny1, [0, 2, 1, 3]).starts == (0, 3, 0, 5)


def test_parallel_tiny1_both_orders(tiny1):
    assert parallel_sgs(tiny1, [0, 1, 2, 3]).starts == (0, 0, 2, 5)
    assert parallel_sgs(tiny1, [0, 2, 1, 3]).starts == (0, 3, 0, 5)


def test_tiny2_any_list_hits_critical_path(tiny2):
    assert serial_sgs(tiny2, [0, 1, 2, 3, 4]).makespan == 9
    assert parallel_sgs(tiny2, [0, 1, 2, 3, 4]).makespan == 9


def test_decoders_always_feasible():
    rng = random.Random(11)
    for _ in range(300):
        inst = random_instance(rng, rng.randint(1, 50), rng.randint(1, 4))
        lst = random_feasible_list(inst, rng)
        assert is_feasible(inst, serial_sgs(inst, lst))
        assert is_feasible(inst, parallel_sgs(inst, lst))


def test_parallel_starts_successors_of_zero_duration_activities():
    """Activity 1 takes no time, so its successor 3 is ready at time 0
    even though activity 2, placed after it at that time, takes time."""
    inst = ProjectInstance(
        [
            Activity(0, 0, (0,)),
            Activity(1, 0, (1,)),
            Activity(2, 3, (1,)),
            Activity(3, 2, (1,)),
            Activity(4, 0, (0,)),
        ],
        {(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)},
        (2,),
    )
    assert parallel_sgs(inst, [0, 1, 2, 3, 4]).starts == (0, 0, 0, 0, 3)
    assert parallel_sgs(inst, [0, 2, 1, 3, 4]).makespan == 3
    assert serial_sgs(inst, [0, 1, 2, 3, 4]).makespan == 3


def test_zero_duration_activities_stay_feasible():
    """Chains of zero-duration activities at one time: right justification
    takes them successors first, so FBI never yields a negative start."""
    rng = random.Random(19)
    for _ in range(60):
        inst = with_zero_durations(
            random_instance(rng, rng.randint(2, 25), rng.randint(1, 3)), rng, 0.4
        )
        for _ in range(3):
            lst = random_feasible_list(inst, rng)
            for sched in (serial_sgs(inst, lst), parallel_sgs(inst, lst)):
                assert is_feasible(inst, sched)
                back = sgs._right_justify(inst, sched)
                assert is_feasible(inst, back) and back.makespan == sched.makespan
                assert is_feasible(inst, fbi(inst, sched))


def test_serial_output_is_active():
    """No activity can start one unit earlier without breaking a
    precedence or resource constraint."""
    rng = random.Random(3)
    for _ in range(50):
        inst = random_instance(rng, rng.randint(2, 20), rng.randint(1, 3))
        sched = serial_sgs(inst, random_feasible_list(inst, rng))
        for j in range(1, inst.sink):
            s = sched.starts[j]
            if s == 0:
                continue
            starts = list(sched.starts)
            starts[j] = s - 1
            assert not is_feasible(inst, Schedule.from_starts(inst, starts))


def test_fbi_closes_gap(tiny2):
    gapped = Schedule((0, 0, 4, 7, 11), 11)
    assert fbi(tiny2, gapped).starts == (0, 0, 2, 5, 9)
    assert left_shift(tiny2, gapped).starts == (0, 0, 2, 5, 9)


def test_fbi_keeps_optimum(tiny1):
    # 5 is optimal: both topological orders decode to makespan 5
    assert brute_force_optimum(tiny1) == 5
    opt = serial_sgs(tiny1, [0, 1, 2, 3])
    assert fbi(tiny1, opt).makespan == 5


def test_fbi_and_left_shift_monotone_idempotent():
    rng = random.Random(21)
    for _ in range(150):
        inst = random_instance(rng, rng.randint(1, 30), rng.randint(1, 3))
        sched = serial_sgs(inst, random_feasible_list(inst, rng))
        for op in (fbi, left_shift):
            out = op(inst, sched)
            assert out.makespan <= sched.makespan
            assert is_feasible(inst, out)
            assert op(inst, out) == out


def test_schedule_to_list(tiny1):
    assert schedule_to_list(tiny1, Schedule((0, 0, 2, 5), 5)) == (0, 1, 2, 3)
    assert schedule_to_list(tiny1, Schedule((0, 3, 0, 5), 5)) == (0, 2, 1, 3)


def test_schedule_to_list_ties_by_id(tiny1):
    # zero-duration source shares t=0 with both: id order breaks the tie
    lst = schedule_to_list(tiny1, Schedule((0, 0, 2, 5), 5))
    assert lst[0] == 0


def test_schedule_to_list_zero_duration_chain():
    """Zero-duration 3 follows activity 1 and precedes zero-duration 2, all
    three ending at 5: start ties go in topological order, not by id."""
    inst = ProjectInstance(
        [
            Activity(0, 0, (0,)),
            Activity(1, 5, (1,)),
            Activity(2, 0, (0,)),
            Activity(3, 0, (0,)),
            Activity(4, 0, (0,)),
        ],
        {(0, 1), (1, 3), (3, 2), (2, 4)},
        (1,),
    )
    sched = Schedule((0, 0, 5, 5, 5), 5)
    assert schedule_to_list(inst, sched) == (0, 1, 3, 2, 4)
    assert left_shift(inst, sched) == sched


def _renumbered(inst, rng):
    """The instance with its real activities relabeled at random, so ids
    no longer follow the precedence order."""
    real = list(range(1, inst.sink))
    rng.shuffle(real)
    new = [0, *real, inst.sink]
    acts = sorted(
        (Activity(new[a.id], a.duration, a.demand) for a in inst.activities),
        key=lambda a: a.id,
    )
    return ProjectInstance(acts, {(new[i], new[j]) for i, j in inst.arcs}, inst.capacities)


def test_schedule_to_list_precedence_feasible_on_any_numbering():
    rng = random.Random(23)
    for _ in range(80):
        inst = random_instance(rng, rng.randint(2, 20), rng.randint(1, 3))
        inst = _renumbered(with_zero_durations(inst, rng, 0.4), rng)
        for dec in (serial_sgs, parallel_sgs):
            sched = dec(inst, random_feasible_list(inst, rng))
            lst = schedule_to_list(inst, sched)
            assert is_precedence_feasible_list(inst, lst)
            assert is_feasible(inst, left_shift(inst, sched))
            assert is_feasible(inst, fbi(inst, sched))


def test_pickled_instance_decodes_the_same():
    """Pool workers get instances by pickling: the copy carries the packed
    demands and decodes every list to the same schedules."""
    rng = random.Random(29)
    for inst in (
        _criterion_10_instance(),
        with_zero_durations(random_instance(rng, 30, 5, max_capacity=300), rng, 0.3),
    ):
        copy = pickle.loads(pickle.dumps(inst))
        assert copy.packed_demand == inst.packed_demand
        assert (copy.slot_bits, copy.guard) == (inst.slot_bits, inst.guard)
        assert copy.topo_order == inst.topo_order
        for _ in range(20):
            lst = random_feasible_list(inst, rng)
            sched = serial_sgs(inst, lst)
            assert serial_sgs(copy, lst) == sched
            assert parallel_sgs(copy, lst) == parallel_sgs(inst, lst)
            assert fbi(copy, sched) == fbi(inst, sched)


def test_exhaustive_serial_reaches_optimum():
    """An optimal schedule exists among active schedules: the best serial
    decode over all topological orders equals the brute-force optimum."""
    rng = random.Random(9)
    for _ in range(15):
        inst = random_instance(rng, rng.randint(2, 6), 2, max_duration=4)
        best = min(
            serial_sgs(inst, order).makespan
            for order in iter_topological_orders(inst)
        )
        assert best == brute_force_optimum(inst)
        # and FBI never breaks below it
        sched = serial_sgs(inst, random_feasible_list(inst, rng))
        assert fbi(inst, sched).makespan >= best


# ------------------------------------------------ decoder oracles and memo


def test_decoders_match_stepwise_oracles():
    """The serial decode, the parallel decode and the right justification
    give exactly the start vectors of the stepwise oracles, which share no
    code with the change-point profile and its segment-skipping scans, nor
    with the parallel decoder's running capacity sum."""
    rng = random.Random(23)
    cases = [(_criterion_10_instance(), 30)]
    for _ in range(40):
        inst = random_instance(
            rng,
            rng.randint(1, 40),
            rng.randint(1, 4),
            edge_probability=rng.choice([0.05, 0.2, 0.5]),
            max_capacity=rng.choice([3, 10, 30]),
        )
        cases.append((inst, 4))
        cases.append((with_zero_durations(inst, rng), 4))
    for inst, n_lists in cases:
        for _ in range(n_lists):
            order = random_feasible_list(inst, rng)
            sched = serial_sgs(inst, order)
            assert sched.starts == reference_serial_starts(inst, order)
            assert parallel_sgs(inst, order).starts == reference_parallel_starts(inst, order)
            back = sgs._right_justify(inst, sched)
            back_order = sgs._backward_order(inst, sched.starts)
            assert back.starts == reference_right_justify_starts(
                inst, back_order, sched.makespan
            )


@st.composite
def small_instances(draw):
    """Up to 8 real activities on 1 to 3 resources, with zero durations,
    zero demands and zero capacities, and any order of the activities:
    the parallel decoder ranks only the eligible ones by it."""
    n = draw(st.integers(0, 8))
    caps = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 7, 8]), min_size=1, max_size=3))
    sink = n + 1
    acts = [Activity(0, 0, (0,) * len(caps))]
    for j in range(1, sink):
        demand = tuple(draw(st.one_of(st.just(0), st.just(c), st.integers(0, c))) for c in caps)
        acts.append(Activity(j, draw(st.sampled_from([0, 0, 1, 2, 3, 5])), demand))
    acts.append(Activity(sink, 0, (0,) * len(caps)))
    pairs = [(i, j) for i in range(1, sink) for j in range(i + 1, sink)]
    arcs = set(draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else [])
    arcs |= {(0, j) for j in range(1, sink) if all(b != j for _, b in arcs)}
    arcs |= {(i, sink) for i in range(1, sink) if all(a != i for a, _ in arcs)}
    if not n:
        arcs = {(0, sink)}
    inst = ProjectInstance(acts, arcs, caps)
    return inst, draw(st.permutations(range(len(inst))))


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_parallel_matches_the_stepwise_oracle(case):
    inst, order = case
    sched = parallel_sgs(inst, order)
    assert sched.starts == reference_parallel_starts(inst, order)
    assert is_feasible(inst, sched)


def _over_capacity(demand):
    """One activity demanding `demand` of a resource of capacity 2, after
    one that fits."""
    return ProjectInstance(
        [
            Activity(0, 0, (0,)),
            Activity(1, 2, (2,)),
            Activity(2, 1, (demand,)),
            Activity(3, 0, (0,)),
        ],
        {(0, 1), (0, 2), (1, 3), (2, 3)},
        (2,),
    )


@pytest.mark.parametrize("demand", [3, 7, 1000])
def test_parallel_stops_on_demand_above_capacity(demand):
    """validate_instance rejects such an instance; a decoder called on it
    directly stops with ValueError, naming the activity, instead of
    running on or booking it."""
    with pytest.raises(ValueError, match="activity 2"):
        parallel_sgs(_over_capacity(demand), [0, 1, 2, 3])


@pytest.mark.parametrize("demand", [3, 7, 1000])
def test_serial_stops_on_demand_above_capacity(demand):
    with pytest.raises(ValueError, match="activity 2"):
        serial_sgs(_over_capacity(demand), [0, 2, 1, 3])


def test_parallel_stops_on_a_precedence_cycle():
    inst = ProjectInstance(
        [Activity(0, 0, (0,)), Activity(1, 1, (0,)), Activity(2, 1, (0,)), Activity(3, 0, (0,))],
        {(0, 1), (1, 2), (2, 1), (2, 3)},
        (1,),
    )
    with pytest.raises(ValueError, match="cycle"):
        parallel_sgs(inst, [0, 1, 2, 3])


def test_serial_memo_charges_every_call():
    inst = _criterion_10_instance()
    lst = random_feasible_list(inst, random.Random(1))
    budget = Budget(None)
    first = serial_sgs(inst, lst, budget=budget)
    again = serial_sgs(inst, lst, budget=budget)
    as_list = serial_sgs(inst, list(lst), budget=budget)
    assert budget.used == 3
    assert again == first and as_list == first
    assert is_feasible(inst, first)


def test_serial_memo_is_bounded_and_not_pickled():
    inst = _criterion_10_instance()
    rng = random.Random(2)
    for _ in range(inst.serial_memo.SIZE + 10):
        serial_sgs(inst, random_feasible_list(inst, rng))
    assert len(inst.serial_memo) == inst.serial_memo.SIZE
    copy = pickle.loads(pickle.dumps(inst))
    assert len(copy.serial_memo) == 0
    lst = random_feasible_list(inst, rng)
    assert serial_sgs(copy, lst) == serial_sgs(inst, lst)


def test_serial_memo_shared_across_threads():
    """Threads sharing one instance hammer its memo with more distinct
    lists than it holds; decodes of a 6-activity instance are short, so
    an unguarded evict between a lookup and its reordering would show."""
    inst = random_instance(random.Random(5), 6, 1)
    rng = random.Random(3)
    lists = sorted(
        {random_feasible_list(inst, rng) for _ in range(400)}
    )
    assert len(lists) > 2 * inst.serial_memo.SIZE
    fresh = random_instance(random.Random(5), 6, 1)
    want = {lst: serial_sgs(fresh, lst) for lst in lists}
    errors: list[str] = []

    def work(tid: int) -> None:
        pick = random.Random(tid)
        try:
            for _ in range(20000):
                lst = lists[pick.randrange(len(lists))]
                assert serial_sgs(inst, lst) == want[lst]
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(tid,)) for tid in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:3]
    assert len(inst.serial_memo) == inst.serial_memo.SIZE
