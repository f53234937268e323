import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from rcpsp_hybrid import profile, sgs
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
from conftest import small_instances, with_zero_durations
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


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_parallel_matches_the_stepwise_oracle(case):
    inst, order = case
    sched = parallel_sgs(inst, order)
    assert sched.starts == reference_parallel_starts(inst, order)
    assert is_feasible(inst, sched)


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_serial_and_right_justification_match_the_stepwise_oracles(case):
    """The serial placement loop of profile.py, run forward by the serial
    decode and mirrored by the right justification, gives the oracles'
    starts: on zero durations, demands and capacities, on orders that
    are not topological, and on bookings that cover one segment or span
    several."""
    inst, order = case
    assert serial_sgs(inst, order).starts == reference_serial_starts(inst, order)
    sched = parallel_sgs(inst, order)
    back = sgs._right_justify(inst, sched)
    back_order = sgs._backward_order(inst, sched.starts)
    assert back.starts == reference_right_justify_starts(inst, back_order, sched.makespan)
    assert is_feasible(inst, back)


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


def test_serial_stops_at_the_horizon():
    """On one unit of capacity the second activity fits only in [2, 3),
    past the horizon 2, though the profile runs to 3."""
    inst = ProjectInstance(
        [Activity(0, 0, (0,)), Activity(1, 2, (1,)), Activity(2, 1, (1,)), Activity(3, 0, (0,))],
        {(0, 1), (0, 2), (1, 3), (2, 3)},
        (1,),
        horizon=2,
    )
    with pytest.raises(ValueError, match="activity 2 fits nowhere within the horizon 2"):
        serial_sgs(inst, [0, 1, 2, 3])


def test_parallel_stops_on_a_list_missing_an_activity(tiny2):
    """An activity left out of the list is never started, so the decoder
    raises instead of returning starts that leave it at 0."""
    with pytest.raises(IndexError):
        parallel_sgs(tiny2, [0, 1, 3, 4])


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
    for _ in range(inst.serial_memo.size + 10):
        serial_sgs(inst, random_feasible_list(inst, rng))
    assert len(inst.serial_memo) == inst.serial_memo.size
    copy = pickle.loads(pickle.dumps(inst))
    assert len(copy.serial_memo) == 0
    lst = random_feasible_list(inst, rng)
    assert serial_sgs(copy, lst) == serial_sgs(inst, lst)


def _run_threads(work, count: int = 4) -> None:
    """Run work(0) ... work(count - 1) in threads that switch as often as
    the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(tid,)) for tid in range(count)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)


def test_serial_memo_shared_across_threads():
    """Threads sharing one instance hammer its memo with more distinct
    lists than it holds; decodes of a 10-activity instance are short, so
    an unguarded evict between a lookup and its reordering would show."""
    inst = random_instance(random.Random(5), 10, 1, edge_probability=0.2)
    rng = random.Random(3)
    lists = sorted(
        {random_feasible_list(inst, rng) for _ in range(2000)}
    )
    assert len(lists) > 2 * inst.serial_memo.size
    fresh = random_instance(random.Random(5), 10, 1, edge_probability=0.2)
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

    _run_threads(work)
    assert not errors, errors[:3]
    assert len(inst.serial_memo) == inst.serial_memo.size


def test_fbi_memo_hit_equals_the_miss_per_pass_cap():
    """For pass caps 1 to 4, a call answered from the pass memo returns the
    schedule and charges the λ of the same call on an empty memo, and the
    memo holds one entry per distinct pass input: a call that starts from
    where another's first pass ended adds none.  The misses run on pickled
    copies of the instance, which arrive with empty memos."""
    inst = _criterion_10_instance()
    rng = random.Random(4)

    def on_empty_memo(sched, passes):
        budget = Budget(None)
        fresh = pickle.loads(pickle.dumps(inst))
        return fbi(fresh, sched, max_passes=passes, budget=budget), budget.used

    while True:
        # an input whose first two passes improve, so caps 1-3 differ in λ
        sched = serial_sgs(inst, random_feasible_list(inst, rng))
        want = {passes: on_empty_memo(sched, passes) for passes in (1, 2, 3, 4)}
        if want[4][1] >= 6:
            break
    # the cap-4 call starts a pass from sched and from each improvement
    inputs = {sched} | {want[passes][0] for passes in range(1, want[4][1] // 2)}
    assert len(inputs) == want[4][1] // 2
    for passes in (1, 4, 2, 3, 4, 1):
        budget = Budget(None)
        got = fbi(inst, sched, max_passes=passes, budget=budget)
        assert (got, budget.used) == want[passes]
    budget = Budget(None)
    assert fbi(inst, want[1][0], budget=budget) == want[4][0]
    assert budget.used == want[4][1] - 2
    assert len(inst.fbi_memo) == len(inputs)


def test_fbi_memo_shared_across_threads():
    """Threads sharing one instance hammer its FBI pass memo with over
    twice the distinct inputs it holds, serial and parallel decodes of a
    20-activity instance, whose passes are short enough that an unguarded
    evict between a lookup and its reordering would show."""
    inst = random_instance(random.Random(5), 20, 1, edge_probability=0.2)
    rng = random.Random(3)
    inputs = set()
    while len(inputs) <= 2 * inst.fbi_memo.size:
        lst = random_feasible_list(inst, rng)
        inputs |= {serial_sgs(inst, lst), parallel_sgs(inst, lst)}
    inputs = sorted(inputs, key=lambda sched: sched.starts)
    fresh = random_instance(random.Random(5), 20, 1, edge_probability=0.2)
    want = {sched: fbi(fresh, sched) for sched in inputs}
    errors: list[str] = []

    def work(tid: int) -> None:
        pick = random.Random(tid)
        try:
            for _ in range(20000):
                sched = inputs[pick.randrange(len(inputs))]
                assert fbi(inst, sched) == want[sched]
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    _run_threads(work)
    assert not errors, errors[:3]
    assert len(inst.fbi_memo) == inst.fbi_memo.size


def test_fbi_memo_is_bounded_and_not_pickled():
    inst = _criterion_10_instance()
    rng = random.Random(6)
    inputs = [
        serial_sgs(inst, random_feasible_list(inst, rng))
        for _ in range(inst.fbi_memo.size + 10)
    ]
    for sched in inputs:
        fbi(inst, sched)
    assert len(inst.fbi_memo) == inst.fbi_memo.size
    copy = pickle.loads(pickle.dumps(inst))
    assert len(copy.fbi_memo) == 0 and len(copy.serial_memo) == 0
    assert fbi(copy, inputs[-1]) == fbi(inst, inputs[-1])


def test_fbi_stops_when_an_activity_fits_nowhere(tiny1):
    """Both activities of tiny1 start at 0, over the capacity, and the
    makespan 3 leaves no room to move activity 1 before activity 2: the
    right justification raises instead of returning a schedule."""
    with pytest.raises(ValueError, match="activity 1 fits nowhere"):
        fbi(tiny1, Schedule((0, 0, 0, 3), 3))
    assert len(tiny1.fbi_memo) == 0


def test_fbi_leaves_no_sentinel_when_an_activity_fits_nowhere(tiny1, monkeypatch):
    """The right justification's profile ends at T + 1 after the raise, as
    it began: the sentinel segment is gone."""
    made = []

    def empty(inst, length):
        made.append(profile.Profile([0, length], [inst.packed_capacity], inst.guard))
        return made[-1]

    monkeypatch.setattr(profile, "empty", empty)
    with pytest.raises(ValueError, match="fits nowhere"):
        fbi(tiny1, Schedule((0, 0, 0, 3), 3))
    (prof,) = made
    assert prof.times[-1] == 4
    assert len(prof.vals) == len(prof.times) - 1


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.data())
def test_backward_order_sorts_on_the_time_tuple(case, data):
    """Any start vector: the one-int key sorts as (-finish, -start, tie),
    tie being the id, or -position in the topological order for a
    zero-duration activity when a real activity takes no time."""
    inst, _ = case
    durs = inst.durations
    starts = [data.draw(st.integers(0, 9)) for _ in durs]
    tie = list(range(len(inst)))
    if 0 in durs[1:-1]:
        for pos, j in enumerate(inst.topo_order):
            if not durs[j]:
                tie[j] = -pos
    want = sorted(range(len(inst)), key=lambda j: (-(starts[j] + durs[j]), -starts[j], tie[j]))
    assert sgs._backward_order(inst, starts) == want


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_fbi_feasible_never_worse_and_replayed_on_a_hit(case):
    inst, order = case
    sched = parallel_sgs(inst, order)
    miss = Budget(None)
    out = fbi(inst, sched, budget=miss)
    assert is_feasible(inst, out)
    assert out.makespan <= sched.makespan
    hit = Budget(None)
    assert fbi(inst, sched, budget=hit) == out
    assert hit.used == miss.used
