"""Schedule generation schemes and justification operators.

serial_sgs / parallel_sgs decode an activity list (any sequence of
activity ids) into an active schedule, and schedule_to_list turns a
schedule back into a list, as a tuple; fbi and left_shift are the
makespan-nonincreasing improvement operators.  All functions are pure
given (instance, list); an optional `budget` (anything with a charge()
method) is debited once per full schedule constructed; a serial decode
served from the instance's memo counts as constructed.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .model import ProjectInstance, Schedule
from . import profile

# There is one decode backend, pure Python.  perfbench/run.py still reads
# this flag to record the backend of each run, so it stays as a constant.
USE_KERNELS = False


def _charge(budget, k: int = 1) -> None:
    if budget is not None:
        budget.charge(k)


def serial_sgs(
    inst: ProjectInstance,
    lst: Sequence[int],
    budget=None,
) -> Schedule:
    """Serial decoder: each activity, in list order, starts at the earliest
    time after its predecessors at which its full duration fits the
    remaining resource profile.

    Decodes are memoized per instance on the activity order (the search
    revisits the same lists often); the budget is charged once per call,
    hit or miss, so λ counts calls exactly as without the memo."""
    order = tuple(lst)
    sched = inst.serial_memo.get(order)
    if sched is None:
        starts, finish = serial_place(inst, order, profile.empty(inst, inst.horizon + 1))
        sched = Schedule(tuple(starts), finish[inst.sink])
        inst.serial_memo.put(order, sched)
    _charge(budget)
    return sched


def serial_place(
    inst: ProjectInstance, order: Sequence[int], rem: profile.Profile
) -> tuple[list[int], list[int]]:
    """Place `order` serially into the profile `rem` (covering at least
    [0, horizon)): each activity at the earliest start after its
    predecessors' finishes at which it fits.  Returns the start and finish
    vectors; an activity missing from the order keeps start and finish 0,
    so it does not hold back its successors."""
    durs = inst.durations
    preds = inst.preds
    packed = inst.packed_demand
    horizon = inst.horizon
    place = rem.place
    starts = [0] * len(inst)
    finish = [0] * len(inst)
    for j in order:
        p = durs[j]
        est = 0
        for i in preds[j]:
            f = finish[i]
            if f > est:
                est = f
        t = place(packed[j], est, horizon - p, p)
        starts[j] = t
        finish[j] = t + p
    return starts, finish


def parallel_sgs(
    inst: ProjectInstance,
    lst: Sequence[int],
    budget=None,
) -> Schedule:
    """Parallel decoder: advances decision time over finish events; at each
    decision time starts eligible activities in list order while the
    resources permit."""
    rank = {j: i for i, j in enumerate(lst)}
    durs = inst.durations
    succs = inst.succs
    packed = inst.packed_demand
    rem = profile.empty(inst, inst.horizon + 1)
    place = rem.place

    n2 = len(inst)
    starts = [0] * n2
    finish = [0] * n2
    # predecessors of each activity not yet finished by t; an activity is
    # eligible once that count is zero
    waiting = [len(p) for p in inst.preds]
    eligible = {j for j in range(n2) if not waiting[j]}
    running: list[tuple[int, int]] = []  # heap of (finish, activity)
    unplaced = n2
    t = 0
    while unplaced:
        progressed = True
        while progressed:
            progressed = False
            while running and running[0][0] <= t:
                for s in succs[heapq.heappop(running)[1]]:
                    waiting[s] -= 1
                    if not waiting[s]:
                        eligible.add(s)
            for j in sorted(eligible, key=rank.__getitem__):
                p = durs[j]
                if place(packed[j], t, t, p) is None:
                    continue
                starts[j] = t
                finish[j] = t + p
                eligible.discard(j)
                heapq.heappush(running, (t + p, j))
                unplaced -= 1
                # a zero-duration activity finishes at t: its successors
                # may start at t too
                if not p:
                    progressed = True
        if not unplaced:
            break
        # next decision time: earliest finish event beyond t
        t = min((f for f, _ in running if f > t), default=t + 1)
    sched = Schedule(tuple(starts), finish[inst.sink])
    _charge(budget)
    return sched


def schedule_to_list(inst: ProjectInstance, sched: Schedule) -> tuple[int, ...]:
    """Activities sorted by start time, ties in the instance's smallest
    topological order (by id on a topologically numbered instance), so
    zero-duration chains sharing a start stay precedence-feasible."""
    return tuple(sorted(inst.topo_order, key=sched.starts.__getitem__))


def _backward_order(inst: ProjectInstance, starts: Sequence[int]) -> list[int]:
    """The order of right justification: decreasing finish, then decreasing
    start, then id, so each activity comes after its successors.  Only
    zero-duration activities at the same time can tie on both times; those
    go successors first, in reverse topological order."""
    durs = inst.durations
    tie = list(range(len(inst)))
    if 0 in durs[1 : inst.sink]:
        for pos, j in enumerate(inst.topo_order):
            if not durs[j]:
                tie[j] = -pos
    return sorted(
        range(len(inst)),
        key=lambda j: (-(starts[j] + durs[j]), -starts[j], tie[j]),
    )


def _right_justify(inst: ProjectInstance, sched: Schedule, budget=None) -> Schedule:
    """Schedule backward in decreasing finish-time order: each activity is
    moved to its latest resource-feasible start before its successors."""
    T = sched.makespan
    durs = inst.durations
    succs = inst.succs
    packed = inst.packed_demand
    sink = inst.sink
    place_latest = profile.empty(inst, T + 1).place_latest
    new_start = [0] * len(inst)
    new_start[sink] = T
    for j in _backward_order(inst, sched.starts):
        if j == sink:
            continue
        p = durs[j]
        deadline = T
        for s in succs[j]:
            ns = new_start[s]
            if ns < deadline:
                deadline = ns
        t = place_latest(packed[j], 0, deadline - p, p)
        assert t is not None, "right justification ran out of room"
        new_start[j] = t
    new_start[0] = 0
    _charge(budget)
    return Schedule(tuple(new_start), T)


def left_shift(inst: ProjectInstance, sched: Schedule, budget=None) -> Schedule:
    """Global left shift: serial decode in nondecreasing start order.

    Never increases the makespan and is idempotent on its own output.
    """
    return serial_sgs(inst, schedule_to_list(inst, sched), budget=budget)


def fbi(
    inst: ProjectInstance,
    sched: Schedule,
    max_passes: int = 4,
    budget=None,
) -> Schedule:
    """Forward-backward improvement: alternate right justification and left
    shift until a full pass yields no improvement (capped at max_passes)."""
    best = sched
    for _ in range(max_passes):
        back = _right_justify(inst, best, budget=budget)
        fwd = left_shift(inst, back, budget=budget)
        if fwd.makespan < best.makespan:
            best = fwd
        else:
            break
    return best
