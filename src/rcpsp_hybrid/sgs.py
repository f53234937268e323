"""Schedule generation schemes and justification operators.

serial_sgs / parallel_sgs decode an activity list (any sequence of
activity ids) into an active schedule, and schedule_to_list turns a
schedule back into a list, as a tuple; fbi and left_shift are the
makespan-nonincreasing improvement operators.  All functions are pure
given (instance, list); an optional `budget` (anything with a charge()
method) is debited once per full schedule constructed.

Two of them are memoized per instance (model.DecodeMemo), because the
search asks for the same work again and again: `serial_sgs` on the
activity order, and `fbi` on its input schedule and pass cap (model.py
gives both sizes and the sweep behind them).  A hit charges the budget
what the miss charged, so λ, every record and every schedule are the same
as without the memos.  `solve` empties both memos when it ends, returning
or raising.

The serial decode and the right justification share one placement loop,
`profile.serial_place`, which searches a resource profile for each
activity's earliest window.  It lives in profile.py as one flat loop, with
no method call per activity, because it is most of a solve's time: in
perfbench's traced progen-j120 runs, the serial decode and FBI, whose self
time is mostly the right justification's placement, took 44 % and 30-33 %
of the self time while the loop made one `Profile.place` call per
activity.  Inlined, it takes about 1.2x less CPU (profile.py gives the
measurements).  This module touches no profile internals.  The right
justification runs the loop on the time axis mirrored in [0, T], with
successors as predecessors, so the earliest mirrored window is the latest
real one.  The parallel decode needs none:
it starts activities only at the decision time t, and every activity it
has started started at or before t, so the remaining capacity from t on
never falls below the capacity at t.  One packed int of free capacity, in
profile.py's guard-bit layout, decides each fit.  A decoder called on an
instance with a demand above its capacity (`validate_instance` rejects
one) raises ValueError, and so does FBI on an input schedule that does not
fit the resources within its makespan.
"""

from __future__ import annotations

import heapq
from bisect import insort
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
        starts, finish = profile.serial_place(
            inst, order, profile.empty(inst, inst.horizon + 1), inst.preds, inst.horizon
        )
        sched = Schedule(tuple(starts), finish[inst.sink])
        inst.serial_memo.put(order, sched)
    _charge(budget)
    return sched


def parallel_sgs(
    inst: ProjectInstance,
    lst: Sequence[int],
    budget=None,
) -> Schedule:
    """Parallel decoder: advances the decision time t over finish events;
    at each t, starts the eligible activities in list order while the
    resources permit.

    Every activity started so far started at or before t, so from t on
    the remaining capacity only rises as they finish (Kolisch 1996): an
    activity fits over [t, t+p) exactly when it fits at t.  So the decoder
    keeps no profile, only the packed free capacity at t in the layout of
    profile.py, guard bits included; an activity's packed demand leaves it
    when the activity starts and returns when it finishes."""
    durs = inst.durations
    succs = inst.succs
    packed = inst.packed_demand
    guard = inst.guard
    free = inst.packed_capacity
    rank = {j: i for i, j in enumerate(lst)}
    starts = [0] * len(inst)
    # predecessors of each activity not yet finished by t; an activity is
    # eligible once that count is zero
    waiting = [len(p) for p in inst.preds]
    # list positions of the eligible activities, ascending
    eligible = sorted(rank[j] for j, w in enumerate(waiting) if not w)
    running: list[tuple[int, int]] = []  # heap of (finish, activity), p > 0
    t = 0
    while True:
        # a zero-duration activity books nothing and finishes at t, so its
        # successors are tried in another pass at t
        while eligible:
            left = []
            ended = []
            for i in eligible:
                j = lst[i]
                p = durs[j]
                if not p:
                    starts[j] = t
                    ended.append(j)
                    continue
                d = packed[j]
                if (free - d) & guard != guard:
                    left.append(i)
                    continue
                free -= d
                starts[j] = t
                heapq.heappush(running, (t + p, j))
            eligible = left
            if not ended:
                break
            for j in ended:
                for s in succs[j]:
                    waiting[s] -= 1
                    if not waiting[s]:
                        insort(eligible, rank[s])
        if not running:
            break
        t = running[0][0]
        while running and running[0][0] == t:
            j = heapq.heappop(running)[1]
            free += packed[j]
            for s in succs[j]:
                waiting[s] -= 1
                if not waiting[s]:
                    insort(eligible, rank[s])
    # nothing runs, so the capacity is full
    if eligible:
        raise ValueError(f"activity {lst[eligible[0]]} demands more than a capacity")
    if any(waiting):
        raise ValueError("the precedence graph has a cycle")
    _charge(budget)
    return Schedule(tuple(starts), starts[inst.sink] + durs[inst.sink])


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
    moved to its latest resource-feasible start before its successors.

    This is the serial placement on the time axis mirrored in [0, T]: the
    window [t, t+p) maps to [T-t-p, T-t), successors become predecessors,
    and the latest start before a deadline becomes the earliest start
    after a release time.  So each start is T minus the mirrored finish."""
    T = sched.makespan
    order = _backward_order(inst, sched.starts)
    _, finish = profile.serial_place(inst, order, profile.empty(inst, T + 1), inst.succs, T)
    starts = [T - f for f in finish]
    starts[0] = 0
    _charge(budget)
    return Schedule(tuple(starts), T)


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
    shift until a full pass yields no improvement (capped at max_passes).

    Memoized per instance on (sched, max_passes): in ProGen j30 solves,
    47 % of the right justifications repeat an input, mostly for duplicate
    initial members.  A hit returns the recorded result and charges the
    budget the recorded number of schedules at once; nothing reads the
    budget during FBI, so λ ends the same as on a miss."""
    key = (sched, max_passes)
    hit = inst.fbi_memo.get(key)
    if hit is not None:
        best, charges = hit
        _charge(budget, charges)
        return best
    best = sched
    charges = 0
    for _ in range(max_passes):
        back = _right_justify(inst, best, budget=budget)
        fwd = left_shift(inst, back, budget=budget)
        charges += 2  # one right justification, one serial decode
        if fwd.makespan < best.makespan:
            best = fwd
        else:
            break
    inst.fbi_memo.put(key, (best, charges))
    return best
