"""Schedule generation schemes and justification operators.

serial_sgs / parallel_sgs decode an activity list (any sequence of
activity ids) into an active schedule, and schedule_to_list turns a
schedule back into a list, as a tuple; fbi and left_shift are the
makespan-nonincreasing improvement operators.  All functions are pure
given (instance, list); an optional `budget` (anything with a charge()
method) is debited once per full schedule constructed.

Two of them are memoized per instance (model.DecodeMemo), because the
search asks for the same work again and again: `serial_sgs` on the
activity order, and each pass of `fbi` on the schedule it starts from
(model.py gives both sizes and the sweep behind them).  A hit charges the
budget what the miss charged, so λ, every record and every schedule are
the same as without the memos.  `solve` empties both memos when it ends,
returning or raising.

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
real one.  Its order, decreasing finish, is a sort on one int key per
activity (`_backward_order`), the instance holding the part of each key
that does not depend on the schedule; a sort on a tuple per activity,
built in a lambda, took about 2x as long (about 2 000 orders captured
from ProGen j120, j30 and scarce120 solves, timed alternately in one
process).  The parallel decode needs no profile:
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
    when the activity starts and returns when it finishes.

    `lst` must hold every activity: one it leaves out is ranked past its
    end, so the decoder raises IndexError when that activity becomes
    eligible."""
    durs = inst.durations
    succs = inst.succs
    packed = inst.packed_demand
    guard = inst.guard
    free = inst.packed_capacity
    starts = [0] * len(inst)
    rank = [len(lst)] * len(starts)  # list position of each activity
    for i, j in enumerate(lst):
        rank[j] = i
    # predecessors of each activity not yet finished by t; an activity is
    # eligible once that count is zero
    waiting = inst.pred_counts.copy()
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
    zero-duration activities at the same time can tie on both times; when
    a real activity takes no time, those go successors first, in reverse
    topological order (tie = -position).

    Sorted on one int per activity, built in one pass: mixed-radix over
    (-finish, duration, tie + n), with radixes R = (max duration + 1) * 2n
    and 2n, since at equal finishes a longer duration is an earlier start.
    The key -(s + p) * R + p * 2n + n + tie is -s * R plus a part fixed
    per activity, which the instance holds as `backward_base`."""
    radix = inst.backward_radix
    keys = [b - s * radix for s, b in zip(starts, inst.backward_base)]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _right_justify(inst: ProjectInstance, sched: Schedule) -> Schedule:
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

    Each pass, a right justification and then a left shift, is memoized
    per instance on the schedule it starts from.  A memo of whole calls
    missed inputs that a call reaches after its first pass: in the 60
    ProGen j30 solves of perfbench's progen-j30-pool (seed 1), 21 % of the
    right justifications behind it repeated an input of the same solve,
    and with the pass memo none do (model.py gives the sweep).  A pass
    charges the budget two schedules, one right justification and one
    serial decode, whether it hits or misses; nothing reads the budget
    during FBI, so λ ends the same as without the memo."""
    best = sched
    for _ in range(max_passes):
        fwd = inst.fbi_memo.get(best)
        if fwd is None:
            fwd = left_shift(inst, _right_justify(inst, best))
            inst.fbi_memo.put(best, fwd)
        _charge(budget, 2)
        if fwd.makespan >= best.makespan:
            break
        best = fwd
    return best
