"""Neighborhood search: block selection, windowed rescheduling (N_A),
partial rebuild with knapsack-driven parallel extension (N_B), tabu
memory on summed start times, and the GRASP knapsack solver."""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .model import ProjectInstance, Schedule
from .genetic import Individual, repair_precedence
from .sgs import left_shift, schedule_to_list, serial_sgs
from . import profile

# share of the value-ranked feasible items a randomized GRASP construction
# picks from
RCL_FRACTION = 0.5
# GRASP constructions per knapsack, the greedy one included
GRASP_CONSTRUCTIONS = 16
# λ_NS: placement attempts of one N_A move before it returns None
NA_TRIES = 5
# visited-solution fingerprints the tabu list remembers
TABU_CAPACITY = 50


@dataclass
class Block:
    core: int
    members: set[int]


class TabuList:
    """Bounded FIFO of visited-solution fingerprints with exact membership."""

    def __init__(self, capacity: int = TABU_CAPACITY):
        self._queue: deque[int] = deque(maxlen=max(capacity, 0))

    def push(self, value: int) -> None:
        self._queue.append(value)

    def __contains__(self, value: int) -> bool:
        return value in self._queue

    def __len__(self) -> int:
        return len(self._queue)


def tabu_status(inst: ProjectInstance, sched: Schedule) -> int:
    """Sum of non-dummy start times; the visited-solution fingerprint."""
    return sum(sched.starts[1 : inst.sink])


def create_block(
    inst: ProjectInstance, j: int, sched: Schedule, P: int, rng
) -> Block:
    """Select up to P activities temporally close to core j: in a random
    order of the others, i is admitted when s_j - p_i - b <= s_i <= s_j +
    p_j + b, with b = 0 first and widened by one while fewer than P are
    in.

    In one pass: each activity gets the least b that admits it, and the
    first P - 1 of the random order, sorted stably on that b, join the
    core, which is the block a rescan per widening selects.  The order is
    drawn as Random.shuffle draws it, by rejection on `rng.getrandbits`,
    so it and the rng state are the same.  On the 2 384 blocks of a
    λ = 8 000 solve of perfbench's scarce120 instance, a block took 47 µs
    against 70 for the rescans and `rng.shuffle` (means, timed
    alternately in one process)."""
    starts = sched.starts
    candidates = [i for i in range(1, inst.sink) if i != j]
    getrandbits = rng.getrandbits
    for pos in range(len(candidates) - 1, 0, -1):
        n = pos + 1
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        candidates[pos], candidates[r] = candidates[r], candidates[pos]
    lo = starts[j]
    hi = lo + inst.durations[j]
    least_b = [
        lo - s - p if s + p < lo else s - hi if s > hi else 0
        for s, p in zip(starts, inst.durations)
    ]
    members = set(sorted(candidates, key=least_b.__getitem__)[: max(P - 1, 0)])
    members.add(j)
    return Block(core=j, members=members)


def compute_windows(
    inst: ProjectInstance, sched: Schedule, block: Block
) -> dict[int, tuple[int, int]]:
    """(EST, LFT) per member keeping every outside activity untouched:
    EST from outside predecessors' finishes, LFT from outside successors'
    starts (the makespan when there are none)."""
    windows: dict[int, tuple[int, int]] = {}
    members = block.members
    for i in members:
        est = 0
        for l in inst.preds[i]:
            if l not in members:
                f = sched.starts[l] + inst.durations[l]
                if f > est:
                    est = f
        lft = sched.makespan
        for l in inst.succs[i]:
            if l not in members and sched.starts[l] < lft:
                lft = sched.starts[l]
        windows[i] = (est, lft)
    return windows


def activity_value(
    inst: ProjectInstance, j: int, weights: Sequence[float]
) -> float:
    return sum(
        weights[k] * d / inst.capacities[k] for k, d in inst.active_demand[j]
    )


def booked_profile(inst: ProjectInstance, sched: Schedule) -> profile.Profile:
    """The remaining capacity over [0, makespan] with every activity of
    `sched` booked: what N_A releases its block from."""
    return profile.booked(
        inst, sched.makespan + 1, zip(inst.packed_demand, sched.starts, inst.durations)
    )


def neighborhood_a_move(
    inst: ProjectInstance,
    sched: Schedule,
    booked: profile.Profile,
    block: Block,
    weights: Sequence[float],
    tries: int,
    rng,
    budget=None,
) -> Optional[Schedule]:
    """Windowed rescheduling: release the block's resources, then repeatedly
    place the members by a rank-biased random priority inside their
    windows, left-shift the assembled schedule, and return the first
    strict improvement.  None after `tries` attempts.

    `booked` is sched's `booked_profile`, which ns_run builds once per
    incumbent; the move releases the members from a copy of it.  Each
    try keeps sched's makespan, which no member's window passes.  The
    pick among the m members whose block predecessors are placed weighs
    them m, m-1, ..., 1 by rank and is drawn as `rng.choices` draws it:
    one `rng.random()` and a bisection of the cumulative weights."""
    windows = compute_windows(inst, sched, block)
    members = block.members
    packed = inst.packed_demand
    durs = inst.durations
    starts0 = sched.starts
    rem = booked.copy()
    for a in members:
        rem.release(packed[a], starts0[a], durs[a])

    ranked = sorted(
        members, key=lambda a: (-activity_value(inst, a, weights), a)
    )
    member_preds = {
        a: [p for p in inst.preds[a] if p in members] for a in members
    }
    # per count m of eligible members: the cumulative rank weights and
    # their float total
    cumulative = [None] + [
        (c, c[-1] + 0.0)
        for c in (list(accumulate(range(m, 0, -1))) for m in range(1, len(ranked) + 1))
    ]
    random = rng.random

    for _ in range(tries):
        if budget is not None and budget.exhausted:
            break
        slots = rem.copy()
        new_start: dict[int, int] = {}
        pending = list(ranked)
        failed = False
        while pending:
            eligible_idx = [
                idx
                for idx, a in enumerate(pending)
                if all(p in new_start for p in member_preds[a])
            ]
            # weight proportional to rank position: scarcer-demand first
            m = len(eligible_idx)
            cum, total = cumulative[m]
            chosen = eligible_idx[bisect_right(cum, random() * total, 0, m - 1)]
            a = pending.pop(chosen)
            est, lft = windows[a]
            for p in member_preds[a]:
                f = new_start[p] + durs[p]
                if f > est:
                    est = f
            p_a = durs[a]
            t = slots.place(packed[a], est, lft - p_a, p_a)
            if t is None:
                failed = True
                break
            new_start[a] = t
        if failed:
            continue
        starts = list(starts0)
        for a, t in new_start.items():
            starts[a] = t
        # the members finish inside their windows, by the makespan, and the
        # sink keeps its start, the makespan
        shifted = left_shift(inst, Schedule(tuple(starts), sched.makespan), budget=budget)
        if shifted.makespan < sched.makespan:
            return shifted
    return None


def grasp_knapsack(
    eligible: Sequence[int],
    remaining: int,
    demands: Sequence[int],
    guard: int,
    values: Sequence[float],
    rng,
) -> list[int]:
    """Multi-dimensional knapsack via GRASP: GRASP_CONSTRUCTIONS
    randomized-greedy constructions (restricted candidate list = top
    RCL_FRACTION by value) keeping the best; the pure greedy construction
    is the first of them, so the result never falls below it.  Returns
    indices into `eligible`.  Each restricted-candidate-list index is
    drawn as `rng.randrange` draws it, by rejection on `rng.getrandbits`.

    The capacity and the demands are packed in the layout of profile.py:
    `remaining` carries the guard bits `guard`, the demands do not, and an
    item fits exactly when (remaining - demand) & guard == guard."""
    m = len(eligible)
    if m == 0:
        return []
    getrandbits = rng.getrandbits
    # When every item fits at once, each construction takes them all, so
    # only the draws of the randomized ones are made, to leave the rng as
    # they would.  The items are booked one at a time: a sum of packed
    # demands could carry from one field into the next.
    rem = remaining
    for d in demands:
        rem -= d
        if rem & guard != guard:
            break
    else:
        for _ in range(GRASP_CONSTRUCTIONS - 1):
            for r in range(m, 0, -1):
                n = max(1, int(r * RCL_FRACTION))
                k = n.bit_length()
                while getrandbits(k) >= n:
                    pass
        return list(range(m))
    order = sorted(range(m), key=lambda i: (-values[i], i))

    def construct(randomized: bool) -> tuple[float, list[int]]:
        rem = remaining
        picked: list[int] = []
        total = 0.0
        candidates = order[:]
        while candidates:
            feasible = [i for i in candidates if (rem - demands[i]) & guard == guard]
            if not feasible:
                break
            if randomized:
                # an index into the first n feasible items, the restricted
                # candidate list
                n = max(1, int(len(feasible) * RCL_FRACTION))
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                i = feasible[r]
            else:
                i = feasible[0]
            picked.append(i)
            total += values[i]
            rem -= demands[i]
            candidates.remove(i)
        return total, sorted(picked)

    best_total, best_picked = construct(randomized=False)
    for _ in range(GRASP_CONSTRUCTIONS - 1):
        total, picked = construct(randomized=True)
        if total > best_total or (total == best_total and picked < best_picked):
            best_total, best_picked = total, picked
    return best_picked


def neighborhood_b_move(
    inst: ProjectInstance,
    lst: Sequence[int],
    sched: Schedule,
    block: Block,
    weights: Sequence[float],
    rng,
) -> Optional[tuple[int, ...]]:
    """Partial rebuild: empty when the block holds a predecessor of the
    core; otherwise the list prefix before the block is serially decoded,
    the block is extended by parallel decoding with knapsack-selected
    start sets, and the result list carries the block in ascending new
    start order.  `lst` must be precedence-feasible.

    The extension keeps, per member, its count of unplaced member
    predecessors and its release time, the latest finish of its placed
    predecessors, and finds the next event time by bisecting a sorted list
    of finishes; it rescans neither predecessors nor finishes at an
    event."""
    j = block.core
    members = block.members - {0, inst.sink}
    if not members:
        return lst
    if any(m != j and (m, j) in inst.arcs for m in members):
        return None

    order = list(lst)
    pos = {a: i for i, a in enumerate(order)}
    last_pos = max(pos[m] for m in members)
    prefix = [a for a in order[: last_pos + 1] if a not in members]
    suffix = order[last_pos + 1 :]

    # serial partial schedule of the prefix; the members are not in it,
    # so their finish 0 leaves their successors in the prefix unconstrained
    packed = inst.packed_demand
    durs = inst.durations
    slots = profile.empty(inst, inst.horizon + 1)
    starts, finish = profile.serial_place(inst, prefix, slots, inst.preds, inst.horizon)

    # every predecessor of a member is in the prefix or the block
    waiting = dict.fromkeys(members, 0)
    release = dict.fromkeys(members, 0)
    member_succs = {}
    for a in members:
        for p in inst.preds[a]:
            if p in members:
                waiting[a] += 1
            elif finish[p] > release[a]:
                release[a] = finish[p]
        member_succs[a] = [s for s in inst.succs[a] if s in members]
    # members whose block predecessors are all placed
    available = sorted(a for a in members if not waiting[a])
    # the event times; an activity not yet placed holds finish 0, which
    # is never a next event
    events = sorted(finish)

    # parallel extension over the block with knapsack-selected batches
    t = 0
    while available:
        ready = [a for a in available if release[a] <= t]
        if not ready:
            # nothing happens at the event times before a member becomes
            # ready, so go straight to the first of them
            t = min(release[a] for a in available)
            continue
        fits = [a for a in ready if slots.fits(packed[a], t, durs[a])]
        if fits:
            vals = [activity_value(inst, a, weights) for a in fits]
            dem = [packed[a] for a in fits]
            picked = grasp_knapsack(fits, slots.at(t), dem, inst.guard, vals, rng)
            placed_any = False
            for idx in sorted(picked, key=lambda i: (-vals[i], fits[i])):
                a = fits[idx]
                p_a = durs[a]
                if slots.place(packed[a], t, t, p_a) is None:
                    continue
                starts[a] = t
                f = t + p_a
                insort(events, f)
                available.remove(a)
                for s in member_succs[a]:
                    waiting[s] -= 1
                    if f > release[s]:
                        release[s] = f
                    if not waiting[s]:
                        insort(available, s)
                placed_any = True
            if placed_any:
                continue
        # advance to the next event time; on a valid instance a member that
        # does not fit overlaps a booking that finishes later
        t = events[bisect_right(events, t)]

    new_block_order = sorted(members, key=lambda a: (starts[a], a))
    rebuilt = prefix + new_block_order + suffix
    return tuple(repair_precedence(inst, rebuilt))


@dataclass
class NsStats:
    empty: int = 0
    nonempty: int = 0
    improved: int = 0


def ns_run(
    inst: ProjectInstance,
    start: Individual,
    weights: Sequence[float],
    steps: int,
    rng,
    P: int = 4,
    budget=None,
    tabu: Optional[TabuList] = None,
    stats: Optional[NsStats] = None,
) -> Individual:
    """Tabu-guided walk of `steps` steps that each toss a fair coin
    between N_A and N_B; strictly better neighbors update the incumbent
    best.  The walk moves to each generated neighbor whose fingerprint
    (`tabu_status`) is not tabu, and stays put on a tabu or empty one.
    The current schedule's `booked_profile` is built at its first N_A move
    and kept until the walk moves on."""
    if stats is None:
        stats = NsStats()
    if tabu is None:
        tabu = TabuList()
    best = start
    current = start
    current_booked = None
    if inst.n_real < 1:
        return best
    for _ in range(steps):
        if budget is not None and budget.exhausted:
            break
        j = rng.randrange(1, inst.sink)
        block = create_block(inst, j, current.schedule, P, rng)
        neighbor: Optional[Individual] = None
        if rng.random() < 0.5:
            if current_booked is None:
                current_booked = booked_profile(inst, current.schedule)
            moved = neighborhood_a_move(
                inst,
                current.schedule,
                current_booked,
                block,
                weights,
                tries=NA_TRIES,
                rng=rng,
                budget=budget,
            )
            if moved is not None:
                neighbor = Individual(schedule_to_list(inst, moved), moved)
        else:
            rebuilt = neighborhood_b_move(
                inst, current.list, current.schedule, block, weights, rng
            )
            if rebuilt is not None:
                sched = serial_sgs(inst, rebuilt, budget=budget)
                neighbor = Individual(rebuilt, sched)
        if neighbor is None:
            stats.empty += 1
            continue
        stats.nonempty += 1
        ts = tabu_status(inst, neighbor.schedule)
        if ts in tabu:
            continue
        if neighbor.makespan < best.makespan:
            best = neighbor
            stats.improved += 1
        tabu.push(ts)
        current = neighbor
        current_booked = None
    return best
