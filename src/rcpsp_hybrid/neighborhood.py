"""Neighborhood search: block selection, windowed rescheduling (N_A),
partial rebuild with knapsack-driven parallel extension (N_B), tabu
memory on summed start times, and the GRASP knapsack solver."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
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
        self.capacity = capacity
        self._queue: deque[int] = deque()
        self._counts: Counter[int] = Counter()

    def push(self, value: int) -> None:
        if self.capacity <= 0:
            return
        if len(self._queue) == self.capacity:
            old = self._queue.popleft()
            self._counts[old] -= 1
            if not self._counts[old]:
                del self._counts[old]
        self._queue.append(value)
        self._counts[value] += 1

    def __contains__(self, value: int) -> bool:
        return value in self._counts

    def __len__(self) -> int:
        return len(self._queue)


def tabu_status(inst: ProjectInstance, sched: Schedule) -> int:
    """Sum of non-dummy start times; the visited-solution fingerprint."""
    return sum(sched.starts[1 : inst.sink])


def create_block(
    inst: ProjectInstance, j: int, sched: Schedule, P: int, rng
) -> Block:
    """Select up to P activities temporally close to core j: scan a random
    order, admitting i when s_j - p_i - b <= s_i <= s_j + p_j + b, and
    widen b by one after exhausting the order."""
    members = {j}
    candidates = [i for i in range(1, inst.sink) if i != j]
    rng.shuffle(candidates)
    s_j = sched.starts[j]
    p_j = inst.durations[j]
    b = 0
    while len(members) < P and len(members) < len(candidates) + 1:
        for i in candidates:
            if i in members:
                continue
            if s_j - inst.durations[i] - b <= sched.starts[i] <= s_j + p_j + b:
                members.add(i)
                if len(members) == P:
                    break
        if len(members) < P:
            b += 1
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


def neighborhood_a_move(
    inst: ProjectInstance,
    sched: Schedule,
    block: Block,
    weights: Sequence[float],
    tries: int,
    rng,
    budget=None,
) -> Optional[Schedule]:
    """Windowed rescheduling: release the block's resources, then repeatedly
    place the members by a rank-biased random priority inside their
    windows, left-shift the assembled schedule, and return the first
    strict improvement.  None after `tries` attempts."""
    windows = compute_windows(inst, sched, block)
    members = block.members
    packed = inst.packed_demand
    rem = profile.booked(
        inst,
        sched.makespan + 1,
        (
            (packed[j], sched.starts[j], inst.durations[j])
            for j in range(1, inst.sink)
            if j not in members
        ),
    )

    ranked = sorted(
        members, key=lambda a: (-activity_value(inst, a, weights), a)
    )
    member_preds = {
        a: [p for p in inst.preds[a] if p in members] for a in members
    }

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
            pick_weights = [m - i for i in range(m)]
            chosen = rng.choices(eligible_idx, weights=pick_weights, k=1)[0]
            a = pending.pop(chosen)
            est, lft = windows[a]
            for p in member_preds[a]:
                f = new_start[p] + inst.durations[p]
                if f > est:
                    est = f
            p_a = inst.durations[a]
            t = slots.place(packed[a], est, lft - p_a, p_a)
            if t is None:
                failed = True
                break
            new_start[a] = t
        if failed:
            continue
        starts = list(sched.starts)
        for a, t in new_start.items():
            starts[a] = t
        assembled = Schedule.from_starts(inst, starts)
        shifted = left_shift(inst, assembled, budget=budget)
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
    indices into `eligible`.

    The capacity and the demands are packed in the layout of profile.py:
    `remaining` carries the guard bits `guard`, the demands do not, and an
    item fits exactly when (remaining - demand) & guard == guard."""
    m = len(eligible)
    if m == 0:
        return []
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
                rng.randrange(max(1, int(r * RCL_FRACTION)))
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
                rcl = feasible[: max(1, int(len(feasible) * RCL_FRACTION))]
                i = rcl[rng.randrange(len(rcl))]
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
    start order."""
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
    horizon = inst.horizon + 1
    packed = inst.packed_demand
    slots = profile.empty(inst, horizon)
    starts, prefix_finish = profile.serial_place(inst, prefix, slots, inst.preds, inst.horizon)
    finish = {a: prefix_finish[a] for a in prefix}

    # parallel extension over the block with knapsack-selected batches
    unscheduled = set(members)
    t = 0
    rounds = 0
    while unscheduled:
        rounds += 1
        if rounds > 4 * horizon:
            return None  # defensive; should not happen
        ready = [
            a
            for a in unscheduled
            if all(
                (p in finish and finish[p] <= t) or p == 0
                for p in inst.preds[a]
            )
        ]
        if not ready:
            # nothing happens at the event times before a member becomes
            # ready, so go straight to the first of them
            times = [
                max((finish[p] for p in inst.preds[a]), default=0)
                for a in unscheduled
                if all(p in finish for p in inst.preds[a])
            ]
            if times:
                t = min(times)
                continue
        fits = [
            a
            for a in sorted(ready)
            if slots.fits(packed[a], t, inst.durations[a])
        ]
        if fits:
            vals = [activity_value(inst, a, weights) for a in fits]
            dem = [packed[a] for a in fits]
            picked = grasp_knapsack(fits, slots.at(t), dem, inst.guard, vals, rng)
            placed_any = False
            for idx in sorted(picked, key=lambda i: (-vals[i], fits[i])):
                a = fits[idx]
                p_a = inst.durations[a]
                if slots.place(packed[a], t, t, p_a) is None:
                    continue
                starts[a] = t
                finish[a] = t + p_a
                unscheduled.discard(a)
                placed_any = True
            if placed_any:
                continue
        # advance to the next event time
        future = [f for f in finish.values() if f > t]
        t = min(future) if future else t + 1

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
    """Tabu-guided walk alternating N_A and N_B with equal probability;
    strictly better neighbors update the incumbent best, and the walk
    always moves to the generated neighbor."""
    if stats is None:
        stats = NsStats()
    if tabu is None:
        tabu = TabuList()
    best = start
    current = start
    if inst.n_real < 1:
        return best
    for _ in range(steps):
        if budget is not None and budget.exhausted:
            break
        j = rng.randrange(1, inst.sink)
        block = create_block(inst, j, current.schedule, P, rng)
        neighbor: Optional[Individual] = None
        if rng.random() < 0.5:
            moved = neighborhood_a_move(
                inst,
                current.schedule,
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
    return best
