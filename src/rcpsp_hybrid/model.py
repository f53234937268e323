"""Core RCPSP data model.

Activities are indexed densely 0..n+1 where 0 and n+1 are the dummy
source/sink.  Time is integral; resource availability is constant per
unit interval.  Instances and schedules are immutable after
construction and safe to share across concurrent solver runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import profile


@dataclass(frozen=True)
class Activity:
    id: int
    duration: int
    demand: tuple[int, ...]


class ProjectInstance:
    """A project: activities, precedence arcs and renewable capacities.

    Derived adjacency/demand structures are precomputed once because the
    decoders touch them in tight loops.  Nothing else is kept: an instance
    is plain data, never changed after construction, so it pickles whole
    and may be shared by solver runs in several threads.  It compares and
    hashes by identity, which is how the decode memos of sgs.py key it.

    The constructor raises ValueError, with the text of `validate_instance`,
    on an invalid instance, so no other code checks one again.  `name` is
    keyword-only; the horizon is the sum of the durations.
    """

    def __init__(
        self,
        activities: Sequence[Activity],
        arcs: Iterable[tuple[int, int]],
        capacities: Sequence[int],
        *,
        name: str = "",
    ):
        self.activities = tuple(activities)
        self.arcs = frozenset((int(i), int(j)) for i, j in arcs)
        self.capacities = tuple(int(c) for c in capacities)
        self.name = name

        n2 = len(self.activities)
        self.n_real = n2 - 2
        self.sink = n2 - 1
        self.n_resources = len(self.capacities)

        self.durations = [a.duration for a in self.activities]
        self.demands = [tuple(a.demand) for a in self.activities]
        self.horizon = sum(self.durations)

        self.preds: list[list[int]] = [[] for _ in range(n2)]
        self.succs: list[list[int]] = [[] for _ in range(n2)]
        for i, j in sorted(self.arcs):
            if not (0 <= i < n2 and 0 <= j < n2):
                raise ValueError(f"arc ({i},{j}) references an unknown activity")
            self.preds[j].append(i)
            self.succs[i].append(j)
        # copied by the decoders that count down unplaced predecessors
        self.pred_counts = [len(p) for p in self.preds]
        self.topo_order = topological_order(self)
        # what follows walks topo_order and packs the demands, so it needs a
        # valid instance
        problem = validate_instance(self)
        if problem is not None:
            raise ValueError(problem)

        # per-activity nonzero (resource, demand) pairs for the hot loops
        self.active_demand = [
            [(k, d) for k, d in enumerate(dem) if d] for dem in self.demands
        ]
        # the same demands packed into one int each for the profile scans
        largest = max((d for dem in self.demands for d in dem), default=0)
        self.slot_bits, self.guard = profile.layout(self.capacities, largest)
        self.packed_demand = [profile.pack(dem, self.slot_bits) for dem in self.demands]
        # the full capacities, guard bits included: an empty profile's value
        self.packed_capacity = self.guard + profile.pack(self.capacities, self.slot_bits)
        # right justification's order (sgs._backward_order) sorts activity j
        # on the int backward_base[j] - start_j * backward_radix
        tie = list(range(n2))
        if 0 in self.durations[1 : self.sink]:
            for pos, j in enumerate(self.topo_order):
                if not self.durations[j]:
                    tie[j] = -pos
        width = 2 * n2
        self.backward_radix = (max(self.durations, default=0) + 1) * width
        self.backward_base = [
            n2 + t + p * (width - self.backward_radix) for p, t in zip(self.durations, tie)
        ]

    def __len__(self) -> int:
        return len(self.activities)

    def __repr__(self) -> str:
        return (
            f"ProjectInstance(name={self.name!r}, n={self.n_real}, "
            f"resources={self.n_resources})"
        )


@dataclass(frozen=True)
class Schedule:
    """Start-time vector with its makespan; the decoded phenotype."""

    starts: tuple[int, ...]
    makespan: int


def topological_order(
    inst: ProjectInstance, seq: Optional[Sequence[int]] = None
) -> Optional[list[int]]:
    """Kahn's algorithm with a min-heap on each activity's position in
    `seq`, a permutation of the activities: of the activities whose
    predecessors are all emitted, the earliest in `seq` goes next.  By
    default `seq` is index order, which gives the lexicographically
    smallest topological order.  None if the precedence graph has a cycle."""
    n2 = len(inst)
    if seq is None:
        seq = range(n2)
    pos = [0] * n2
    for i, j in enumerate(seq):
        pos[j] = i
    indeg = inst.pred_counts.copy()
    ready = [pos[j] for j in range(n2) if indeg[j] == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        j = seq[heapq.heappop(ready)]
        out.append(j)
        for s in inst.succs[j]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, pos[s])
    return out if len(out) == n2 else None


def validate_instance(inst: ProjectInstance) -> Optional[str]:
    """Return a description of the first violated invariant, or None if ok."""
    n2 = len(inst)
    if n2 < 2:
        return "instance must contain at least the two dummy activities"
    for k, c in enumerate(inst.capacities):
        if c < 0:
            return f"resource {k}: negative capacity {c}"
    for dummy in (0, inst.sink):
        a = inst.activities[dummy]
        if a.duration != 0 or any(a.demand):
            return f"dummy activity {dummy} must have zero duration and demand"
    for j, a in enumerate(inst.activities):
        if a.id != j:
            return f"activity at position {j} has id {a.id}"
        if len(a.demand) != inst.n_resources:
            return f"activity {a.id}: demand vector length != resource count"
        if a.duration < 0:
            return f"activity {a.id}: negative duration"
        for k, d in enumerate(a.demand):
            if d < 0:
                return f"activity {a.id}: negative demand for resource {k}"
            if d > inst.capacities[k]:
                return (
                    f"activity {a.id}: demand {d} exceeds capacity "
                    f"{inst.capacities[k]} of resource {k}"
                )
    if inst.topo_order is None:
        return "precedence graph contains a cycle"
    # every non-dummy must be reachable from the source and reach the sink.
    # The graph is acyclic, so once each non-dummy has a predecessor and a
    # successor, walks back end at the source and walks forward at the sink,
    # unless an arc enters the source (which then reaches no non-dummy) or
    # leaves the sink (which then no non-dummy reaches).
    for j in range(1, inst.sink):
        if not inst.preds[j]:
            return f"activity {j} has no path from the dummy source"
        if not inst.succs[j]:
            return f"activity {j} has no path to the dummy sink"
    if inst.n_real and (inst.preds[0] or inst.succs[inst.sink]):
        end = "from the dummy source" if inst.preds[0] else "to the dummy sink"
        return f"activity 1 has no path {end}"
    return None


def is_feasible(inst: ProjectInstance, sched: Schedule) -> bool:
    """Precedence and resource check of a start vector.  Per resource, the
    usage changes only where an activity starts (+demand) or finishes
    (-demand); the changes at one time are summed before the usage is
    compared with the capacity, so the cost does not grow with the
    durations."""
    starts = sched.starts
    if len(starts) != len(inst):
        return False
    if starts[0] != 0 or any(s < 0 for s in starts):
        return False
    durs = inst.durations
    for i, j in inst.arcs:
        if starts[i] + durs[i] > starts[j]:
            return False
    if sched.makespan != max(s + p for s, p in zip(starts, durs)):
        return False
    deltas: list[dict[int, int]] = [{} for _ in range(inst.n_resources)]
    for j in range(1, inst.sink):
        s, f = starts[j], starts[j] + durs[j]
        for k, d in inst.active_demand[j]:
            row = deltas[k]
            row[s] = row.get(s, 0) + d
            row[f] = row.get(f, 0) - d
    for cap, row in zip(inst.capacities, deltas):
        usage = 0
        for t in sorted(row):
            usage += row[t]
            if usage > cap:
                return False
    return True


def critical_path_lower_bound(inst: ProjectInstance) -> int:
    """Longest duration-weighted path from source to sink, ignoring resources."""
    return earliest_starts(inst)[inst.sink]


def _longest_paths(inst: ProjectInstance, backward: bool) -> list[int]:
    """Per activity, the longest duration-weighted path of the activities
    before it (the CPM head, its earliest start) or, with `backward`, after
    it (the CPM tail).  The backward pass is the forward one over the
    reversed topological order with the arcs turned round."""
    order = inst.topo_order
    nexts = inst.succs
    if backward:
        order, nexts = reversed(order), inst.preds
    durs = inst.durations
    length = [0] * len(inst)
    for j in order:
        fj = length[j] + durs[j]
        for s in nexts[j]:
            if fj > length[s]:
                length[s] = fj
    return length


def earliest_starts(inst: ProjectInstance) -> list[int]:
    """CPM earliest precedence-feasible starts (resources ignored)."""
    return _longest_paths(inst, backward=False)


def latest_starts(inst: ProjectInstance, deadline: int) -> list[int]:
    """CPM latest starts so that the sink finishes by `deadline`."""
    tail = _longest_paths(inst, backward=True)
    return [deadline - q - p for q, p in zip(tail, inst.durations)]


def random_feasible_list(inst: ProjectInstance, rng) -> tuple[int, ...]:
    """Random topological order: iteratively pick uniformly among activities
    whose predecessors are all placed.

    Each pick is `rng.randrange(len(ready))` drawn as Random.randrange
    draws it, by rejection on `rng.getrandbits(bit length)`, so the lists
    and the rng state are the same; without randrange's argument checks
    and its two calls per draw, a ProGen j30 list takes 0.6 of the time
    (26 µs against 44, timed alternately in one process)."""
    getrandbits = rng.getrandbits
    succs = inst.succs
    indeg = inst.pred_counts.copy()
    ready = [j for j, d in enumerate(indeg) if not d]
    out: list[int] = []
    while ready:
        n = len(ready)
        k = n.bit_length()
        idx = getrandbits(k)
        while idx >= n:
            idx = getrandbits(k)
        ready[idx], ready[-1] = ready[-1], ready[idx]
        j = ready.pop()
        out.append(j)
        for s in succs[j]:
            indeg[s] -= 1
            if not indeg[s]:
                ready.append(s)
    return tuple(out)
