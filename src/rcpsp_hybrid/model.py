"""Core RCPSP data model.

Activities are indexed densely 0..n+1 where 0 and n+1 are the dummy
source/sink.  Time is integral; resource availability is constant per
unit interval.  Instances and schedules are immutable after
construction and safe to share across concurrent solver runs.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import profile


@dataclass(frozen=True)
class Activity:
    id: int
    duration: int
    demand: tuple[int, ...]


class DecodeMemo:
    """Fixed-size least-recently-used map from an activity order to its
    decoded schedule.  A lock guards every access, so one memo may be
    shared by solver runs in several threads."""

    SIZE = 16

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[int, ...], Schedule] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, order: tuple[int, ...]) -> Optional[Schedule]:
        with self._lock:
            sched = self._entries.get(order)
            if sched is not None:
                self._entries.move_to_end(order)
            return sched

    def put(self, order: tuple[int, ...], sched: Schedule) -> None:
        with self._lock:
            self._entries[order] = sched
            if len(self._entries) > self.SIZE:
                self._entries.popitem(last=False)


class ProjectInstance:
    """A project: activities, precedence arcs and renewable capacities.

    Derived adjacency/demand structures are precomputed once because the
    decoders touch them in tight loops.  `serial_memo` caches the latest
    serial decodes of this instance (see `sgs.serial_sgs`); it is
    lock-guarded, so an instance stays safe to share across concurrent
    solver runs, and it is not pickled: an instance sent to a worker
    process arrives with an empty memo.
    """

    def __init__(
        self,
        activities: Sequence[Activity],
        arcs: Iterable[tuple[int, int]],
        capacities: Sequence[int],
        horizon: Optional[int] = None,
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
        # duration-weighted total: horizon default is always serial-feasible
        total = sum(self.durations)
        self.horizon = total if horizon is None else int(horizon)

        self.preds: list[list[int]] = [[] for _ in range(n2)]
        self.succs: list[list[int]] = [[] for _ in range(n2)]
        for i, j in sorted(self.arcs):
            if not (0 <= i < n2 and 0 <= j < n2):
                raise ValueError(f"arc ({i},{j}) references an unknown activity")
            self.preds[j].append(i)
            self.succs[i].append(j)

        # per-activity nonzero (resource, demand) pairs for the hot loops
        self.active_demand = [
            [(k, d) for k, d in enumerate(dem) if d] for dem in self.demands
        ]
        # the same demands packed into one int each for the profile scans
        largest = max((d for dem in self.demands for d in dem), default=0)
        self.slot_bits, self.guard = profile.layout(self.capacities, largest)
        self.packed_demand = [profile.pack(dem, self.slot_bits) for dem in self.demands]
        self.topo_order = topological_order(self)
        self.serial_memo = DecodeMemo()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["serial_memo"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.serial_memo = DecodeMemo()

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

    @classmethod
    def from_starts(cls, inst: ProjectInstance, starts: Sequence[int]) -> "Schedule":
        mk = max(s + p for s, p in zip(starts, inst.durations))
        return cls(tuple(starts), mk)


def topological_order(inst: ProjectInstance) -> Optional[list[int]]:
    """The lexicographically smallest topological order (Kahn's algorithm
    with a min-heap); None if the precedence graph has a cycle."""
    n2 = len(inst)
    indeg = [len(inst.preds[j]) for j in range(n2)]
    ready = [j for j in range(n2) if indeg[j] == 0]
    out: list[int] = []
    while ready:
        j = heapq.heappop(ready)
        out.append(j)
        for s in inst.succs[j]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
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
    for a in inst.activities:
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
    # every non-dummy must be reachable from the source and reach the sink
    from_source = _reachable(inst.succs, 0)
    to_sink = _reachable(inst.preds, inst.sink)
    for j in range(1, inst.sink):
        if j not in from_source:
            return f"activity {j} has no path from the dummy source"
        if j not in to_sink:
            return f"activity {j} has no path to the dummy sink"
    if inst.horizon < sum(inst.durations):
        return "horizon is smaller than the sum of all durations"
    return None


def _reachable(adj: list[list[int]], root: int) -> set[int]:
    seen = {root}
    stack = [root]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def is_feasible(inst: ProjectInstance, sched: Schedule) -> bool:
    """Precedence and per-interval resource check of a start vector."""
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
    horizon = sched.makespan
    n_res = inst.n_resources
    usage = [[0] * horizon for _ in range(n_res)]
    for j in range(1, inst.sink):
        s, p = starts[j], durs[j]
        for k, d in inst.active_demand[j]:
            row = usage[k]
            for t in range(s, s + p):
                row[t] += d
    caps = inst.capacities
    for k in range(n_res):
        if any(u > caps[k] for u in usage[k]):
            return False
    return True


def critical_path_lower_bound(inst: ProjectInstance) -> int:
    """Longest duration-weighted path from source to sink, ignoring resources."""
    return earliest_starts(inst)[inst.sink]


def earliest_starts(inst: ProjectInstance) -> list[int]:
    """CPM earliest precedence-feasible starts (resources ignored)."""
    assert inst.topo_order is not None, "instance must be acyclic"
    est = [0] * len(inst)
    durs = inst.durations
    for j in inst.topo_order:
        fj = est[j] + durs[j]
        for s in inst.succs[j]:
            if fj > est[s]:
                est[s] = fj
    return est


def latest_starts(inst: ProjectInstance, deadline: int) -> list[int]:
    """CPM latest starts so that the sink finishes by `deadline`."""
    assert inst.topo_order is not None, "instance must be acyclic"
    durs = inst.durations
    lst = [deadline] * len(inst)
    for j in reversed(inst.topo_order):
        if inst.succs[j]:
            lst[j] = min(lst[s] for s in inst.succs[j]) - durs[j]
        else:
            lst[j] = deadline - durs[j]
    return lst


def random_feasible_list(inst: ProjectInstance, rng) -> tuple[int, ...]:
    """Random topological order: iteratively pick uniformly among activities
    whose predecessors are all placed."""
    n2 = len(inst)
    indeg = [len(inst.preds[j]) for j in range(n2)]
    ready = [j for j in range(n2) if indeg[j] == 0]
    out: list[int] = []
    while ready:
        idx = rng.randrange(len(ready))
        ready[idx], ready[-1] = ready[-1], ready[idx]
        j = ready.pop()
        out.append(j)
        for s in inst.succs[j]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    assert len(out) == n2, "instance must be acyclic"
    return tuple(out)
