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
from typing import Any, Hashable, Iterable, Optional, Sequence

from . import profile


@dataclass(frozen=True)
class Activity:
    id: int
    duration: int
    demand: tuple[int, ...]


# Entries of each per-instance memo, from sweeps over perfbench's
# generators, schedules unchanged.  Serial memo, 20 ProGen j30 solves at
# λ = 1 000: hit ratio 23 % at 16 entries, 31 % at 64, 37 % at 256 and
# 1 024; CPU seconds, median of 5: 0.68 at 16, 0.64 at 256, 0.67 at 1 024.
# FBI pass memo (`sgs.fbi`), placement loops (profile.serial_place) over
# progen-j30-pool's 60 solves, seed 1: 36 171 at 1 entry, 30 140 at 16,
# 27 206 at 64, 26 150 at 256, 26 149 at 1 024 (29 108 with the 64-entry
# whole-call memo before it); progen-j120's 8 solves: 28 549 at 256,
# 28 994 at 64 (28 938 before).  `solve` empties both memos when it ends,
# so their size costs memory only while a solve runs.
SERIAL_MEMO_SIZE = 256
FBI_MEMO_SIZE = 256


class DecodeMemo:
    """Least-recently-used map of at most `size` entries, from the input of
    a pure decode step to its result: an activity order to its serial
    schedule (`sgs.serial_sgs`), or a schedule to the result of one FBI
    pass from it (`sgs.fbi`).  A lock guards every access, so one memo may
    be shared by solver runs in several threads."""

    def __init__(self, size: int):
        self.size = size
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any:
        """The entry for `key`, or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            if len(self._entries) > self.size:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class ProjectInstance:
    """A project: activities, precedence arcs and renewable capacities.

    Derived adjacency/demand structures are precomputed once because the
    decoders touch them in tight loops.  `serial_memo` caches the latest
    serial decodes of this instance (see `sgs.serial_sgs`) and `fbi_memo`
    its latest forward-backward improvement passes (see `sgs.fbi`).  Both
    are lock-guarded, so an instance stays safe to share across concurrent
    solver runs; neither is pickled, so an instance sent to a worker
    process arrives with empty memos; and `solve` empties both when it
    ends, so an instance kept after its solve holds no memo entries.
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
        # copied by the decoders that count down unplaced predecessors
        self.pred_counts = [len(p) for p in self.preds]

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
        self.topo_order = topological_order(self)
        # right justification's order (sgs._backward_order) sorts activity j
        # on the int backward_base[j] - start_j * backward_radix
        tie = list(range(n2))
        if 0 in self.durations[1 : self.sink] and self.topo_order is not None:
            for pos, j in enumerate(self.topo_order):
                if not self.durations[j]:
                    tie[j] = -pos
        width = 2 * n2
        self.backward_radix = (max(self.durations, default=0) + 1) * width
        self.backward_base = [
            n2 + t + p * (width - self.backward_radix) for p, t in zip(self.durations, tie)
        ]
        self._new_memos()

    def _new_memos(self) -> None:
        self.serial_memo = DecodeMemo(SERIAL_MEMO_SIZE)
        self.fbi_memo = DecodeMemo(FBI_MEMO_SIZE)

    def clear_memos(self) -> None:
        self.serial_memo.clear()
        self.fbi_memo.clear()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["serial_memo"], state["fbi_memo"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._new_memos()

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
    indeg = inst.pred_counts.copy()
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


def _longest_paths(inst: ProjectInstance, backward: bool) -> list[int]:
    """Per activity, the longest duration-weighted path of the activities
    before it (the CPM head, its earliest start) or, with `backward`, after
    it (the CPM tail).  The backward pass is the forward one over the
    reversed topological order with the arcs turned round."""
    order = inst.topo_order
    if order is None:
        raise ValueError("the precedence graph has a cycle")
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
    if len(out) != len(indeg):
        raise ValueError("the precedence graph has a cycle")
    return tuple(out)
