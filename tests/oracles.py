"""Independent brute-force oracles used to freeze expected test values.

These deliberately share no code with the solver paths they check:
optimal makespans come from exhaustive enumeration of topological orders,
relaxation optima from exhaustive start-vector search, knapsack optima
from full subset enumeration, and the reference serial decode and right
justification keep one list row per resource and try one start at a
time, where the library packs all resources of a slot into one int and
skips runs of short slots.
"""

from __future__ import annotations

from itertools import combinations

from rcpsp_hybrid.model import ProjectInstance
from rcpsp_hybrid.sgs import serial_sgs


def iter_topological_orders(inst: ProjectInstance):
    n2 = len(inst)
    indeg = [len(inst.preds[j]) for j in range(n2)]
    order: list[int] = []

    def rec():
        if len(order) == n2:
            yield tuple(order)
            return
        for j in range(n2):
            if indeg[j] == 0 and j not in placed:
                placed.add(j)
                order.append(j)
                for s in inst.succs[j]:
                    indeg[s] -= 1
                yield from rec()
                for s in inst.succs[j]:
                    indeg[s] += 1
                order.pop()
                placed.discard(j)

    placed: set[int] = set()
    yield from rec()


def brute_force_optimum(inst: ProjectInstance) -> int:
    """Optimal makespan: minimum serial-decode makespan over every
    topological order (an optimal schedule is active, and serial decoding
    over all orders reaches every active schedule)."""
    return min(serial_sgs(inst, order).makespan for order in iter_topological_orders(inst))


def _window_fits(inst: ProjectInstance, rows, j: int, t: int) -> bool:
    return all(
        rows[k][tau] >= d
        for k, d in enumerate(inst.demands[j])
        for tau in range(t, t + inst.durations[j])
    )


def _book(inst: ProjectInstance, rows, j: int, t: int) -> None:
    for k, d in enumerate(inst.demands[j]):
        for tau in range(t, t + inst.durations[j]):
            rows[k][tau] -= d


def reference_serial_starts(inst: ProjectInstance, order) -> tuple[int, ...]:
    """Serial decode of `order`: each activity at the earliest start after
    its predecessors' finishes at which every resource has room."""
    rows = [[cap] * (inst.horizon + 1) for cap in inst.capacities]
    starts = [0] * len(inst)
    finish = [0] * len(inst)
    for j in order:
        t = max((finish[i] for i in inst.preds[j]), default=0)
        while not _window_fits(inst, rows, j, t):
            t += 1
        _book(inst, rows, j, t)
        starts[j] = t
        finish[j] = t + inst.durations[j]
    return tuple(starts)


def reference_right_justify_starts(inst: ProjectInstance, order, T: int) -> tuple[int, ...]:
    """Right justification within makespan T: in `order` (successors
    first), each activity at the latest start before its successors'
    starts at which every resource has room; the source stays at 0 and
    the sink at T."""
    rows = [[cap] * (T + 1) for cap in inst.capacities]
    starts = [0] * len(inst)
    starts[inst.sink] = T
    for j in order:
        if j == inst.sink:
            continue
        t = min((starts[s] for s in inst.succs[j]), default=T) - inst.durations[j]
        while t >= 0 and not _window_fits(inst, rows, j, t):
            t -= 1
        assert t >= 0, "no room before the successors"
        _book(inst, rows, j, t)
        starts[j] = t
    starts[0] = 0
    return tuple(starts)


def _cumulative_feasible(inst: ProjectInstance, starts: list[int], T: int) -> bool:
    usage = [[0] * (T + 1) for _ in range(inst.n_resources)]
    for j in range(1, inst.sink):
        s, p = starts[j], inst.durations[j]
        for k, d in enumerate(inst.demands[j]):
            if d:
                row = usage[k]
                for t in range(s, s + p):
                    row[t] += d
    for k in range(inst.n_resources):
        cap = inst.capacities[k]
        prefix = 0
        for t in range(T):
            prefix += usage[k][t]
            if prefix > (t + 1) * cap:
                return False
    return True


def brute_force_relaxation_optimum(inst: ProjectInstance) -> int:
    """Minimal makespan under precedence plus cumulative (prefix-sum)
    resource constraints, by exhaustive start-vector search."""
    from rcpsp_hybrid.model import critical_path_lower_bound, topological_order

    cp = critical_path_lower_bound(inst)
    order = topological_order(inst)
    assert order is not None
    real = [j for j in order if j not in (0, inst.sink)]

    for T in range(cp, sum(inst.durations) + 1):
        starts = [0] * len(inst)

        def feasible_from(idx: int) -> bool:
            if idx == len(real):
                return _cumulative_feasible(inst, starts, T)
            j = real[idx]
            est = max(
                (starts[p] + inst.durations[p] for p in inst.preds[j]), default=0
            )
            for s in range(est, T - inst.durations[j] + 1):
                starts[j] = s
                if feasible_from(idx + 1):
                    return True
            starts[j] = 0
            return False

        if feasible_from(0):
            return T
    raise AssertionError("no feasible relaxed schedule within the horizon")


def brute_force_knapsack(
    demands: list[tuple[int, ...]], remaining: list[int], values: list[float]
) -> float:
    """Optimal objective of the multi-dimensional 0/1 knapsack by subset
    enumeration."""
    m = len(demands)
    best = 0.0
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            for k, cap in enumerate(remaining):
                if sum(demands[i][k] for i in subset) > cap:
                    break
            else:
                value = sum(values[i] for i in subset)
                if value > best:
                    best = value
    return best
