"""Cumulative-resource relaxation, resource ranking and resource weights.

The relaxation replaces the per-interval capacity constraint with a
prefix-sum constraint: consumption over [1..t] may not exceed t*R_k.
Delaying an activity only lowers every prefix sum, so the latest-start
CPM schedule for a trial makespan T minimizes all prefix sums
simultaneously; a feasible relaxed schedule of makespan <= T exists iff
that latest-start schedule is prefix-feasible.  For T = cp + d, with cp
the critical path, that schedule is the one for cp shifted right by d, so
T is feasible exactly when d*R_k >= C_k(t) - t*R_k for every resource k
and time t, C_k(t) being the cp schedule's consumption over [0, t).  That
excess is linear in t between two start or finish events, so one sweep
over each resource's events gives the least d.  Every resource-feasible
schedule is prefix-feasible, hence the result never exceeds the optimal
RCPSP makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import (
    ProjectInstance,
    Schedule,
    critical_path_lower_bound,
    latest_starts,
)

# weights along the resource rank, most scarce first; every rank past the
# fourth keeps the last
RANK_WEIGHTS = (1.0, 0.8, 0.6, 0.4)


@dataclass(frozen=True)
class RankingResult:
    relaxed_makespan: int
    residues: tuple[int, ...]
    rank: tuple[int, ...]  # resource indices, most scarce first
    weights: tuple[float, ...]  # per original resource index


def solve_cumulative_relaxation(
    inst: ProjectInstance,
) -> tuple[Schedule, tuple[int, ...]]:
    """Minimal-makespan schedule for the cumulative relaxation plus the
    per-resource unused cumulative balances at that makespan."""
    cp = critical_path_lower_bound(inst)
    starts = latest_starts(inst, cp)
    n_res = inst.n_resources
    work = [0] * n_res
    events: list[dict[int, int]] = [{} for _ in range(n_res)]  # time -> rate change
    for j in range(1, inst.sink):
        s, p = starts[j], inst.durations[j]
        for k, d in inst.active_demand[j]:
            work[k] += d * p
            row = events[k]
            row[s] = row.get(s, 0) + d
            row[s + p] = row.get(s + p, 0) - d
    shift = 0
    for k, row in enumerate(events):
        if not work[k]:
            continue  # a resource nothing demands, of any capacity, binds nothing
        cap = inst.capacities[k]  # > 0: it is demanded, and no demand exceeds it
        used = rate = last = 0
        for t in sorted(row):
            used += rate * (t - last)  # consumed over [0, t)
            rate += row[t]
            last = t
            need = -((t * cap - used) // cap)  # ceil((used - t*cap) / cap)
            if need > shift:
                shift = need
    T = cp + shift
    starts = [s + shift for s in starts]
    starts[0] = 0
    sched = Schedule(tuple(starts), T)
    residues = tuple(T * inst.capacities[k] - work[k] for k in range(n_res))
    return sched, residues


def rank_resources(
    residues: Sequence[int],
    capacities: Sequence[int],
    relaxed_makespan: int,
) -> tuple[int, ...]:
    """Resources sorted by ascending relative residue; ties by index.  A
    resource without capacity, which no activity of a valid instance
    demands, counts as wholly unused (relative residue 1)."""
    T = max(relaxed_makespan, 1)

    def frac(k: int) -> float:
        return residues[k] / (T * capacities[k]) if capacities[k] else 1.0

    return tuple(sorted(range(len(residues)), key=lambda k: (frac(k), k)))


def assign_weights(rank: Sequence[int]) -> tuple[float, ...]:
    """Weight per original resource index: `RANK_WEIGHTS` along the rank
    order, so the most scarce resource gets the largest weight, truncated
    below four resources and held at its last value above."""
    weights = [0.0] * len(rank)
    last = len(RANK_WEIGHTS) - 1
    for pos, k in enumerate(rank):
        weights[k] = RANK_WEIGHTS[min(pos, last)]
    return tuple(weights)


def rank_and_weigh(inst: ProjectInstance) -> RankingResult:
    """Relaxation, resource rank and the weights along that rank."""
    sched, residues = solve_cumulative_relaxation(inst)
    rank = rank_resources(residues, inst.capacities, sched.makespan)
    return RankingResult(sched.makespan, residues, rank, assign_weights(rank))
