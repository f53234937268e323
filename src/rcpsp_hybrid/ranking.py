"""Cumulative-resource relaxation, resource ranking and weight vectors.

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

# the four weight options; "ratio" derives w_k from the relaxation residues
WEIGHT_MODES = ("steep", "shallow", "uniform", "ratio")

_FIXED_VECTORS = {
    "steep": (1.0, 0.8, 0.6, 0.4),
    "shallow": (1.0, 0.9, 0.8, 0.7),
}


class WeightConfigError(ValueError):
    """Fixed weight vectors only cover up to four resources."""


@dataclass(frozen=True)
class RankingResult:
    relaxed_makespan: int
    residues: tuple[int, ...]
    rank: tuple[int, ...]  # resource indices, most scarce first
    weights: tuple[float, ...]  # per original resource index
    mode: str


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
        if p == 0:
            continue
        for k, d in inst.active_demand[j]:
            work[k] += d * p
            row = events[k]
            row[s] = row.get(s, 0) + d
            row[s + p] = row.get(s + p, 0) - d
    shift = 0
    for k, row in enumerate(events):
        if not work[k]:
            continue  # a resource nothing demands, of any capacity, binds nothing
        cap = inst.capacities[k]
        if cap <= 0:
            raise ValueError(f"resource {k}: demanded, but its capacity is {cap}")
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


def _draw_mode(n_res: int, rng) -> str:
    """One of the weight options, drawn uniformly; the fixed vectors are
    left out above four resources."""
    if rng is None:
        raise ValueError("random weight mode needs an rng")
    eligible = list(WEIGHT_MODES)
    if n_res > 4:
        eligible = [m for m in eligible if m not in _FIXED_VECTORS]
    return eligible[rng.randrange(len(eligible))]


def assign_weights(
    rank: Sequence[int],
    residues: Sequence[int],
    mode: str,
) -> tuple[float, ...]:
    """Weight vector per original resource index.

    Fixed vectors are assigned along the rank order (most scarce gets the
    largest weight) and prefix-truncated below four resources; the ratio
    mode applies w_k = 2 - residue_k / residue_max, so larger unused
    balances give proportionally smaller weights.
    """
    n_res = len(rank)
    if mode in _FIXED_VECTORS:
        if n_res > 4:
            raise WeightConfigError(
                f"fixed weight vector '{mode}' covers 4 resources, "
                f"instance has {n_res}"
            )
        vector = _FIXED_VECTORS[mode][:n_res]
    elif mode == "uniform":
        vector = (1.0,) * n_res
    elif mode == "ratio":
        # divide by the largest residue so weights stay in [1, 2]
        top = max(residues)
        if top <= 0:
            vector = (1.0,) * n_res
        else:
            vector = tuple(2.0 - residues[k] / top for k in rank)
    else:
        raise ValueError(f"unknown weight mode: {mode}")
    weights = [0.0] * n_res
    for pos, k in enumerate(rank):
        weights[k] = vector[pos]
    return tuple(weights)


def rank_and_weigh(inst: ProjectInstance, mode: str, rng=None) -> RankingResult:
    """Relaxation, resource rank and weights; a random mode is drawn here,
    so the result reports the option actually used."""
    sched, residues = solve_cumulative_relaxation(inst)
    rank = rank_resources(residues, inst.capacities, sched.makespan)
    if mode == "random":
        mode = _draw_mode(len(rank), rng)
    weights = assign_weights(rank, residues, mode=mode)
    return RankingResult(sched.makespan, residues, rank, weights, mode)
