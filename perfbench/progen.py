"""ProGen-style RCPSP instance generator.

Follows the parameter scheme of Kolisch, Sprecher & Drexl (1995),
"Characterization and generation of a general class of resource-constrained
project scheduling problems", Management Science 41(10):

- network complexity NC: non-redundant arcs per node, the two dummy
  activities and their arcs included;
- resource factor RF: share of (activity, resource) pairs with a nonzero
  demand.  It is met exactly whenever RF * n * K is a whole number;
- resource strength RS: the capacity of resource k is
  K_min + round(RS * (K_max - K_min)), where K_min is the largest single
  demand for k and K_max the peak per-period demand for k in the
  earliest-start (precedence-only) schedule.

All randomness comes from the `rng` argument, so one seed gives one
instance.  The generator is independent of `random_instance` in the
library, whose demands are drawn uniformly up to the capacity.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from rcpsp_hybrid.model import (
    Activity,
    ProjectInstance,
    earliest_starts,
    validate_instance,
)


K = 4  # resources
MAX_DURATION = 10
MAX_DEMAND = 10
MAX_START = 3  # activities without a real predecessor
MAX_END = 3  # activities without a real successor
MAX_DEGREE = 3  # real predecessors / successors per activity
PER_PICK = 4  # candidates drawn per stratified instance


@dataclass(frozen=True)
class ProgenParams:
    n: int
    nc: float = 1.8
    rf: float = 0.5
    rs: float = 0.5


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _closure(adj: list[set[int]], root: int) -> set[int]:
    seen = {root}
    stack = [root]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _non_redundant(succ: list[set[int]], pred: list[set[int]], i: int, j: int) -> bool:
    """Arc (i, j) adds a precedence not implied by the network, and no
    existing arc becomes implied by it."""
    below = _closure(succ, j)
    if i in below or j in _closure(succ, i):
        return False
    return not any(succ[h] & below for h in _closure(pred, i))


def _network(rng, p: ProgenParams) -> tuple[list[set[int]], list[set[int]]]:
    """Arcs among the real activities 1..n, numbered in topological order."""
    n = p.n
    succ: list[set[int]] = [set() for _ in range(n + 2)]
    pred: list[set[int]] = [set() for _ in range(n + 2)]
    starts = set(range(1, rng.randint(2, MAX_START) + 1))
    ends = set(range(n - rng.randint(2, MAX_END) + 1, n + 1))

    def add(i: int, j: int) -> None:
        succ[i].add(j)
        pred[j].add(i)

    # every non-start activity gets one earlier predecessor; a fresh
    # activity has no incoming path yet, so this arc is never redundant
    for j in range(1, n + 1):
        if j in starts:
            continue
        cands = [i for i in range(1, j) if i not in ends and len(succ[i]) < MAX_DEGREE]
        add(rng.choice(cands), j)
    # every non-end activity gets a later successor where one is non-redundant
    for i in range(1, n + 1):
        if i in ends or succ[i]:
            continue
        cands = [
            j
            for j in range(i + 1, n + 1)
            if j not in starts and len(pred[j]) < MAX_DEGREE
        ]
        rng.shuffle(cands)
        for j in cands:
            if _non_redundant(succ, pred, i, j):
                add(i, j)
                break

    def total_arcs() -> int:
        internal = sum(len(s) for s in succ)
        no_pred = sum(1 for j in range(1, n + 1) if not pred[j])
        no_succ = sum(1 for j in range(1, n + 1) if not succ[j])
        return internal + no_pred + no_succ

    target = _round_half_up(p.nc * (n + 2))
    attempts = 0
    while total_arcs() < target and attempts < 100 * n:
        attempts += 1
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        if i in ends or j in starts:
            continue
        if len(succ[i]) >= MAX_DEGREE or len(pred[j]) >= MAX_DEGREE:
            continue
        if _non_redundant(succ, pred, i, j):
            add(i, j)
    return succ, pred


def _demands(rng, p: ProgenParams) -> list[tuple[int, ...]]:
    """Exactly round(RF * n * K) nonzero demands; every activity uses at
    least one resource and every resource is used at least once."""
    n = p.n
    pairs_wanted = _round_half_up(p.rf * n * K)
    if not max(n, K) <= pairs_wanted <= n * K:
        raise ValueError(f"RF {p.rf} gives {pairs_wanted} demands for n={n}, K={K}")
    first = list(range(K)) + [rng.randrange(K) for _ in range(n - K)]
    rng.shuffle(first)
    used = {(j + 1, k) for j, k in enumerate(first)}
    rest = [(j, k) for j in range(1, n + 1) for k in range(K) if (j, k) not in used]
    rng.shuffle(rest)
    used.update(rest[: pairs_wanted - len(used)])
    dem = [[0] * K for _ in range(n + 2)]
    for j, k in sorted(used):
        dem[j][k] = rng.randint(1, MAX_DEMAND)
    return [tuple(row) for row in dem]


def generate(rng, p: ProgenParams, name: str = "") -> tuple[ProjectInstance, dict]:
    """One instance and a record of its requested and realized parameters."""
    if p.n < max(K, 2 * MAX_START, 2 * MAX_END):
        raise ValueError(f"n={p.n} too small for the start/end/resource counts")
    n = p.n
    sink = n + 1
    durations = [0] + [rng.randint(1, MAX_DURATION) for _ in range(n)] + [0]
    succ, pred = _network(rng, p)
    demands = _demands(rng, p)

    arcs = {(i, j) for i in range(1, n + 1) for j in succ[i]}
    arcs |= {(0, j) for j in range(1, n + 1) if not pred[j]}
    arcs |= {(i, sink) for i in range(1, n + 1) if not succ[i]}

    # capacities from the earliest-start schedule of an uncapacitated copy
    loose = ProjectInstance(
        [Activity(j, durations[j], demands[j]) for j in range(n + 2)],
        arcs,
        [n * MAX_DEMAND] * K,
    )
    est = earliest_starts(loose)
    horizon = max(est[j] + durations[j] for j in range(n + 2))
    usage = [[0] * (horizon + 1) for _ in range(K)]
    for j in range(1, sink):
        for k in range(K):
            if demands[j][k]:
                for t in range(est[j], est[j] + durations[j]):
                    usage[k][t] += demands[j][k]
    k_min = [max(demands[j][k] for j in range(n + 2)) for k in range(K)]
    k_max = [max(row) for row in usage]
    caps = [lo + _round_half_up(p.rs * (hi - lo)) for lo, hi in zip(k_min, k_max)]
    cp = est[sink]
    energy = max(sum(durations[j] * demands[j][k] for j in range(n + 2)) / caps[k] for k in range(K))

    inst = ProjectInstance(
        [Activity(j, durations[j], demands[j]) for j in range(n + 2)],
        arcs,
        caps,
        name=name,
    )
    problem = validate_instance(inst)
    if problem is not None:
        raise ValueError(f"generated instance {name!r} is invalid: {problem}")
    realized = {
        "name": name,
        "requested": asdict(p),
        "nc": round(len(arcs) / (n + 2), 4),
        "rf": round(sum(1 for row in demands for d in row if d) / (n * K), 4),
        "rs": [
            round((c - lo) / (hi - lo), 4) if hi > lo else None
            for c, lo, hi in zip(caps, k_min, k_max)
        ],
        "k_min": k_min,
        "k_max": k_max,
        "capacities": caps,
        "cp": cp,
        # the largest resource energy bound over the critical path: above 1
        # the instance is resource-bound rather than precedence-bound
        "energy_ratio": round(energy / cp, 4),
    }
    return inst, realized


def stratified(rng, p: ProgenParams, k: int) -> list[tuple[ProjectInstance, dict]]:
    """k instances of one parameter cell: k * PER_PICK candidates sorted by
    energy ratio, one taken from the middle of each run of PER_PICK.  How
    resource-bound an instance is sets most of its deviation from the
    critical path, so stratifying on it keeps a set's mean deviation from
    swinging with the seed."""
    candidates = sorted(
        (generate(rng, p) for _ in range(k * PER_PICK)), key=lambda c: c[1]["energy_ratio"]
    )
    return [candidates[i * PER_PICK + PER_PICK // 2] for i in range(k)]
