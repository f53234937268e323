"""Independent brute-force oracles used to freeze expected test values.

These deliberately share no code with the solver paths they check:
optimal makespans come from exhaustive enumeration of topological orders,
relaxation optima from exhaustive start-vector search or from a scan of
every trial makespan that rebuilds its latest-start usage slot by slot,
where the library sweeps the events of one schedule; knapsack optima
from full subset enumeration, a list's precedence feasibility from a
check of every arc, and the reference serial decode and right
justification keep one list row per resource and try one start at a
time, where the library stores the profile as change points, packs all
resources of a segment into one int, and skips runs of short segments.
The reference parallel decode tests each candidate's whole window in
those rows, where the library keeps only a running sum of the demands in
progress and tests the capacity at the decision time.  The reference
dense genes recount the running set and its demands at every unit slot,
where the library walks start and finish events; the reference GRASP
keeps one remaining capacity per resource and runs every construction,
where the library packs the resources and draws only, without
constructing, when every item fits at once.  The reference random
activity list draws each pick with `rng.randrange`, where the library
draws by rejection on `rng.getrandbits`.  The reference block shuffles
with `rng.shuffle` and rescans the candidates each time it widens the
admission interval by one, where the library gives each candidate the
least widening that admits it in one pass.  The reference N_A books
every activity outside the block into a new profile on each call, draws
its picks with `rng.choices` and computes each try's makespan from every
finish, where the library releases the block from a copy of the
incumbent's profile, bisects the cumulative rank weights itself and
keeps the makespan.  The reference N_B rescans
every unscheduled member's predecessors and every finish at each event
(it runs the library's prefix decode, knapsack and precedence repair),
where the library counts unplaced predecessors down and bisects a sorted
list of finishes.  The reference precedence repair rescans the sequence
for each activity it emits, where the library keeps a heap of ready
positions and returns a feasible sequence after one pass.
"""

from __future__ import annotations

from itertools import combinations

from rcpsp_hybrid import profile
from rcpsp_hybrid.genetic import repair_precedence
from rcpsp_hybrid.model import ProjectInstance, Schedule
from rcpsp_hybrid.neighborhood import Block, activity_value, compute_windows, grasp_knapsack
from rcpsp_hybrid.sgs import left_shift, serial_sgs


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


def reference_random_feasible_list(inst: ProjectInstance, rng) -> tuple[int, ...]:
    """A random topological order, each pick uniform among the activities
    whose predecessors are all placed, drawn by `rng.randrange`."""
    indeg = [len(p) for p in inst.preds]
    ready = [j for j, d in enumerate(indeg) if d == 0]
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
    return tuple(out)


def reference_repair_precedence(inst: ProjectInstance, seq) -> list[int]:
    """Emit, again and again, the first activity of `seq` not yet emitted
    whose predecessors all are."""
    out: list[int] = []
    done: set[int] = set()
    left = list(seq)
    while left:
        j = next(a for a in left if all(p in done for p in inst.preds[a]))
        left.remove(j)
        out.append(j)
        done.add(j)
    return out


def is_precedence_feasible_list(inst: ProjectInstance, order) -> bool:
    """True when `order` lists every activity once, source first, sink
    last, and each arc's tail before its head."""
    pos = {a: i for i, a in enumerate(order)}
    if len(pos) != len(inst):
        return False
    if order[0] != 0 or order[-1] != inst.sink:
        return False
    return all(pos[i] < pos[j] for i, j in inst.arcs)


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


def reference_parallel_starts(inst: ProjectInstance, order) -> tuple[int, ...]:
    """Parallel decode of `order`: at each decision time t, from 0 on, the
    activities whose predecessors have all finished by t are tried in list
    order, and each whose whole window [t, t+p) has room on every resource
    starts at t.  These passes repeat at t until one starts nothing, so an
    activity freed by a zero-duration predecessor started at t is tried in
    the next pass.  Then t moves to the earliest finish after it."""
    durs = inst.durations
    rows = [[cap] * (inst.horizon + 1) for cap in inst.capacities]
    starts: list = [None] * len(inst)

    def finished_by(i: int, t: int) -> bool:
        return starts[i] is not None and starts[i] + durs[i] <= t

    t = 0
    while True:
        started = True
        while started:
            started = False
            ready = [
                j
                for j in order
                if starts[j] is None and all(finished_by(i, t) for i in inst.preds[j])
            ]
            for j in ready:
                if _window_fits(inst, rows, j, t):
                    _book(inst, rows, j, t)
                    starts[j] = t
                    started = True
        if None not in starts:
            return tuple(starts)
        later = [s + durs[j] for j, s in enumerate(starts) if s is not None and s + durs[j] > t]
        assert later, "nothing is running and nothing fits"
        t = min(later)


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


def least_prefix_feasible_makespan(inst: ProjectInstance) -> int:
    """Least T >= the critical path whose latest-start schedule meets the
    cumulative (prefix-sum) constraints, trying one T after another."""
    from rcpsp_hybrid.model import critical_path_lower_bound, latest_starts

    T = critical_path_lower_bound(inst)
    while not _cumulative_feasible(inst, latest_starts(inst, T), T):
        T += 1
    return T


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


def reference_dense_genes(inst: ProjectInstance, starts, T: int, threshold: float, weights):
    """Dense genes of a start vector with makespan T, slot by slot: J(t)
    is the set of real activities running in [t, t+1) and v_t = sum_k
    (w_k / c_k) * (c_k - use_k(t)) its weighted unused capacity.  A
    candidate (J(t), v_t, t) is taken at the first slot of each run of
    equal nonempty J(t) with v_t below the threshold; then, by increasing
    (v_t, t), each candidate sharing no activity with one kept before is
    kept.  Returns (activities, v_t, t) triples by time."""
    caps = inst.capacities
    n_res = len(caps)
    wk = [w / c if c else 0.0 for w, c in zip(weights, caps)]
    idle = sum(w * c for w, c in zip(wk, caps))
    candidates = []
    before = frozenset()
    for t in range(T):
        running = frozenset(
            j for j in range(1, inst.sink) if starts[j] <= t < starts[j] + inst.durations[j]
        )
        if running and running != before:
            use = [sum(inst.demands[j][k] for j in running) for k in range(n_res)]
            v = idle - sum(use[k] * wk[k] for k in range(n_res))
            if v < threshold:
                candidates.append((running, v, t))
        before = running
    kept = []
    for running, v, t in sorted(candidates, key=lambda c: (c[1], c[2])):
        if all(not (running & other) for other, _, _ in kept):
            kept.append((running, v, t))
    return sorted(kept, key=lambda c: c[2])


def reference_grasp(demands, remaining, values, rng, constructions: int, rcl_fraction: float):
    """GRASP for the multi-dimensional knapsack, one list entry per
    resource: `constructions` greedy constructions on items by decreasing
    value (ties by index), the first taking the best fitting item at each
    step and the others a uniform draw among the first rcl_fraction of
    the fitting items (at least one); the best total wins, ties to the
    smaller sorted index list.  Returns the sorted indices."""
    m = len(demands)
    if not m:
        return []
    order = sorted(range(m), key=lambda i: (-values[i], i))
    best = None
    for c in range(constructions):
        rem = list(remaining)
        picked = []
        total = 0.0
        left = order[:]
        while left:
            fitting = [i for i in left if all(d <= r for d, r in zip(demands[i], rem))]
            if not fitting:
                break
            if c:
                rcl = fitting[: max(1, int(len(fitting) * rcl_fraction))]
                i = rcl[rng.randrange(len(rcl))]
            else:
                i = fitting[0]
            picked.append(i)
            total += values[i]
            rem = [r - d for r, d in zip(rem, demands[i])]
            left.remove(i)
        picked.sort()
        if best is None or total > best[0] or (total == best[0] and picked < best[1]):
            best = (total, picked)
    return best[1]


def reference_create_block(inst: ProjectInstance, j: int, sched, P: int, rng) -> Block:
    """Up to P activities around core j: scan a shuffled order of the
    others, admitting i when s_j - p_i - b <= s_i <= s_j + p_j + b, and
    widen b by one after each scan that leaves fewer than P."""
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


def reference_neighborhood_a_move(inst: ProjectInstance, sched, block: Block, weights, tries: int, rng):
    """N_A booking every activity outside the block into a new profile,
    drawing each pick with `rng.choices` and taking each try's makespan
    from all its finishes."""
    windows = compute_windows(inst, sched, block)
    members = block.members
    packed = inst.packed_demand
    rem = profile.booked(
        inst,
        sched.makespan + 1,
        [(packed[j], sched.starts[j], inst.durations[j]) for j in range(len(inst)) if j not in members],
    )
    ranked = sorted(members, key=lambda a: (-activity_value(inst, a, weights), a))
    for _ in range(tries):
        slots = rem.copy()
        new_start = {}
        pending = list(ranked)
        while pending:
            eligible = [
                idx
                for idx, a in enumerate(pending)
                if all(p in new_start for p in inst.preds[a] if p in members)
            ]
            m = len(eligible)
            a = pending.pop(rng.choices(eligible, weights=[m - i for i in range(m)], k=1)[0])
            est, lft = windows[a]
            for p in inst.preds[a]:
                if p in members:
                    est = max(est, new_start[p] + inst.durations[p])
            t = slots.place(packed[a], est, lft - inst.durations[a], inst.durations[a])
            if t is None:
                break
            new_start[a] = t
        else:
            starts = [new_start.get(j, s) for j, s in enumerate(sched.starts)]
            makespan = max(s + p for s, p in zip(starts, inst.durations))
            shifted = left_shift(inst, Schedule(tuple(starts), makespan))
            if shifted.makespan < sched.makespan:
                return shifted
    return None


def reference_neighborhood_b_move(inst: ProjectInstance, lst, block: Block, weights, rng):
    """N_B with the prefix decoded by the stepwise serial oracle and a
    parallel extension that, at each event, rescans every unscheduled
    member's predecessors for the ready set and every finish for the next
    event time."""
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
    packed = inst.packed_demand
    starts = list(reference_serial_starts(inst, prefix))
    finish = {a: starts[a] + inst.durations[a] for a in prefix}
    slots = profile.booked(
        inst, inst.horizon + 1, [(packed[a], starts[a], inst.durations[a]) for a in prefix]
    )
    unscheduled = set(members)
    t = 0
    while unscheduled:
        ready = [
            a
            for a in unscheduled
            if all(p in finish and finish[p] <= t for p in inst.preds[a])
        ]
        if not ready:
            t = min(
                max(finish[p] for p in inst.preds[a])
                for a in unscheduled
                if all(p in finish for p in inst.preds[a])
            )
            continue
        fits = [a for a in sorted(ready) if slots.fits(packed[a], t, inst.durations[a])]
        if fits:
            vals = [activity_value(inst, a, weights) for a in fits]
            dem = [packed[a] for a in fits]
            picked = grasp_knapsack(fits, slots.at(t), dem, inst.guard, vals, rng)
            placed_any = False
            for idx in sorted(picked, key=lambda i: (-vals[i], fits[i])):
                a = fits[idx]
                if slots.place(packed[a], t, t, inst.durations[a]) is None:
                    continue
                starts[a] = t
                finish[a] = t + inst.durations[a]
                unscheduled.discard(a)
                placed_any = True
            if placed_any:
                continue
        t = min(f for f in finish.values() if f > t)
    rebuilt = prefix + sorted(members, key=lambda a: (starts[a], a)) + suffix
    return tuple(repair_precedence(inst, rebuilt))
