"""Population lifecycle: initialization, parent selection, dense genes,
crossovers A and B, two-phase mutation, offspring, elitist replacement.
The chromosome is an activity list: a tuple of activity ids."""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from operator import mul
from typing import Optional, Sequence

from .model import ProjectInstance, Schedule, random_feasible_list
from .sgs import fbi, parallel_sgs, schedule_to_list, serial_sgs


@dataclass
class Individual:
    list: tuple[int, ...]
    schedule: Schedule
    # ((threshold, weights), dense genes) of the latest dense_genes call
    _genes: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def of(cls, inst: ProjectInstance, sched: Schedule) -> Individual:
        """The individual of a schedule, listed by start time: a start-sorted
        list never serial-decodes worse than its schedule, so list and
        schedule stay consistent even after a parallel decode or an FBI
        improvement."""
        return cls(schedule_to_list(inst, sched), sched)

    @property
    def makespan(self) -> int:
        return self.schedule.makespan

    def dense_genes(
        self, inst: ProjectInstance, threshold: float, weights: Sequence[float]
    ) -> tuple[DenseGene, ...]:
        """The dense genes of this schedule (`dense_activities`), computed
        once per (threshold, weights): an individual is a parent in many
        generations, and both change only at stagnation checkpoints."""
        key = (threshold, tuple(weights))
        if self._genes is None or self._genes[0] != key:
            self._genes = (key, tuple(dense_activities(inst, self.schedule, threshold, weights)))
        return self._genes[1]


class Population:
    """Members kept sorted nondecreasing by makespan."""

    def __init__(self):
        self.members: list[Individual] = []

    def insert(self, ind: Individual) -> None:
        insort(self.members, ind, key=lambda m: m.makespan)

    def remove_worst(self, count: int = 1) -> None:
        del self.members[len(self.members) - count :]

    @property
    def best(self) -> Individual:
        return self.members[0]

    @property
    def worst(self) -> Individual:
        return self.members[-1]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class DenseGene:
    activities: frozenset[int]
    weight: float
    time: int


def decode_and_improve(
    inst: ProjectInstance, lst: Sequence[int], budget=None
) -> Schedule:
    """Parallel-decode a list and polish with FBI, which returns its input
    unless it finds a shorter schedule."""
    return fbi(inst, parallel_sgs(inst, lst, budget=budget), budget=budget)


def init_population(
    inst: ProjectInstance, capacity: int, rng, budget=None
) -> Population:
    """Random feasible list -> parallel decoder -> FBI, repeated until the
    population is full.  Duplicate (makespan, start-vector) members are
    rejected until 5 * capacity attempts have failed or the budget runs
    out; then the uniqueness requirement is waived.  A rejected attempt
    builds no Individual: at λ = 1 000 on ProGen j30, over half of them
    are rejected."""
    pop = Population()
    unique = True
    seen: set[Schedule] = set()
    failures = 0
    max_failures = 5 * capacity
    while len(pop) < capacity:
        sched = decode_and_improve(inst, random_feasible_list(inst, rng), budget=budget)
        if unique and sched in seen:
            failures += 1
            if failures >= max_failures:
                unique = False
            else:
                if budget is not None and budget.exhausted:
                    unique = False
                continue
        seen.add(sched)
        pop.insert(Individual.of(inst, sched))
        if budget is not None and budget.exhausted:
            break
    return pop


def select_parents(
    pop: Population, parents_size: int, probability: float, rng
) -> list[Individual]:
    """Scan the sorted population, admitting each member with the given
    probability; top-up with the best not-yet-admitted if the scan ends
    short."""
    parents_size = min(parents_size, len(pop))
    chosen: list[Individual] = []
    taken = [False] * len(pop)
    for idx, member in enumerate(pop):
        if len(chosen) == parents_size:
            break
        if rng.random() < probability:
            chosen.append(member)
            taken[idx] = True
    if len(chosen) < parents_size:
        for idx, member in enumerate(pop):
            if not taken[idx]:
                chosen.append(member)
                taken[idx] = True
                if len(chosen) == parents_size:
                    break
    return chosen


def dense_activities(
    inst: ProjectInstance,
    sched: Schedule,
    threshold: float,
    weights: Sequence[float],
) -> list[DenseGene]:
    """Dense genes of a schedule: interval sets J(t) whose weighted unused
    surplus v_t falls below the threshold; overlapping genes resolved
    keeping the smaller v_t.  Result sorted by time."""
    T = sched.makespan
    caps = inst.capacities
    # a resource of zero capacity has no room to leave unused
    wk_over_rk = [w / c if c else 0.0 for w, c in zip(weights, caps)]
    idle_weight = sum(w * c for w, c in zip(wk_over_rk, caps))

    # running set of activities per unit interval via start/finish events;
    # at each time the events keep id order, starts and finishes mixed
    events: dict[int, list[int]] = {}
    for j in range(1, inst.sink):
        p = inst.durations[j]
        if p == 0:
            continue
        s = sched.starts[j]
        events.setdefault(s, []).append(j)
        events.setdefault(s + p, []).append(-j)

    candidates: list[DenseGene] = []
    current: set[int] = set()
    use = [0] * inst.n_resources
    for t in sorted(events):
        if t >= T:
            break
        for e in events[t]:
            j = abs(e)
            if e > 0:
                current.add(j)
                for k, d in inst.active_demand[j]:
                    use[k] += d
            else:
                current.discard(j)
                for k, d in inst.active_demand[j]:
                    use[k] -= d
        if not current:
            continue  # idle run; v_t is the full weight sum, never a gene here
        v = idle_weight - sum(map(mul, use, wk_over_rk))
        if v < threshold:
            candidates.append(DenseGene(frozenset(current), v, t))

    # overlap resolution: keep smaller weight, drop genes sharing activities
    accepted: list[DenseGene] = []
    covered: set[int] = set()
    for gene in sorted(candidates, key=lambda g: (g.weight, g.time)):
        if gene.activities & covered:
            continue
        accepted.append(gene)
        covered |= gene.activities
    accepted.sort(key=lambda g: g.time)
    return accepted


def _copy_prefix(
    offspring: list[int],
    present: set[int],
    donor_order: Sequence[int],
    upto_pos: int,
) -> None:
    for pos in range(upto_pos + 1):
        a = donor_order[pos]
        if a not in present:
            offspring.append(a)
            present.add(a)


def crossover_a(
    inst: ProjectInstance,
    parent1: Individual,
    parent2: Individual,
    genes1: Sequence[DenseGene],
    genes2: Sequence[DenseGene],
) -> tuple[int, ...]:
    """Gene-prefix crossover.

    Each parent's genes are consumed in time order; at every step the
    front unconsumed gene (none of its activities copied yet) of the two
    parents is compared and the lighter one wins, ties to parent 1.  The
    winning parent's list prefix up to the gene's last activity is copied
    (skipping duplicates); leftovers follow in the shorter parent's order.
    """
    p1, p2 = parent1.list, parent2.list
    pos1 = {a: i for i, a in enumerate(p1)}
    pos2 = {a: i for i, a in enumerate(p2)}
    queues = [list(genes1), list(genes2)]
    orders = [p1, p2]
    positions = [pos1, pos2]

    offspring: list[int] = []
    present: set[int] = set()
    while True:
        fronts: list[Optional[DenseGene]] = [None, None]
        for side in (0, 1):
            q = queues[side]
            while q and (q[0].activities & present):
                q.pop(0)
            if q:
                fronts[side] = q[0]
        if fronts[0] is None and fronts[1] is None:
            break
        if fronts[1] is None or (
            fronts[0] is not None and fronts[0].weight <= fronts[1].weight
        ):
            side = 0
        else:
            side = 1
        gene = queues[side].pop(0)
        last_pos = max(positions[side][a] for a in gene.activities)
        _copy_prefix(offspring, present, orders[side], last_pos)

    filler = p1 if parent1.makespan <= parent2.makespan else p2
    _copy_prefix(offspring, present, filler, len(filler) - 1)
    return tuple(offspring)


def _precedence_ordered(inst: ProjectInstance, seq: Sequence[int]) -> bool:
    """Whether `seq` lists every activity once, each after all its
    predecessors."""
    n2 = len(inst)
    if len(seq) != n2:
        return False
    preds = inst.preds
    placed = [False] * n2
    for j in seq:
        if not 0 <= j < n2 or placed[j]:
            return False
        for p in preds[j]:
            if not placed[p]:
                return False
        placed[j] = True
    return True


def repair_precedence(inst: ProjectInstance, seq: Sequence[int]) -> list[int]:
    """Stable precedence repair: greedily emit the earliest activity in the
    sequence whose predecessors are all emitted.  The identity on
    already-feasible sequences, which one pass finds and returns as they
    are: 1 003 of the 1 112 calls (from N_B and crossover B) in a
    λ = 8 000 solve of perfbench's scarce120 instance, where the heap
    repair takes 85 µs a call and the pass 23 (medians)."""
    if _precedence_ordered(inst, seq):
        return list(seq)
    n2 = len(inst)
    pos = {a: i for i, a in enumerate(seq)}
    if len(seq) != n2 or pos.keys() != set(range(n2)):
        raise ValueError("sequence is not a permutation of activities")
    remaining = [len(inst.preds[j]) for j in range(n2)]
    heap = [pos[j] for j in range(n2) if remaining[j] == 0]
    heapq.heapify(heap)
    out: list[int] = []
    seq = list(seq)
    while heap:
        j = seq[heapq.heappop(heap)]
        out.append(j)
        for s in inst.succs[j]:
            remaining[s] -= 1
            if remaining[s] == 0:
                heapq.heappush(heap, pos[s])
    if len(out) != n2:
        raise ValueError("the precedence graph has a cycle")
    return out


def _schedule_graph_network(
    inst: ProjectInstance, sched: Schedule, root: int, outgoing: bool
) -> set[int]:
    """Connected component of `root` in the schedule graph G_S (arcs of A
    with c_i = s_j), following arcs forward (outgoing) or backward."""
    starts = sched.starts
    durs = inst.durations
    seen = {root}
    stack = [root]
    while stack:
        i = stack.pop()
        nexts = inst.succs[i] if outgoing else inst.preds[i]
        for j in nexts:
            if outgoing:
                tight = starts[i] + durs[i] == starts[j]
            else:
                tight = starts[j] + durs[j] == starts[i]
            if tight and j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def crossover_b(
    inst: ProjectInstance,
    parent1: Individual,
    parent2: Individual,
    genes1: Sequence[DenseGene],
    genes2: Sequence[DenseGene],
    rng,
) -> tuple[int, ...]:
    """Segment-transplant crossover.

    The lowest-weight dense gene of each parent forms the block; the
    block activities' outgoing (or incoming, coin flip) networks in the
    second parent's schedule graph extend it.  The span of the second
    parent's list covering block plus networks is transplanted into the
    first parent's list at its leftmost position; precedence is repaired
    by stable-moving violators rightward.
    """
    block: set[int] = set()
    for genes in (genes1, genes2):
        if genes:
            gene = min(genes, key=lambda g: (g.weight, g.time))
            block |= gene.activities
    block -= {0, inst.sink}
    if not block:
        shorter = parent1 if parent1.makespan <= parent2.makespan else parent2
        return shorter.list

    outgoing = rng.random() < 0.5
    extended = set(block)
    for a in block:
        extended |= _schedule_graph_network(inst, parent2.schedule, a, outgoing)
    extended -= {0, inst.sink}

    donor = parent2.list
    pos = {a: i for i, a in enumerate(donor)}
    left = min(pos[a] for a in extended)
    right = max(pos[a] for a in extended)
    segment = list(donor[left : right + 1])
    seg_set = set(segment)

    base = [a for a in parent1.list if a not in seg_set]
    insert_at = min(left, len(base) - 1)  # keep the dummy sink last
    insert_at = max(insert_at, 1)  # keep the dummy source first
    merged = base[:insert_at] + segment + base[insert_at:]
    return tuple(repair_precedence(inst, merged))


# swap-and-relocate rounds per offspring in the GA
MUTATION_ITERATIONS = 2


def mutate(
    inst: ProjectInstance, lst: Sequence[int], iterations: int, rng
) -> tuple[int, ...]:
    """Two-phase mutation: a feasibility-preserving random swap, then a
    random relocation, repeated `iterations` times.  `lst` holds every
    activity once.

    Precedence is tested against `inst.arcs` and the moved activity's own
    predecessor and successor lists, so a call builds no set.  Building a
    predecessor and a successor set for every activity made a call on
    ProGen j120 and j30 lists take 77 µs; without them it takes 25 µs,
    with the same lists and draws."""
    order = list(lst)
    n2 = len(order)
    if n2 <= 3 or iterations <= 0:
        return tuple(order)
    arcs = inst.arcs

    for _ in range(iterations):
        # phase 1: swap two random positions when precedence allows
        i = rng.randrange(1, n2 - 1)
        j = rng.randrange(1, n2 - 1)
        if i > j:
            i, j = j, i
        if i != j:
            a, b = order[i], order[j]
            ok = not any((a, x) in arcs for x in order[i + 1 : j + 1]) and not any(
                (x, b) in arcs for x in order[i:j]
            )
            if ok:
                order[i], order[j] = b, a

        # phase 2: relocate a random activity within its feasible window:
        # after its last predecessor, before its first successor and the sink
        i = rng.randrange(1, n2 - 1)
        a = order.pop(i)
        lo = max([1] + [order.index(x) + 1 for x in inst.preds[a]])
        hi = min([len(order) - 1] + [order.index(x) for x in inst.succs[a]])
        if lo > hi:
            order.insert(i, a)
        else:
            order.insert(rng.randrange(lo, hi + 1), a)
    return tuple(order)


def make_child(
    inst: ProjectInstance,
    parents: Sequence[Individual],
    genes: dict[int, Sequence[DenseGene]],
    rng,
    budget=None,
) -> Individual:
    """One GA offspring: crossover A or B (fair coin) of two parents drawn
    with replacement, serial decode, mutation canceled when it worsens,
    FBI.  `genes` maps id(parent) to that parent's dense genes."""
    p1, p2 = rng.choice(parents), rng.choice(parents)
    if rng.random() < 0.5:
        lst = crossover_a(inst, p1, p2, genes[id(p1)], genes[id(p2)])
    else:
        lst = crossover_b(inst, p1, p2, genes[id(p1)], genes[id(p2)], rng)
    sched = serial_sgs(inst, lst, budget=budget)
    mutated = mutate(inst, lst, MUTATION_ITERATIONS, rng)
    if mutated != lst:
        mut_sched = serial_sgs(inst, mutated, budget=budget)
        # a worsening mutation is canceled
        if mut_sched.makespan <= sched.makespan:
            lst, sched = mutated, mut_sched
    polished = fbi(inst, sched, budget=budget)
    if polished.makespan < sched.makespan:
        return Individual.of(inst, polished)
    return Individual(lst, sched)


def next_generation(
    pop: Population, offspring: Sequence[Individual], elite_count: int
) -> Population:
    """Insert the best elite_count offspring, drop the same number of the
    worst incumbents; capacity and sortedness preserved."""
    elite_count = min(elite_count, len(offspring), len(pop))
    if elite_count == 0:
        return pop
    best = sorted(offspring, key=lambda m: m.makespan)[:elite_count]
    pop.remove_worst(elite_count)
    for ind in best:
        pop.insert(ind)
    return pop
