"""Hybrid control loop: the resource weights, set once per run by the
resource rank, and the population init; then `_search` loops over two
steps on one `_Run`: `_generation`, and at a stagnation checkpoint
(`stagnation_trigger` generations without a record) one NS `_burst`.
Every instance gets the same checkpoint settings.  A step is looked up
as a module global when it is called, so a script can rebind one.
`_Run.offer` makes every record after init's.  A run stops when it has
generated `lambda_budget` schedules; nothing else ends it."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields

from .model import ProjectInstance, Schedule, critical_path_lower_bound
from .genetic import (
    PARENT_PROBABILITY,
    Individual,
    Population,
    dense_genes,
    init_population,
    make_child,
    next_generation,
    select_parents,
)
from .neighborhood import NsStats, ns_run
from .ranking import rank_and_weigh
from .sgs import clear_memos


class Budget:
    """Counts generated schedules against the cap `limit`."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, k: int = 1) -> None:
        self.used += k

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit


@dataclass
class SolverConfig:
    """Run settings only; the operator parameters are constants beside
    their operators (`fbi`, `mutate`, `grasp_knapsack`, `ns_run`,
    `DENSE_THRESHOLD` and `PARENT_PROBABILITY`)."""

    lambda_budget: int = 50000
    population_capacity: int = 60
    ns_burst: int = 1000  # 0: no bursts (pure GA)
    stagnation_trigger: int = 10
    seed: int = 0

    def __post_init__(self):
        """Every check of the configuration; a bad value raises ValueError."""

        def bad(name: str, want: str) -> ValueError:
            return ValueError(f"{name} must be {want}, not {getattr(self, name)!r}")

        # a crossover needs two parents
        if not _is_int(self.population_capacity, 2):
            raise bad("population_capacity", "an integer >= 2")
        if not _is_int(self.lambda_budget, 1):
            raise bad("lambda_budget", "an integer >= 1")
        for name in ("ns_burst", "stagnation_trigger"):
            if not _is_int(getattr(self, name), 0):
                raise bad(name, "an integer >= 0")
        if not _is_int(self.seed):
            raise bad("seed", "an integer")

    @classmethod
    def from_file(cls, path: str) -> "SolverConfig":
        """key = value, one per line and each key once, in UTF-8 with or
        without a byte-order mark; '#' starts a comment.  Every field is an
        integer, so each value is read with `int()`."""
        values = {}
        seen = {}  # key -> line number
        valid = {f.name for f in fields(cls)}
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in valid:
                    raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
                if key in seen:
                    raise ValueError(
                        f"{path}:{lineno}: key '{key}' repeats line {seen[key]}"
                    )
                seen[key] = lineno
                try:
                    values[key] = int(val)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
        return cls(**values)


def _is_int(value, least: float = float("-inf")) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


@dataclass
class RunStats:
    schedules_generated: int = 0
    trace: list[tuple[int, int]] = field(default_factory=list)
    # never set; kept because perfbench/run.py records it as `regime`
    subset: int = 0
    cp_bound: int = 0
    relaxed_makespan: int = 0
    weights: tuple[float, ...] = ()
    generations: int = 0
    ns_bursts: int = 0
    seconds: float = 0.0


def solve(inst: ProjectInstance, config: SolverConfig) -> tuple[Schedule, RunStats]:
    """Run the full hybrid loop and return the best schedule found.

    The decode memos of sgs.py and the dense-gene memo are emptied when
    the run ends, returning or raising, so they keep no solved instance
    alive and hold entries only while a solve runs."""
    try:
        return _search(inst, config)
    finally:
        clear_memos()
        dense_genes.cache_clear()


def _search(inst: ProjectInstance, config: SolverConfig) -> tuple[Schedule, RunStats]:
    t0 = time.monotonic()
    rng = random.Random(config.seed)
    budget = Budget(config.lambda_budget)
    # relaxation, ranking, and the resource weights of the run
    ranking = rank_and_weigh(inst)
    stats = RunStats(cp_bound=critical_path_lower_bound(inst), weights=ranking.weights,
                     relaxed_makespan=ranking.relaxed_makespan)

    pop = init_population(inst, config.population_capacity, rng, budget=budget)
    stats.trace.append((budget.used, pop.best.makespan))

    run = _Run(inst, config, rng, budget, stats, ranking.weights, pop, pop.best)
    stale = 0
    while not budget.exhausted:
        stale = 0 if _generation(run) else stale + 1
        if stale >= config.stagnation_trigger and not budget.exhausted:
            _burst(run)
            stale = 0

    stats.schedules_generated = budget.used
    stats.seconds = time.monotonic() - t0
    return run.best.schedule, stats


@dataclass
class _Run:
    """The state a solve's steps share."""

    inst: ProjectInstance
    config: SolverConfig
    rng: random.Random
    budget: Budget
    stats: RunStats
    weights: tuple[float, ...]
    pop: Population
    best: Individual

    def offer(self, ind: Individual) -> None:
        """Make `ind` the record if it beats it."""
        if ind.makespan < self.best.makespan:
            self.best = ind
            self.stats.trace.append((self.budget.used, ind.makespan))


def _generation(run: _Run) -> bool:
    """One GA generation: as many children as parents, of which the best
    `capacity // 4` (at least one) replace the worst members.  True when a
    child set a record."""
    capacity = run.config.population_capacity
    parents_size = max(2, capacity // 2)
    parents = select_parents(run.pop, parents_size, PARENT_PROBABILITY, run.rng)
    offspring: list[Individual] = []
    record = run.best
    for _ in range(parents_size):
        if run.budget.exhausted:
            break
        child = make_child(run.inst, parents, run.weights, run.rng, budget=run.budget)
        offspring.append(child)
        run.offer(child)
    next_generation(run.pop, offspring, max(1, capacity // 4))
    run.stats.generations += 1
    return run.best is not record


def _burst(run: _Run) -> None:
    """An NS burst of `ns_burst` steps from a parent-scan seed; a result
    that improved on its seed replaces the worst member if it beats it."""
    budget, config = run.budget, run.config
    if config.ns_burst == 0:
        return
    seed = select_parents(run.pop, 1, PARENT_PROBABILITY, run.rng)[0]
    # the walk charges the run's budget, capped at `ns_burst` more schedules;
    # an empty step charges nothing and an N_A step up to NA_TRIES.  The
    # counts in `stats` are read by perfbench/layertrace.py
    limit = budget.limit
    budget.limit = min(budget.used + config.ns_burst, limit)
    found = ns_run(
        run.inst, seed, run.weights, steps=config.ns_burst, rng=run.rng,
        budget=budget, stats=NsStats(),
    )
    budget.limit = limit
    run.stats.ns_bursts += 1
    run.offer(found)
    # an unimproved burst returns its seed, already a member
    if found is not seed and found.makespan < run.pop.worst.makespan:
        run.pop.remove_worst(1)
        run.pop.insert(found)
