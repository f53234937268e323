"""Hybrid control loop: resource weights drawn once per run and the
population init; then `_search` loops over three steps on one `_Run`:
`_generation`, and at a stagnation checkpoint (`stagnation_trigger`
generations without a record) `_refresh` and `_burst`.  Every instance
gets the same checkpoint settings.  A step is looked up as a module
global when it is called, so a script can rebind one.  `_Run.offer` makes
every record after init's."""

from __future__ import annotations

import math
import random
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Optional, get_args, get_type_hints

from .model import (
    ProjectInstance,
    Schedule,
    critical_path_lower_bound,
    random_feasible_list,
)
from .genetic import (
    PARENT_PROBABILITY,
    Individual,
    Population,
    decode_and_improve,
    dense_genes,
    init_population,
    make_child,
    next_generation,
    select_parents,
)
from .neighborhood import TABU_CAPACITY, NsStats, ns_run
from .ranking import rank_and_weigh
from .sgs import clear_memos


class Budget:
    """Counts generated schedules against a cap; optionally wall-clock
    limited for 'unlimited' runs."""

    def __init__(self, limit: Optional[int] = None, time_limit: Optional[float] = None):
        self.limit = limit
        self.time_limit = time_limit
        self.used = 0
        self._t0 = time.monotonic()

    def charge(self, k: int = 1) -> None:
        self.used += k

    @property
    def exhausted(self) -> bool:
        if self.limit is not None and self.used >= self.limit:
            return True
        if self.time_limit is not None and time.monotonic() - self._t0 >= self.time_limit:
            return True
        return False


@dataclass
class SolverConfig:
    """Run settings only; the operator parameters are constants beside
    their operators (`fbi`, `mutate`, `grasp_knapsack`, `ns_run`,
    `TABU_CAPACITY`, `DENSE_THRESHOLD` and `PARENT_PROBABILITY`)."""

    lambda_budget: Optional[int] = 50000
    time_limit: Optional[float] = None
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
        if self.lambda_budget is not None and not _is_int(self.lambda_budget, 1):
            raise bad("lambda_budget", "none or an integer >= 1")
        for name in ("ns_burst", "stagnation_trigger"):
            if not _is_int(getattr(self, name), 0):
                raise bad(name, "an integer >= 0")
        if not _is_int(self.seed):
            raise bad("seed", "an integer")
        # an infinite time limit would be no cap at all
        if self.time_limit is not None and not _is_finite_positive(self.time_limit):
            raise bad("time_limit", "none or a finite positive number")
        if self.lambda_budget is None and self.time_limit is None:
            raise ValueError("lambda_budget and time_limit are both none: no cap")

    @classmethod
    def from_file(cls, path: str) -> "SolverConfig":
        """key = value, one per line; '#' starts a comment.  Each value is
        read as its field's declared type; 'none' (or nothing) sets an
        optional field to None."""
        values = {}
        types = get_type_hints(cls)
        valid = {f.name: types[f.name] for f in fields(cls)}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in valid:
                    raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
                try:
                    values[key] = _coerce(val, valid[key])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
        return cls(**values)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value, least: float = float("-inf")) -> bool:
    return _is_number(value) and isinstance(value, int) and value >= least


def _is_finite_positive(value) -> bool:
    return _is_number(value) and 0 < value < math.inf


def _coerce(text: str, kind):
    """`text` as a value of the field type `kind`: int, float or Optional
    of one of them."""
    if type(None) in get_args(kind):
        if text.lower() in ("none", ""):
            return None
        kind = get_args(kind)[0]
    return kind(text)


@dataclass
class RunStats:
    schedules_generated: int = 0
    trace: list[tuple[int, int]] = field(default_factory=list)
    # never set; kept because perfbench/run.py records it as `regime`
    subset: int = 0
    cp_bound: int = 0
    relaxed_makespan: int = 0
    weight_mode: str = ""
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
    rng = random.Random(config.seed)
    budget = Budget(config.lambda_budget, config.time_limit)
    # relaxation, ranking, and the resource weights of the run
    ranking = rank_and_weigh(inst, mode="random", rng=rng)
    stats = RunStats(cp_bound=critical_path_lower_bound(inst), weights=ranking.weights,
                     relaxed_makespan=ranking.relaxed_makespan, weight_mode=ranking.mode)

    pop = init_population(inst, config.population_capacity, rng, budget=budget)
    stats.trace.append((budget.used, pop.best.makespan))

    run = _Run(inst, config, rng, budget, stats, ranking.weights, pop, pop.best)
    stale = 0
    while not budget.exhausted:
        stale = 0 if _generation(run) else stale + 1
        if stale >= config.stagnation_trigger and not budget.exhausted:
            _refresh(run)
            _burst(run)
            stale = 0

    stats.schedules_generated = budget.used
    stats.seconds = time.monotonic() - budget._t0
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
    tabu: deque = field(default_factory=lambda: deque(maxlen=TABU_CAPACITY))

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


def _refresh(run: _Run) -> None:
    """Replace the worst fifth of the population with random members."""
    count = max(1, run.config.population_capacity // 5)
    run.pop.remove_worst(count)
    for _ in range(count):
        if run.budget.exhausted:
            break
        lst = random_feasible_list(run.inst, run.rng)
        member = Individual.of(run.inst, decode_and_improve(run.inst, lst, budget=run.budget))
        run.pop.insert(member)
        run.offer(member)


def _burst(run: _Run) -> None:
    """An NS burst of `ns_burst` steps from a parent-scan seed; a result
    that improved on its seed replaces the worst member if it beats it."""
    budget, config = run.budget, run.config
    # a spent budget, say by the refresh, would let the walk take no step
    if config.ns_burst == 0 or budget.exhausted:
        return
    seed = select_parents(run.pop, 1, PARENT_PROBABILITY, run.rng)[0]
    # the walk charges the run's budget, capped at `ns_burst` more schedules;
    # an empty step charges nothing and an N_A step up to NA_TRIES.  The
    # counts in `stats` are read by perfbench/layertrace.py
    limit = budget.limit
    budget.limit = min(budget.used + config.ns_burst, math.inf if limit is None else limit)
    found = ns_run(
        run.inst, seed, run.weights, steps=config.ns_burst, rng=run.rng,
        budget=budget, tabu=run.tabu, stats=NsStats(),
    )
    budget.limit = limit
    run.stats.ns_bursts += 1
    run.offer(found)
    # an unimproved burst returns its seed, already a member
    if found is not seed and found.makespan < run.pop.worst.makespan:
        run.pop.remove_worst(1)
        run.pop.insert(found)
