"""Hybrid control loop: relaxation-based ranking, population init,
gap-based regime classification, GA generations with NS bursts on
stagnation, and parameter self-tuning."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, fields
from typing import Optional, get_args, get_type_hints

from .model import (
    ProjectInstance,
    Schedule,
    critical_path_lower_bound,
    random_feasible_list,
    validate_instance,
)
from .genetic import (
    Individual,
    decode_and_improve,
    init_population,
    make_child,
    next_generation,
    select_parents,
)
from .neighborhood import NsStats, TabuList, ns_run
from .ranking import WEIGHT_MODES, rank_and_weigh


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
    `TabuList`, `AdaptiveState` and the regime thresholds below)."""

    lambda_budget: Optional[int] = 50000
    time_limit: Optional[float] = None
    population_capacity: int = 60
    ns_burst: Optional[int] = None  # None: set by regime classification
    stagnation_trigger: Optional[int] = None  # None: set by classification
    weight_mode: str = "random"
    seed: int = 0

    def __post_init__(self):
        """Every check of the configuration; a bad value raises ValueError."""

        def bad(name: str, want: str) -> ValueError:
            return ValueError(f"{name} must be {want}, not {getattr(self, name)!r}")

        # a crossover needs two parents
        if not _is_int(self.population_capacity, 2):
            raise bad("population_capacity", "an integer >= 2")
        for name, least in (
            ("lambda_budget", 1),
            ("ns_burst", 0),  # 0: bursts that generate nothing (pure GA)
            ("stagnation_trigger", 0),
        ):
            if getattr(self, name) is not None and not _is_int(getattr(self, name), least):
                raise bad(name, f"none or an integer >= {least}")
        if not _is_int(self.seed):
            raise bad("seed", "an integer")
        # an infinite time limit would be no cap at all
        if self.time_limit is not None and not _is_finite_positive(self.time_limit):
            raise bad("time_limit", "none or a finite positive number")
        if self.lambda_budget is None and self.time_limit is None:
            raise ValueError("lambda_budget and time_limit are both none: no cap")
        if self.weight_mode != "random" and self.weight_mode not in WEIGHT_MODES:
            raise bad("weight_mode", "'random' or one of " + ", ".join(WEIGHT_MODES))

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
    """`text` as a value of the field type `kind`: int, float, str or
    Optional of one of them."""
    if type(None) in get_args(kind):
        if text.lower() in ("none", ""):
            return None
        kind = get_args(kind)[0]
    return kind(text)


@dataclass
class RunStats:
    schedules_generated: int = 0
    trace: list[tuple[int, int]] = field(default_factory=list)
    subset: int = 0
    cp_bound: int = 0
    relaxed_makespan: int = 0
    weight_mode: str = ""
    weights: tuple[float, ...] = ()
    generations: int = 0
    ns_bursts: int = 0
    parameter_changes: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def record(self, used: int, makespan: int) -> None:
        if not self.trace or makespan < self.trace[-1][1]:
            self.trace.append((used, makespan))


# regime thresholds on the relative gap of the initial record to the
# critical path
SIGMA1, SIGMA2 = 0.2, 0.6
# (stagnation_trigger, ns_burst) per regime: regime 1 leans on the GA,
# regime 3 on the NS operator
_REGIME_PARAMS = {1: (20, 200), 2: (10, 1000), 3: (5, 5000)}


def classify_subset(ub: int, cp_bound: int) -> int:
    """Regime 1/2/3 by the relative gap of the initial record to the
    critical path."""
    cp = max(cp_bound, 1)
    sigma = (ub - cp) / cp
    if sigma < SIGMA1:
        return 1
    if sigma <= SIGMA2:
        return 2
    return 3


@dataclass
class AdaptiveState:
    """The self-tuned parameters, starting from the paper's values."""

    dense_threshold: float = 0.75
    parent_probability: float = 0.25
    block_size: int = 4
    p_changes_without_record: int = 0

    # observation windows, reset after each adaptation
    dense_gene_counts: list[int] = field(default_factory=list)
    ns_empty: int = 0
    ns_nonempty: int = 0
    record_improved: bool = False


def adapt_parameters(state: AdaptiveState, log: Optional[list[str]] = None) -> AdaptiveState:
    """Self-tuning at stagnation checkpoints: nudge the dense-gene
    threshold toward a useful gene supply, keep the parent probability in
    [0.1, 0.5], grow/shrink the block size by the empty-neighbor ratio,
    and after five block-size changes without a record, reset the block
    size to 1 (the caller re-draws the resource weights)."""

    def note(msg: str) -> None:
        if log is not None:
            log.append(msg)

    if state.dense_gene_counts:
        avg = sum(state.dense_gene_counts) / len(state.dense_gene_counts)
        if avg >= 4 and state.dense_threshold > 0.15:
            state.dense_threshold = round(state.dense_threshold - 0.05, 6)
            note(f"dense_threshold -> {state.dense_threshold} (genes abundant)")
        elif avg < 1 and state.dense_threshold < 1.5:
            state.dense_threshold = round(state.dense_threshold + 0.05, 6)
            note(f"dense_threshold -> {state.dense_threshold} (genes scarce)")

    if state.record_improved:
        if state.parent_probability > 0.25:
            state.parent_probability = max(0.25, state.parent_probability - 0.05)
    else:
        if state.parent_probability < 0.5:
            state.parent_probability = min(0.5, state.parent_probability + 0.05)
            note(f"parent_probability -> {state.parent_probability:.2f}")

    total = state.ns_empty + state.ns_nonempty
    if total:
        nonempty_ratio = state.ns_nonempty / total
        changed = False
        if nonempty_ratio >= 0.5:
            state.block_size += 1
            changed = True
            note(f"block_size -> {state.block_size} (neighbors mostly non-empty)")
        elif state.block_size > 1:
            state.block_size -= 1
            changed = True
            note(f"block_size -> {state.block_size} (neighbors mostly empty)")
        if changed:
            if state.record_improved:
                state.p_changes_without_record = 0
            else:
                state.p_changes_without_record += 1

    state.dense_gene_counts = []
    state.ns_empty = 0
    state.ns_nonempty = 0
    state.record_improved = False
    return state


def solve(inst: ProjectInstance, config: SolverConfig) -> tuple[Schedule, RunStats]:
    """Run the full hybrid loop and return the best schedule found.

    The instance's decode memos are emptied when the run ends, returning or
    raising: a caller that keeps many solved instances, as `run_benchmark`
    at one worker does, would otherwise keep a full memo for each."""
    try:
        return _search(inst, config)
    finally:
        inst.clear_memos()


def _search(inst: ProjectInstance, config: SolverConfig) -> tuple[Schedule, RunStats]:
    problem = validate_instance(inst)
    if problem is not None:
        raise ValueError(f"invalid instance: {problem}")

    t0 = time.monotonic()
    rng = random.Random(config.seed)
    budget = Budget(config.lambda_budget, config.time_limit)
    stats = RunStats()
    stats.cp_bound = critical_path_lower_bound(inst)

    # step 1: relaxation, ranking, weights
    ranking = rank_and_weigh(inst, mode=config.weight_mode, rng=rng)
    weights = ranking.weights
    stats.relaxed_makespan = ranking.relaxed_makespan
    stats.weight_mode = ranking.mode
    stats.weights = weights

    # step 2: initial population
    capacity = config.population_capacity
    pop = init_population(inst, capacity, rng, budget=budget)
    best = pop.best
    stats.record(budget.used, best.makespan)

    # step 3: regime classification
    stats.subset = classify_subset(best.makespan, stats.cp_bound)
    trigger, burst = _REGIME_PARAMS[stats.subset]
    if config.stagnation_trigger is not None:
        trigger = config.stagnation_trigger
    if config.ns_burst is not None:
        burst = config.ns_burst

    elite_count = max(1, capacity // 4)
    parents_size = max(2, capacity // 2)

    state = AdaptiveState()
    tabu = TabuList()

    since_improvement = 0
    while not budget.exhausted:
        parents = select_parents(pop, parents_size, state.parent_probability, rng)
        genes = {id(p): p.dense_genes(inst, state.dense_threshold, weights) for p in parents}
        for p in parents:
            state.dense_gene_counts.append(len(genes[id(p)]))

        offspring: list[Individual] = []
        improved = False
        for _ in range(parents_size):
            if budget.exhausted:
                break
            child = make_child(inst, parents, genes, rng, budget=budget)
            offspring.append(child)
            if child.makespan < best.makespan:
                best = child
                improved = True
                stats.record(budget.used, best.makespan)

        next_generation(pop, offspring, elite_count)
        stats.generations += 1
        if improved:
            since_improvement = 0
            state.record_improved = True
        else:
            since_improvement += 1

        if since_improvement >= trigger and not budget.exhausted:
            # refresh the tail of the population
            refresh = max(1, capacity // 5)
            pop.remove_worst(refresh)
            for _ in range(refresh):
                if budget.exhausted:
                    break
                lst = random_feasible_list(inst, rng)
                pop.insert(decode_and_improve(inst, lst, budget=budget))

            seed_ind = select_parents(pop, 1, state.parent_probability, rng)[0]
            # each NS step costs at least one decode; the sub-budget is the
            # real cap
            ns_stats = NsStats()
            ns_best = ns_run(
                inst, seed_ind, weights, steps=max(1, burst), rng=rng,
                P=state.block_size, budget=_SubBudget(budget, burst), tabu=tabu,
                stats=ns_stats,
            )
            stats.ns_bursts += 1
            state.ns_empty += ns_stats.empty
            state.ns_nonempty += ns_stats.nonempty
            if ns_best.makespan < best.makespan:
                best = ns_best
                state.record_improved = True
                stats.record(budget.used, best.makespan)
            if len(pop) > 0 and ns_best.makespan < pop.worst.makespan:
                pop.remove_worst(1)
                pop.insert(ns_best)

            adapt_parameters(state, log=stats.parameter_changes)
            if state.p_changes_without_record >= 5:
                state.block_size = 1
                state.p_changes_without_record = 0
                ranking = rank_and_weigh(inst, mode=config.weight_mode, rng=rng)
                weights = ranking.weights
                stats.weights = weights
                stats.parameter_changes.append(
                    "block_size reset to 1, resource weights re-drawn"
                )
            since_improvement = 0

    stats.schedules_generated = budget.used
    stats.seconds = time.monotonic() - t0
    return best.schedule, stats


class _SubBudget:
    """View of the main budget limited to an additional allowance."""

    def __init__(self, parent: Budget, allowance: int):
        self.parent = parent
        self.cap = parent.used + allowance

    def charge(self, k: int = 1) -> None:
        self.parent.charge(k)

    @property
    def exhausted(self) -> bool:
        return self.parent.exhausted or self.parent.used >= self.cap
