"""Outside-in layer tracer for the rcpsp_hybrid library.

The tracer wraps the public functions listed in LAYERS from outside the
library: every module-level name in the `rcpsp_hybrid` package that is
bound to one of those functions is rebound to a timing wrapper, because
the modules import each other's functions by name (`from .sgs import
serial_sgs`).  Nothing in the library changes, and leaving the `traced`
block restores every binding.

Each call is a span on one stack.  A span's self time is its duration
minus the durations of the spans it opened; self times are aggregated
per function as they close, so memory does not grow with the run.  Each
`Budget.charge` is attributed to the innermost open span that is not a
decoder (see DECODING), which names the operator that asked for the
schedule.  The tracer is for one process: pool workers are not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = {
    "sgs": ("serial_sgs", "parallel_sgs", "fbi", "left_shift"),
    "ranking": ("rank_and_weigh",),
    "genetic": (
        "init_population",
        "decode_and_improve",
        "select_parents",
        "dense_activities",
        "crossover_a",
        "crossover_b",
        "mutate",
        "next_generation",
    ),
    "neighborhood": (
        "ns_run",
        "create_block",
        "compute_windows",
        "neighborhood_a_move",
        "neighborhood_b_move",
        "grasp_knapsack",
    ),
    "model": ("random_feasible_list",),
    "psplib": ("load_dataset",),
    "solver": ("solve",),
}
SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# spans that only turn a list into a schedule; a charge made inside one
# belongs to the operator that called it
DECODING = frozenset(
    ("sgs.serial_sgs", "sgs.parallel_sgs", "sgs.fbi", "sgs.left_shift",
     "genetic.decode_and_improve")
)
# every span that can own a charge once DECODING is skipped
OPERATORS = (
    "solver.solve",  # GA offspring decode, mutation, FBI, population refresh
    "genetic.init_population",
    "neighborhood.neighborhood_a_move",
    "neighborhood.ns_run",  # the serial decode of each N_B neighbor
)
OTHER = "other"  # charges made outside every OPERATORS span

PACKAGE = "rcpsp_hybrid"


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.incl_s: Counter[str] = Counter()  # outermost activations only
        self.charges: Counter[str] = Counter()  # owner span -> schedules
        self.counts: Counter[str] = Counter()  # outcomes observed at boundaries
        self._stack: list[list] = []  # [name, start, child_seconds]
        self._depth: Counter[str] = Counter()

    def wrap(self, name: str, fn, observe=None):
        """Timing wrapper for `fn`; `observe(tracer, args, kwargs)` may
        return a callback that receives the result."""
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = observe(self, args, kwargs) if observe else None
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            depth[name] += 1
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                if not depth[name]:
                    self.incl_s[name] += dur
                if stack:
                    stack[-1][2] += dur
            if done is not None:
                done(result)
            return result

        return traced

    def charge_owner(self) -> str:
        for frame in reversed(self._stack):
            if frame[0] not in DECODING:
                return frame[0]
        return OTHER


def _count_move(key: str):
    def observe(tracer: Tracer, args, kwargs):
        def done(result):
            tracer.counts[key + ".calls"] += 1
            tracer.counts[key + ".hits"] += result is not None

        return done

    return observe


def _observe_ns_run(signature):
    def observe(tracer: Tracer, args, kwargs):
        stats = signature.bind(*args, **kwargs).arguments.get("stats")
        if stats is None:
            return None
        before = (stats.empty, stats.nonempty, stats.improved)

        def done(result):
            tracer.counts["ns.empty"] += stats.empty - before[0]
            tracer.counts["ns.nonempty"] += stats.nonempty - before[1]
            tracer.counts["ns.improved"] += stats.improved - before[2]

        return done

    return observe


def _observe_init(tracer: Tracer, args, kwargs):
    def done(pop):
        tracer.counts["init.accepted"] += len(pop)

    return done


def _observe_decode(tracer: Tracer, args, kwargs):
    if tracer._stack and tracer._stack[-1][0] == "genetic.init_population":
        tracer.counts["init.decodes"] += 1
    return None


def _observers(modules) -> dict:
    ns_sig = inspect.signature(modules["neighborhood"].ns_run)
    return {
        "neighborhood.neighborhood_a_move": _count_move("n_a"),
        "neighborhood.neighborhood_b_move": _count_move("n_b"),
        "neighborhood.ns_run": _observe_ns_run(ns_sig),
        "genetic.init_population": _observe_init,
        "genetic.decode_and_improve": _observe_decode,
    }


@contextmanager
def traced(tracer: Tracer):
    """Rebind every alias of the LAYERS functions, and Budget.charge, for
    the duration of the block."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    observers = _observers(modules)
    # keyed by id: module globals include unhashable values, and every
    # original stays alive here, so an equal id is the same function
    wrappers = {}
    for layer, fns in LAYERS.items():
        for fn_name in fns:
            orig = getattr(modules[layer], fn_name)
            span = f"{layer}.{fn_name}"
            wrappers[id(orig)] = tracer.wrap(span, orig, observers.get(span))

    rebound = []  # (module, attribute, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                rebound.append((mod, attr, value))

    budget_cls = modules["solver"].Budget
    orig_charge = budget_cls.charge

    def charge(budget, k=1):
        tracer.charges[tracer.charge_owner()] += k
        return orig_charge(budget, k)

    budget_cls.charge = charge
    try:
        yield tracer
    finally:
        budget_cls.charge = orig_charge
        for mod, attr, value in rebound:
            setattr(mod, attr, value)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-span calls, self ms per call, self and inclusive share of
    `wall`, plus the ratios observed at the span boundaries."""
    out: dict[str, float] = {}
    for span in SPANS:
        calls = tracer.calls[span]
        out[f"{span}.calls"] = calls
        out[f"{span}.self_ms_per_call"] = ratio(1000.0 * tracer.self_s[span], calls)
        out[f"{span}.self_share"] = ratio(tracer.self_s[span], wall)
        out[f"{span}.incl_share"] = ratio(tracer.incl_s[span], wall)
    c = tracer.counts
    out["neighborhood.neighborhood_a_move.hit_ratio"] = ratio(c["n_a.hits"], c["n_a.calls"])
    out["neighborhood.neighborhood_b_move.hit_ratio"] = ratio(c["n_b.hits"], c["n_b.calls"])
    steps = c["ns.empty"] + c["ns.nonempty"]
    out["neighborhood.ns_run.improve_ratio"] = ratio(c["ns.improved"], steps)
    out["neighborhood.ns_run.empty_ratio"] = ratio(c["ns.empty"], steps)
    out["genetic.init_population.accept_ratio"] = ratio(c["init.accepted"], c["init.decodes"])
    out.update(lambda_shares(tracer))
    return out


def lambda_shares(tracer: Tracer) -> dict[str, float]:
    """Share of all charged schedules per owning operator; any other
    owner is pooled under OTHER."""
    total = sum(tracer.charges.values())
    other = total - sum(tracer.charges[o] for o in OPERATORS)
    out = {f"solver.lambda_share.{o}": ratio(tracer.charges[o], total) for o in OPERATORS}
    out[f"solver.lambda_share.{OTHER}"] = ratio(other, total)
    return out
