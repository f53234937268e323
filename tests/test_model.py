import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rcpsp_hybrid.model import (
    Activity,
    ProjectInstance,
    Schedule,
    critical_path_lower_bound,
    earliest_starts,
    is_feasible,
    latest_starts,
    random_feasible_list,
    validate_instance,
)
from rcpsp_hybrid.cli import main
from rcpsp_hybrid.psplib import PsplibError, parse_sm
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.sgs import serial_sgs
from rcpsp_hybrid.solver import SolverConfig, solve
from conftest import scaled_durations, small_instances
from oracles import (
    is_precedence_feasible_list,
    reachable,
    reference_is_feasible,
    reference_random_feasible_list,
)


def test_validate_ok(tiny2):
    assert validate_instance(tiny2) is None


def _instance(changes=None, arcs=None, caps=(2,)):
    """The arguments of ProjectInstance for two real activities in parallel
    on one resource of capacity 2, with the activities at the positions in
    `changes` replaced."""
    acts = [Activity(0, 0, (0,)), Activity(1, 2, (1,)), Activity(2, 3, (2,)), Activity(3, 0, (0,))]
    for pos, act in (changes or {}).items():
        acts[pos] = act
    if arcs is None:
        arcs = {(0, 1), (0, 2), (1, 3), (2, 3)}
    return acts, arcs, caps


def _sm_text(acts, arcs, caps):
    """The `.sm` file of these parts in write_sm's layout, which, unlike
    write_sm, needs no valid instance."""
    rule = "*" * 72
    lines = [f"jobs (incl. supersource/sink ):  {len(acts)}", rule]
    lines += ["PRECEDENCE RELATIONS:", "jobnr. #modes #successors successors"]
    for a in acts:
        succ = sorted(j + 1 for i, j in arcs if i == a.id)
        lines.append(" ".join(map(str, [a.id + 1, 1, len(succ), *succ])))
    lines += [rule, "REQUESTS/DURATIONS:", "jobnr. mode duration R 1", "-" * 72]
    lines += [" ".join(map(str, [a.id + 1, 1, a.duration, *a.demand])) for a in acts]
    lines += [rule, "RESOURCEAVAILABILITIES:", "  R 1", " ".join(map(str, caps)), rule]
    return "\n".join(lines) + "\n"


# (parts, problem text, whether a `.sm` file can hold the problem: parse_sm
# numbers activities by position)
INVALID = {
    "no-dummies": (
        ([Activity(0, 0, (0,))], set(), (2,)),
        "instance must contain at least the two dummy activities", True,
    ),
    "negative-capacity": (
        _instance(caps=(-1,)), "resource 0: negative capacity -1", True,
    ),
    "busy-dummy": (
        _instance({0: Activity(0, 1, (0,))}),
        "dummy activity 0 must have zero duration and demand", True,
    ),
    "id-not-position": (
        _instance({1: Activity(7, 2, (1,))}), "activity at position 1 has id 7", False,
    ),
    "demand-length": (
        _instance({1: Activity(1, 2, (1, 1))}),
        "activity 1: demand vector length != resource count", True,
    ),
    "negative-duration": (
        _instance({1: Activity(1, -2, (1,))}), "activity 1: negative duration", True,
    ),
    "negative-demand": (
        _instance({1: Activity(1, 2, (-1,))}),
        "activity 1: negative demand for resource 0", True,
    ),
    "demand-above-capacity": (
        _instance({2: Activity(2, 3, (3,))}),
        "activity 2: demand 3 exceeds capacity 2 of resource 0", True,
    ),
    "cycle": (
        _instance(arcs={(0, 1), (1, 2), (2, 1), (2, 3)}), "precedence graph contains a cycle", True,
    ),
    "no-path-from-source": (
        _instance(arcs={(0, 1), (1, 3), (2, 3)}),
        "activity 2 has no path from the dummy source", True,
    ),
    "no-path-to-sink": (
        _instance(arcs={(0, 1), (0, 2), (1, 3)}),
        "activity 2 has no path to the dummy sink", True,
    ),
}


@pytest.mark.parametrize("parts, text, in_file", INVALID.values(), ids=INVALID.keys())
def test_invalid_instance_is_refused_where_it_enters(tmp_path, capsys, parts, text, in_file):
    """Each problem `validate_instance` names: the constructor raises it as
    ValueError, parse_sm as PsplibError, and the CLI exits 1."""
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        ProjectInstance(*parts)
    if not in_file:
        return
    sm = _sm_text(*parts)
    with pytest.raises(PsplibError, match=f"^{re.escape(text)}$"):
        parse_sm(sm)
    path = tmp_path / "bad.sm"
    path.write_text(sm)
    assert main(["solve", str(path), "--lambda", "20"]) == 1
    assert capsys.readouterr().err == f"error: {text}\n"


def _cyclic():
    return ProjectInstance(
        [
            Activity(0, 0, (0,)),
            Activity(1, 1, (0,)),
            Activity(2, 1, (0,)),
            Activity(3, 0, (0,)),
        ],
        {(0, 1), (1, 2), (2, 1), (2, 3), (1, 3)},
        (1,),
    )


def test_validate_cycle():
    """A cycle that nothing reaches from the source is named as a cycle, not
    as a missing path."""
    acts = [Activity(j, 1 if 0 < j < 5 else 0, (0,)) for j in range(6)]
    arcs = {(0, 1), (1, 5), (2, 3), (3, 4), (4, 2), (4, 5)}
    with pytest.raises(ValueError, match="^precedence graph contains a cycle$"):
        ProjectInstance(acts, arcs, (1,))


@pytest.mark.parametrize(
    "call, want",
    [
        (earliest_starts, [0, 0, 1, 2]),
        (critical_path_lower_bound, 2),
        (lambda inst: latest_starts(inst, 10), [8, 8, 9, 10]),
        (lambda inst: random_feasible_list(inst, random.Random(0)), (0, 1, 2, 3)),
    ],
    ids=["earliest_starts", "critical_path", "latest_starts", "random_feasible_list"],
)
def test_cycle_raises_value_error(call, want):
    """A cycle raises ValueError where the instance is built, which `python
    -O` keeps, so these helpers walk `topo_order` with no check of their
    own; without the arc that closes the cycle they follow the chain."""
    with pytest.raises(ValueError, match="cycle"):
        _cyclic()
    chain = ProjectInstance(
        [Activity(0, 0, (0,)), Activity(1, 1, (0,)), Activity(2, 1, (0,)), Activity(3, 0, (0,))],
        {(0, 1), (1, 2), (2, 3), (1, 3)},
        (1,),
    )
    assert call(chain) == want


class _BrokenRng(random.Random):
    """Draws every integer one past its range."""

    def randint(self, a, b):
        return b + 1


def test_random_instance_rejects_what_it_generated_wrong():
    with pytest.raises(ValueError, match="activity 1: demand 12 exceeds capacity 11"):
        random_instance(_BrokenRng(0), 5, 2)


def test_validate_demand_exceeds_capacity():
    """A demand may use the whole capacity, and not one unit more."""
    assert validate_instance(ProjectInstance(*_instance())) is None
    with pytest.raises(ValueError, match="demand 3 exceeds capacity 2"):
        ProjectInstance(*_instance({2: Activity(2, 3, (3,))}))


def test_validate_negative_capacity():
    """A capacity of 0 that nothing demands is valid; one below 0 is not."""
    idle = {1: Activity(1, 2, (0,)), 2: Activity(2, 3, (0,))}
    assert validate_instance(ProjectInstance(*_instance(idle, caps=(0,)))) is None
    with pytest.raises(ValueError, match="^resource 0: negative capacity -1$"):
        ProjectInstance(*_instance(idle, caps=(-1,)))


def test_validate_disconnected():
    """An activity with no arc at all is named on its source side first."""
    with pytest.raises(ValueError, match="^activity 1 has no path from the dummy source$"):
        ProjectInstance(
            [Activity(0, 0, (0,)), Activity(1, 1, (0,)), Activity(2, 0, (0,))],
            {(0, 2)},
            (1,),
        )


def _random_acyclic_arcs(rng):
    """Activity count and arcs of a random acyclic graph: the arcs run
    forward in an order of the activities that puts each dummy first,
    last or anywhere, each a third of the time."""
    n2 = rng.randint(2, 9)
    order = list(range(1, n2 - 1))
    for dummy in (0, n2 - 1):
        order.insert(rng.choice([0, len(order), rng.randint(0, len(order))]), dummy)
    density = rng.uniform(0.2, 0.8)
    arcs = {(order[a], order[b]) for b in range(n2) for a in range(b) if rng.random() < density}
    return n2, arcs


def test_path_rule_agrees_with_a_search():
    """On random acyclic graphs, the instance refuses a missing path exactly
    when a search finds a non-dummy cut off from the source or the sink,
    and the activity it names lacks the path named.  The draws include
    graphs whose every non-dummy has a predecessor and a successor, but
    whose arcs enter the source or leave the sink."""
    rng = random.Random(32)
    seen = {"accepted": 0, "refused": 0, "refused with every degree": 0}
    for _ in range(5000):
        n2, arcs = _random_acyclic_arcs(rng)
        sink = n2 - 1
        acts = [Activity(j, int(0 < j < sink), (0,)) for j in range(n2)]
        from_source, to_sink = reachable(arcs, 0), reachable(arcs, sink, backward=True)
        cut = [j for j in range(1, sink) if j not in from_source or j not in to_sink]
        try:
            ProjectInstance(acts, arcs, (1,))
        except ValueError as exc:
            m = re.fullmatch(r"activity (\d+) has no path (from the dummy source|to the dummy sink)", str(exc))
            assert m, str(exc)
            assert int(m[1]) in cut  # a non-dummy
            assert int(m[1]) not in (from_source if m[2].startswith("from") else to_sink)
            seen["refused"] += 1
            heads, tails = {j for _, j in arcs}, {i for i, _ in arcs}
            if all(j in heads and j in tails for j in range(1, sink)):
                seen["refused with every degree"] += 1
        else:
            assert cut == [], arcs
            seen["accepted"] += 1
    assert min(seen.values()) > 100, seen


@pytest.mark.parametrize("arc", [(1, 7), (-1, 1)], ids=["beyond-sink", "negative"])
def test_arc_to_unknown_activity_rejected(arc):
    with pytest.raises(ValueError, match="unknown activity"):
        ProjectInstance(
            [Activity(0, 0, (0,)), Activity(1, 1, (1,)), Activity(2, 0, (0,))],
            {(0, 1), (1, 2), arc},
            (2,),
        )


def test_pickled_instance_equals_the_original():
    """An instance is plain data: after a solve, a pickled copy has every
    attribute equal to the original's, so no per-solve state rides on it."""
    inst = random_instance(random.Random(3), 12, 2)
    solve(inst, SolverConfig(lambda_budget=200, population_capacity=6, seed=1))
    copy = pickle.loads(pickle.dumps(inst))
    assert vars(copy) == vars(inst)


def test_is_feasible_tiny1(tiny1):
    assert is_feasible(tiny1, Schedule((0, 0, 2, 5), 5))
    # both running in [0,1): 2 + 3 = 5 > 4
    assert not is_feasible(tiny1, Schedule((0, 0, 0, 3), 3))


def test_is_feasible_tiny2(tiny2):
    assert is_feasible(tiny2, Schedule((0, 0, 2, 5, 9), 9))


def test_is_feasible_rejects_precedence_violation(tiny2):
    assert not is_feasible(tiny2, Schedule((0, 0, 1, 5, 9), 9))


@settings(max_examples=300, deadline=None)
@given(
    small_instances(),
    st.integers(0, 2**32),
    st.lists(st.tuples(st.integers(0, 9), st.integers(-3, 3)), max_size=4),
    st.sampled_from([0, 0, 0, -1, 1]),
)
def test_is_feasible_agrees_with_the_slot_check(case, seed, shifts, makespan_shift):
    """The event sweep judges a schedule as the slot-by-slot check does: a
    serial schedule with a few starts moved, which may break a capacity,
    an arc or the source's start, and a makespan that may miss the latest
    finish."""
    inst, _ = case
    starts = list(serial_sgs(inst, random_feasible_list(inst, random.Random(seed))).starts)
    for j, delta in shifts:
        starts[j % len(inst)] += delta
    makespan = max(s + p for s, p in zip(starts, inst.durations)) + makespan_shift
    sched = Schedule(tuple(starts), makespan)
    assert is_feasible(inst, sched) == reference_is_feasible(inst, sched)


def test_is_feasible_cost_does_not_grow_with_the_durations():
    """Every duration and start ×10⁹: the schedule stays feasible, and the
    sweep judges it from its events, not from 10⁹ slots per activity."""
    inst = random_instance(random.Random(3), 20, 3)
    sched = serial_sgs(inst, random_feasible_list(inst, random.Random(4)))
    factor = 10**9
    scaled = Schedule(tuple(s * factor for s in sched.starts), sched.makespan * factor)
    assert is_feasible(scaled_durations(inst, factor), scaled)


def test_critical_path(tiny1, tiny2):
    assert critical_path_lower_bound(tiny2) == 9
    assert critical_path_lower_bound(tiny1) == 3


@settings(max_examples=200, deadline=None)
@given(small_instances(), st.integers(0, 6))
def test_cpm_starts_meet_their_definitions(case, slack):
    """Earliest starts: 0 without predecessors, else the latest predecessor
    finish.  Latest starts: the deadline without successors, else the
    earliest successor start, less the duration."""
    inst, _ = case
    durs = inst.durations
    est = earliest_starts(inst)
    for j in range(len(inst)):
        assert est[j] == max((est[i] + durs[i] for i in inst.preds[j]), default=0)
    deadline = est[inst.sink] + slack
    lst = latest_starts(inst, deadline)
    for j in range(len(inst)):
        assert lst[j] == min((lst[s] for s in inst.succs[j]), default=deadline) - durs[j]
    assert lst[0] == slack


def test_critical_path_dummy_only():
    inst = ProjectInstance(
        [Activity(0, 0, (0,)), Activity(1, 0, (0,))], {(0, 1)}, (1,)
    )
    assert critical_path_lower_bound(inst) == 0


def test_random_feasible_list_chain(tiny2):
    rng = random.Random(0)
    for _ in range(10):
        assert random_feasible_list(tiny2, rng) == (0, 1, 2, 3, 4)


def test_random_feasible_list_tiny1_both_orders_observed(tiny1):
    rng = random.Random(0)
    seen = {random_feasible_list(tiny1, rng) for _ in range(1000)}
    assert seen == {(0, 1, 2, 3), (0, 2, 1, 3)}


def test_random_feasible_list_always_valid():
    rng = random.Random(42)
    for _ in range(200):
        inst = random_instance(rng, rng.randint(1, 30), rng.randint(1, 4))
        lst = random_feasible_list(inst, rng)
        assert is_precedence_feasible_list(inst, lst)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 60),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.05, 0.2, 0.5]),
    st.integers(0, 2**64),
)
def test_random_feasible_list_draws_as_randrange(inst_seed, n, k, edges, seed):
    """Drawing each pick by rejection on getrandbits gives the lists and
    the rng state of `rng.randrange`, list after list, also when the ready
    set is one activity or just past a power of two, where a draw is
    rejected nearly half the time."""
    inst = random_instance(random.Random(inst_seed), n, k, edge_probability=edges)
    got, want = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert random_feasible_list(inst, got) == reference_random_feasible_list(inst, want)
        assert got.getstate() == want.getstate()


def test_cp_bound_below_any_feasible_makespan():
    rng = random.Random(7)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(1, 25), rng.randint(1, 3))
        cp = critical_path_lower_bound(inst)
        sched = serial_sgs(inst, random_feasible_list(inst, rng))
        assert cp <= sched.makespan
