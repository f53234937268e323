import random

import pytest

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
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.sgs import serial_sgs
from oracles import is_precedence_feasible_list


def test_validate_ok(tiny2):
    assert validate_instance(tiny2) is None


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
    assert "cycle" in validate_instance(_cyclic())


@pytest.mark.parametrize(
    "call",
    [
        earliest_starts,
        critical_path_lower_bound,
        lambda inst: latest_starts(inst, 10),
        lambda inst: random_feasible_list(inst, random.Random(0)),
    ],
    ids=["earliest_starts", "critical_path", "latest_starts", "random_feasible_list"],
)
def test_cycle_raises_value_error(call):
    """validate_instance rejects a cyclic instance; these helpers, called on
    one directly, raise ValueError, which `python -O` keeps."""
    with pytest.raises(ValueError, match="cycle"):
        call(_cyclic())


class _BrokenRng(random.Random):
    """Draws every integer one past its range."""

    def randint(self, a, b):
        return b + 1


def test_random_instance_rejects_what_it_generated_wrong():
    with pytest.raises(ValueError, match="generated an invalid instance"):
        random_instance(_BrokenRng(0), 5, 2)


def test_validate_demand_exceeds_capacity():
    inst = ProjectInstance(
        [Activity(0, 0, (0,)), Activity(1, 1, (5,)), Activity(2, 0, (0,))],
        {(0, 1), (1, 2)},
        (4,),
    )
    assert "exceeds capacity" in validate_instance(inst)


def test_validate_negative_capacity():
    inst = ProjectInstance(
        [Activity(0, 0, (0,)), Activity(1, 1, (0,)), Activity(2, 0, (0,))],
        {(0, 1), (1, 2)},
        (-1,),
    )
    assert validate_instance(inst) == "resource 0: negative capacity -1"


def test_validate_disconnected():
    inst = ProjectInstance(
        [Activity(0, 0, (0,)), Activity(1, 1, (0,)), Activity(2, 0, (0,))],
        {(0, 2)},
        (1,),
    )
    assert "path" in validate_instance(inst)


@pytest.mark.parametrize("arc", [(1, 7), (-1, 1)], ids=["beyond-sink", "negative"])
def test_arc_to_unknown_activity_rejected(arc):
    with pytest.raises(ValueError, match="unknown activity"):
        ProjectInstance(
            [Activity(0, 0, (0,)), Activity(1, 1, (1,)), Activity(2, 0, (0,))],
            {(0, 1), (1, 2), arc},
            (2,),
        )


def test_is_feasible_tiny1(tiny1):
    assert is_feasible(tiny1, Schedule((0, 0, 2, 5), 5))
    # both running in [0,1): 2 + 3 = 5 > 4
    assert not is_feasible(tiny1, Schedule((0, 0, 0, 3), 3))


def test_is_feasible_tiny2(tiny2):
    assert is_feasible(tiny2, Schedule((0, 0, 2, 5, 9), 9))


def test_is_feasible_rejects_precedence_violation(tiny2):
    assert not is_feasible(tiny2, Schedule((0, 0, 1, 5, 9), 9))


def test_critical_path(tiny1, tiny2):
    assert critical_path_lower_bound(tiny2) == 9
    assert critical_path_lower_bound(tiny1) == 3


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


def test_cp_bound_below_any_feasible_makespan():
    rng = random.Random(7)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(1, 25), rng.randint(1, 3))
        cp = critical_path_lower_bound(inst)
        sched = serial_sgs(inst, random_feasible_list(inst, rng))
        assert cp <= sched.makespan
