import os
import sys

import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from rcpsp_hybrid import profile
from rcpsp_hybrid.model import Activity, ProjectInstance, Schedule


def schedule_from_starts(inst, starts):
    """The schedule of a start vector, its makespan the latest finish."""
    return Schedule(tuple(starts), max(s + p for s, p in zip(starts, inst.durations)))


def with_zero_durations(inst, rng, share=0.25):
    """A copy of `inst` in which about `share` of the real activities take
    no time."""
    acts = [
        Activity(a.id, 0 if 0 < a.id < inst.sink and rng.random() < share else a.duration, a.demand)
        for a in inst.activities
    ]
    return ProjectInstance(acts, inst.arcs, inst.capacities, name=inst.name)


def scaled_durations(inst, factor):
    """A copy of `inst` with every duration multiplied by `factor`."""
    acts = [Activity(a.id, a.duration * factor, a.demand) for a in inst.activities]
    return ProjectInstance(acts, inst.arcs, inst.capacities, name=inst.name)


@st.composite
def small_instances(draw):
    """Up to 8 real activities on 1 to 3 resources, with zero durations,
    zero demands and zero capacities, and any order of the activities:
    the parallel decoder ranks only the eligible ones by it."""
    n = draw(st.integers(0, 8))
    caps = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 7, 8]), min_size=1, max_size=3))
    sink = n + 1
    acts = [Activity(0, 0, (0,) * len(caps))]
    for j in range(1, sink):
        demand = tuple(draw(st.one_of(st.just(0), st.just(c), st.integers(0, c))) for c in caps)
        acts.append(Activity(j, draw(st.sampled_from([0, 0, 1, 2, 3, 5])), demand))
    acts.append(Activity(sink, 0, (0,) * len(caps)))
    pairs = [(i, j) for i in range(1, sink) for j in range(i + 1, sink)]
    arcs = set(draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else [])
    arcs |= {(0, j) for j in range(1, sink) if all(b != j for _, b in arcs)}
    arcs |= {(i, sink) for i in range(1, sink) if all(a != i for a, _ in arcs)}
    if not n:
        arcs = {(0, sink)}
    inst = ProjectInstance(acts, arcs, caps)
    return inst, draw(st.permutations(range(len(inst))))


def packed_knapsack(remaining, demands):
    """A knapsack's capacities and item demands, one list entry per
    resource, in the packed layout grasp_knapsack takes: (remaining,
    demands, guard)."""
    largest = max((d for dem in demands for d in dem), default=0)
    bits, guard = profile.layout(remaining, largest)
    return (
        guard + profile.pack(remaining, bits),
        [profile.pack(dem, bits) for dem in demands],
        guard,
    )


@pytest.fixture
def tiny1():
    """Two parallel activities competing for one resource of capacity 4."""
    return ProjectInstance(
        [
            Activity(0, 0, (0,)),
            Activity(1, 2, (2,)),
            Activity(2, 3, (3,)),
            Activity(3, 0, (0,)),
        ],
        {(0, 1), (0, 2), (1, 3), (2, 3)},
        (4,),
        name="tiny1",
    )


@pytest.fixture
def no_resources():
    """Two parallel activities and no resource; makespan 3."""
    return ProjectInstance(
        [Activity(0, 0, ()), Activity(1, 2, ()), Activity(2, 3, ()), Activity(3, 0, ())],
        {(0, 1), (0, 2), (1, 3), (2, 3)},
        (),
    )


@pytest.fixture
def tiny2():
    """Chain of three activities with zero demands; makespan 9 forced."""
    return ProjectInstance(
        [
            Activity(0, 0, (0,)),
            Activity(1, 2, (0,)),
            Activity(2, 3, (0,)),
            Activity(3, 4, (0,)),
            Activity(4, 0, (0,)),
        ],
        {(0, 1), (1, 2), (2, 3), (3, 4)},
        (1,),
        name="tiny2",
    )


FIXTURE_A = """\
************************************************************************
file with basedata            : fixture-a.bas
initial value random generator: 1
************************************************************************
projects                      :  1
jobs (incl. supersource/sink ):  4
horizon                       :  5
RESOURCES
  - renewable                 :  1   R
  - nonrenewable              :  0   N
  - doubly constrained        :  0   D
************************************************************************
PRECEDENCE RELATIONS:
jobnr.    #modes  #successors   successors
   1        1          2           2   3
   2        1          1           4
   3        1          1           4
   4        1          0
************************************************************************
REQUESTS/DURATIONS:
jobnr. mode duration  R 1
------------------------------------------------------------------------
  1      1     0       0
  2      1     2       2
  3      1     3       3
  4      1     0       0
************************************************************************
RESOURCEAVAILABILITIES:
  R 1
   4
************************************************************************
"""


@pytest.fixture
def fixture_a_text():
    return FIXTURE_A
