import random
import tracemalloc

import pytest

from rcpsp_hybrid.model import (
    Activity,
    ProjectInstance,
    critical_path_lower_bound,
    latest_starts,
    random_feasible_list,
)
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.ranking import (
    WeightConfigError,
    assign_weights,
    rank_and_weigh,
    rank_resources,
    solve_cumulative_relaxation,
)
from rcpsp_hybrid.sgs import serial_sgs
from conftest import scaled_durations, with_zero_durations
from oracles import (
    brute_force_optimum,
    brute_force_relaxation_optimum,
    least_prefix_feasible_makespan,
)


def test_relaxation_inactive_on_zero_demands(tiny2):
    sched, residues = solve_cumulative_relaxation(tiny2)
    assert sched.makespan == 9
    assert residues == (9 * 1,)


def test_relaxation_stops_on_a_demanded_zero_capacity():
    """validate_instance rejects a demand above a capacity of 0; called
    directly, the relaxation raises instead of dividing by it."""
    inst = ProjectInstance(
        [Activity(0, 0, (0, 0)), Activity(1, 2, (1, 1)), Activity(2, 0, (0, 0))],
        {(0, 1), (1, 2)},
        (1, 0),
    )
    with pytest.raises(ValueError, match="resource 1"):
        solve_cumulative_relaxation(inst)


def test_relaxation_tiny1(tiny1):
    # conservation forces T >= ceil(13/4) = 4; brute force confirms 4
    assert brute_force_relaxation_optimum(tiny1) == 4
    sched, residues = solve_cumulative_relaxation(tiny1)
    assert sched.makespan == 4
    assert residues == (4 * 4 - (2 * 2 + 3 * 3),)


def test_relaxation_matches_brute_force():
    rng = random.Random(13)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 2), max_duration=3)
        sched, _ = solve_cumulative_relaxation(inst)
        assert sched.makespan == brute_force_relaxation_optimum(inst)


def test_relaxation_matches_a_scan_of_every_trial_makespan():
    rng = random.Random(19)
    zero = random.Random(23)
    for _ in range(300):
        inst = random_instance(
            rng,
            rng.randint(1, 25),
            rng.randint(1, 4),
            max_duration=rng.randint(1, 20),
            edge_probability=rng.uniform(0.05, 0.6),
        )
        for case in (inst, with_zero_durations(inst, zero, share=zero.random())):
            sched, _ = solve_cumulative_relaxation(case)
            T = least_prefix_feasible_makespan(case)
            assert sched.makespan == T
            assert list(sched.starts[1:]) == latest_starts(case, T)[1:]
            assert sched.starts[0] == 0


def test_relaxation_memory_does_not_grow_with_the_time_unit():
    """The sweep touches start and finish events only, so durations a
    thousand times longer cost no more memory."""
    inst = scaled_durations(random_instance(random.Random(5), 10, 2), 1000)
    tracemalloc.start()
    try:
        sched, residues = solve_cumulative_relaxation(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sched.makespan == 27_000
    assert residues == (35_000, 96_000)
    assert peak < 64_000


def test_relaxation_bounds():
    rng = random.Random(17)
    for _ in range(50):
        inst = random_instance(rng, rng.randint(1, 20), rng.randint(1, 4))
        sched, residues = solve_cumulative_relaxation(inst)
        assert sched.makespan >= critical_path_lower_bound(inst)
        assert all(r >= 0 for r in residues)
        # conservation: residue is exactly T*R_k minus the committed work
        for k in range(inst.n_resources):
            work = sum(
                inst.demands[j][k] * inst.durations[j]
                for j in range(1, inst.sink)
            )
            assert residues[k] == sched.makespan * inst.capacities[k] - work
        # lower-bounds reality: below any serial decode
        lst = random_feasible_list(inst, rng)
        assert sched.makespan <= serial_sgs(inst, lst).makespan


def test_relaxation_below_optimum_tiny():
    rng = random.Random(29)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(1, 6), 2, max_duration=4)
        sched, _ = solve_cumulative_relaxation(inst)
        assert sched.makespan <= brute_force_optimum(inst)


def test_rank_by_relative_residue():
    # fractions 0.1 vs 0.6 with T=10, caps (10, 10)
    assert rank_resources((10, 60), (10, 10), 10) == (0, 1)
    assert rank_resources((60, 10), (10, 10), 10) == (1, 0)


def test_rank_ties_by_index():
    assert rank_resources((5, 5), (10, 10), 10) == (0, 1)


def test_rank_single_resource():
    assert rank_resources((3,), (4,), 5) == (0,)


def test_rank_scale_invariant():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 4)
        caps = [rng.randint(1, 9) for _ in range(n)]
        residues = [rng.randint(0, 50) for _ in range(n)]
        base = rank_resources(residues, caps, 7)
        scaled = rank_resources([r * 3 for r in residues], caps, 21)
        assert base == scaled


def test_ratio_weights():
    # residues already in rank order: (10, 20, 30, 40)
    rank = (0, 1, 2, 3)
    w = assign_weights(rank, (10, 20, 30, 40), mode="ratio")
    assert w == (1.75, 1.5, 1.25, 1.0)


def test_uniform_weights():
    assert assign_weights((0, 1, 2, 3), (1, 2, 3, 4), mode="uniform") == (1.0,) * 4


def test_fixed_vector_prefix_truncated():
    w = assign_weights((0, 1, 2), (1, 2, 3), mode="steep")
    assert w == (1.0, 0.8, 0.6)


def test_fixed_vector_rejects_many_resources():
    with pytest.raises(WeightConfigError):
        assign_weights((0, 1, 2, 3, 4), (1, 2, 3, 4, 5), mode="steep")


def test_assign_weights_draws_nothing():
    # the random option is drawn once, by rank_and_weigh
    with pytest.raises(ValueError, match="unknown weight mode"):
        assign_weights((0, 1), (1, 2), mode="random")


def test_weights_follow_rank_not_index():
    # resource 1 is the scarce one
    w = assign_weights((1, 0), (9, 1), mode="steep")
    assert w == (0.8, 1.0)


def test_weights_positive_and_fixed_modes_nonincreasing():
    rng = random.Random(37)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 15), rng.randint(1, 4))
        result = rank_and_weigh(inst, mode="random", rng=rng)
        assert all(w > 0 for w in result.weights)
        if result.mode != "ratio":
            # ratio weights follow raw residues, which need not be
            # monotone along the capacity-relative rank
            along = [result.weights[k] for k in result.rank]
            assert all(a >= b for a, b in zip(along, along[1:]))


def test_random_mode_reports_the_drawn_option():
    # with one resource every option gives the weight (1.0,), so only the
    # draw itself can tell which option was used
    inst = random_instance(random.Random(3), 8, 1)
    modes = []
    for seed in range(6):
        result = rank_and_weigh(inst, mode="random", rng=random.Random(seed))
        assert result.weights == (1.0,)
        modes.append(result.mode)
    assert modes == ["ratio", "shallow", "steep", "shallow", "shallow", "uniform"]


def test_rank_and_weigh_draws_like_assign_weights():
    # one draw from the same stream: the mode, weights and rng state stay
    # as they were when assign_weights drew the mode itself
    rng = random.Random(41)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 12), rng.randint(1, 6))
        seed = rng.randrange(1000)
        a, b = random.Random(seed), random.Random(seed)
        result = rank_and_weigh(inst, mode="random", rng=a)
        eligible = ["steep", "shallow", "uniform", "ratio"]
        if inst.n_resources > 4:
            eligible = ["uniform", "ratio"]
        assert result.mode == eligible[b.randrange(len(eligible))]
        assert a.getstate() == b.getstate()
        assert result.weights == assign_weights(
            result.rank, result.residues, mode=result.mode
        )
