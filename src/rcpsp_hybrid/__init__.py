"""Hybrid GA + neighborhood-search solver for the resource-constrained
project scheduling problem, with a PSPLIB benchmark harness."""

from .model import (
    Activity,
    ProjectInstance,
    Schedule,
    critical_path_lower_bound,
    is_feasible,
    random_feasible_list,
    validate_instance,
)
from .psplib import load_dataset, parse_sm, write_sm
from .sgs import fbi, left_shift, parallel_sgs, schedule_to_list, serial_sgs
from .ranking import (
    RankingResult,
    assign_weights,
    rank_and_weigh,
    rank_resources,
    solve_cumulative_relaxation,
)
from .genetic import (
    DenseGene,
    Individual,
    Population,
    crossover_a,
    crossover_b,
    dense_activities,
    init_population,
    mutate,
    next_generation,
    select_parents,
)
from .neighborhood import (
    Block,
    create_block,
    compute_windows,
    grasp_knapsack,
    neighborhood_a_move,
    neighborhood_b_move,
    ns_run,
    tabu_status,
)
from .solver import Budget, RunStats, SolverConfig, solve
from .bench import BenchReport, compare_bounds, run_benchmark, write_makespans
from .random_instances import random_instance

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
