"""A look inside the solver's resource analysis.

Two preprocessing ideas drive the search operators:

1. The cumulative relaxation replaces the per-interval capacity limit
   with a prefix-sum limit.  Its optimal makespan is a lower bound on
   the true optimum, and the unused cumulative balance ("residue") per
   resource tells us which resources are scarce.
2. Dense genes are the sets of concurrently running activities whose
   weighted unused capacity falls below a threshold -- intervals where
   the schedule packs scarce resources well.  The crossovers try to
   preserve exactly these intervals.

This script generates a random project, prints the relaxation-based
resource ranking, then decodes a random activity list and lists the
dense genes of the resulting schedule.
"""

import random

from rcpsp_hybrid import rank_and_weigh, serial_sgs
from rcpsp_hybrid.genetic import dense_activities
from rcpsp_hybrid.model import random_feasible_list
from rcpsp_hybrid.random_instances import random_instance

rng = random.Random(11)
project = random_instance(rng, n_real=15, n_resources=3)

ranking = rank_and_weigh(project)
print(f"relaxed makespan : {ranking.relaxed_makespan}")
print(f"capacities       : {project.capacities}")
print(f"residues         : {ranking.residues}")
print(f"rank (scarce 1st): {tuple(k + 1 for k in ranking.rank)}")
print(f"weights          : {tuple(round(w, 3) for w in ranking.weights)}")
print()

schedule = serial_sgs(project, random_feasible_list(project, rng))
print(f"decoded makespan : {schedule.makespan}")
genes = dense_activities(project, schedule, threshold=0.75, weights=ranking.weights)
if not genes:
    print("no dense genes below the 0.75 threshold in this schedule")
for gene in genes:
    members = sorted(gene.activities)
    print(
        f"dense gene at t={gene.time:>3}: activities {members}, "
        f"weighted surplus {gene.weight:.3f}"
    )
