"""Benchmark harness walkthrough on a synthetic dataset.

Writes a handful of randomly generated projects to a temporary directory
in the standard single-mode `.sm` format, runs the benchmark harness
with a fixed seed, writes the makespan file from the report it returns,
and prints the summary table.  Re-running produces a byte-identical
makespan file: per-instance seeds derive from the base seed and the
instance's position in lexicographic order, so results do not depend on
worker scheduling.
"""

import random
import tempfile
from pathlib import Path

from rcpsp_hybrid import SolverConfig
from rcpsp_hybrid.bench import format_table, run_benchmark, write_makespans
from rcpsp_hybrid.psplib import write_sm
from rcpsp_hybrid.random_instances import random_instance

rng = random.Random(5)

with tempfile.TemporaryDirectory() as tmp:
    dataset = Path(tmp) / "dataset"
    dataset.mkdir()
    for idx in range(6):
        project = random_instance(rng, n_real=rng.randint(10, 30), n_resources=4)
        (dataset / f"synth{idx:02d}.sm").write_text(write_sm(project))

    config = SolverConfig(lambda_budget=1000, population_capacity=20, seed=42)
    makespans = Path(tmp) / "makespans.txt"
    report = run_benchmark(str(dataset), config, threads=2)
    write_makespans(report, str(makespans))

    print(format_table(report))
    print()
    print("makespan file contents:")
    print(makespans.read_text(), end="")
