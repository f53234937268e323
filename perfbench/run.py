"""Benchmark of the rcpsp_hybrid solver.

Runs one seeded workload through the library's public API (`solve`,
`run_benchmark`), checks every schedule it returns, and prints the
end-to-end metrics, or with `--trace 1` the per-layer metrics of a traced
single-process run.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; a fuller
record (environment, instance parameters, schedule digest) is printed
above it and written under `.perfbench/results/`.

    python3 perfbench/run.py --workload scarce120 --seed 1 --seconds 30 --trace 0

Run it from the repository root; the library is imported from `src/`.
Workloads, their rationale and the metrics are listed in BENCHMARK.json and
perfbench/README.md.  The exit code is 0 only when every solve succeeded,
every check passed and every pass produced the same schedules.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed  # stdlib only; lives beside this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 7
SOLVER_SEED = 0  # the solver's own seed: the workload seed only makes instances
TAIL_BEYOND = 10  # samples a tail percentile must leave above it


def _import_library():
    """Import the library from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "rcpsp_hybrid" / "__init__.py").is_file():
        raise ImportError(f"library source not found under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import rcpsp_hybrid

    if SRC not in Path(rcpsp_hybrid.__file__).resolve().parents:
        raise ImportError(f"rcpsp_hybrid imported from {rcpsp_hybrid.__file__}, not {SRC}")
    return rcpsp_hybrid


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    lam: int  # schedule budget per solve
    threads: int  # run_benchmark workers; 0 = one direct `solve` per instance
    grid: tuple = ()  # ProGen (nc, rf, rs) cells, cycled over the instances
    n: int = 0  # real activities per ProGen instance
    count: int = 0  # ProGen instances


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scarce120", lam=8000, threads=0),
        Workload(
            "progen-j120",
            lam=4000,
            threads=1,
            n=120,
            count=8,
            grid=((2.1, 0.75, 0.3), (2.1, 1.0, 0.35)),
        ),
        Workload(
            "progen-j30-pool",
            lam=1000,
            threads=2,
            n=30,
            count=60,
            grid=tuple(
                (nc, rf, rs)
                for nc in (1.5, 1.8, 2.1)
                for rf, rs in ((0.5, 0.2), (1.0, 0.2), (0.5, 0.5), (1.0, 0.5))
            ),
        ),
    )
}

SCARCE_SOURCE = "random_instance(Random(1010), 120, 4, edge_probability=0.1)"


def make_instances(rh, w: Workload, seed: int) -> list[tuple[object, dict]]:
    """The workload's instances and a record of each one's parameters.
    scarce120 is the fixed acceptance criterion-10 instance; the ProGen
    workloads draw their instances from the workload seed."""
    if w.name == "scarce120":
        inst = rh.random_instance(random.Random(1010), 120, 4, edge_probability=0.1)
        return [(inst, {"name": w.name, "source": SCARCE_SOURCE})]
    from progen import ProgenParams, stratified

    rng = random.Random(f"{w.name}:{seed}")
    out = []
    for nc, rf, rs in w.grid:
        out += stratified(rng, ProgenParams(n=w.n, nc=nc, rf=rf, rs=rs), w.count // len(w.grid))
    for i, (inst, rec) in enumerate(out):
        inst.name = rec["name"] = f"{w.name}_{i:03d}"
    return out


# ----------------------------------------------------------------- capture


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cpu_s() -> float:
    """CPU seconds of this process and of its children that have ended."""
    own, kids = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Capture:
    """Collects every solve's schedule and statistics as one JSON file per
    instance.  `installed()` rebinds the solve that `run_benchmark` calls,
    which forked pool workers inherit.  An exception in one solve is
    recorded and a placeholder result returned, so the other instances of
    the run still go ahead."""

    def __init__(self, rh, out_dir: Path):
        self.rh = rh
        self.out_dir = out_dir
        # peak RSS at this process's first solve; a forked worker starts
        # with None, so it records where its own solves started from
        self.entry_rss_kb = None

    def solve(self, inst, config):
        rh = self.rh
        if self.entry_rss_kb is None:
            self.entry_rss_kb = _maxrss_kb()
        rec = {"name": inst.name, "pid": os.getpid(), "ok": False,
               "entry_rss_kb": self.entry_rss_kb}
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            # looked up at call time, so a traced run reaches the wrapper
            with hostspeed.SpeedProbe() as probe:
                sched, stats = rh.solver.solve(inst, config)
        except Exception:
            rec["error"] = traceback.format_exc(limit=4)
            sched, stats = rh.Schedule((), 0), rh.RunStats()
        else:
            rec.update(
                ok=True,
                makespan=sched.makespan,
                starts=list(sched.starts),
                cp_bound=stats.cp_bound,
                relaxed_makespan=stats.relaxed_makespan,
                schedules=stats.schedules_generated,
                regime=stats.subset,
                generations=stats.generations,
                ns_bursts=stats.ns_bursts,
            )
        rec["seconds"] = time.perf_counter() - t0
        # this thread only: the probe's units are not part of the solve
        rec["cpu_s"] = time.thread_time() - c0
        rec["ref_units"], rec["ref_cpu_s"] = probe.units, probe.cpu
        rec["maxrss_kb"] = _maxrss_kb()
        (self.out_dir / f"{inst.name}.json").write_text(json.dumps(rec))
        return sched, stats

    @contextmanager
    def installed(self):
        bench = self.rh.bench
        orig = bench.solve
        bench.solve = self.solve
        try:
            yield self
        finally:
            bench.solve = orig


# ------------------------------------------------------------------ rounds


@dataclass
class Round:
    wall: float
    cpu: float  # CPU seconds of this process and its pool workers, probes included
    threads: int
    rows: list[dict]  # capture records, sorted by instance name
    problems: list[str] = field(default_factory=list)
    failed: set = field(default_factory=set)  # names of failed instances

    @property
    def schedules(self) -> int:
        return sum(r.get("schedules", 0) for r in self.rows)

    @property
    def digest(self) -> str:
        return schedule_digest(self.rows)


def schedule_digest(rows: list[dict]) -> str:
    """Hash of instance names, makespans and start vectors."""
    h = hashlib.sha256()
    for r in sorted(rows, key=lambda r: r["name"]):
        if r.get("ok"):
            h.update(f"{r['name']} {r['makespan']} {r['starts']}\n".encode())
        else:
            h.update(f"{r['name']} failed\n".encode())
    return h.hexdigest()[:16]


def run_round(rh, w: Workload, data_dir: Path, cap_dir: Path, instances: dict,
              threads: int, tracer=None) -> Round:
    from layertrace import traced

    for old in cap_dir.glob("*.json"):
        old.unlink()
    config = rh.SolverConfig(lambda_budget=w.lam, seed=SOLVER_SEED)
    capture = Capture(rh, cap_dir)
    problems, report = [], None
    with (traced(tracer) if tracer is not None else nullcontext()), capture.installed():
        t0, c0 = time.perf_counter(), _cpu_s()
        try:
            if w.threads:
                report = rh.run_benchmark(str(data_dir), config, threads=threads)
            else:
                for inst in instances.values():
                    capture.solve(inst, config)
        except Exception:
            problems.append("run raised: " + traceback.format_exc(limit=4))
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - c0  # the pool's workers have been joined by now
    rows = sorted((json.loads(p.read_text()) for p in cap_dir.glob("*.json")),
                  key=lambda r: r["name"])
    rnd = Round(wall, cpu, threads, rows, problems)
    check_round(rh, rnd, instances, w.lam, report)
    return rnd


def check_round(rh, rnd: Round, instances: dict, lam: int, report) -> None:
    """Every instance has a result, every schedule is feasible, no makespan
    beats the lower bounds, every solve spent at least its budget, and the
    harness reports the same makespans as the solves returned."""
    by_name = {r["name"]: r for r in rnd.rows}
    reported = {row.name: row.makespan for row in report.rows} if report else {}

    def fail(name: str, why: str) -> None:
        rnd.failed.add(name)
        rnd.problems.append(f"{name}: {why}")

    for name, inst in instances.items():
        r = by_name.get(name)
        if r is None:
            fail(name, "no result")
            continue
        if not r["ok"]:
            fail(name, "solve raised: " + r["error"].strip().splitlines()[-1])
            continue
        sched = rh.Schedule(tuple(r["starts"]), r["makespan"])
        if not rh.is_feasible(inst, sched):
            fail(name, "infeasible schedule")
        if r["makespan"] < max(r["cp_bound"], r["relaxed_makespan"]):
            fail(name, f"makespan {r['makespan']} below a lower bound")
        if r["schedules"] < lam:
            fail(name, f"{r['schedules']} schedules generated, budget {lam}")
        if report is not None and reported.get(name) != r["makespan"]:
            fail(name, f"harness reports makespan {reported.get(name)}")


# ----------------------------------------------------------------- metrics


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples
    beyond it; 100 (the maximum) when there are too few samples."""
    if n <= TAIL_BEYOND:
        return 100
    return math.floor(100 * (1 - TAIL_BEYOND / n))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    idx = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[idx]


def peak_rss_mb(rounds: list[Round]) -> float:
    """This process's peak RSS plus what one round's pool workers grew by
    while solving, for the round where that growth adds up to the most.
    A forked worker's RSS already holds the pages it shares with this
    process, so only its growth over its first solve's entry is added."""
    pools = []
    for rnd in rounds:
        growth: dict[int, int] = {}
        for r in rnd.rows:
            if r["pid"] != os.getpid():
                grown = r["maxrss_kb"] - r["entry_rss_kb"]
                growth[r["pid"]] = max(growth.get(r["pid"], 0), grown)
        pools.append(sum(growth.values()))
    return (_maxrss_kb() + max(pools)) / 1024


def end_to_end(rounds: list[Round], setup_s: float, n_instances: int) -> tuple[dict, dict]:
    """End-to-end metrics as (value, unit), and the figures printed beside
    them.  Times are CPU seconds scaled by the host speed the run's
    probes saw (see hostspeed.py): on a shared host the wall and CPU time
    of the same work move with the other tenants' load.  The wall-time
    figures are recorded but not metrics.  The tail is recorded but not a
    metric either: below 11 solves a round it is the maximum, which swings
    with the instances drawn.  Failed solves are left out; a run with any
    exits non-zero anyway."""
    from layertrace import ratio

    ok_rows = [r for r in rounds[0].rows if r.get("ok")] or [_EMPTY_ROW]
    rows = [r for rnd in rounds for r in rnd.rows]
    solves = [r for r in rows if r.get("ok")] or [_EMPTY_ROW]
    speed = hostspeed.factor(sum(r["ref_units"] for r in rows), sum(r["ref_cpu_s"] for r in rows))
    cpu = [speed * r["cpu_s"] for r in solves]
    # the round's CPU less its probes' share
    round_cpu = speed * (sum(rnd.cpu for rnd in rounds) - sum(r["ref_cpu_s"] for r in rows))
    schedules = sum(rnd.schedules for rnd in rounds)
    wall = sum(rnd.wall for rnd in rounds)
    pct = tail_percentile(n_instances)
    return {
        "schedules_per_s": (ratio(schedules, sum(cpu)), "1/s"),
        "instances_per_s": (ratio(len(rows), round_cpu), "1/s"),
        "solve_s_p50": (statistics.median(cpu), "s"),
        "apd_cp_pct": (statistics.fmean(
            100 * (r["makespan"] - r["cp_bound"]) / max(r["cp_bound"], 1) for r in ok_rows), "%"),
        "dev_relax_pct": (statistics.fmean(
            100 * (r["makespan"] - r["relaxed_makespan"]) / max(r["relaxed_makespan"], 1)
            for r in ok_rows), "%"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(rounds), "MB"),
    }, {
        "host_speed": speed,
        "schedules_per_wall_s": ratio(schedules, wall),
        "instances_per_wall_s": ratio(len(rows), wall),
        "solve_wall_s_p50": statistics.median(r["seconds"] for r in solves),
        "solve_s_tail": percentile(cpu, pct),
        "tail_percentile": pct,
        "tail_samples": len(cpu),
    }


_EMPTY_ROW = {"makespan": 0, "cp_bound": 0, "relaxed_makespan": 0, "seconds": 0.0, "cpu_s": 0.0}


def pool_busy_frac(rnd: Round) -> float:
    """Summed solve seconds over (workers x wall)."""
    return sum(r["seconds"] for r in rnd.rows) / (max(rnd.threads, 1) * rnd.wall)


def measure_setup(data_dir: Path) -> tuple[float, list[float]]:
    """Median set-up CPU time of SETUP_PROBES fresh interpreters, scaled by
    the host speed their probes saw together."""
    samples, units, ref_cpu = [], 0, 0.0
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(data_dir)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        cpu, u, c = out.stdout.split()[-3:]
        samples.append(float(cpu))
        units, ref_cpu = units + int(u), ref_cpu + float(c)
    speed = hostspeed.factor(units, ref_cpu)
    return speed * statistics.median(samples), samples


# ------------------------------------------------------------- environment


def git_sha(root: Path):
    """Commit of a git checkout, read without running git; None elsewhere."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(rh) -> dict:
    import numpy

    return {
        "backend": "numba" if rh.sgs.USE_KERNELS else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
    }


# -------------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole rounds while another fits in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(rh, args, run_dir: Path) -> dict:
    from layertrace import Tracer, layer_metrics

    w = WORKLOADS[args.workload]
    data_dir, cap_dir = run_dir / "data", run_dir / "capture"
    data_dir.mkdir()
    cap_dir.mkdir()
    generated = make_instances(rh, w, args.seed)
    for inst, rec in generated:
        (data_dir / f"{rec['name']}.sm").write_text(rh.write_sm(inst))
    instances = dict(rh.load_dataset(str(data_dir)))  # what the solver receives

    def one_round(threads, tracer=None):
        return run_round(rh, w, data_dir, cap_dir, instances, threads, tracer)

    result = {
        "workload": w.name,
        "seed": args.seed,
        "lambda": w.lam,
        "solver_seed": SOLVER_SEED,
        "threads": w.threads,
        "trace": args.trace,
        "env": environment(rh),
        "instances": [rec for _, rec in generated],
    }
    if args.trace:
        # untraced and traced passes in this one process, then the pool
        plain = one_round(min(w.threads, 1))
        tracer = Tracer()
        traced_rnd = one_round(min(w.threads, 1), tracer)
        rounds = [plain, traced_rnd]
        pool = plain
        if w.threads > 1:
            pool = one_round(w.threads)
            rounds.append(pool)
        metrics = {k: (v, layer_unit(k)) for k, v in layer_metrics(tracer, traced_rnd.wall).items()}
        metrics["bench.pool_busy_frac"] = (pool_busy_frac(pool), "fraction")
        metrics["trace.overhead_frac"] = (traced_rnd.wall / plain.wall - 1, "fraction")
        result["walls"] = {"untraced": plain.wall, "traced": traced_rnd.wall, "pool": pool.wall}
    else:
        setup_s, setup_samples = measure_setup(data_dir)
        rounds = []
        t0 = time.perf_counter()
        while True:
            rounds.append(one_round(w.threads))
            typical = statistics.median(r.wall for r in rounds)
            if time.perf_counter() - t0 + typical > args.seconds:
                break
        metrics, tail = end_to_end(rounds, setup_s, len(instances))
        result.update(tail)
        result["setup_samples_s"] = setup_samples
        result["walls"] = [r.wall for r in rounds]

    digests = sorted({r.digest for r in rounds})
    problems = [p for r in rounds for p in r.problems]
    if len(digests) > 1:
        problems.append(f"passes disagree on the schedules: {digests}")
    attempted = sum(len(instances) for _ in rounds)
    failed = sum(len(r.failed) for r in rounds)
    result.update(
        schedule_digest=rounds[0].digest,
        rounds=len(rounds),
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        problems=problems,
        correct=not problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        per_instance=[
            {k: r.get(k) for k in ("name", "makespan", "cp_bound", "relaxed_makespan",
                                   "schedules", "regime", "generations", "ns_bursts", "seconds",
                                   "cpu_s")}
            for r in rounds[0].rows
        ],
    )
    return result


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms_per_call"):
        return "ms"
    return "fraction"


def report(result: dict) -> None:
    print(f"perfbench workload={result['workload']} seed={result['seed']} "
          f"lambda={result['lambda']} threads={result['threads']} trace={result['trace']} "
          f"backend={result['env']['backend']}")
    print("env: " + json.dumps(result["env"]))
    for rec in result["instances"]:
        print("instance: " + json.dumps(rec))
    print(f"schedule_digest: {result['schedule_digest']}")
    print(f"rounds: {result['rounds']}  walls_s: {json.dumps(result['walls'])}")
    for p in result["problems"]:
        print(f"problem: {p}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "solve_s_tail" in result:
        print(f"  solve_s_tail = {result['solve_s_tail']:.6g} s "
              f"(p{result['tail_percentile']} of {result['tail_samples']} solves)")
        for name, unit in (("schedules_per_wall_s", "1/s"), ("instances_per_wall_s", "1/s"),
                           ("solve_wall_s_p50", "s")):
            print(f"  {name} = {result[name]:.6g} {unit} (wall time, not a metric)")
        print(f"  host_speed = {result['host_speed']:.6g} (not a metric)")
    print(f"  failed_frac = {result['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} solves)")


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its work files and joins its pool
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        rh = _import_library()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (WORK / "work").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK / "work"))
    try:
        result = run(rh, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
