import os
import random

import pytest

from rcpsp_hybrid.cli import main
from rcpsp_hybrid.model import Activity, ProjectInstance
from rcpsp_hybrid.psplib import write_sm
from rcpsp_hybrid.random_instances import random_instance
from rcpsp_hybrid.solver import SolverConfig, solve
from conftest import FIXTURE_A


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "fixture_a.sm"
    path.write_text(FIXTURE_A)
    return str(path)


@pytest.fixture
def dataset_dir(tmp_path):
    rng = random.Random(0)
    d = tmp_path / "data"
    d.mkdir()
    for idx in range(2):
        inst = random_instance(rng, rng.randint(4, 8), 2)
        (d / f"inst{idx}.sm").write_text(write_sm(inst))
    return str(d)


def test_solve_command(instance_file, capsys):
    assert main(["solve", instance_file, "--lambda", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "makespan      : 5" in out
    assert "cp lower bound: 3" in out


def test_solve_prints_starts(instance_file, capsys):
    assert main(["solve", instance_file, "--lambda", "50", "--starts"]) == 0
    assert "starts        :" in capsys.readouterr().out


def test_solve_missing_file_exit_1(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "ghost.sm")]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_unparsable_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.sm"
    bad.write_text("garbage")
    assert main(["solve", str(bad)]) == 1


def test_internal_error_names_the_exception(instance_file, monkeypatch, capsys):
    """A MemoryError carries no message, so the report names its type."""

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("rcpsp_hybrid.cli.solve", out_of_memory)
    assert main(["solve", instance_file]) == 2
    assert capsys.readouterr().err == "internal error: MemoryError\n"


def test_solve_with_config_file(instance_file, tmp_path, capsys):
    conf = tmp_path / "solver.conf"
    conf.write_text("lambda_budget = 40\npopulation_capacity = 4\nseed = 3\n")
    assert main(["solve", instance_file, "--config", str(conf)]) == 0
    assert "makespan      : 5" in capsys.readouterr().out


def test_rank_command(instance_file, capsys):
    assert main(["rank", instance_file]) == 0
    out = capsys.readouterr().out
    assert "relaxed makespan  : 4" in out
    assert "residues          : 3" in out
    assert "rank (scarce 1st) : 1" in out
    assert "weights           : 1.000" in out


def test_rank_prints_the_weights_solve_uses(tmp_path, capsys):
    """`rank` prints the weights a solve runs with: the steep vector along
    the resource rank, 0.4 past the fourth resource."""
    inst = random_instance(random.Random(4), 6, 5)
    path = tmp_path / "k5.sm"
    path.write_text(write_sm(inst))
    _, stats = solve(inst, SolverConfig(lambda_budget=50))
    assert sorted(stats.weights) == [0.4, 0.4, 0.6, 0.8, 1.0]
    assert main(["rank", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"weights           : {' '.join(f'{w:.3f}' for w in stats.weights)}\n" in out


def test_validate_file(instance_file, capsys):
    assert main(["validate", instance_file]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_directory(dataset_dir, capsys):
    assert main(["validate", dataset_dir]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 2


def test_validate_directory_reports_every_file(tmp_path, capsys):
    """A bad file does not stop the check of the others: every file gets
    its line, in name order, and the exit code 1 comes with the count."""
    files = {
        "a": FIXTURE_A,
        "b": FIXTURE_A.replace("  R 1\n   4\n", "  R 1\n  -4\n"),
        "c": FIXTURE_A,
        "d": "not a psplib file",
        "e": FIXTURE_A,
    }
    for name, text in files.items():
        (tmp_path / f"{name}.sm").write_text(text)
    assert main(["validate", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(files)
    assert lines[0] == "a: ok" and lines[2] == "c: ok" and lines[4] == "e: ok"
    assert lines[1] == "b: resource 0: negative capacity -4"
    assert lines[3].startswith("d: ") and lines[3] != "d: ok"
    assert captured.err == "error: 2 invalid instance(s)\n"


def test_validate_missing_path_exit_1(tmp_path):
    assert main(["validate", str(tmp_path / "nowhere")]) == 1


def test_bench_command(dataset_dir, tmp_path, capsys):
    out_file = tmp_path / "makespans.txt"
    csv_file = tmp_path / "summary.csv"
    code = main(
        [
            "bench",
            dataset_dir,
            "--lambda",
            "80",
            "--seed",
            "5",
            "--out",
            str(out_file),
            "--csv",
            str(csv_file),
        ]
    )
    assert code == 0
    assert "APD over 2 instances" in capsys.readouterr().out
    assert len(out_file.read_text().splitlines()) == 2
    assert csv_file.read_text().startswith("name,")


def test_bench_reports_a_bad_file_and_exits_1(dataset_dir, tmp_path, capsys):
    """The good instances are solved and written; the bad file gets a row."""
    with open(os.path.join(dataset_dir, "broken.sm"), "w") as fh:
        fh.write("not a psplib file")
    out_file = tmp_path / "makespans.txt"
    code = main(["bench", dataset_dir, "--lambda", "80", "--out", str(out_file)])
    assert code == 1
    captured = capsys.readouterr()
    assert "APD over 2 instances" in captured.out
    assert "broken           failed: " in captured.out
    assert captured.err.startswith("error: 1 instance(s) failed: broken: ")
    assert len(out_file.read_text().splitlines()) == 3


def test_bench_bounds_report(dataset_dir, tmp_path, capsys):
    bounds = tmp_path / "bounds.csv"
    bounds.write_text("instance,best\ninst0,99999\n")
    code = main(["bench", dataset_dir, "--lambda", "60", "--bounds", str(bounds)])
    assert code == 0
    assert "improved over best known" in capsys.readouterr().out


BAD_BOUNDS = {
    "not utf-8": b"instance,best\ninst0,99999\n\xff\xfe\n",
    "an .sm file": FIXTURE_A.encode(),
    "not whole": b"instance,best\ninst0,12.7\n",
    "listed twice": b"inst0,-5\ninst0,7\n",
}


@pytest.mark.parametrize("make_bounds", ["missing", *BAD_BOUNDS])
def test_bench_checks_its_bounds_file_before_solving(dataset_dir, tmp_path, capsys, make_bounds):
    bounds = tmp_path / "bounds.csv"
    if make_bounds != "missing":
        bounds.write_bytes(BAD_BOUNDS[make_bounds])
    out_file = tmp_path / "makespans.txt"
    argv = ["bench", dataset_dir, "--lambda", "60", "--out", str(out_file), "--bounds", str(bounds)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "internal error" not in captured.err
    assert captured.err.startswith(f"error: bad bounds file {bounds}: ")
    assert captured.out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_bench_checks_its_output_paths_before_solving(dataset_dir, tmp_path, capsys, monkeypatch, option):
    """An output file that cannot be created exits 1, naming the option and
    the path, before any solve starts."""

    def no_solve(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr("rcpsp_hybrid.bench.solve", no_solve)
    target = tmp_path / "missing" / "x.txt"
    assert main(["bench", dataset_dir, "--lambda", "60", option, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {option} file {target}: ")
    assert captured.out == ""


def test_bench_refuses_one_file_for_out_and_csv(dataset_dir, tmp_path, capsys, monkeypatch):
    """--out and --csv naming one file, in two spellings, exit 1 before any
    solve, and the file keeps what it held."""

    def no_solve(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr("rcpsp_hybrid.bench.solve", no_solve)
    target = tmp_path / "x.txt"
    target.write_text("kept\n")
    other = os.path.join(str(tmp_path), ".", "x.txt")
    assert main(["bench", dataset_dir, "--out", str(target), "--csv", other]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --out and --csv name one file: {target}\n"
    assert captured.out == ""
    assert target.read_text() == "kept\n"


def test_bench_warns_of_unknown_bounds_instances(dataset_dir, tmp_path, capsys):
    """A bounds name that is not in the dataset gets one warning line; the
    known names are still compared."""
    bounds = tmp_path / "bounds.csv"
    bounds.write_text("instance,best\nghost,1\ninst0,99999\n")
    assert main(["bench", dataset_dir, "--lambda", "60", "--bounds", str(bounds)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: bounds list unknown instance 'ghost'\n"
    assert "improved over best known:\n  inst0: " in captured.out


def test_bench_solver_fault_exit_2(dataset_dir, monkeypatch, capsys):
    """A ValueError raised inside a solve is the solver's fault, not bad
    input: bench reports it as an internal error, as solve does."""

    def faulty_solve(*args):
        raise ValueError("activity 5 fits nowhere within the horizon 10")

    monkeypatch.setattr("rcpsp_hybrid.bench.solve", faulty_solve)
    assert main(["bench", dataset_dir, "--lambda", "50"]) == 2
    assert capsys.readouterr().err == (
        "internal error: ValueError: activity 5 fits nowhere within the horizon 10\n"
    )


def test_bench_write_failure_exit_1(dataset_dir, tmp_path, monkeypatch, capsys):
    """An output file that passed the check but cannot be written after the
    solves exits 1, naming the option and the path."""

    def disk_full(report, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("rcpsp_hybrid.cli.write_csv", disk_full)
    target = tmp_path / "summary.csv"
    assert main(["bench", dataset_dir, "--lambda", "50", "--csv", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --csv file {target}: ") and "No space" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
def test_bench_skips_a_bound_that_is_not_finite(dataset_dir, tmp_path, capsys, value):
    bounds = tmp_path / "bounds.csv"
    bounds.write_text(f"instance,best\ninst0,{value}\ninst1,99999\n")
    code = main(["bench", dataset_dir, "--lambda", "60", "--bounds", str(bounds)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "improved over best known:\n  inst1: " in captured.out
    assert "inst0:" not in captured.out.split("improved over best known:")[1]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_bench_fewer_than_one_thread_exit_1(dataset_dir, capsys, threads):
    assert main(["bench", dataset_dir, "--lambda", "50", "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert "threads must be >= 1" in err and "internal error" not in err


def test_bench_missing_directory_exit_1(tmp_path, capsys):
    """A directory that is not there, or a file given for one, is bad
    input; the message names it."""
    a_file = tmp_path / "a.sm"
    a_file.write_text(FIXTURE_A)
    for target in (tmp_path / "nope", a_file):
        assert main(["bench", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {target}: ") and "internal error" not in err


@pytest.mark.parametrize("argv", [["bench", "--lambda", "50"], ["validate"]])
def test_unreadable_dataset_entry_exit_1(dataset_dir, argv, capsys):
    """A directory named like an instance file cannot be read: that is bad
    input, reported with exit 1, not an internal error."""
    os.mkdir(os.path.join(dataset_dir, "b.sm"))
    assert main([argv[0], dataset_dir, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "b.sm" in err


def _deny_reading(monkeypatch, denied: str) -> None:
    """Make `open` raise PermissionError on `denied`: the tests may run as
    root, for whom a file's mode denies no read."""
    real_open = open

    def fake_open(file, *args, **kwargs):
        if os.fspath(file) == denied:
            raise PermissionError(13, "Permission denied", denied)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", fake_open)


@pytest.mark.parametrize(
    "command, how",
    [(c, how) for how in ("denied", "missing") for c in ("solve", "rank", "validate")],
    ids=["solve", "rank", "validate", "solve-missing", "rank-missing", "validate-missing"],
)
def test_unreadable_instance_exit_1(instance_file, monkeypatch, capsys, command, how):
    if how == "denied":
        _deny_reading(monkeypatch, instance_file)
    else:
        os.remove(instance_file)
    assert main([command, instance_file]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {instance_file}: ") and "internal error" not in err


@pytest.mark.parametrize(
    "command, how",
    [(c, how) for how in ("denied", "missing") for c in ("solve", "bench")],
    ids=["solve", "bench", "solve-missing", "bench-missing"],
)
def test_unreadable_config_file_exit_1(
    instance_file, dataset_dir, tmp_path, monkeypatch, capsys, command, how
):
    conf = tmp_path / "solver.conf"
    if how == "denied":
        conf.write_text("lambda_budget = 40\n")
        _deny_reading(monkeypatch, str(conf))
    target = instance_file if command == "solve" else dataset_dir
    assert main([command, target, "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {conf}: ")
    assert "internal error" not in err


def test_seed_changes_nothing_on_reruns(instance_file, capsys):
    """Every output line but the wall-clock `seconds` line, which a busy
    host can move by a hundredth, is the same on a rerun."""
    outputs = []
    for _ in range(2):
        assert main(["solve", instance_file, "--lambda", "60", "--seed", "9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        outputs.append([line for line in lines if not line.startswith("seconds ")])
    assert [line.split(":")[0].strip() for line in outputs[0]] == [
        "instance", "makespan", "cp lower bound", "schedules"
    ]
    assert outputs[0] == outputs[1]


def test_zero_capacity_resource_solves_and_ranks(tmp_path, capsys):
    """A resource of capacity 0 that nothing demands is valid; solve and
    rank treat it as never binding instead of dividing by its capacity."""
    inst = ProjectInstance(
        [
            Activity(0, 0, (0, 0)),
            Activity(1, 2, (1, 0)),
            Activity(2, 3, (1, 0)),
            Activity(3, 0, (0, 0)),
        ],
        {(0, 1), (0, 2), (1, 3), (2, 3)},
        (1, 0),
    )
    path = tmp_path / "zero_capacity.sm"
    path.write_text(write_sm(inst))
    assert main(["validate", str(path)]) == 0
    assert main(["solve", str(path), "--lambda", "50", "--seed", "1"]) == 0
    assert "makespan      : 5" in capsys.readouterr().out
    assert main(["rank", str(path)]) == 0
    out = capsys.readouterr().out
    assert "relaxed makespan  : 5" in out
    assert "rank (scarce 1st) : 1 2" in out


@pytest.mark.parametrize(
    "text",
    [
        "weight_mode = bogus\n",
        "seed = 1\nseed = 1\n",
        "lambda_budget 40\n",
        "lambda_budget = none\n",
        # operator parameters are not config keys: each is an unknown key
        "block_size = 0\n",
        "sigma1 = abc\n",
        "dense_threshold = abc\nlambda_budget = 3000\n",
        "elite_count = -3\n",
        "population_capacity = 1\n",
        "use_crossover = false\n",
        # more operator parameters
        "fbi_passes = 2\n",
        "sigma1 = 0.1\n",
        "tabu_capacity = 10\n",
        "time_limit = 2\n",
        # the checkpoint settings are integers, never none
        "ns_burst = none\n",
        "stagnation_trigger = none\n",
    ],
    ids=[
        "unknown-weight-mode", "repeated-key", "no-equals", "no-cap", "block-size-0", "sigma-text",
        "dense-threshold-text", "negative-elite-count", "one-member-population",
        "removed-ablation-key", "removed-fbi-passes", "removed-sigma1",
        "removed-tabu-capacity", "removed-time-limit", "ns-burst-none",
        "stagnation-trigger-none",
    ],
)
def test_bad_config_file_exit_1(instance_file, tmp_path, capsys, text):
    conf = tmp_path / "solver.conf"
    conf.write_text(text)
    assert main(["solve", instance_file, "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad configuration") and "internal error" not in err


def test_nonpositive_lambda_option_exit_1(instance_file, capsys):
    assert main(["solve", instance_file, "--lambda", "0"]) == 1
    assert "lambda_budget" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["steep", "shallow"])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_fixed_weight_mode_beyond_four_resources_exit_1(tmp_path, capsys, mode, command):
    """The weights are fixed along the resource rank, 0.4 past the fourth
    resource, so `weight_mode` is no key: naming it exits 1, and without
    it the five-resource instance solves."""
    (tmp_path / "k5.sm").write_text(write_sm(random_instance(random.Random(4), 6, 5)))
    conf = tmp_path / "solver.conf"
    conf.write_text(f"lambda_budget = 50\nweight_mode = {mode}\n")
    target = str(tmp_path / "k5.sm") if command == "solve" else str(tmp_path)
    assert main([command, target, "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'weight_mode'" in err and "internal error" not in err
    conf.write_text("lambda_budget = 50\n")
    assert main([command, target, "--config", str(conf)]) == 0


@pytest.mark.parametrize(
    "old, new",
    [
        ("   2        1          1           4", "   2        1          1           7"),
        # job 3's requests row is missing: a row numbered 7 takes its place
        ("  3      1     3       3", "  7      1     3       3"),
    ],
    ids=["successor-out-of-range", "requests-row-missing"],
)
def test_malformed_instance_exit_1(tmp_path, capsys, old, new):
    assert old in FIXTURE_A
    path = tmp_path / "bad.sm"
    path.write_text(FIXTURE_A.replace(old, new))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal error" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "x.sm", "--lambda", "abc"], "invalid int value"),
        (["bench", "data", "--threads", "x"], "invalid int value"),
        (["solve", "x.sm", "--no-such-option"], "unrecognized arguments: --no-such-option"),
        ([], "the following arguments are required"),
        (["frobnicate"], "invalid choice"),
        # λ is a run's only stop: there is no wall-clock option
        (["solve", "x.sm", "--time-limit", "1"], "unrecognized arguments: --time-limit 1"),
        (["bench", "data", "--time-limit", "1"], "unrecognized arguments: --time-limit 1"),
    ],
    ids=[
        "lambda-abc", "threads-x", "unknown-option", "no-subcommand", "unknown-subcommand",
        "time-limit-solve", "time-limit-bench",
    ],
)
def test_usage_error_exit_1(capsys, argv, message):
    """argparse's usage errors are bad input: exit 1, with its message on
    stderr, since 2 means an internal error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    last = err.splitlines()[-1]
    assert err.startswith("usage: rcpsp-hybrid")
    assert last.startswith("rcpsp-hybrid") and ": error: " in last and message in last


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rcpsp-hybrid")
