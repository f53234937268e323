import os
import random

import pytest

from rcpsp_hybrid.cli import main
from rcpsp_hybrid.model import Activity, ProjectInstance
from rcpsp_hybrid.psplib import write_sm
from rcpsp_hybrid.random_instances import random_instance
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


@pytest.mark.parametrize("make_bounds", ["missing", "not utf-8"])
def test_bench_checks_its_bounds_file_before_solving(dataset_dir, tmp_path, capsys, make_bounds):
    bounds = tmp_path / "bounds.csv"
    if make_bounds == "not utf-8":
        bounds.write_bytes(b"instance,best\ninst0,99999\n\xff\xfe\n")
    out_file = tmp_path / "makespans.txt"
    argv = ["bench", dataset_dir, "--lambda", "60", "--out", str(out_file), "--bounds", str(bounds)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "internal error" not in captured.err
    assert "bounds file" in captured.err
    assert captured.out == ""
    assert not out_file.exists()


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


def test_bench_missing_directory_exit_1(tmp_path):
    assert main(["bench", str(tmp_path / "nope")]) == 1


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


@pytest.mark.parametrize("command", ["solve", "rank", "validate"])
def test_unreadable_instance_exit_1(instance_file, monkeypatch, capsys, command):
    _deny_reading(monkeypatch, instance_file)
    assert main([command, instance_file]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "internal error" not in err


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_unreadable_config_file_exit_1(
    instance_file, dataset_dir, tmp_path, monkeypatch, capsys, command
):
    conf = tmp_path / "solver.conf"
    conf.write_text("lambda_budget = 40\n")
    _deny_reading(monkeypatch, str(conf))
    target = instance_file if command == "solve" else dataset_dir
    assert main([command, target, "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and "internal error" not in err


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
        "lambda_budget = none\ntime_limit = inf\n",
        # the checkpoint settings are integers, never none
        "ns_burst = none\n",
        "stagnation_trigger = none\n",
    ],
    ids=[
        "unknown-weight-mode", "no-equals", "no-cap", "block-size-0", "sigma-text",
        "dense-threshold-text", "negative-elite-count", "one-member-population",
        "removed-ablation-key", "removed-fbi-passes", "removed-sigma1",
        "removed-tabu-capacity", "infinite-time-limit", "ns-burst-none",
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


@pytest.mark.parametrize("limit", ["inf", "nan", "0"])
def test_time_limit_option_must_be_a_finite_positive_cap(instance_file, capsys, limit):
    assert main(["solve", instance_file, "--time-limit", limit]) == 1
    err = capsys.readouterr().err
    assert "time_limit must be" in err and "internal error" not in err


def test_time_limit_option_lifts_the_schedule_cap(instance_file, capsys):
    assert main(["solve", instance_file, "--time-limit", "0.2"]) == 0
    assert "makespan      : 5" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["steep", "shallow"])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_fixed_weight_mode_beyond_four_resources_exit_1(tmp_path, capsys, mode, command):
    """Each solve draws its weight mode, leaving out the fixed vectors above
    four resources, so `weight_mode` is no key: naming it exits 1, and
    without it the five-resource instance solves."""
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
