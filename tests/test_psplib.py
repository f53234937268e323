import random
import re

import pytest

from rcpsp_hybrid.cli import main
from rcpsp_hybrid.model import validate_instance
from rcpsp_hybrid.psplib import (
    PsplibError,
    load_dataset,
    parse_sm,
    write_sm,
)
from rcpsp_hybrid.random_instances import random_instance
from conftest import FIXTURE_A


def test_parse_fixture_a(fixture_a_text):
    inst = parse_sm(fixture_a_text, name="fixture-a")
    assert inst.n_real == 2
    assert inst.capacities == (4,)
    assert inst.durations == [0, 2, 3, 0]
    assert inst.demands == [(0,), (2,), (3,), (0,)]
    assert inst.arcs == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert validate_instance(inst) is None


def test_missing_availabilities_names_section(fixture_a_text):
    mutilated = fixture_a_text.replace("RESOURCEAVAILABILITIES:", "")
    with pytest.raises(PsplibError, match="RESOURCEAVAILABILITIES"):
        parse_sm(mutilated)


def test_missing_precedence_names_section(fixture_a_text):
    mutilated = fixture_a_text.replace("PRECEDENCE RELATIONS:", "")
    with pytest.raises(PsplibError, match="PRECEDENCE RELATIONS"):
        parse_sm(mutilated)


def test_job_count_mismatch(fixture_a_text):
    mutilated = fixture_a_text.replace(
        "jobs (incl. supersource/sink ):  4",
        "jobs (incl. supersource/sink ):  5",
    )
    with pytest.raises(PsplibError):
        parse_sm(mutilated)


def test_multi_mode_rejected(fixture_a_text):
    """A mode other than 1 is refused in either section."""
    for row, multi in [
        ("   2        1          1           4", "   2        2          1           4"),
        ("  2      1     2       2", "  2      2     2       2"),
    ]:
        assert row in fixture_a_text
        with pytest.raises(PsplibError, match="single-mode"):
            parse_sm(fixture_a_text.replace(row, multi))


def test_rows_holding_a_letter_are_skipped(fixture_a_text):
    """A column header row is skipped in either section, also when it
    carries numbers."""
    text = fixture_a_text.replace("successors\n", "successors 1 2 3\n")
    text = text.replace("R 1\n---", "R 1 2 3 4\n---")
    assert text.count(" 1 2 3") == 2
    again = parse_sm(text)
    inst = parse_sm(fixture_a_text)
    assert (again.arcs, again.demands) == (inst.arcs, inst.demands)


def test_canonical_round_trip(fixture_a_text):
    """The canonical layout reads back, also behind a UTF-8 byte-order
    mark, where its first line is the jobs header."""
    inst = parse_sm(fixture_a_text)
    for bom in ("", "\ufeff"):
        again = parse_sm(bom + write_sm(inst))
        assert again.durations == inst.durations
        assert again.demands == inst.demands
        assert again.arcs == inst.arcs
        assert again.capacities == inst.capacities
        assert again.horizon == inst.horizon


def test_canonical_round_trip_random_instances():
    rng = random.Random(5)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(1, 20), rng.randint(1, 4))
        again = parse_sm(write_sm(inst))
        assert again.durations == inst.durations
        assert again.demands == inst.demands
        assert again.arcs == inst.arcs
        assert again.capacities == inst.capacities


def test_load_dataset_single(tmp_path, fixture_a_text):
    (tmp_path / "fixture_a.sm").write_text(fixture_a_text)
    (tmp_path / "notes.txt").write_text("not an instance")
    pairs = load_dataset(str(tmp_path))
    assert [name for name, _ in pairs] == ["fixture_a"]


def test_load_dataset_sorted(tmp_path, fixture_a_text):
    for name in ("b2", "a10", "a2"):
        (tmp_path / f"{name}.sm").write_text(fixture_a_text)
    pairs = load_dataset(str(tmp_path))
    assert [name for name, _ in pairs] == ["a10", "a2", "b2"]


def test_load_dataset_empty(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(str(tmp_path))


@pytest.mark.parametrize(
    "old, new, problem",
    [
        ("   1        1          2           2   3", "   1        1          2          -2   3",
         "successor -2 is outside jobs 1..4"),
        ("  R 1\n   4\n", "  R 1\n  -4\n", "negative capacity -4"),
    ],
    ids=["negative-successor", "negative-capacity"],
)
def test_minus_signs_reach_the_checks(tmp_path, capsys, old, new, problem):
    """A minus sign is read, not dropped: -2 is not job 2, nor -4 a
    capacity of 4."""
    assert old in FIXTURE_A
    text = FIXTURE_A.replace(old, new)
    with pytest.raises(ValueError, match=problem):
        parse_sm(text)
    path = tmp_path / "minus.sm"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert problem in err and "internal error" not in err


@pytest.mark.parametrize(
    "row, repeat, section",
    [
        ("   2        1          1           4\n", "   2        1          1           3\n",
         "PRECEDENCE RELATIONS"),
        ("  2      1     2       2\n", "  2      1     7       4\n", "REQUESTS/DURATIONS"),
    ],
    ids=["precedence", "requests"],
)
def test_job_listed_twice_rejected(tmp_path, capsys, row, repeat, section):
    """A second row for a job would overwrite the first and still match
    the header's job count: it is refused, naming the section, the line
    and the job, and validate exits 1."""
    assert row in FIXTURE_A
    text = FIXTURE_A.replace(row, row + repeat)
    lineno = text.splitlines().index(repeat.rstrip("\n")) + 1
    problem = f"section '{section}', line {lineno}: job 2 is listed twice"
    with pytest.raises(PsplibError, match=re.escape(problem)):
        parse_sm(text)
    path = tmp_path / "twice.sm"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert problem in err and "internal error" not in err


@pytest.mark.parametrize(
    "row, bad, section, problem",
    [
        ("   4        1          0", "   5        1          0", "PRECEDENCE RELATIONS",
         "job 5 is outside jobs 1..4"),
        ("  4      1     0       0", "  0      1     0       0", "REQUESTS/DURATIONS",
         "job 0 is outside jobs 1..4"),
        ("  3      1     3       3", "  3      1", "REQUESTS/DURATIONS",
         "expected jobnr, mode and at least one more number"),
        ("   2        1          1           4", "   2        1          1           4   3",
         "PRECEDENCE RELATIONS", "#successors reads 1, but job 2 lists 2"),
    ],
    ids=["precedence-outside", "requests-outside", "requests-short", "precedence-long"],
)
def test_bad_job_row_names_section_and_line(tmp_path, capsys, row, bad, section, problem):
    """A row's job number must be one of the header's jobs, a row needs a
    job number, a mode and one number more, and a precedence row lists as
    many successors as its count, no more; the message names the section
    and the line, and validate exits 1."""
    assert row in FIXTURE_A
    text = FIXTURE_A.replace(row, bad)
    lineno = text.splitlines().index(bad) + 1
    problem = f"section '{section}', line {lineno}: {problem}"
    with pytest.raises(ValueError, match=re.escape(problem)):
        parse_sm(text)
    path = tmp_path / "bad_row.sm"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert problem in err and "internal error" not in err


def _edit_lines(text, rng):
    """1-3 random line edits: delete, duplicate, swap, or renumber one
    integer (possibly to a negative or out-of-range value)."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            numbers = list(re.finditer(r"\d+", lines[i]))
            if numbers:
                m = rng.choice(numbers)
                value = rng.choice([rng.randint(-1, 12), rng.randint(0, 10**6)])
                lines[i] = lines[i][: m.start()] + str(value) + lines[i][m.end() :]
    return "\n".join(lines)


def test_edited_files_raise_value_error_or_parse_valid():
    rng = random.Random(17)
    originals = [write_sm(random_instance(random.Random(s), 8, 2)) for s in range(5)]
    outcomes = {"rejected": 0, "valid": 0}
    for _ in range(2000):
        text = _edit_lines(rng.choice(originals), rng)
        try:
            inst = parse_sm(text)
        except ValueError:
            outcomes["rejected"] += 1
            continue
        assert validate_instance(inst) is None, text
        outcomes["valid"] += 1
    assert min(outcomes.values()) > 100
