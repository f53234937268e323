import random
import re

import pytest

from rcpsp_hybrid.cli import main
from rcpsp_hybrid.model import validate_instance
from rcpsp_hybrid.psplib import (
    PsplibParseError,
    PsplibStructureError,
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
    with pytest.raises(PsplibParseError, match="RESOURCEAVAILABILITIES"):
        parse_sm(mutilated)


def test_missing_precedence_names_section(fixture_a_text):
    mutilated = fixture_a_text.replace("PRECEDENCE RELATIONS:", "")
    with pytest.raises(PsplibParseError, match="PRECEDENCE RELATIONS"):
        parse_sm(mutilated)


def test_job_count_mismatch(fixture_a_text):
    mutilated = fixture_a_text.replace(
        "jobs (incl. supersource/sink ):  4",
        "jobs (incl. supersource/sink ):  5",
    )
    with pytest.raises(PsplibStructureError):
        parse_sm(mutilated)


def test_multi_mode_rejected(fixture_a_text):
    mutilated = fixture_a_text.replace(
        "   2        1          1           4",
        "   2        2          1           4",
    )
    with pytest.raises(PsplibStructureError, match="single-mode"):
        parse_sm(mutilated)


def test_canonical_round_trip(fixture_a_text):
    inst = parse_sm(fixture_a_text)
    again = parse_sm(write_sm(inst))
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
