"""PSPLIB single-mode `.sm` instance file parsing.

Whitespace-tolerant, line-oriented parsing keyed on section-title
substrings.  PSPLIB numbers jobs 1..n+2; activities are shifted to
0..n+1 on load.  The `horizon` header is not read: the horizon is the
sum of the durations, which `write_sm` writes there.

PRECEDENCE RELATIONS and REQUESTS/DURATIONS are read row by row.  A row
holding a letter, such as a column header, or no number is skipped.
Every other row starts with a job number and a mode and holds at least
one number more; the mode must be 1, since only single-mode files are
supported.  Each section lists every job 1..n exactly once, and a
PRECEDENCE row exactly as many successors as its #successors reads.
What the rows describe is checked by `ProjectInstance(...)`, whose
message a bad instance raises as PsplibError.

`read_sm` reads one file as UTF-8, replacing undecodable bytes, and
names the instance by the file name without its extension;
`dataset_files` lists a directory's `.sm` files.  A path that cannot be
opened or listed raises OSError("cannot read <path>: ...").
"""

from __future__ import annotations

import os
import re

from .model import Activity, ProjectInstance


class PsplibError(ValueError):
    """A malformed or missing section, an inconsistent file (counts,
    modes) or an invalid instance; the message names the section and line
    where it can."""


_PRECEDENCE = "PRECEDENCE RELATIONS"
_REQUESTS = "REQUESTS/DURATIONS"
_AVAILABILITIES = "RESOURCEAVAILABILITIES"
_LETTER = re.compile(r"[A-Za-z]").search
_NUMBERS = re.compile(r"-?\d+").findall


def parse_sm(text: str, name: str = "") -> ProjectInstance:
    """Parse a complete `.sm` file into a validated ProjectInstance.  One
    leading UTF-8 byte-order mark is ignored."""
    lines = text.removeprefix("\ufeff").splitlines()

    job_count = _job_count(lines)
    arcs = _parse_arcs(lines, job_count)
    requests = _job_rows(lines, _REQUESTS, job_count)
    capacities = _parse_availabilities(lines)

    activities = []
    for j in range(job_count):
        _, (duration, *demand) = requests[j + 1]
        activities.append(Activity(j, duration, tuple(demand)))
    try:
        return ProjectInstance(activities, arcs, capacities, name=name)
    except ValueError as exc:
        raise PsplibError(str(exc)) from exc


def _job_count(lines: list[str]) -> int:
    for lineno, line in enumerate(lines, 1):
        if re.match(r"\s*jobs\b", line, re.IGNORECASE) and ":" in line:
            nums = _NUMBERS(line.split(":", 1)[1])
            if not nums:
                raise PsplibError(f"line {lineno}: 'jobs' header carries no number")
            return int(nums[0])
    raise PsplibError("missing 'jobs' header line")


def _section_body(lines: list[str], title: str) -> tuple[int, list[str]]:
    """Lines following the section title up to the next separator/section."""
    for start, line in enumerate(lines, 1):
        if title in line.upper():
            break
    else:
        raise PsplibError(f"missing section '{title}'")
    body = []
    for line in lines[start:]:
        if line.strip().startswith("****"):
            break
        body.append(line)
    return start, body


def _job_rows(
    lines: list[str], title: str, job_count: int
) -> dict[int, tuple[int, list[int]]]:
    """Each job's row of a section, keyed by job number: its line number
    and the numbers after the job number and the mode."""
    start, body = _section_body(lines, title)
    rows: dict[int, tuple[int, list[int]]] = {}
    for lineno, line in enumerate(body, start + 1):
        if _LETTER(line):
            continue  # column header row ("jobnr. mode duration R 1 ...")
        nums = [int(x) for x in _NUMBERS(line)]
        if not nums:
            continue
        where = f"section '{title}', line {lineno}"
        if len(nums) < 3:
            raise PsplibError(f"{where}: expected jobnr, mode and at least one more number")
        jobnr, mode = nums[0], nums[1]
        # a repeat would overwrite the first row and still match the
        # header's job count
        if jobnr in rows:
            raise PsplibError(f"{where}: job {jobnr} is listed twice")
        if mode != 1:
            raise PsplibError(
                f"{where}: job {jobnr} reads {mode} in the mode column; "
                f"only single-mode files are supported"
            )
        if not 1 <= jobnr <= job_count:
            raise PsplibError(f"{where}: job {jobnr} is outside jobs 1..{job_count}")
        rows[jobnr] = (lineno, nums[2:])
    if len(rows) != job_count:
        raise PsplibError(
            f"section '{title}': {len(rows)} jobs listed, header declares {job_count}"
        )
    return rows


def _parse_arcs(lines: list[str], job_count: int) -> set[tuple[int, int]]:
    """The precedence arcs between activities (jobs shifted by one)."""
    arcs = set()
    for jobnr, (lineno, row) in _job_rows(lines, _PRECEDENCE, job_count).items():
        n_succ, *succ = row
        if len(succ) != n_succ:
            raise PsplibError(
                f"section '{_PRECEDENCE}', line {lineno}: "
                f"#successors reads {n_succ}, but job {jobnr} lists {len(succ)}"
            )
        for s in succ:
            if not 1 <= s <= job_count:
                raise PsplibError(
                    f"section '{_PRECEDENCE}', line {lineno}: "
                    f"successor {s} is outside jobs 1..{job_count}"
                )
            arcs.add((jobnr - 1, s - 1))
    return arcs


def _parse_availabilities(lines: list[str]) -> list[int]:
    _, body = _section_body(lines, _AVAILABILITIES)
    for line in body:
        if re.search(r"\d", line) and not _LETTER(line):
            return [int(x) for x in _NUMBERS(line)]
    raise PsplibError(f"section '{_AVAILABILITIES}' carries no capacity line")


def write_sm(inst: ProjectInstance) -> str:
    """Serialize to a canonical `.sm` form (re-parseable by parse_sm)."""
    n2 = len(inst)
    out = [
        f"jobs (incl. supersource/sink ):  {n2}",
        f"horizon                       :  {inst.horizon}",
        "************************************************************************",
        "PRECEDENCE RELATIONS:",
        "jobnr.    #modes  #successors   successors",
    ]
    for j in range(n2):
        succ = sorted(s + 1 for s in inst.succs[j])
        out.append(
            f"{j + 1:4d} {1:8d} {len(succ):12d} "
            + "  ".join(f"{s:4d}" for s in succ)
        )
    out.append("************************************************************************")
    out.append("REQUESTS/DURATIONS:")
    out.append("jobnr. mode duration  " + "  ".join(f"R {k+1}" for k in range(inst.n_resources)))
    out.append("------------------------------------------------------------------------")
    for j in range(n2):
        dem = "  ".join(f"{d:4d}" for d in inst.demands[j])
        out.append(f"{j + 1:4d} {1:4d} {inst.durations[j]:6d}   {dem}")
    out.append("************************************************************************")
    out.append("RESOURCEAVAILABILITIES:")
    out.append("  " + "  ".join(f"R {k+1}" for k in range(inst.n_resources)))
    out.append("  " + "  ".join(f"{c:4d}" for c in inst.capacities))
    out.append("************************************************************************")
    return "\n".join(out) + "\n"


def read_sm(path: str) -> ProjectInstance:
    """Parse one `.sm` file; an unreadable one raises OSError naming it."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    return parse_sm(text, name=_stem(path))


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def dataset_files(directory: str) -> list[tuple[str, str]]:
    """(name, path) of every `.sm` file in a directory, lexicographic by
    file name; the name is the one `read_sm` gives the instance."""
    try:
        names = sorted(f for f in os.listdir(directory) if f.lower().endswith(".sm"))
    except OSError as exc:
        raise OSError(f"cannot read {directory}: {exc}") from exc
    if not names:
        raise FileNotFoundError(f"no .sm files in {directory}")
    return [(_stem(f), os.path.join(directory, f)) for f in names]


def load_dataset(directory: str) -> list[tuple[str, ProjectInstance]]:
    """Parse every `.sm` file in a directory, lexicographic by file name."""
    out = []
    for name, path in dataset_files(directory):
        try:
            out.append((name, read_sm(path)))
        except ValueError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    return out
