"""PSPLIB single-mode `.sm` instance file parsing.

Whitespace-tolerant, line-oriented parsing keyed on section-title
substrings.  PSPLIB numbers jobs 1..n+2; activities are shifted to
0..n+1 on load.  Only single-mode files are supported: a mode count
other than 1 is a structural error.
"""

from __future__ import annotations

import os
import re
from typing import Iterator

from .model import Activity, ProjectInstance


class PsplibParseError(ValueError):
    """Malformed or missing section; message names section and line."""


class PsplibStructureError(ValueError):
    """Internally inconsistent file (counts, modes) or invalid instance."""


_PRECEDENCE = "PRECEDENCE RELATIONS"
_REQUESTS = "REQUESTS/DURATIONS"
_AVAILABILITIES = "RESOURCEAVAILABILITIES"


def parse_sm(text: str, name: str = "") -> ProjectInstance:
    """Parse a complete `.sm` file into a validated ProjectInstance.  One
    leading UTF-8 byte-order mark is ignored."""
    lines = text.removeprefix("\ufeff").splitlines()

    job_count = _header_int(lines, r"^\s*jobs\b", "jobs")
    horizon = _header_int(lines, r"^\s*horizon\b", "horizon")
    if job_count < 2:
        raise PsplibStructureError(f"job count {job_count} is below 2")

    successors = _parse_precedence(lines, job_count)
    durations, demands = _parse_requests(lines, job_count)
    capacities = _parse_availabilities(lines)

    n_res = len(capacities)
    for jobnr, dem in demands.items():
        if len(dem) != n_res:
            raise PsplibStructureError(
                f"job {jobnr}: {len(dem)} demands but {n_res} capacities"
            )

    activities = [
        Activity(j, durations[j + 1], tuple(demands[j + 1]))
        for j in range(job_count)
    ]
    arcs = set()
    for jobnr, succ in successors.items():
        for s in succ:
            arcs.add((jobnr - 1, s - 1))

    try:
        return ProjectInstance(
            activities,
            arcs,
            capacities,
            horizon=max(horizon, sum(durations.values())),
            name=name,
        )
    except ValueError as exc:
        raise PsplibStructureError(str(exc)) from exc


def _header_int(lines: list[str], pattern: str, label: str) -> int:
    rx = re.compile(pattern, re.IGNORECASE)
    for lineno, line in enumerate(lines, 1):
        if rx.search(line) and ":" in line:
            tail = line.split(":", 1)[1]
            nums = re.findall(r"-?\d+", tail)
            if not nums:
                raise PsplibParseError(
                    f"line {lineno}: '{label}' header carries no number"
                )
            return int(nums[0])
    raise PsplibParseError(f"missing '{label}' header line")


def _section_body(lines: list[str], title: str) -> tuple[int, list[str]]:
    """Lines following the section title up to the next separator/section."""
    start = None
    for lineno, line in enumerate(lines):
        if title in line.upper():
            start = lineno + 1
            break
    if start is None:
        raise PsplibParseError(f"missing section '{title}'")
    body = []
    for line in lines[start:]:
        stripped = line.strip()
        if stripped.startswith("****"):
            break
        body.append(line)
    return start, body


def _parse_precedence(lines: list[str], job_count: int) -> dict[int, list[int]]:
    start, body = _section_body(lines, _PRECEDENCE)
    successors: dict[int, list[int]] = {}
    for off, line in enumerate(body):
        nums = [int(x) for x in re.findall(r"-?\d+", line)]
        if not nums:
            continue
        if len(nums) < 3:
            raise PsplibParseError(
                f"section '{_PRECEDENCE}', line {start + off + 1}: "
                f"expected jobnr, #modes, #successors"
            )
        jobnr, modes, n_succ = nums[0], nums[1], nums[2]
        _check_listed_once(_PRECEDENCE, start + off + 1, jobnr, successors)
        if modes != 1:
            raise PsplibStructureError(
                f"job {jobnr} declares {modes} modes; only single-mode "
                f"files are supported"
            )
        succ = nums[3 : 3 + n_succ]
        if len(succ) != n_succ:
            raise PsplibParseError(
                f"section '{_PRECEDENCE}', line {start + off + 1}: "
                f"job {jobnr} lists {len(succ)} of {n_succ} successors"
            )
        for s in succ:
            if not 1 <= s <= job_count:
                raise PsplibStructureError(
                    f"section '{_PRECEDENCE}', line {start + off + 1}: "
                    f"successor {s} is outside jobs 1..{job_count}"
                )
        successors[jobnr] = succ
    _check_jobs(_PRECEDENCE, successors, job_count)
    return successors


def _check_listed_once(section: str, lineno: int, jobnr: int, listed: dict) -> None:
    """A job's row comes once per section: a repeat would overwrite the
    first row and still match the header's job count."""
    if jobnr in listed:
        raise PsplibStructureError(
            f"section '{section}', line {lineno}: job {jobnr} is listed twice"
        )


def _check_jobs(section: str, listed: dict[int, list[int]], job_count: int) -> None:
    """A section lists every job 1..job_count and no other."""
    for jobnr in listed:
        if not 1 <= jobnr <= job_count:
            raise PsplibStructureError(
                f"section '{section}': job {jobnr} is outside jobs 1..{job_count}"
            )
    if len(listed) != job_count:
        raise PsplibStructureError(
            f"section '{section}': {len(listed)} jobs listed, "
            f"header declares {job_count}"
        )


def _parse_requests(
    lines: list[str], job_count: int
) -> tuple[dict[int, int], dict[int, list[int]]]:
    start, body = _section_body(lines, _REQUESTS)
    durations: dict[int, int] = {}
    demands: dict[int, list[int]] = {}
    for off, line in enumerate(body):
        if re.search(r"[A-Za-z]", line):
            continue  # column header row ("jobnr. mode duration R 1 ...")
        nums = [int(x) for x in re.findall(r"-?\d+", line)]
        if not nums:
            continue
        if len(nums) < 3:
            raise PsplibParseError(
                f"section '{_REQUESTS}', line {start + off + 1}: "
                f"expected jobnr, mode, duration, demands"
            )
        jobnr, mode, duration = nums[0], nums[1], nums[2]
        _check_listed_once(_REQUESTS, start + off + 1, jobnr, demands)
        if mode != 1:
            raise PsplibStructureError(
                f"job {jobnr} uses mode {mode}; only single-mode files "
                f"are supported"
            )
        durations[jobnr] = duration
        demands[jobnr] = nums[3:]
    _check_jobs(_REQUESTS, demands, job_count)
    return durations, demands


def _parse_availabilities(lines: list[str]) -> list[int]:
    start, body = _section_body(lines, _AVAILABILITIES)
    for off, line in enumerate(body):
        if re.search(r"\d", line) and not re.search(r"[A-Za-z]", line):
            return [int(x) for x in re.findall(r"-?\d+", line)]
    raise PsplibParseError(
        f"section '{_AVAILABILITIES}' carries no capacity line"
    )


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


def dataset_files(directory: str) -> Iterator[tuple[str, str, str]]:
    """(name, path, text) of every `.sm` file in a directory, lexicographic
    by file name; the name is the file name without its extension.  A file
    that cannot be read raises OSError when the iteration reaches it."""
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"not a directory: {directory}")
    names = sorted(f for f in os.listdir(directory) if f.lower().endswith(".sm"))
    if not names:
        raise FileNotFoundError(f"no .sm files in {directory}")
    for fname in names:
        path = os.path.join(directory, fname)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read {path}: {exc}") from exc
        yield os.path.splitext(fname)[0], path, text


def load_dataset(directory: str) -> list[tuple[str, ProjectInstance]]:
    """Parse every `.sm` file in a directory, lexicographic by file name."""
    out = []
    for name, path, text in dataset_files(directory):
        try:
            out.append((name, parse_sm(text, name=name)))
        except ValueError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    return out
