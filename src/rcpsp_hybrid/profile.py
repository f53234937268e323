"""Renewable-resource profile: storage and window search.

A profile is one list row per resource; `row[t]` is the capacity left
in the unit interval [t, t+1).  `demands` is an activity's list of
nonzero (resource, demand) pairs, as in `ProjectInstance.active_demand`.
Every decoder, the backward pass of FBI and both neighborhoods place
activities through this module.

`place` and `place_latest` return the earliest (latest) fitting start
exactly, the same start a scan trying every candidate in turn would
return: on a conflict they skip the conflicting resource's whole run of
short slots, and no window overlapping that run can fit.  That is why
their results equal those of the `_fastpath` kernels, which step one
start at a time.
"""

from __future__ import annotations

from typing import Optional


def empty(inst, length: int) -> list[list[int]]:
    """Full capacity in every interval [0, length)."""
    return [[c] * length for c in inst.capacities]


def fits(rows, demands, t: int, p: int) -> bool:
    """Whether the window [t, t+p) has room for the demands."""
    for k, d in demands:
        row = rows[k]
        for tau in range(t, t + p):
            if row[tau] < d:
                return False
    return True


def reserve(rows, demands, t: int, p: int) -> None:
    """Book the demands over [t, t+p)."""
    for k, d in demands:
        row = rows[k]
        for tau in range(t, t + p):
            row[tau] -= d


def place(rows, demands, lo: int, hi: int, p: int) -> Optional[int]:
    """Book the earliest window [t, t+p) with lo <= t <= hi that fits and
    return t; return None, booking nothing, when none fits."""
    if p == 0:
        return lo if lo <= hi else None
    t = lo
    while t <= hi:
        for k, d in demands:
            row = rows[k]
            for tau in range(t, t + p):
                if row[tau] < d:
                    break
            else:
                continue
            # no window can start before the end of this run of short slots
            t = tau + 1
            while t <= hi and row[t] < d:
                t += 1
            break
        else:
            reserve(rows, demands, t, p)
            return t
    return None


def place_latest(rows, demands, lo: int, hi: int, p: int) -> Optional[int]:
    """Book the latest window [t, t+p) with lo <= t <= hi that fits and
    return t; return None, booking nothing, when none fits."""
    if p == 0:
        return hi if lo <= hi else None
    t = hi
    while t >= lo:
        for k, d in demands:
            row = rows[k]
            for tau in range(t + p - 1, t - 1, -1):
                if row[tau] < d:
                    break
            else:
                continue
            # the window must end before this run of short slots
            last = tau - 1
            while last >= lo and row[last] < d:
                last -= 1
            t = last - p + 1
            break
        else:
            reserve(rows, demands, t, p)
            return t
    return None
