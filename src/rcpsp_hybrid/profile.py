"""Renewable-resource profile: storage and window search.

A profile is a step function over [0, length), stored as change points:
`times` holds the sorted segment starts with `length` as its last entry,
and `vals[i]` holds every resource's remaining capacity over the segment
[times[i], times[i+1]).  Adjacent segments may hold equal values; they
are never merged, so a segment is only split, by a booking that starts or
ends inside it.

The value of a segment packs all resources into one int, each in its own
bit field of B bits, where B - 1 bits hold the largest capacity and the
largest demand: resource k's field, at bit kB, holds 2**(B-1) +
remaining_k.  The top bit of a field is a guard bit, set in every stored
value; `guard` masks all of them.  A demand is packed the same way without
guard bits (`ProjectInstance.packed_demand`).

Capacities and demands must be >= 0, so 0 <= d_k < 2**(B-1): subtracting
a packed demand never borrows across fields, and resource k's guard bit
survives exactly when remaining_k >= d_k.  So (value - demand) & guard ==
guard tests all resources of a segment at once, and value -= demand books
it.  A demand above its capacity (`validate_instance` rejects one) then
fits nowhere, so a decoder called on such an instance finds no start.

`place` is the one window search.  It returns the earliest fitting start
exactly, as a scan trying every candidate would: it tests a window one
segment at a time, and on a conflict it skips the whole run of segments
short of some resource, since no window covering such a segment fits.
The right justification needs the latest fitting start instead, and gets
it from `place` on a mirrored time axis (sgs._right_justify): over [0, T]
the window [t, t+p) maps to [T-t-p, T-t), so the latest fit before a
deadline is the earliest fit after a release time.  That is why the
serial decode and the right justification give the start vectors of the
stepwise oracles in tests/oracles.py, which keep one list row per
resource and try one start at a time (tests/test_sgs.py compares them).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional, Sequence


def layout(capacities: Sequence[int], largest_demand: int = 0) -> tuple[int, int]:
    """The field width B and the guard mask for these capacities and
    demands up to `largest_demand`."""
    bits = max(max(capacities, default=0), largest_demand).bit_length() + 1
    return bits, pack([1 << (bits - 1)] * len(capacities), bits)


def pack(values: Sequence[int], bits: int) -> int:
    """Per-resource values in one int, resource k's at bit k * bits."""
    return sum(v << (k * bits) for k, v in enumerate(values))


def empty(inst, length: int) -> Profile:
    """Full capacity over [0, length), as one segment."""
    return booked(inst, length, ())


def booked(inst, length: int, bookings: Iterable[tuple[int, int, int]]) -> Profile:
    """The profile over [0, length) with every (packed demand, start,
    duration) of `bookings` booked, built in one sweep over their start and
    finish events.  The bookings must lie within [0, length) and fit
    together within the capacities."""
    delta: dict[int, int] = {}
    for demand, t, p in bookings:
        if p and demand:
            delta[t] = delta.get(t, 0) - demand
            delta[t + p] = delta.get(t + p, 0) + demand
    value = inst.guard + pack(inst.capacities, inst.slot_bits)
    times = [0]
    vals = [value]
    for t in sorted(delta):
        value += delta[t]
        if not t:
            vals[0] = value
        elif t < length:
            times.append(t)
            vals.append(value)
    times.append(length)
    return Profile(times, vals, inst.guard)


class Profile:
    """Remaining capacity over [0, length) as change points (see the module
    docstring).  Windows [t, t+p) passed in must lie within [0, length)."""

    __slots__ = ("times", "vals", "guard")

    def __init__(self, times: list[int], vals: list[int], guard: int):
        self.times = times
        self.vals = vals
        self.guard = guard

    def copy(self) -> Profile:
        return Profile(self.times[:], self.vals[:], self.guard)

    def at(self, t: int) -> int:
        """The packed remaining capacity over [t, t+1)."""
        return self.vals[bisect_right(self.times, t) - 1]

    def fits(self, demand: int, t: int, p: int) -> bool:
        """Whether the window [t, t+p) has room for the packed demand (a zero
        demand or duration fits anywhere, even past the end of the profile)."""
        if not (p and demand):
            return True
        times, vals, guard = self.times, self.vals, self.guard
        end = t + p
        i = bisect_right(times, t) - 1
        while (vals[i] - demand) & guard == guard:
            i += 1
            if times[i] >= end:
                return True
        return False

    def _book(self, demand: int, t: int, end: int, i: int, k: int) -> None:
        """Book [t, end), which starts in segment i and ends at or before
        times[k], splitting the two segments it starts and ends inside."""
        times, vals = self.times, self.vals
        if times[k] != end:
            times.insert(k, end)
            vals.insert(k, vals[k - 1])
        if times[i] != t:
            i += 1
            times.insert(i, t)
            vals.insert(i, vals[i - 1])
            k += 1
        for q in range(i, k):
            vals[q] -= demand

    def place(self, demand: int, lo: int, hi: int, p: int) -> Optional[int]:
        """Book the earliest window [t, t+p) with lo <= t <= hi that fits and
        return t; return None, booking nothing, when none fits."""
        if not (p and demand):
            return lo if lo <= hi else None
        times, vals, guard = self.times, self.vals, self.guard
        t = lo
        i = bisect_right(times, t) - 1
        while t <= hi:
            end = t + p
            k = i
            while (vals[k] - demand) & guard == guard:
                k += 1
                if times[k] >= end:
                    self._book(demand, t, end, i, k)
                    return t
            # no window can start before the end of this run of short segments
            k += 1
            n = len(vals)
            while k < n and (vals[k] - demand) & guard != guard:
                k += 1
            t = times[k]
            i = k
        return None
