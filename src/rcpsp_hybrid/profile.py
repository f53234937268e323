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

Capacities and demands are >= 0, so 0 <= d_k < 2**(B-1): subtracting
a packed demand never borrows across fields, and resource k's guard bit
survives exactly when remaining_k >= d_k.  So (value - demand) & guard ==
guard tests all resources of a segment at once, and value -= demand books
it.

A profile is built in one sweep over start and finish events (`booked`).
The `Profile` methods share one scan, `_earliest`, and one booking,
`_add`: `fits` scans one start, `place` books the earliest fit in a
range of starts, and `release` gives a booking back.  `_earliest` tests
a window one segment at a time, and after a short segment the next
window starts where that segment ends; every window its callers pass
lies inside the profile, so it needs no bound test.  N_A builds the full
profile of a schedule once (`neighborhood.booked_profile`) and releases
its block from a copy of it on each move.

`serial_place` is the serial decode (sgs.serial_sgs), the right
justification (sgs._right_justify) and N_B's prefix decode, so it makes
nearly every placement of a solve: in a λ = 8 000 solve of perfbench's
scarce120 instance, 645 182 placements came from it against 22 602 from
N_A and 3 461 from N_B, which call `Profile.place`.  So it is one flat
loop that computes each activity's earliest start, tests the windows
and books the fit inline, with no method call per activity.  Against one
`place` call per activity, serial decodes with their right
justifications took about 1.2x less CPU on ProGen j120, j30 and
scarce120 instances (timed alternately in one process, equal starts),
and perfbench's progen-j120 schedules_per_s rose 1.14x (BENCH_14.json).

On a conflict the loop skips the whole run of segments short of some
resource, since no window covering such a segment fits; the segment
that ends the run fits, so the next window test starts one segment
after it.  For the length of the loop, a sentinel segment is appended:
the value with every bit set, which fits every demand of the layout,
from the profile's end to a far end past every window that starts
inside the profile.  So a skip stops at the sentinel at the latest and
needs no bound test; a window that reaches the sentinel ends past the
profile, and one test of the window's end after the search catches it.
A `finally` removes the sentinel again, also when the search raises.
The sentinel took 1.11-1.13x off each call against the loop that tested
`k < n` in each skip and the horizon before each window, on about
5 000-7 000 placement loops captured from ProGen j120, j30 and scarce120
solves (timed alternately in one process; equal starts, finishes and
profiles), and perfbench's progen-j120 schedules_per_s rose 1.11x with
the int-keyed right justification order (BENCH_15.json).  The `Profile`
methods run too rarely for it to pay: on a sample of the 52 400 `place`
and `fits` calls of the solve above, the shared scan took about 12 %
longer per call than a copy of the sentinel loop, about 0.3 % of the
solve's CPU.

The right justification needs the latest fitting start instead, and
gets it from `serial_place` on a mirrored time axis: over [0, T] the
window [t, t+p) maps to [T-t-p, T-t), so the latest fit before a
deadline is the earliest fit after a release time.  That is why the
serial decode and the right justification give the start vectors of the
stepwise oracles in tests/oracles.py, which keep one list row per
resource and try one start at a time (tests/test_sgs.py compares them).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
    return Profile([0, length], [inst.packed_capacity], inst.guard)


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
    value = inst.packed_capacity
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


def _all_fit(guard: int) -> int:
    """The sentinel segment value: every bit of all K fields of B bits set,
    2**(B*K) - 1, where B*K is the length of the guard mask.  It fits every
    packed demand of the layout."""
    return (1 << guard.bit_length()) - 1


def _fits_nowhere(j: int, horizon: int) -> ValueError:
    return ValueError(f"activity {j} fits nowhere within the horizon {horizon}")


def serial_place(
    inst,
    order: Sequence[int],
    rem: Profile,
    preds: Sequence[Sequence[int]],
    horizon: int,
) -> tuple[list[int], list[int]]:
    """Place `order` serially into the profile `rem` (covering at least
    [0, horizon)): each activity at the earliest start after the finishes
    of its `preds` at which it fits and finishes by `horizon`.  Returns the
    start and finish vectors; an activity missing from the order keeps
    start and finish 0, so it holds back no activity that lists it in
    `preds`.  Raises ValueError when an activity fits nowhere."""
    durs = inst.durations
    packed = inst.packed_demand
    times, vals, guard = rem.times, rem.vals, rem.guard
    starts = [0] * len(durs)
    finish = [0] * len(durs)
    # the sentinel segment ends every run of short segments, and its far
    # end lies past every window that starts within the profile
    vals.append(_all_fit(guard))
    times.append(times[-1] + max(durs))
    try:
        for j in order:
            p = durs[j]
            t = 0
            for q in preds[j]:
                f = finish[q]
                if f > t:
                    t = f
            end = t + p
            d = packed[j]
            if p and d:
                i = k = bisect_right(times, t) - 1
                while True:
                    # segments i..k-1 fit the window [t, end); test on from k
                    while (vals[k] - d) & guard == guard:
                        k += 1
                        if times[k] >= end:
                            break
                    else:
                        # no window can start before the end of this run of
                        # short segments; the segment after it fits, so the
                        # next test starts one segment on
                        k += 1
                        while (vals[k] - d) & guard != guard:
                            k += 1
                        i = k
                        t = times[k]
                        end = t + p
                        k += 1
                        if times[k] < end:
                            continue
                    break
                # a window reaching the sentinel ends past the horizon too
                if end > horizon:
                    raise _fits_nowhere(j, horizon)
                # book [t, end): split the segments it starts and ends inside
                if times[k] != end:
                    times.insert(k, end)
                    vals.insert(k, vals[k - 1])
                if times[i] != t:
                    i += 1
                    times.insert(i, t)
                    vals.insert(i, vals[i - 1])
                    k += 1
                if k == i + 1:
                    vals[i] -= d
                else:
                    for q in range(i, k):
                        vals[q] -= d
            elif end > horizon:
                raise _fits_nowhere(j, horizon)
            starts[j] = t
            finish[j] = end
    finally:
        vals.pop()
        times.pop()
    return starts, finish


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
        return self._earliest(demand, t, t, p) is not None

    def place(self, demand: int, lo: int, hi: int, p: int) -> Optional[int]:
        """Book the earliest window [t, t+p) with lo <= t <= hi that fits and
        return t; return None, booking nothing, when none fits.  N_B asks
        with lo == hi."""
        t = self._earliest(demand, lo, hi, p)
        if t is not None:
            self._add(-demand, t, t + p)
        return t

    def release(self, demand: int, t: int, p: int) -> None:
        """Give the packed demand back over [t, t+p): undo a booking made
        there.  N_A releases the block's members from a copy of the
        incumbent's full profile (`booked`), instead of booking every
        activity outside the block again on each move."""
        self._add(demand, t, t + p)

    def _earliest(self, demand: int, lo: int, hi: int, p: int) -> Optional[int]:
        """The earliest t in [lo, hi] whose window [t, t+p) fits the packed
        demand, or None; lo itself for a zero demand or duration."""
        if lo > hi:
            return None
        if not (p and demand):
            return lo
        times, vals, guard = self.times, self.vals, self.guard
        t = lo
        k = bisect_right(times, t) - 1
        while True:
            end = t + p
            while (vals[k] - demand) & guard == guard:
                k += 1
                if times[k] >= end:
                    return t
            # no window covering segment k fits: the next starts at its end
            k += 1
            t = times[k]
            if t > hi:
                return None

    def _add(self, delta: int, t: int, end: int) -> None:
        """Add the packed `delta` over [t, end), splitting the segments that
        t and end fall inside; a zero delta or an empty window changes
        nothing."""
        if not (delta and end > t):
            return
        times, vals = self.times, self.vals
        i = bisect_right(times, t) - 1
        if times[i] != t:
            i += 1
            times.insert(i, t)
            vals.insert(i, vals[i - 1])
        k = bisect_left(times, end, i)
        if times[k] != end:
            times.insert(k, end)
            vals.insert(k, vals[k - 1])
        for q in range(i, k):
            vals[q] += delta
