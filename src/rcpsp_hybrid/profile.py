"""Renewable-resource profile: storage and window search.

A `Profile` stores the remaining capacity over [0, length) as one list,
`slots`, whose slots[t] packs every resource's value over [t, t+1).

The value of a slot packs all resources into one int, each in its own
bit field of B bits, where B - 1 bits hold the largest capacity and the
largest demand: resource k's field, at bit kB, holds 2**(B-1) +
remaining_k.  The top bit of a field is a guard bit, set in every stored
value; `guard` masks all of them.  A demand is packed the same way without
guard bits (`ProjectInstance.packed_demand`).

Capacities and demands are >= 0, so 0 <= d_k < 2**(B-1): subtracting
a packed demand never borrows across fields, and resource k's guard bit
survives exactly when remaining_k >= d_k.  So (value - demand) & guard ==
guard tests all resources of a slot at once, and value -= demand books
it.

`booked` builds a profile from full capacity by subtracting each booking
over its window.  The `Profile` methods share one scan, `_earliest`:
`fits` scans one start, `place` books the earliest fit in a range of
starts, and `release` gives a booking back.  `_earliest` tests a window
slot by slot, and after a short slot the next window starts one past
it, so each slot is tested once; every window its callers pass lies
inside the profile, so it needs no bound test.

`serial_place` is the serial decode (sgs.serial_sgs), the right
justification (sgs._right_justify) and N_B's prefix decode, so it makes
nearly every placement of a solve: in a λ = 8 000 solve of perfbench's
scarce120 instance, 645 182 placements came from it against 22 602 from
N_A and 3 461 from N_B, which call `Profile.place`.  So it is one flat
loop that computes each activity's earliest start, tests the windows
and books the fit inline, with no method call per activity.  It starts
from full capacity and keeps its own profile, local to the call, as
linked segments: three lists of segment start, packed value and next
node.  A booking splits a segment by appending a node and relinking, so
no list grows in the middle.

Every placed activity's finish is the start of a node, and the loop
records that node per activity.  An activity's earliest start is its
latest predecessor's finish, so the window search starts at that
predecessor's node, with no search for the segment that holds the start,
and every window found starts where a node starts: a booking splits at
its end only.  An activity with a duration splits there even when it
demands nothing, and a zero-duration one takes its start node as its
finish node.  Segments are never merged, so a split that leaves two
equal values changes no start.  Against the change-point loop before it,
which found each start by `bisect_right` and split by `list.insert`,
each call took 0.72-0.92x the CPU on 3 000 placement loops sampled from
each of ProGen j120, j30 and scarce120 solves (timed alternately in one
process; equal starts and finishes), and perfbench's progen-j120
schedules_per_s rose 1.20x (10 of 10 pairs; BENCH_18.json).

On a conflict the loop skips the whole run of segments short of some
resource, since no window covering such a segment fits; the segment
that ends the run fits, so the next window test starts one segment
after it.  The profile ends in a sentinel node: the value with every
bit set, which fits every demand of the layout, from the profile's end
to a far node past every window that starts inside the profile.  So a
skip stops at the sentinel at the latest and needs no bound test; a
window that reaches the sentinel ends past the profile, and one test of
the window's end after the search catches it.  The `Profile` methods
run too rarely for segments or a sentinel to pay: in λ = 8 000 solves
of scarce120 they and `booked` took 3.4-4.2 % of the time on slots,
against 2.8-3.3 % on change points split by `list.insert` (8 pairs in
fresh processes, each side first in 4; 0.2-0.35 % each on ProGen j120).

The right justification needs the latest fitting start instead, and
gets it from `serial_place` on a mirrored time axis: over [0, T] the
window [t, t+p) maps to [T-t-p, T-t), so the latest fit before a
deadline is the earliest fit after a release time.  That is why the
serial decode and the right justification give the start vectors of the
stepwise oracles in tests/oracles.py, which keep one list row per
resource and try one start at a time (tests/test_sgs.py compares them).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def layout(capacities: Sequence[int], largest_demand: int = 0) -> tuple[int, int]:
    """The field width B and the guard mask for these capacities and
    demands up to `largest_demand`."""
    bits = max(max(capacities, default=0), largest_demand).bit_length() + 1
    return bits, pack([1 << (bits - 1)] * len(capacities), bits)


def pack(values: Sequence[int], bits: int) -> int:
    """Per-resource values in one int, resource k's at bit k * bits."""
    return sum(v << (k * bits) for k, v in enumerate(values))


def booked(inst, length: int, bookings: Iterable[tuple[int, int, int]]) -> Profile:
    """The profile over [0, length) with every (packed demand, start,
    duration) of `bookings` booked.  The bookings must lie within
    [0, length) and fit together within the capacities."""
    slots = [inst.packed_capacity] * length
    for demand, t, p in bookings:
        if demand:
            for u in range(t, t + p):
                slots[u] -= demand
    return Profile(slots, inst.guard)


def _all_fit(guard: int) -> int:
    """The sentinel segment value: every bit of all K fields of B bits set,
    2**(B*K) - 1, where B*K is the length of the guard mask.  It fits every
    packed demand of the layout."""
    return (1 << guard.bit_length()) - 1


def serial_place(
    inst,
    order: Sequence[int],
    preds: Sequence[Sequence[int]],
    horizon: int,
) -> tuple[list[int], list[int]]:
    """Place `order` serially from full capacity over [0, horizon]: each
    activity at the earliest start after the finishes of its `preds` at
    which it fits and finishes by `horizon`.  Returns the start and finish
    vectors; an activity missing from the order keeps start and finish 0,
    so it holds back no activity that lists it in `preds`.  Raises
    ValueError when an activity fits nowhere."""
    durs = inst.durations
    packed = inst.packed_demand
    guard = inst.guard
    n = len(durs)
    # the linked segments: node i covers [times[i], times[nxt[i]]) with
    # vals[i] remaining.  Node 0 starts at 0, node 1 is the sentinel from
    # the profile's end, and node 2 only marks the sentinel's far end,
    # past every window that starts within the profile.
    times = [0, horizon + 1, horizon + 1 + max(durs)]
    vals = [inst.packed_capacity, _all_fit(guard), 0]
    nxt = [1, 2, 2]
    starts = [0] * n
    finish = [0] * n
    # the node that starts at each activity's finish; an activity not
    # placed finishes at 0, where node 0 starts
    node = [0] * n
    for j in order:
        p = durs[j]
        t = 0
        i = 0
        for q in preds[j]:
            f = finish[q]
            if f > t:
                t = f
                i = node[q]
        end = t + p
        if p:
            d = packed[j]
            k = i
            while True:
                # the nodes from i up to k fit the window [t, end); test
                # on from k
                while (vals[k] - d) & guard == guard:
                    k = nxt[k]
                    if times[k] >= end:
                        break
                else:
                    # no window can start before the end of this run of
                    # short segments; the segment after it fits, so the
                    # next test starts one segment on
                    k = nxt[k]
                    while (vals[k] - d) & guard != guard:
                        k = nxt[k]
                    i = k
                    t = times[k]
                    end = t + p
                    k = nxt[k]
                    if times[k] < end:
                        continue
                break
            # a window reaching the sentinel ends past the horizon too
            if end > horizon:
                raise ValueError(f"activity {j} fits nowhere within the horizon {horizon}")
            # book [t, end), which starts where node i starts: take d from
            # node i up to the node before k, and split that one at end
            q = i
            vals[q] -= d
            while nxt[q] != k:
                q = nxt[q]
                vals[q] -= d
            if times[k] != end:
                nxt.append(k)
                nxt[q] = k = len(times)
                times.append(end)
                vals.append(vals[q] + d)
            node[j] = k
        else:
            node[j] = i
        starts[j] = t
        finish[j] = end
    return starts, finish


class Profile:
    """Remaining capacity over [0, length) as one packed int per slot (see
    the module docstring).  Windows [t, t+p) passed in must lie within it."""

    __slots__ = ("slots", "guard")

    def __init__(self, slots: list[int], guard: int):
        self.slots = slots
        self.guard = guard

    def copy(self) -> Profile:
        return Profile(self.slots[:], self.guard)

    def at(self, t: int) -> int:
        """The packed remaining capacity over [t, t+1)."""
        return self.slots[t]

    def fits(self, demand: int, t: int, p: int) -> bool:
        """Whether the window [t, t+p) has room for the packed demand (a zero
        demand or duration fits anywhere, even past the end of the profile)."""
        return self._earliest(demand, t, t, p) is not None

    def place(self, demand: int, lo: int, hi: int, p: int) -> Optional[int]:
        """Book the earliest window [t, t+p) with lo <= t <= hi that fits and
        return t; return None, booking nothing, when none fits.  N_B asks
        with lo == hi."""
        t = self._earliest(demand, lo, hi, p)
        if t is not None and demand:
            slots = self.slots
            for u in range(t, t + p):
                slots[u] -= demand
        return t

    def release(self, demand: int, t: int, p: int) -> None:
        """Give the packed demand back over [t, t+p): undo a booking made
        there.  N_A releases the block's members from a copy of the
        incumbent's full profile (`booked`), instead of booking every
        activity outside the block again on each move."""
        if demand:
            slots = self.slots
            for u in range(t, t + p):
                slots[u] += demand

    def _earliest(self, demand: int, lo: int, hi: int, p: int) -> Optional[int]:
        """The earliest t in [lo, hi] whose window [t, t+p) fits the packed
        demand, or None; lo itself for a zero demand or duration."""
        if lo > hi:
            return None
        if not (p and demand):
            return lo
        slots, guard = self.slots, self.guard
        t = u = lo
        while True:
            # slots t to u - 1 fit the window [t, t+p); test on from u
            end = t + p
            while (slots[u] - demand) & guard == guard:
                u += 1
                if u == end:
                    return t
            # no window covering slot u fits: the next starts one past it
            t = u = u + 1
            if t > hi:
                return None
