"""Renewable-resource profile: storage and window search.

A profile is one list of Python ints; `slots[t]` holds every resource's
remaining capacity in [t, t+1), each in its own bit field of
B = max(capacity).bit_length() + 1 bits: resource k's field, at bit kB,
holds 2**(B-1) + remaining_k.  The top bit of a field is a guard bit,
set in every stored slot; `guard` masks all of them.  A demand is packed
the same way without guard bits (`ProjectInstance.packed_demand`).

Capacities must be >= 0 and demands within them (`validate_instance`
checks both), so 0 <= d_k <= c_k < 2**(B-1): subtracting a packed demand
never borrows across fields, and resource k's guard bit survives exactly
when remaining_k >= d_k.  So (slot - demand) & guard == guard tests all
resources of a slot at once, and slot -= demand books it.

`place` and `place_latest` return the earliest (latest) fitting start
exactly, as a scan trying every candidate would: on a conflict they skip
the whole run of slots short of some resource, and no window covering
such a slot fits.  That is why the serial decode and the right
justification built on them give the start vectors of the stepwise
oracles in tests/oracles.py, which keep one list row per resource and
try one start at a time (tests/test_sgs.py compares the two).
"""

from __future__ import annotations

from typing import Optional, Sequence


def layout(capacities: Sequence[int]) -> tuple[int, int]:
    """The field width B and the guard mask for these capacities."""
    bits = max(capacities, default=0).bit_length() + 1
    return bits, pack([1 << (bits - 1)] * len(capacities), bits)


def pack(values: Sequence[int], bits: int) -> int:
    """Per-resource values in one int, resource k's at bit k * bits."""
    return sum(v << (k * bits) for k, v in enumerate(values))


def unpack(slot: int, bits: int, n_resources: int) -> list[int]:
    """The remaining capacity of each resource in one slot."""
    low = (1 << (bits - 1)) - 1
    return [(slot >> (k * bits)) & low for k in range(n_resources)]


def empty(inst, length: int) -> list[int]:
    """Full capacity in every interval [0, length)."""
    return [inst.guard + pack(inst.capacities, inst.slot_bits)] * length


def fits(slots, guard: int, demand: int, t: int, p: int) -> bool:
    """Whether the window [t, t+p) has room for the packed demand (a zero
    demand fits anywhere, even past the end of the profile)."""
    if demand:
        for tau in range(t, t + p):
            if (slots[tau] - demand) & guard != guard:
                return False
    return True


def reserve(slots, demand: int, t: int, p: int) -> None:
    """Book the packed demand over [t, t+p)."""
    for tau in range(t, t + p):
        slots[tau] -= demand


def place(slots, guard: int, demand: int, lo: int, hi: int, p: int) -> Optional[int]:
    """Book the earliest window [t, t+p) with lo <= t <= hi that fits and
    return t; return None, booking nothing, when none fits."""
    if not (p and demand):
        return lo if lo <= hi else None
    t = lo
    while t <= hi:
        for tau in range(t, t + p):
            if (slots[tau] - demand) & guard != guard:
                break
        else:
            reserve(slots, demand, t, p)
            return t
        # no window can start before the end of this run of short slots
        t = tau + 1
        while t <= hi and (slots[t] - demand) & guard != guard:
            t += 1
    return None


def place_latest(slots, guard: int, demand: int, lo: int, hi: int, p: int) -> Optional[int]:
    """Book the latest window [t, t+p) with lo <= t <= hi that fits and
    return t; return None, booking nothing, when none fits."""
    if not (p and demand):
        return hi if lo <= hi else None
    t = hi
    while t >= lo:
        for tau in range(t + p - 1, t - 1, -1):
            if (slots[tau] - demand) & guard != guard:
                break
        else:
            reserve(slots, demand, t, p)
            return t
        # the window must end before this run of short slots
        last = tau - 1
        while last >= lo and (slots[last] - demand) & guard != guard:
            last -= 1
        t = last - p + 1
    return None
