"""The window searches of profile.py against a per-resource brute-force
scan.  The oracle never looks at the packed layout: a case is drawn as
one row of remaining capacities per resource, packed into slots for the
call, and the booked slots are unpacked again to compare rows."""

from hypothesis import given, settings, strategies as st

from rcpsp_hybrid import profile
from rcpsp_hybrid.model import Activity, ProjectInstance


def _fits(rows, demand, t, p):
    return all(row[tau] >= d for row, d in zip(rows, demand) for tau in range(t, t + p))


def _booked(rows, demand, t, p):
    out = [row[:] for row in rows]
    for row, d in zip(out, demand):
        for tau in range(t, t + p):
            row[tau] -= d
    return out


@st.composite
def _edge_value(draw, top):
    """0..top, often exactly 0 or top."""
    return draw(st.one_of(st.just(0), st.just(top), st.integers(0, top)))


@st.composite
def capacities(draw):
    """1 to 5 resources with capacities at the edges of a bit field."""
    m = draw(st.integers(1, 9))
    edges = st.sampled_from([0, 1, 2**m - 1, 2**m, 255, 256])
    return draw(st.lists(st.one_of(edges, st.integers(0, 300)), min_size=1, max_size=5))


@st.composite
def searches(draw):
    caps = draw(capacities())
    length = draw(st.integers(1, 14))
    rows = [draw(st.lists(_edge_value(c), min_size=length, max_size=length)) for c in caps]
    demand = [draw(_edge_value(c)) for c in caps]
    p = draw(st.integers(0, length))
    lo = draw(st.integers(0, length - p))
    hi = draw(st.integers(lo - 2, length - p))
    return caps, rows, demand, lo, hi, p


def _packed(caps, rows, demand):
    """The case in the packed layout: (slots, guard, demand, unpack)."""
    bits, guard = profile.layout(caps)
    slots = [guard + profile.pack(col, bits) for col in zip(*rows)]

    def unpack(got):
        cols = [profile.unpack(slot, bits, len(caps)) for slot in got]
        assert all(slot & guard == guard for slot in got)
        return [list(row) for row in zip(*cols)]

    assert unpack(slots) == rows
    return slots, guard, profile.pack(demand, bits), unpack


@settings(max_examples=400, deadline=None)
@given(searches())
def test_place_is_the_earliest_fit(case):
    caps, rows, demand, lo, hi, p = case
    want = next((t for t in range(lo, hi + 1) if _fits(rows, demand, t, p)), None)
    slots, guard, packed, unpack = _packed(caps, rows, demand)
    got = profile.place(slots, guard, packed, lo, hi, p)
    assert got == want
    assert unpack(slots) == (rows if want is None else _booked(rows, demand, want, p))


@settings(max_examples=400, deadline=None)
@given(searches())
def test_place_latest_is_the_latest_fit(case):
    caps, rows, demand, lo, hi, p = case
    want = next((t for t in range(hi, lo - 1, -1) if _fits(rows, demand, t, p)), None)
    slots, guard, packed, unpack = _packed(caps, rows, demand)
    got = profile.place_latest(slots, guard, packed, lo, hi, p)
    assert got == want
    assert unpack(slots) == (rows if want is None else _booked(rows, demand, want, p))


@settings(max_examples=200, deadline=None)
@given(searches())
def test_fits_and_reserve(case):
    caps, rows, demand, lo, _, p = case
    slots, guard, packed, unpack = _packed(caps, rows, demand)
    before = slots[:]
    assert profile.fits(slots, guard, packed, lo, p) == _fits(rows, demand, lo, p)
    assert slots == before
    if _fits(rows, demand, lo, p):
        profile.reserve(slots, packed, lo, p)
        assert unpack(slots) == _booked(rows, demand, lo, p)


@settings(max_examples=100, deadline=None)
@given(capacities(), st.integers(1, 6))
def test_empty_holds_every_capacity(caps, length):
    acts = [Activity(j, 0, (0,) * len(caps)) for j in range(2)]
    inst = ProjectInstance(acts, [(0, 1)], caps)
    slots = profile.empty(inst, length)
    assert len(slots) == length
    assert all(profile.unpack(s, inst.slot_bits, len(caps)) == caps for s in slots)
    assert all(s & inst.guard == inst.guard for s in slots)
