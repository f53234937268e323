"""The window searches of profile.py against a per-resource brute-force
scan.  The oracle never looks at the packed layout or the segments: a case
is drawn as one row of remaining capacities per resource, packed into
segments for the call, and the booked profile is expanded back into rows
to compare."""

import pytest
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


def _earliest(rows, demand, lo, hi, p):
    return next((t for t in range(lo, hi + 1) if _fits(rows, demand, t, p)), None)


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
    """A profile drawn as rows, how to cut it into segments, and a search
    whose window is often flush with the end of the profile."""
    caps = draw(capacities())
    length = draw(st.integers(1, 14))
    rows = [draw(st.lists(_edge_value(c), min_size=length, max_size=length)) for c in caps]
    demand = [draw(_edge_value(c)) for c in caps]
    p = draw(st.integers(0, length))
    lo = draw(st.one_of(st.just(length - p), st.integers(0, length - p)))
    hi = draw(st.one_of(st.just(length - p), st.integers(lo - 2, length - p)))
    per_slot = draw(st.booleans())
    return caps, rows, demand, lo, hi, p, per_slot


def _unpack(value, bits, n_resources):
    """The remaining capacity of each resource in one packed value."""
    low = (1 << (bits - 1)) - 1
    return [(value >> (k * bits)) & low for k in range(n_resources)]


def _expand(prof, bits, n_resources):
    """The profile as one row of remaining capacities per resource, after
    checking the segment invariants."""
    times, vals = prof.times, prof.vals
    assert times[0] == 0
    assert all(a < b for a, b in zip(times, times[1:]))
    assert len(vals) == len(times) - 1
    assert all(v & prof.guard == prof.guard for v in vals)
    cols = []
    for i, v in enumerate(vals):
        cols += [_unpack(v, bits, n_resources)] * (times[i + 1] - times[i])
    return [list(row) for row in zip(*cols)]


def _instance(caps):
    """A two-activity instance with these capacities."""
    acts = [Activity(j, 0, (0,) * len(caps)) for j in range(2)]
    return ProjectInstance(acts, [(0, 1)], caps)


def _packed(caps, rows, demand, per_slot):
    """The case in the packed layout: (profile, demand, expand).  The
    profile has one segment per slot, or one per run of equal slots."""
    bits, guard = profile.layout(caps)
    slots = [guard + profile.pack(col, bits) for col in zip(*rows)]
    times, vals = [], []
    for t, v in enumerate(slots):
        if per_slot or not vals or vals[-1] != v:
            times.append(t)
            vals.append(v)
    times.append(len(slots))
    prof = profile.Profile(times, vals, guard)

    def expand(got):
        return _expand(got, bits, len(caps))

    assert expand(prof) == rows
    return prof, profile.pack(demand, bits), expand


@settings(max_examples=400, deadline=None)
@given(searches())
def test_place_is_the_earliest_fit(case):
    caps, rows, demand, lo, hi, p, per_slot = case
    want = _earliest(rows, demand, lo, hi, p)
    prof, packed, expand = _packed(caps, rows, demand, per_slot)
    got = prof.place(packed, lo, hi, p)
    assert got == want
    assert expand(prof) == (rows if want is None else _booked(rows, demand, want, p))


@settings(max_examples=200, deadline=None)
@given(searches())
def test_fits_and_reserve(case):
    """fits and a booking at one fixed start (a search with lo == hi), and
    the copy and the value at each t beside them."""
    caps, rows, demand, lo, _, p, per_slot = case
    prof, packed, expand = _packed(caps, rows, demand, per_slot)
    bits, _ = profile.layout(caps)
    for t in range(len(rows[0])):
        assert _unpack(prof.at(t), bits, len(caps)) == [row[t] for row in rows]
    before = prof.copy()
    assert prof.fits(packed, lo, p) == _fits(rows, demand, lo, p)
    assert expand(prof) == rows
    if _fits(rows, demand, lo, p):
        assert prof.place(packed, lo, lo, p) == lo
        assert expand(prof) == _booked(rows, demand, lo, p)
        assert expand(before) == rows


@settings(max_examples=100, deadline=None)
@given(capacities(), st.integers(1, 6))
def test_empty_holds_every_capacity(caps, length):
    inst = _instance(caps)
    prof = profile.empty(inst, length)
    assert prof.times == [0, length]
    assert _expand(prof, inst.slot_bits, len(caps)) == [[c] * length for c in caps]


@settings(max_examples=200, deadline=None)
@given(capacities(), st.integers(1, 14), st.data())
def test_operation_sequences_match_the_oracle(caps, length, data):
    """Random sequences of searches from a full profile, half of them at one
    fixed start (lo == hi).  Starts and window ends are often drawn from the
    current segment boundaries and the profile's end; durations and demands
    include 0 and `hi < lo` occurs."""
    inst = _instance(caps)
    bits = inst.slot_bits
    prof = profile.empty(inst, length)
    rows = [[c] * length for c in caps]
    for _ in range(data.draw(st.integers(1, 12))):
        demand = [data.draw(_edge_value(c)) for c in caps]
        packed = profile.pack(demand, bits)
        p = data.draw(st.integers(0, length))
        bounds = [t for t in prof.times if t <= length - p]
        point = st.one_of(st.sampled_from(bounds), st.integers(0, length - p))
        lo = data.draw(point)
        if data.draw(st.booleans()):
            hi = lo
        else:
            hi = data.draw(st.one_of(point, st.integers(lo - 2, length - p)))
        want = _earliest(rows, demand, lo, hi, p)
        assert prof.place(packed, lo, hi, p) == want
        if want is not None:
            rows = _booked(rows, demand, want, p)
        assert _expand(prof, bits, len(caps)) == rows


@settings(max_examples=200, deadline=None)
@given(capacities(), st.integers(1, 14), st.data())
def test_booked_equals_one_reserve_per_booking(caps, length, data):
    """The one-sweep build gives the profile that booking each window in
    turn gives, whatever order the bookings come in."""
    inst = _instance(caps)
    bits = inst.slot_bits
    rows = [[c] * length for c in caps]
    bookings = []
    for _ in range(data.draw(st.integers(0, 10))):
        demand = [data.draw(_edge_value(c)) for c in caps]
        p = data.draw(st.integers(0, length))
        t = data.draw(st.integers(0, length - p))
        if _fits(rows, demand, t, p):
            rows = _booked(rows, demand, t, p)
            bookings.append((profile.pack(demand, bits), t, p))
    got = profile.booked(inst, length, data.draw(st.permutations(bookings)))
    assert _expand(got, bits, len(caps)) == rows


def _no_sentinel(prof, length):
    """The profile still ends at `length`, one value per segment."""
    assert prof.times[-1] == length
    assert len(prof.vals) == len(prof.times) - 1


def _chain(caps, durations, demands):
    """Real activities 1..n in parallel between the dummies."""
    sink = len(durations) + 1
    acts = [Activity(0, 0, (0,) * len(caps))]
    acts += [Activity(j, p, d) for j, (p, d) in enumerate(zip(durations, demands), 1)]
    acts.append(Activity(sink, 0, (0,) * len(caps)))
    arcs = [(0, j) for j in range(1, sink)] + [(j, sink) for j in range(1, sink)]
    return ProjectInstance(acts, arcs, caps)


def test_serial_place_leaves_no_sentinel():
    inst = _chain((3, 7), [2, 3, 1], [(3, 7), (2, 1), (1, 6)])
    prof = profile.empty(inst, inst.horizon + 1)
    starts, _ = profile.serial_place(inst, range(len(inst)), prof, inst.preds, inst.horizon)
    assert starts == [0, 0, 2, 2, 5]
    _no_sentinel(prof, inst.horizon + 1)
    assert _expand(prof, inst.slot_bits, 2)[0] == [0, 0, 0, 1, 1, 3, 3]


def test_serial_place_leaves_no_sentinel_when_a_demand_exceeds_capacity():
    """Activity 2 demands 4 of a capacity of 3: it fits nowhere, and the
    booking of activity 1 before it stays."""
    inst = _chain((3,), [2, 1], [(3,), (4,)])
    prof = profile.empty(inst, inst.horizon + 1)
    with pytest.raises(ValueError, match="activity 2 fits nowhere"):
        profile.serial_place(inst, range(len(inst)), prof, inst.preds, inst.horizon)
    _no_sentinel(prof, inst.horizon + 1)
    assert _expand(prof, inst.slot_bits, 1) == [[0, 0, 3, 3]]


def test_place_leaves_no_sentinel():
    """A booking, a search that passes `hi`, and a demand of 4 above the
    capacity of 3, which fits nowhere."""
    inst = _chain((3,), [2, 1], [(2,), (4,)])
    two, four = inst.packed_demand[1:3]
    prof = profile.empty(inst, 4)
    assert prof.place(two, 0, 3, 2) == 0
    _no_sentinel(prof, 4)
    assert prof.place(two, 1, 2, 2) == 2
    assert prof.place(four, 0, 3, 1) is None
    assert prof.place(two, 0, 0, 2) is None
    _no_sentinel(prof, 4)
    assert _expand(prof, inst.slot_bits, 1) == [[1, 1, 1, 1]]
