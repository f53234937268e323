"""The window searches of profile.py against a per-resource brute-force
scan.  The oracle never looks at the packed layout: a case is drawn as one
row of remaining capacities per resource, packed into slots for the call,
and the booked profile is expanded back into rows to compare."""

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
    """A profile drawn as rows and a search whose window is often flush
    with the end of the profile."""
    caps = draw(capacities())
    length = draw(st.integers(1, 14))
    rows = [draw(st.lists(_edge_value(c), min_size=length, max_size=length)) for c in caps]
    demand = [draw(_edge_value(c)) for c in caps]
    p = draw(st.integers(0, length))
    lo = draw(st.one_of(st.just(length - p), st.integers(0, length - p)))
    hi = draw(st.one_of(st.just(length - p), st.integers(lo - 2, length - p)))
    return caps, rows, demand, lo, hi, p


def _unpack(value, bits, n_resources):
    """The remaining capacity of each resource in one packed value."""
    low = (1 << (bits - 1)) - 1
    return [(value >> (k * bits)) & low for k in range(n_resources)]


def _expand(prof, bits, n_resources):
    """The profile as one row of remaining capacities per resource, after
    checking that every slot keeps its guard bits."""
    assert all(v & prof.guard == prof.guard for v in prof.slots)
    cols = [_unpack(v, bits, n_resources) for v in prof.slots]
    return [list(row) for row in zip(*cols)]


def _instance(caps):
    """A two-activity instance with these capacities."""
    acts = [Activity(j, 0, (0,) * len(caps)) for j in range(2)]
    return ProjectInstance(acts, [(0, 1)], caps)


def _packed(caps, rows, demand):
    """The case in the packed layout: (profile, demand, expand)."""
    bits, guard = profile.layout(caps)
    slots = [guard + profile.pack(col, bits) for col in zip(*rows)]
    prof = profile.Profile(slots, guard)

    def expand(got):
        return _expand(got, bits, len(caps))

    assert expand(prof) == rows
    return prof, profile.pack(demand, bits), expand


@settings(max_examples=400, deadline=None)
@given(searches())
def test_place_is_the_earliest_fit(case):
    caps, rows, demand, lo, hi, p = case
    want = _earliest(rows, demand, lo, hi, p)
    prof, packed, expand = _packed(caps, rows, demand)
    got = prof.place(packed, lo, hi, p)
    assert got == want
    assert expand(prof) == (rows if want is None else _booked(rows, demand, want, p))


@settings(max_examples=200, deadline=None)
@given(searches())
def test_fits_and_reserve(case):
    """fits and a booking at one fixed start (a search with lo == hi), and
    the copy and the value at each t beside them."""
    caps, rows, demand, lo, _, p = case
    prof, packed, expand = _packed(caps, rows, demand)
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
    """With no bookings, every slot holds the full capacity."""
    inst = _instance(caps)
    prof = profile.booked(inst, length, ())
    assert prof.slots == [inst.packed_capacity] * length
    assert _expand(prof, inst.slot_bits, len(caps)) == [[c] * length for c in caps]


@settings(max_examples=200, deadline=None)
@given(capacities(), st.integers(1, 14), st.data())
def test_operation_sequences_match_the_oracle(caps, length, data):
    """Random sequences of searches from a full profile, half of them at one
    fixed start (lo == hi).  Durations and demands include 0 and `hi < lo`
    occurs."""
    inst = _instance(caps)
    bits = inst.slot_bits
    prof = profile.booked(inst, length, ())
    rows = [[c] * length for c in caps]
    for _ in range(data.draw(st.integers(1, 12))):
        demand = [data.draw(_edge_value(c)) for c in caps]
        packed = profile.pack(demand, bits)
        p = data.draw(st.integers(0, length))
        lo = data.draw(st.integers(0, length - p))
        if data.draw(st.booleans()):
            hi = lo
        else:
            hi = data.draw(st.integers(lo - 2, length - p))
        want = _earliest(rows, demand, lo, hi, p)
        assert prof.place(packed, lo, hi, p) == want
        if want is not None:
            rows = _booked(rows, demand, want, p)
        assert _expand(prof, bits, len(caps)) == rows


@settings(max_examples=200, deadline=None)
@given(capacities(), st.integers(1, 14), st.data())
def test_booked_equals_one_reserve_per_booking(caps, length, data):
    """The build gives the profile that booking each window in turn gives,
    whatever order the bookings come in."""
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


@settings(max_examples=200, deadline=None)
@given(capacities(), st.integers(1, 14), st.data())
def test_release_gives_back_part_of_a_booking(caps, length, data):
    """Releasing any sub-window of a booked window, in any order, leaves
    the profile the bookings made without those parts."""
    inst = _instance(caps)
    bits = inst.slot_bits
    rows = [[c] * length for c in caps]
    bookings = []
    for _ in range(data.draw(st.integers(0, 8))):
        demand = [data.draw(_edge_value(c)) for c in caps]
        p = data.draw(st.integers(0, length))
        t = data.draw(st.integers(0, length - p))
        if _fits(rows, demand, t, p):
            rows = _booked(rows, demand, t, p)
            bookings.append((demand, t, p))
    prof = profile.booked(inst, length, [(profile.pack(d, bits), t, p) for d, t, p in bookings])
    for demand, t, p in data.draw(st.permutations(bookings)):
        if data.draw(st.booleans()):
            continue
        lo = data.draw(st.integers(t, t + p))
        hi = data.draw(st.integers(lo, t + p))
        prof.release(profile.pack(demand, bits), lo, hi - lo)
        rows = _booked(rows, [-d for d in demand], lo, hi - lo)
        assert _expand(prof, bits, len(caps)) == rows


def _no_sentinel(prof, length):
    """The profile still holds one slot per unit of [0, length)."""
    assert len(prof.slots) == length


def _chain(caps, durations, demands):
    """Real activities 1..n in parallel between the dummies."""
    sink = len(durations) + 1
    acts = [Activity(0, 0, (0,) * len(caps))]
    acts += [Activity(j, p, d) for j, (p, d) in enumerate(zip(durations, demands), 1)]
    acts.append(Activity(sink, 0, (0,) * len(caps)))
    arcs = [(0, j) for j in range(1, sink)] + [(j, sink) for j in range(1, sink)]
    return ProjectInstance(acts, arcs, caps)


def test_place_leaves_no_sentinel():
    """A booking, a search that passes `hi`, and a demand of 3 above the
    capacity of 1 the two bookings leave, which fits nowhere."""
    inst = _chain((3,), [2, 1], [(2,), (3,)])
    two, three = inst.packed_demand[1:3]
    prof = profile.booked(inst, 4, ())
    assert prof.place(two, 0, 3, 2) == 0
    _no_sentinel(prof, 4)
    assert prof.place(two, 1, 2, 2) == 2
    assert prof.place(three, 0, 3, 1) is None
    assert prof.place(two, 0, 0, 2) is None
    _no_sentinel(prof, 4)
    assert _expand(prof, inst.slot_bits, 1) == [[1, 1, 1, 1]]
