"""The window searches of profile.py against a brute-force scan."""

from hypothesis import given, settings, strategies as st

from rcpsp_hybrid import profile


def _fits(rows, demands, t, p):
    return all(rows[k][tau] >= d for k, d in demands for tau in range(t, t + p))


@st.composite
def searches(draw):
    n_res = draw(st.integers(1, 3))
    length = draw(st.integers(1, 14))
    rows = [draw(st.lists(st.integers(0, 4), min_size=length, max_size=length))
            for _ in range(n_res)]
    demands = [(k, d) for k in range(n_res) if (d := draw(st.integers(0, 4)))]
    p = draw(st.integers(0, length))
    lo = draw(st.integers(0, length - p))
    hi = draw(st.integers(lo - 2, length - p))
    return rows, demands, lo, hi, p


def _booked(rows, demands, t, p):
    out = [row[:] for row in rows]
    for k, d in demands:
        for tau in range(t, t + p):
            out[k][tau] -= d
    return out


@settings(max_examples=400, deadline=None)
@given(searches())
def test_place_is_the_earliest_fit(case):
    rows, demands, lo, hi, p = case
    want = next((t for t in range(lo, hi + 1) if _fits(rows, demands, t, p)), None)
    got_rows = [row[:] for row in rows]
    got = profile.place(got_rows, demands, lo, hi, p)
    assert got == want
    assert got_rows == (rows if want is None else _booked(rows, demands, want, p))


@settings(max_examples=400, deadline=None)
@given(searches())
def test_place_latest_is_the_latest_fit(case):
    rows, demands, lo, hi, p = case
    want = next(
        (t for t in range(hi, lo - 1, -1) if _fits(rows, demands, t, p)), None
    )
    got_rows = [row[:] for row in rows]
    got = profile.place_latest(got_rows, demands, lo, hi, p)
    assert got == want
    assert got_rows == (rows if want is None else _booked(rows, demands, want, p))


@settings(max_examples=200, deadline=None)
@given(searches())
def test_fits_and_reserve(case):
    rows, demands, lo, _, p = case
    before = [row[:] for row in rows]
    assert profile.fits(rows, demands, lo, p) == _fits(rows, demands, lo, p)
    assert rows == before
    profile.reserve(rows, demands, lo, p)
    assert rows == _booked(before, demands, lo, p)

