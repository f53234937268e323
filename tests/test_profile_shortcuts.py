"""A zero demand or a zero duration takes no room: `fits` holds and
`place` returns lo, even for a window past the end of the profile, and
neither `place` nor `release` changes the profile."""

import pytest

from rcpsp_hybrid import profile
from rcpsp_hybrid.model import Activity, ProjectInstance


@pytest.mark.parametrize("lo", [0, 1, 3, 4, 9])
@pytest.mark.parametrize("demand, p", [(0, 3), (2, 0), (0, 0)])
def test_zero_demand_or_duration_fits_at_lo(lo, demand, p):
    inst = ProjectInstance([Activity(0, 0, (0,)), Activity(1, 0, (0,))], [(0, 1)], (3,))
    packed = profile.pack([demand], inst.slot_bits)
    prof = profile.empty(inst, 4)
    assert prof.place(profile.pack([2], inst.slot_bits), 1, 1, 2) == 1
    before = prof.copy()
    assert prof.fits(packed, lo, p)
    assert prof.place(packed, lo, lo + 5, p) == lo
    assert prof.place(packed, lo, lo - 1, p) is None
    prof.release(packed, lo, p)
    assert (prof.times, prof.vals) == (before.times, before.vals)
