"""Host-speed probe: scales CPU seconds to a host of fixed speed.

On a shared virtual machine the same pure-Python work can take from 0.7 to
1.4 times its usual CPU time from one minute to the next, as other tenants
load the physical cores.  A `SpeedProbe` runs a fixed calibration loop
(`ref_unit`, about 1 ms) every PERIOD seconds in a thread while the measured
code runs.  The two threads take turns holding the GIL, so they run on the
same core under the same load, and the loop's rate tracks the speed the
measured code saw.  On a 2-vCPU shared host, over 55 five-second chunks of
decoding, the chunks' CPU time spread by 0.17 of its median (IQR) and the
normalized time by 0.04.

`factor(units, cpu)` is the host's speed relative to a host on which the
loop runs REF_RATE units per CPU second; CPU seconds times that factor are
seconds on such a host.  The loop uses nothing from the library, so a
change to the solver cannot move the factor.
"""

from __future__ import annotations

import random
import threading
import time

PERIOD = 0.02  # seconds between calibration units; about 5 % of one core
REF_RATE = 700.0  # units per CPU second on the nominal host


def ref_unit() -> int:
    """A fixed mix of interpreter work: list building, dict counting,
    branching arithmetic, a profile update and a sort."""
    rng = random.Random(12345)
    a = [rng.randrange(1000) for _ in range(900)]
    counts: dict[int, int] = {}
    for x in a:
        counts[x] = counts.get(x, 0) + 1
    s = 0
    for i, x in enumerate(a):
        s += x * i if x > 500 else -counts[x]
    profile = [0] * 200
    for x in a:
        t = x % 150
        for k in range(t, t + 5):
            profile[k] += 1
    a.sort()
    return s + sum(profile)


class SpeedProbe:
    """Context manager: while its block runs, counts calibration units
    (`units`) and the CPU seconds they took (`cpu`)."""

    def __init__(self):
        self.units = 0
        self.cpu = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        t0 = time.thread_time()
        while not self._stop.wait(PERIOD):
            ref_unit()
            self.units += 1
        self.cpu = time.thread_time() - t0

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def factor(units: int, cpu: float) -> float:
    """Speed of the host the units ran on, relative to the nominal host;
    1.0 when nothing was sampled."""
    return units / cpu / REF_RATE if units and cpu else 1.0
