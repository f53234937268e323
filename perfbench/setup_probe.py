"""Time the library's set-up in a fresh interpreter.

Set-up is the import of `rcpsp_hybrid`, the load of a dataset directory,
and one warm-up decode per decoder (serial SGS, parallel SGS, and the
right justification inside FBI), which is where numba compiles when it is
present.  Prints the CPU seconds this thread took, and the units and CPU
seconds of the host-speed probe that ran beside it (see hostspeed.py).

    python3 perfbench/setup_probe.py <library source dir> <dataset dir>
"""

import sys
import time

import hostspeed


def main(src: str, data_dir: str) -> None:
    t0 = time.thread_time()
    with hostspeed.SpeedProbe() as probe:
        sys.path.insert(0, src)
        import random

        import rcpsp_hybrid as rh

        inst = rh.load_dataset(data_dir)[0][1]
        lst = rh.random_feasible_list(inst, random.Random(0))
        sched = rh.serial_sgs(inst, lst)
        rh.parallel_sgs(inst, lst)
        rh.fbi(inst, sched, max_passes=1)
        cpu = time.thread_time() - t0
    print(cpu, probe.units, probe.cpu)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
