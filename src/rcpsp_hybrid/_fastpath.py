"""Numba-compiled kernels for the two decode hot loops.

Without numba the decoders place activities through profile.py, whose
packed-slot window searches compute the same start vectors (they test
every resource of a slot at once and skip runs of short slots that these
kernels step through one resource and one start at a time;
tests/test_sgs.py compares the two); the kernels exist because the
benchmark budget (tens of thousands of decodes per instance) is
dominated by these two loops.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def deco(fn):
            return fn

        return deco if not (args and callable(args[0])) else args[0]


@njit(cache=True)
def serial_decode(order, durs, dem, caps, pred_ptr, pred_idx, horizon):
    n2 = order.shape[0]
    K = caps.shape[0]
    rem = np.empty((K, horizon + 1), np.int32)
    for k in range(K):
        for t in range(horizon + 1):
            rem[k, t] = caps[k]
    starts = np.zeros(n2, np.int32)
    finish = np.zeros(n2, np.int32)
    for idx in range(n2):
        j = order[idx]
        p = durs[j]
        est = 0
        for q in range(pred_ptr[j], pred_ptr[j + 1]):
            f = finish[pred_idx[q]]
            if f > est:
                est = f
        if p == 0:
            starts[j] = est
            finish[j] = est
            continue
        t = est
        while True:
            conflict = -1
            for k in range(K):
                d = dem[j, k]
                if d == 0:
                    continue
                for tau in range(t, t + p):
                    if rem[k, tau] < d:
                        conflict = tau
                        break
                if conflict >= 0:
                    break
            if conflict < 0:
                break
            t = conflict + 1
        starts[j] = t
        finish[j] = t + p
        for k in range(K):
            d = dem[j, k]
            if d != 0:
                for tau in range(t, t + p):
                    rem[k, tau] -= d
    return starts


@njit(cache=True)
def right_justify_decode(order, durs, dem, caps, succ_ptr, succ_idx, sink, T):
    n2 = order.shape[0]
    K = caps.shape[0]
    rem = np.empty((K, T + 1), np.int32)
    for k in range(K):
        for t in range(T + 1):
            rem[k, t] = caps[k]
    new_start = np.zeros(n2, np.int32)
    done = np.zeros(n2, np.uint8)
    new_start[sink] = T
    done[sink] = 1
    for idx in range(n2):
        j = order[idx]
        if done[j] == 1:
            continue
        p = durs[j]
        deadline = T
        for q in range(succ_ptr[j], succ_ptr[j + 1]):
            ns = new_start[succ_idx[q]]
            if ns < deadline:
                deadline = ns
        t = deadline - p
        if p != 0:
            while True:
                conflict = -1
                for k in range(K):
                    d = dem[j, k]
                    if d == 0:
                        continue
                    for tau in range(t + p - 1, t - 1, -1):
                        if rem[k, tau] < d:
                            conflict = tau
                            break
                    if conflict >= 0:
                        break
                if conflict < 0:
                    break
                t = conflict - p
            for k in range(K):
                d = dem[j, k]
                if d != 0:
                    for tau in range(t, t + p):
                        rem[k, tau] -= d
        new_start[j] = t
        done[j] = 1
    new_start[0] = 0
    return new_start


def instance_arrays(inst):
    """Build (and cache on the instance) the flat arrays the kernels use."""
    cached = getattr(inst, "_kernel_arrays", None)
    if cached is not None:
        return cached
    n2 = len(inst)
    durs = np.asarray(inst.durations, np.int32)
    dem = np.asarray(inst.demands, np.int32).reshape(n2, inst.n_resources)
    caps = np.asarray(inst.capacities, np.int32)

    def csr(adj):
        ptr = np.zeros(n2 + 1, np.int32)
        for j in range(n2):
            ptr[j + 1] = ptr[j] + len(adj[j])
        idx = np.empty(ptr[-1], np.int32)
        at = 0
        for j in range(n2):
            for x in adj[j]:
                idx[at] = x
                at += 1
        return ptr, idx

    pred_ptr, pred_idx = csr(inst.preds)
    succ_ptr, succ_idx = csr(inst.succs)
    arrays = (durs, dem, caps, pred_ptr, pred_idx, succ_ptr, succ_idx)
    inst._kernel_arrays = arrays
    return arrays
