"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same operation runs 15 to 30 % faster or slower for
minutes at a time, and all four workloads speed up and slow down together.
The runner times this kernel after every set-up and every operation and
scales the program's times by ``REFERENCE_S / mean(kernel times)``: a run in
a slow stretch has its times scaled down as much as the kernel slowed.  The
mean, not the median: from one millisecond to the next the machine runs at
one of two speeds, about a factor of two apart, and an operation's time
integrates over both, as the mean of many short samples does.

The kernel is the solver's mix in miniature, none of it the program's code:
a scatter-add into a fresh m x d x d stack, a dense product of the stacks, a
Cholesky factorization and a little Python-level work.  Its inputs are fixed,
so its time depends only on the machine.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one kernel call on the development machine (2.1 GHz Xeon
# vCPU, one BLAS thread); the scaled times are seconds at that speed.
REFERENCE_S = 0.015

_M, _D, _TERMS, _ROUNDS = 40, 24, 400, 40
_rng = np.random.default_rng(0)
_ROW = _rng.integers(0, _M, _TERMS)
_P = _rng.integers(0, _D, _TERMS)
_Q = _rng.integers(0, _D, _TERMS)
_C = _rng.standard_normal(_TERMS)
_B = _rng.standard_normal((_D, _D))
_W = _B @ _B.T + _D * np.eye(_D)
_RECORDS = [{"key": k, "value": float(k)} for k in range(200)]


def kernel(rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        stack = np.zeros((_M, _D, _D))
        np.add.at(stack, (_ROW, _P), _C[:, None] * _W[_Q])
        G = stack.reshape(_M, -1) @ stack.transpose(0, 2, 1).reshape(_M, -1).T
        L = np.linalg.cholesky(G @ G.T + 1e3 * _M * np.eye(_M))
        total += L[0, 0] + sum(r["value"] for r in _RECORDS if r["key"] % 3)
    return total


def timed_kernel() -> float:
    """Wall time of the kernel, in seconds.  An untimed round first brings
    the kernel's data back into the caches, so that the time does not depend
    on what the program left in them."""
    kernel(1)
    t0 = time.perf_counter()
    kernel(_ROUNDS)
    return time.perf_counter() - t0
