"""Reference kernels: the yardsticks that take host speed out of the job times.

A small shared VM changes speed by up to 2x in phases of seconds to
minutes, so raw wall times of the same code spread past any useful bound.
The benchmark therefore times two fixed kernels right before and right
after every timed job and reports each job at reference speed:

    scaled = wall seconds * REFERENCE_S[k] / (mean of the two times of kernel k)

The host's phases slow interpreter-bound and BLAS-bound code by different
factors, so there are two kernels: ``interpreter`` (object calls on small
numpy arrays, a small matrix product, dict and float arithmetic) and
``blas`` (complex matrix products of the size quantum-check multiplies).
A job is scaled by the kernel of its command's bound (``KERNEL_OF``); the
kernels use nothing from cliffstring, so a change to the program moves the
scaled times and a change of host speed does not.  On the reference host,
at its usual speed, scaled and wall seconds agree; the raw wall times are
saved with every result.
"""

import time

import numpy as np

# Median seconds of one call of each kernel on the reference host (2-core
# Xeon VM, Python 3.11, numpy 2.4, one BLAS thread), over several minutes
# of alternating with jobs.
REFERENCE_S = {"interpreter": 0.0083, "blas": 0.0040}

# quantum-check is bound by dense complex matrix products (ROADMAP item 3);
# every other command, and set-up, by interpreter work.
KERNEL_OF = {"quantum-check": "blas"}
DEFAULT_KERNEL = "interpreter"


class _Pair:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Pair(self.v * other.v + 1.0)


def interpreter() -> float:
    a = np.linspace(0.0, 1.0, 8)
    b = a[::-1].copy()
    total = 0.0
    for _ in range(1500):
        total += float((_Pair(a) * _Pair(b)).v.sum())
    m = np.full((64, 64), 1.0 / 64)
    m = m @ m
    counts = {}
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total + float(m[0, 0]) + sum(counts.values())


_A = np.exp(1j * np.arange(128 * 128).reshape(128, 128) / 1000.0) / 128
_B = _A.conj().T.copy()


def blas() -> float:
    total = 0.0
    for _ in range(10):
        total += float((_A @ _B)[0, 0].real)
    return total


KERNELS = {"interpreter": interpreter, "blas": blas}


def seconds() -> dict:
    """Wall seconds of one call of each kernel, now."""
    out = {}
    for name, kernel in KERNELS.items():
        start = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - start
    return out


def around(before: dict, after: dict) -> dict:
    """Kernel seconds for a job timed between two seconds() samples."""
    return {name: (before[name] + after[name]) / 2 for name in KERNELS}


def scale(wall_s: float, kernel_s: dict, command: str = "") -> float:
    """Wall seconds of a job of this command at reference speed."""
    name = KERNEL_OF.get(command, DEFAULT_KERNEL)
    return wall_s * REFERENCE_S[name] / kernel_s[name]
