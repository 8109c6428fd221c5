"""Host-speed calibration: a fixed unit of work, timed between operations.

The benchmark shares a few cores of a host with other tenants, and the
speed of each CPU drifts by tens of percent, within a fraction of a second
and over minutes, for all code running on it.  Each worker therefore times
this unit, which never calls the package, in between its operations on
the same CPU (see `Interleaver`) and reports every time scaled to the
reference speed:

    scaled = raw * REFERENCE_UNIT_S / (mean time of the units nearest it)

A change to the package moves the operations but not the unit, so scaled
times compare runs made at different host speeds.  The unit mixes the
kinds of work the package does: Python loops over permutations, a 128 x 128
eigh, a complex matrix product, axis permutations of a 256 KB complex
array, and float formatting.  Of the unit variants tried, this mix tracked
the speed of each workload's own kind of work most closely.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

#: about the mean time of one unit on the reference host (2 vCPUs "Intel
#: Xeon Processor", Python 3.11, numpy 2.4, 1 BLAS thread); it fixes the
#: speed that scaled times refer to, and must not change between commits
REFERENCE_UNIT_S = 3.0e-3
#: units that scale one operation: half run just before it, half just after
LOCAL_UNITS = 4

_RNG = np.random.default_rng(12345)
_SYMMETRIC = _RNG.normal(size=(128, 128))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T
_COMPLEX = _RNG.normal(size=(96, 96)) + 1j * _RNG.normal(size=(96, 96))
_TENSOR = _RNG.normal(size=(16, 16, 16, 4)) + 1j * _RNG.normal(size=(16, 16, 16, 4))
_FLOATS = _RNG.normal(size=200).tolist()


def unit() -> float:
    """Run one calibration unit; return its duration in seconds."""
    t0 = time.perf_counter()
    inversions = 0
    for perm in itertools.permutations(range(5)):
        inversions += sum(1 for i, j in itertools.combinations(range(4), 2) if perm[i] > perm[j])
    np.linalg.eigh(_SYMMETRIC)
    _COMPLEX @ _COMPLEX.conj().T
    acc = np.zeros_like(_TENSOR)
    for perm in itertools.permutations(range(3)):
        acc += _TENSOR.transpose(*perm, 3)
    text = "\n".join(f"{a!r}" for a in _FLOATS)
    if inversions != 360 or not text:
        raise RuntimeError("calibration unit computed a wrong result")
    return time.perf_counter() - t0


def burst(count: int) -> list[float]:
    """Run `count` units back to back; return their durations."""
    return [unit() for _ in range(count)]


def scale(samples: list[float]) -> float:
    """Factor that turns raw times taken alongside `samples` into reference-speed times."""
    return REFERENCE_UNIT_S * len(samples) / sum(samples)


class Interleaver:
    """Spends `share` of the time the operations take on calibration units.

    Call `after(latency)` after each operation: it runs units until the
    calibration time owed (share * total operation time so far) is paid,
    so calibration samples the host in the same stretches of time as the
    operations, weighted alike.  The CPU's speed changes within a fraction
    of a second, so each operation is scaled by the units nearest it.
    """

    def __init__(self, share: float):
        self.share = share
        self.owed = 0.0
        self.samples: list[float] = []

    def after(self, latency: float) -> int:
        """Pay for one operation; return its mark, the index of the first unit after it."""
        mark = len(self.samples)
        self.owed += self.share * latency
        while self.owed > 0.0:
            t = unit()
            self.samples.append(t)
            self.owed -= t
        return mark

    def scale_at(self, mark: int) -> float:
        """Scale for the operation with this mark, from the LOCAL_UNITS units nearest it."""
        lo = max(0, min(mark - LOCAL_UNITS // 2, len(self.samples) - LOCAL_UNITS))
        return scale(self.samples[lo:lo + LOCAL_UNITS])

    def scale(self) -> float:
        """Scale over the whole run."""
        return scale(self.samples)
