"""Host speed, sampled with a fixed reference kernel between operations.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a third within seconds and minutes, while other processes come and
go.  An operation's wall time then measures the host as much as murel.
Every SAMPLE_EVERY_S of the timed loop the worker times one call of
`kernel`, a fixed mix of the work murel does (small Hermitian
eigendecompositions, products and Kronecker products, one d = 64
eigendecomposition, JSON round trips) on inputs that never change and
with no murel code in it.  A time is reported at reference speed: scaled
by REFERENCE_S over the mean of the kernel samples taken right before and
right after it.  Host speed moves within a fraction of a second, so the
nearest samples track it better than a median over a longer window.  A change to murel moves the scaled times as it moves the raw ones;
a change of host speed that affects murel and the kernel alike does not.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

# Times are reported as if one kernel() call took REFERENCE_S, about its
# time on a quiet 2-vCPU KVM host (Python 3.11, OpenBLAS pinned to 1 thread).
REFERENCE_S = 2.6e-3
SAMPLE_EVERY_S = 0.025
SETUP_SAMPLES = 30
WARMUP_CALLS = 3


def _hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


class HostSpeed:
    """Kernel samples (start, seconds) taken in one process, and the scale
    factors they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [_hermitian(d, rng) for d in (2, 4, 8, 16)]
        self._big = _hermitian(64, rng)
        self._doc = {"m": [[[float(z.real), float(z.imag)] for z in row] for row in _hermitian(8, rng)]}
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._next = 0.0
        for _ in range(WARMUP_CALLS):
            self.kernel()

    def kernel(self) -> float:
        acc = 0.0
        for _ in range(6):
            for a in self._small:
                w, v = np.linalg.eigh(a)
                acc += float((v @ np.diag(w) @ v.conj().T).real.trace())
            acc += float(abs(np.kron(self._small[0], self._small[1])).sum())
            acc += len(json.loads(json.dumps(self._doc))["m"])
        w, v = np.linalg.eigh(self._big)
        acc += float((v @ self._big @ v.conj().T).real.trace())
        return acc

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.seconds.append(t1 - t0)
        self._next = t1 + SAMPLE_EVERY_S

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, t: float) -> float:
        """REFERENCE_S over the mean of the last sample before time t and
        the first after it (the one that exists, at either end)."""
        j = bisect.bisect_left(self.starts, t)
        near = self.seconds[max(0, j - 1):j + 1]
        return REFERENCE_S / statistics.fmean(near)

    def overall(self) -> float:
        """REFERENCE_S over the median of every sample."""
        return REFERENCE_S / statistics.median(self.seconds)
