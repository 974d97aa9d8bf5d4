"""Machine-speed references for the benchmark's timings.

The benchmark is meant for small shared machines whose single-core speed
drifts by up to a factor of two over tens of seconds, so raw seconds from
two runs a minute apart are not comparable. The harness therefore times a
fixed reference between calls and reports every duration scaled to the
speed at which that reference takes its nominal time:

    scaled = raw * nominal / mean(reference times in the same window)

There are two references, both the benchmark's own code:
- KERNEL, for in-process calls: Python-level loops over small numpy arrays
  and small LAPACK calls, the mix the library spends its time on;
- PROCESS, for anything that starts a process (CLI calls, set-up): a fresh
  interpreter that imports numpy and exits.
A change to the library cannot change either, so a slower library still
reads slower; a slower machine does not.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_rng = np.random.default_rng(12345)
_VEC = _rng.standard_normal(24)
_MAT = _rng.standard_normal((6, 6))
_MAT = _MAT + _MAT.T


def reference_kernel() -> float:
    """Fixed in-process work; returns a value so the work cannot be skipped."""
    acc = 0.0
    for _ in range(1000):
        u = np.sort(_VEC)[::-1]
        css = np.cumsum(u) - 1.0
        acc += float(np.maximum(u - css / 24.0, 0.0).sum())
        acc += float(np.linalg.eigh(_MAT)[0][0])
    return acc


def reference_process() -> None:
    """Start an interpreter that imports numpy, and wait for it."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


@dataclass(frozen=True)
class Reference:
    run: Callable
    nominal_s: float  # its time on an idle 2-vCPU x86_64 host (Python 3.11, numpy 2.4, OpenBLAS)
    interval_s: float  # least spacing between samples inside a pass


KERNEL = Reference(reference_kernel, 0.018, 0.25)
PROCESS = Reference(reference_process, 0.11, 1.0)


class Speed:
    """Reference samples taken during one run."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.ref.run()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= self.ref.interval_s:
            self.sample()

    def scale(self, since: int = 0) -> float:
        """Factor turning raw seconds into reference seconds, from samples[since:]."""
        return self.ref.nominal_s / statistics.fmean(self.samples[since:])
