"""Calibration kernel and drift normalization.

Two things make raw op times on a shared VM unsteady, and each has its
remedy here:

- Other processes take the core for whole scheduler quanta: on this
  2-core VM a 30 ms op sometimes took 90-150 ms of wall time.  Ops,
  spans and kernel slices are therefore timed with ``now``, the CPU time
  of the benchmark's one thread, which excludes that wait.  pcmrank's
  ops are CPU-bound, and CPU time includes the system calls of the CLI's
  file I/O.
- The processor's speed itself drifts by up to a quarter within a few
  seconds, and CPU time drifts with it.  A ``SpeedProbe`` therefore times
  one slice of a fixed kernel every INTERVAL_S of CPU time, from a
  SIGPROF handler, so that even an op of a second is sampled throughout.
  The kernel is shaped like pcmrank's own work (small-array numpy calls,
  a frozen dataclass that copies its array, triangle indexing, Python
  loops over dicts, a few steps of power iteration) but never imports
  pcmrank.

``SpeedProbe.clock`` turns ``now`` readings into normalized seconds: the
time outside the slices, each stretch rescaled by ``C_REF_S / c``, where
``c`` is the mean of the two slices around it.  An interval then reads
as if the machine had run at reference speed throughout, and the slices
themselves count for nothing.  Rescaling by slices taken only between
ops left a 200 ms op spreading by 14 % across repeats; sampling inside
it cut that to 3 %.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass

import numpy as np

#: median duration of one kernel slice on the reference machine (2-core
#: x86-64 VM, Python 3.11.7, numpy 2.4.6, one BLAS thread)
C_REF_S = 6.0e-4
#: CPU time between kernel slices
INTERVAL_S = 0.01
now = time.thread_time
_REPS = 8
_POWER_STEPS = 12
_GRID = np.exp(np.linspace(-2.0, 2.0, 36)).reshape(6, 6)


@dataclass(frozen=True)
class _Box:
    a: object

    def __post_init__(self):
        object.__setattr__(self, "a", np.array(self.a, dtype=float))


def _kernel() -> int:
    seen = {}
    for _ in range(_REPS):
        box = _Box(_GRID)
        iu, ju = np.triu_indices(6, 1)
        finite = bool(np.all(np.isfinite(box.a[iu, ju])))
        g = np.exp(np.mean(np.log(box.a), axis=1))
        order = sorted(range(6), key=lambda i: -g[i])
        for i in range(6):
            for j in range(i + 1, 6):
                seen[(i, j)] = finite and order[i] < order[j]
    v = np.full(6, 1.0 / 6.0)
    for _ in range(_POWER_STEPS):  # shaped like EM's power iteration
        u = _GRID @ v
        u /= u.sum()
        seen[len(seen)] = float(np.max(np.abs(u - v)))
        v = u
    return len(seen)


class SpeedProbe:
    """Kernel slices taken every INTERVAL_S while started (see module doc)."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        """Time one kernel slice (also the SIGPROF handler)."""
        if self._busy:  # a tick that fires inside a slow slice is dropped
            return
        self._busy = True
        gc.disable()  # a collection due to the ops' garbage must not land in a slice
        try:
            start = now()
            _kernel()
            self.slices.append((start, now()))
        finally:
            gc.enable()
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        self.sample()
        self.resume()

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        self.pause()
        self.sample()
        signal.signal(signal.SIGPROF, self._previous)

    def clock(self):
        """Map ``now`` readings (scalars or arrays) to normalized seconds."""
        # copy first: the SIGPROF handler may append while numpy reads
        s = np.asarray(self.slices[:])
        begin, end, dur = s[:, 0], s[:, 1], s[:, 1] - s[:, 0]
        rate = C_REF_S / ((dur[1:] + dur[:-1]) / 2.0)  # between slice k-1 and k
        gained = np.concatenate([[0.0], (begin[1:] - end[:-1]) * rate])
        at_begin = np.cumsum(gained)
        points = np.column_stack([begin, end]).ravel()
        values = np.repeat(at_begin, 2)

        def normalized(t):
            return np.interp(t, points, values)

        return normalized

    def median_slice_s(self) -> float:
        return float(np.median([e - s for s, e in self.slices]))
