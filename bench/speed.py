"""The speed of the machine while the jobs run, from a fixed reference loop.

On a shared host the same interpreted work takes up to twice as long
from one moment to the next, in spells from a fraction of a second to
minutes.  A median over one run cannot average that away, so while the
jobs run a ``Meter`` interrupts them every INTERVAL_S seconds of real
time (``SIGALRM``) to time a short fixed loop of ordinary interpreted
work (calls, small tuples and objects, dict and set lookups: what
exitpath spends its time on).  Each probe gives a speed factor

    REFERENCE_S / (time of the loop)

and a stretch of job time is scaled by the mean factor of the probes
taken in it, less the time spent probing: it is reported in seconds on
a machine whose loop takes ``REFERENCE_S``.  The loop uses nothing from
exitpath, so a change to the program moves the scaled times and never
the factors.
"""

from __future__ import annotations

import signal
import statistics
import time

# Time of one probe() on the machine the benchmark was defined on (a
# 2-vCPU Intel Xeon VM at 2.1 GHz, CPython 3.11) in its fast state; in
# its slow spells the probe took up to 1.8 ms.
REFERENCE_S = 0.001
INTERVAL_S = 0.02
LOOP_N = 400


class _Cell:
    __slots__ = ("key", "dim", "faces")

    def __init__(self, key, dim, faces):
        self.key, self.dim, self.faces = key, dim, faces


def _face(t: tuple, i: int) -> tuple:
    return t[:i] + t[i + 1:]


def _loop(n: int) -> int:
    table: dict = {}
    seen: set = set()
    acc = 0
    for k in range(n):
        t = (k % 7, k % 5, k % 3, k & 1)
        cell = _Cell(t, len(t) - 1, [_face(t, i) for i in range(len(t))])
        key = (cell.key, cell.dim)
        hit = table.get(key)
        if hit is None:
            table[key] = cell
        else:
            acc += hit.dim
        for f in cell.faces:
            if f not in seen:
                seen.add(f)
                acc += len(f)
    return acc


def probe() -> float:
    """Seconds for one pass of the reference loop (about 1 ms)."""
    t = time.perf_counter()
    _loop(LOOP_N)
    return time.perf_counter() - t


class Meter:
    """Speed factors sampled every INTERVAL_S seconds while started.

    ``mark()`` notes a moment; ``seconds(mark)`` gives the seconds since
    then without the time spent probing, and ``factor(mark)`` the mean
    factor of the probes taken since then, topped up by probes taken on
    the spot to at least ``min_probes``."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        self.overhead = 0.0
        self._busy = False
        self._previous = None

    def start(self) -> "Meter":
        probe()  # warm the loop's code before the first timed probe
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        self.factors.append(REFERENCE_S / probe())
        self.overhead += time.perf_counter() - t
        self._busy = False

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.overhead, len(self.factors)

    def seconds(self, mark: tuple[float, float, int]) -> float:
        """Seconds since mark, less the time spent probing."""
        t0, overhead0, _ = mark
        return time.perf_counter() - t0 - (self.overhead - overhead0)

    def factor(self, mark: tuple[float, float, int], min_probes: int = 1) -> float:
        """Mean speed factor of the probes since mark, topped up on the spot."""
        factors = self.factors[mark[2]:]
        factors += [REFERENCE_S / probe() for _ in range(min_probes - len(factors))]
        return statistics.fmean(factors)
