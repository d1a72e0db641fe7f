"""Host-speed calibration: a fixed loop timed all through each timed unit.

On a shared cloud VM the same work runs tens of percent faster or slower
from one process to the next, and within a process the host switches
between speeds every second or two, while CPU time tracks wall time: the
host itself changes speed. Pinning and in-run medians do not cancel that,
so every gated timing is reported in *host-normalized seconds*::

    normalized = wall * C_REF / C

where ``C`` is the 10%-trimmed mean time of :func:`probe` over the samples
a :class:`Sampler` took during the timed call -- or, for a call too short
to hold enough samples, during the whole unit -- and ``C_REF`` a constant.

The sampler runs the probe from a timer signal every 40 ms, so samples
fall evenly over wall time -- inside long library calls too -- and their
mean weights each stretch of host speed by its length. Measured on a
2-vCPU cloud VM, the coefficient of variation of one unit's time over six
to eight units in one process (raw / probes between calls / timer probes):

* ``scale_tag``: 6.7% / 13.4% / 3.4%;
* ``service_portfolio``: 8.2% / 7.0% / 3.3%;
* ``td_timeline``: 12.7% / 4.0% / 1.3%.

Probes taken only between calls miss a speed change inside a 2 s tree
build. Also measured and dropped: the median of the probes instead of
their mean (a slow stretch moves a mean in proportion to its length, a
median not at all), and numpy multiply-mask passes in the probe (they did
not slow down with the interpreter that dominates the program).

This module imports only the standard library -- never the program under
test -- so a change to the program cannot move the ruler.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Sequence

#: Reference probe time (seconds): a normalized time is the wall time the
#: unit would take on a host where one :func:`probe` takes this long.
C_REF = 0.00075

#: Seconds between timer samples (about 2% of the run goes to probes).
INTERVAL = 0.04

#: Fewest samples inside a call for the call to be normalized by them.
MIN_CALL_SAMPLES = 8

_DICT_OPS = 5_000


def probe() -> float:
    """Time one fixed calibration loop (seconds)."""
    started = time.perf_counter()
    table = {}
    for i in range(_DICT_OPS):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
    elapsed = time.perf_counter() - started
    if len(table) != 1024:  # consume the result
        raise RuntimeError("calibration loop produced an impossible table")
    return elapsed


def host_factor(samples: Sequence[float]) -> float:
    """``C_REF / C`` for the probe times taken while one unit ran.

    ``C`` is the mean after dropping the fastest and slowest tenth, so one
    probe cut short or stretched by an interrupt does not set it.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return C_REF / statistics.mean(ordered[cut:len(ordered) - cut])


class Sampler:
    """Runs :func:`probe` on entry, on exit and every ``interval`` between.

    The probe runs in the main thread from ``SIGALRM``, between two
    bytecodes of whatever the program is doing; it touches no program
    state. ``spent`` sums the handler's own time so timers can take it
    out of the calls it interrupted.
    """

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.times: List[float] = []
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        self.samples.append(probe())
        self.times.append(started)
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def factor(self) -> float:
        """Host factor over every sample."""
        return host_factor(self.samples)

    def factor_between(self, start: float, end: float) -> float:
        """Host factor of the samples taken in ``[start, end]``.

        Falls back to :attr:`factor` when fewer than
        :data:`MIN_CALL_SAMPLES` fall inside: a short call's own samples
        say less about the host than the whole unit's.
        """
        inside = [
            sample
            for at, sample in zip(self.times, self.samples)
            if start <= at <= end
        ]
        if len(inside) < MIN_CALL_SAMPLES:
            return self.factor
        return host_factor(inside)


__all__ = [
    "C_REF",
    "INTERVAL",
    "MIN_CALL_SAMPLES",
    "Sampler",
    "host_factor",
    "probe",
]
