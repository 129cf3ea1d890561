"""Host-speed sampling, so host times from a shared machine can be compared.

The benchmark runs on shared virtual machines whose cores slow down by up to
2.5x for minutes at a time, as neighbours contend for caches and memory.
Steal time stays at zero and CPU time slows exactly as wall time does, so
neither hides it.  What does: a fixed reference loop (a *burst*) run every
:data:`INTERVAL_S` while the program works, from a ``SIGALRM`` handler.  The
mean burst time of a region over :data:`REF_BURST_S` is that region's
*slowdown*; a host time divided by it is in *reference seconds*, seconds on a
core where a burst takes :data:`REF_BURST_S`.

Only the mean over a whole region is used.  Within a run, bursts and program
slow down together over minutes but not over a second or two, so scaling
each stretch of a run by the bursts next to it adds noise instead of
removing it.

A burst allocates no container object, so it never triggers the garbage
collector and charges none of the program's collection work to itself.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Iterations of the reference loop in one burst.
BURST_LOOPS = 25_000
#: A burst's time on an uncontended core: about the fastest bursts seen on
#: an Intel Xeon (Sapphire Rapids) vCPU with CPython 3.11.
REF_BURST_S = 0.003
#: Wall-clock period of the bursts while a :class:`Pacer` is started.
INTERVAL_S = 0.05


class Pacer:
    """Runs bursts on a timer and keeps a clock that leaves them out."""

    def __init__(self) -> None:
        self._table = dict.fromkeys(range(1000), 0)
        self._previous_handler = None
        #: Every burst's host seconds, in order.
        self.bursts: list[float] = []
        #: Host seconds spent in bursts and their handler.
        self.spent = 0.0

    def _burst(self) -> None:
        table = self._table
        total = 0
        started = time.perf_counter()
        for i in range(BURST_LOOPS):
            total += i * i % 7
            table[i % 1000] = total
        self.bursts.append(time.perf_counter() - started)

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        self._burst()
        self.spent += time.perf_counter() - started

    def start(self) -> None:
        """Sample the speed once now (interpreter start-up has no burst),
        then every :data:`INTERVAL_S`."""
        self._on_alarm(None, None)
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def clock(self) -> float:
        """``time.perf_counter()`` without the time spent in bursts."""
        return time.perf_counter() - self.spent

    def slowdown(self, first: int = 0) -> float:
        """Mean time of the bursts from burst ``first`` on, over :data:`REF_BURST_S`."""
        return statistics.fmean(self.bursts[first:]) / REF_BURST_S
