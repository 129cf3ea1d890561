"""Event heap and simulated clock.

The kernel is deliberately minimal: callers schedule callbacks at absolute
simulated times and :meth:`Kernel.run` drains the heap in time order.
Ties are broken by priority lane, then insertion order, which makes every
simulation run fully deterministic for a fixed seed and workload.

Three lanes fire ahead of the default lane (0) at the same instant, in
this order:

* **interventions** (:meth:`Kernel.schedule_intervention`) — scenario
  faults, so a fault injected "at t=5" is in effect for every other
  event at t=5 regardless of insertion order;
* **control** (:meth:`Kernel.schedule_control`) — SLO-guardian ticks;
* **arrivals** (:data:`ARRIVAL_PRIORITY`) — workload requests, pumped one
  at a time by the network's arrival pump.

:meth:`Kernel.enable_trace` records ``(time, priority, seq)`` for every
fired event, giving determinism tests an exact event trace to compare
across runs.

Performance note: the heap stores ``(time, priority, seq, Event)``
tuples, not :class:`Event` objects.  ``seq`` is unique per kernel, so
tuple comparison always resolves within the first three (C-compared)
elements and ``heapq`` never calls back into Python — the profiled
``Event.__lt__`` hot spot of the dataclass-based heap.  The :class:`Event`
object in the last slot is the cancellation handle returned to callers.

This is the simulator's only kernel: every run, whether it keeps its
ledger or streams it, drains one heap through :meth:`Kernel.run`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

#: Priority lane for scenario interventions: strictly before the
#: control, arrival and default lanes at equal timestamps, so a fault
#: injected at ``t`` is already in effect for everything else at ``t``.
INTERVENTION_PRIORITY = -3

#: Priority lane for the SLO-guardian controller (:mod:`repro.control`):
#: after interventions, before arrivals.  A controller tick at ``t``
#: observes a fault injected at ``t`` (the intervention already fired)
#: and its actuations are already in effect for every workload event at
#: ``t`` — regardless of insertion order.
CONTROL_PRIORITY = -2

#: Priority lane for workload arrivals.  Every run pumps its requests
#: lazily — each arrival schedules the next one mid-run, with a large
#: sequence number — yet must reproduce the order the goldens were
#: recorded under, when every arrival was pre-scheduled before the
#: clock started and so won every same-instant tie against pipeline
#: events by its smaller sequence number.  This lane restores exactly
#: that: an arrival at ``t`` fires before any default-lane event at
#: ``t``, and still after the interventions and controller ticks at ``t``.
ARRIVAL_PRIORITY = -1


class Event:
    """A scheduled callback: the handle :meth:`Kernel.schedule` returns.

    Events fire in ``(time, priority, seq)`` order; ``seq`` is a
    monotonically increasing insertion counter so that two events scheduled
    for the same instant on the same lane fire in the order they were
    scheduled.  The ordering itself lives in the kernel's heap tuples; the
    handle only carries the fields callers may inspect and the
    :meth:`cancel` control surface.
    """

    __slots__ = ("time", "priority", "seq", "action", "cancelled", "popped", "_kernel")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[[], None],
        kernel: "Kernel | None" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        #: True once :meth:`cancel` ran; the kernel skips the event on pop.
        self.cancelled = False
        #: Set by the kernel when the event leaves the heap (fired or skipped).
        self.popped = False
        self._kernel = kernel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"seq={self.seq!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped.

        Idempotent, and a no-op once the event has already left the heap —
        cancelling a fired timeout must not corrupt the live-event count.
        """
        if self.cancelled or self.popped:
            return
        self.cancelled = True
        if self._kernel is not None:
            self._kernel._live -= 1


class Kernel:
    """A discrete-event loop with a simulated clock.

    >>> k = Kernel()
    >>> fired = []
    >>> _ = k.schedule(2.0, lambda: fired.append(k.now))
    >>> _ = k.schedule(1.0, lambda: fired.append(k.now))
    >>> k.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        #: Heap of ``(time, priority, seq, Event)`` — see the module note.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._next_seq = 0
        self._now = 0.0
        self._processed = 0
        self._live = 0
        self._trace: list[tuple[float, int, int]] | None = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    def schedule(
        self, time: float, action: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``action`` to run at absolute simulated time ``time``.

        Scheduling in the past raises ``ValueError`` — it would silently
        corrupt causality in the pipeline models built on top.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time:.6f} before now={self._now:.6f}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, action, self)
        heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def schedule_in(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self.schedule(self._now + delay, action)

    def schedule_intervention(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule a scenario intervention at absolute time ``time``.

        Interventions run on a priority lane ahead of every ordinary event
        at the same instant, so a fault injected at ``t`` is already in
        effect for workload events scheduled at ``t`` — regardless of
        which was scheduled first.
        """
        return self.schedule(time, action, priority=INTERVENTION_PRIORITY)

    def schedule_control(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule a controller tick at absolute time ``time``.

        Controller ticks run on their own lane between interventions and
        arrivals: a tick at ``t`` already sees any fault injected at ``t``,
        and its actuations are already in effect for every workload event
        at ``t`` (see :mod:`repro.control`).
        """
        return self.schedule(time, action, priority=CONTROL_PRIORITY)

    def enable_trace(self) -> list[tuple[float, int, int]]:
        """Record ``(time, priority, seq)`` of every subsequently fired event.

        Returns the live trace list (grows as the kernel runs).  Used by
        determinism tests: two runs with the same seed and scenario must
        produce identical traces.
        """
        if self._trace is None:
            self._trace = []
        return self._trace

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event heap.

        ``until`` stops the clock once the next event would fire strictly
        after that time (the event stays queued); an ``until`` before
        ``now`` raises ``ValueError``, since the clock never runs
        backwards.  ``max_events`` is a safety valve for property tests
        over adversarial schedules.

        The loop body is the hottest code in the simulator; locals are
        hoisted and the heap entries unpacked in place so a fired event
        costs one ``heappop`` plus the callback itself.
        """
        if until is not None and until < self._now:
            raise ValueError(
                f"cannot run until {until:.6f} before now={self._now:.6f}"
            )
        heap = self._heap
        pop = heappop
        while heap:
            if max_events is not None and self._processed >= max_events:
                return
            time, priority, seq, event = heap[0]
            if until is not None and time > until:
                self._now = until
                return
            pop(heap)
            event.popped = True
            if event.cancelled:
                # Its cancel() already removed it from the live count.
                continue
            self._live -= 1
            self._now = time
            self._processed += 1
            if self._trace is not None:
                self._trace.append((time, priority, seq))
            event.action()
        if until is not None and until > self._now:
            self._now = until

    def pending(self) -> int:
        """Number of queued, non-cancelled events.

        Tracked incrementally (schedule/cancel/pop), so this is O(1) even
        with millions of queued events — it used to scan the whole heap.
        """
        return self._live
