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

Performance note: the heap stores plain ``(time, priority, seq, action)``
tuples.  ``seq`` is unique per kernel, so tuple comparison always
resolves within the first three (C-compared) elements and ``heapq`` never
calls back into Python.  Scheduling allocates no handle: only
:meth:`Kernel.schedule_cancellable` returns one (an :class:`Event`), and
the one schedule in the simulator that is ever cancelled — the orderer's
block timeout — is its only caller.

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
    """The cancellation handle :meth:`Kernel.schedule_cancellable` returns.

    The kernel keeps the handle, keyed by its ``seq``, only while the
    event is on the heap; the heap entry itself is an ordinary
    ``(time, priority, seq, action)`` tuple on the default lane.
    """

    __slots__ = ("seq", "cancelled", "_kernel")

    def __init__(self, seq: int, kernel: "Kernel") -> None:
        self.seq = seq
        #: True once :meth:`cancel` ran; the kernel drops the event on pop.
        self.cancelled = False
        self._kernel = kernel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(seq={self.seq!r}, cancelled={self.cancelled!r})"

    def cancel(self) -> None:
        """Mark the event so the kernel drops it when popped.

        Idempotent, and a no-op once the event has left the heap —
        including from inside the event's own callback, which is how the
        orderer's timeout cuts a block — so cancelling can never corrupt
        the live-event count.
        """
        kernel = self._kernel
        if self.cancelled or kernel._handles.get(self.seq) is not self:
            return
        self.cancelled = True
        kernel._cancelled_queued += 1


class Kernel:
    """A discrete-event loop with a simulated clock.

    >>> k = Kernel()
    >>> fired = []
    >>> k.schedule(2.0, lambda: fired.append(k.now))
    >>> k.schedule(1.0, lambda: fired.append(k.now))
    >>> k.run()
    >>> fired
    [1.0, 2.0]

    Counts are derived, not tallied per event: every scheduled event is
    either still on the heap, fired, or dropped after a cancel, so
    :attr:`events_processed` is ``scheduled - queued - dropped`` and
    :meth:`pending` is ``queued - cancelled-but-queued``.  The run loop
    touches no counter for an event that fires.
    """

    __slots__ = (
        "now",
        "_heap",
        "_next_seq",
        "_handles",
        "_cancelled_queued",
        "_dropped",
        "_trace",
    )

    def __init__(self) -> None:
        #: Current simulated time in seconds.  A plain attribute, read on
        #: every pipeline step; only the run loop writes it.
        self.now = 0.0
        #: Heap of ``(time, priority, seq, action)`` — see the module note.
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self._next_seq = 0
        #: Cancellable events still on the heap, by ``seq``.
        self._handles: dict[int, Event] = {}
        #: Cancelled events still on the heap.
        self._cancelled_queued = 0
        #: Cancelled events already popped and dropped.
        self._dropped = 0
        self._trace: list[tuple[float, int, int]] | None = None

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._next_seq - len(self._heap) - self._dropped

    def schedule(
        self, time: float, action: Callable[[], None], priority: int = 0
    ) -> None:
        """Schedule ``action`` to run at absolute simulated time ``time``.

        Scheduling in the past raises ``ValueError`` — it would silently
        corrupt causality in the pipeline models built on top.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time:.6f} before now={self.now:.6f}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._heap, (time, priority, seq, action))

    def schedule_in(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.schedule(self.now + delay, action)

    def schedule_cancellable(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at ``time`` like :meth:`schedule`; return a handle.

        The only scheduling call that allocates an :class:`Event`.  The
        event itself goes through :meth:`schedule` unchanged — same lane,
        same ``seq`` — so taking a handle never changes the event order.
        """
        seq = self._next_seq
        self.schedule(time, action)
        handle = Event(seq, self)
        self._handles[seq] = handle
        return handle

    def schedule_intervention(self, time: float, action: Callable[[], None]) -> None:
        """Schedule a scenario intervention at absolute time ``time``.

        Interventions run on a priority lane ahead of every ordinary event
        at the same instant, so a fault injected at ``t`` is already in
        effect for workload events scheduled at ``t`` — regardless of
        which was scheduled first.
        """
        self.schedule(time, action, priority=INTERVENTION_PRIORITY)

    def schedule_control(self, time: float, action: Callable[[], None]) -> None:
        """Schedule a controller tick at absolute time ``time``.

        Controller ticks run on their own lane between interventions and
        arrivals: a tick at ``t`` already sees any fault injected at ``t``,
        and its actuations are already in effect for every workload event
        at ``t`` (see :mod:`repro.control`).
        """
        self.schedule(time, action, priority=CONTROL_PRIORITY)

    def enable_trace(self) -> list[tuple[float, int, int]]:
        """Record ``(time, priority, seq)`` of every subsequently fired event.

        Returns the live trace list (grows as the kernel runs).  Used by
        determinism tests: two runs with the same seed and scenario must
        produce identical traces.
        """
        if self._trace is None:
            self._trace = []
        return self._trace

    def run(self) -> None:
        """Drain the event heap.

        The loop body is the hottest code in the simulator: a fired event
        costs one ``heappop``, one lookup among the cancellable handles,
        the clock store and the callback itself.  A cancelled event is
        dropped before it is counted or traced.
        """
        heap = self._heap
        handles = self._handles
        pop = heappop
        while heap:
            time, priority, seq, action = pop(heap)
            if seq in handles and handles.pop(seq).cancelled:
                self._cancelled_queued -= 1
                self._dropped += 1
                continue
            self.now = time
            if self._trace is not None:
                self._trace.append((time, priority, seq))
            action()

    def pending(self) -> int:
        """Number of queued, non-cancelled events (O(1))."""
        return len(self._heap) - self._cancelled_queued
