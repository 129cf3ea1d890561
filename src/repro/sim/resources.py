"""FIFO service stations.

Every pipeline stage of the simulated Fabric network (client, endorsing
peer, ordering service, validation pipeline) is a :class:`Server`: jobs
arrive, wait in FIFO order, occupy the server for a service time, and a
completion callback fires.  The server keeps busy-time and queue-wait
statistics so experiments can report utilization and locate bottlenecks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.sim.kernel import Kernel


@dataclass(slots=True)
class ServerStats:
    """Aggregate counters for one :class:`Server`."""

    jobs: int = 0
    busy_time: float = 0.0
    total_wait: float = 0.0
    max_queue: int = 0

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` the server spent serving jobs."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    @property
    def mean_wait(self) -> float:
        """Average queue wait per job in seconds."""
        return self.total_wait / self.jobs if self.jobs else 0.0


class Server:
    """A single FIFO server bound to a :class:`Kernel`.

    ``submit`` enqueues a job; when the job *starts* service the optional
    ``on_start`` callback fires (used to snapshot world state at execution
    time), and when it *completes* the ``on_done`` callback fires.

    Two dynamic control knobs back the scenario engine's interventions
    (:mod:`repro.scenario`): ``enabled`` (a crashed component stops
    accepting new work; queued jobs drain) and ``service_multiplier``
    (a degraded component serves every *subsequent* job slower — jobs
    already queued keep the service time they were admitted with).

    Jobs allocate no closure.  ``submit`` appends the callbacks to two
    FIFO queues and schedules the server's own :meth:`_started` and
    :meth:`_complete`, which pop the oldest callback and hand it
    ``kernel.now``.  That is exactly what a per-job closure capturing
    ``start`` and ``finish`` would do:

    * a job's start is ``max(now, previous finish)`` and its finish is
      start plus a non-negative service time, so across submissions both
      never decrease (IEEE addition of a non-negative float is monotone);
    * every server event rides lane 0, and equal-time events on one lane
      fire in ``seq`` order, which is submission order;
    * so the completions (and, separately, the starts) fire in
      submission order, each pops its own job's callback, and
      ``kernel.now`` is the exact ``start`` or ``finish`` it was
      scheduled at.
    """

    __slots__ = (
        "kernel",
        "name",
        "stats",
        "busy_until",
        "_on_done",
        "_on_start",
        "enabled",
        "_service_multiplier",
    )

    def __init__(self, kernel: Kernel, name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.stats = ServerStats()
        #: Earliest simulated time at which the server becomes idle; only
        #: :meth:`submit` writes it.
        self.busy_until = 0.0
        #: ``on_done`` of every submitted, unfinished job, oldest first;
        #: its length is the server's queue (waiting + in service).
        self._on_done: deque[Callable[[float], None]] = deque()
        #: ``on_start`` of every job that gave one and has not started.
        self._on_start: deque[Callable[[float], None]] = deque()
        self.enabled = True
        self._service_multiplier = 1.0

    @property
    def service_multiplier(self) -> float:
        """Current service-time inflation factor (1.0 = nominal speed)."""
        return self._service_multiplier

    def set_service_multiplier(self, factor: float) -> None:
        """Inflate (or restore) the service time of subsequent jobs."""
        if factor <= 0:
            raise ValueError(f"service multiplier must be positive, got {factor!r}")
        self._service_multiplier = factor

    def queue_delay(self) -> float:
        """Wait a job submitted right now would incur before starting."""
        delay = self.busy_until - self.kernel.now
        return delay if delay > 0.0 else 0.0

    def submit(
        self,
        service_time: float,
        on_done: Callable[[float], None],
        on_start: Callable[[float], None] | None = None,
    ) -> float:
        """Enqueue a job; returns the completion time.

        Callbacks receive the simulated time at which they fire.  FIFO order
        is guaranteed because ``busy_until`` advances monotonically with
        each submission (see the class note).
        """
        if service_time < 0:
            raise ValueError(f"negative service time {service_time!r}")
        service_time *= self._service_multiplier
        kernel = self.kernel
        now = kernel.now
        busy = self.busy_until
        start = now if now >= busy else busy
        finish = start + service_time
        self.busy_until = finish

        stats = self.stats
        stats.jobs += 1
        stats.busy_time += service_time
        stats.total_wait += start - now
        queue = self._on_done
        queue.append(on_done)
        if len(queue) > stats.max_queue:
            stats.max_queue = len(queue)

        if on_start is not None:
            self._on_start.append(on_start)
            kernel.schedule(start, self._started)
        kernel.schedule(finish, self._complete)
        return finish

    def _started(self) -> None:
        self._on_start.popleft()(self.kernel.now)

    def _complete(self) -> None:
        self._on_done.popleft()(self.kernel.now)
