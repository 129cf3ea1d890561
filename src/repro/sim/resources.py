"""FIFO service stations.

Every pipeline stage of the simulated Fabric network (client, endorsing
peer, ordering service, validation pipeline) is a :class:`Server`: jobs
arrive, wait in FIFO order, occupy the server for a service time, and
the caller's callbacks fire on the kernel.  The server counts its jobs
and their queue wait so experiments can locate bottlenecks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.kernel import Kernel


@dataclass(slots=True)
class ServerStats:
    """Aggregate counters for one :class:`Server`."""

    jobs: int = 0
    total_wait: float = 0.0


class Server:
    """A single FIFO server bound to a :class:`Kernel`.

    ``submit`` books a job and schedules the caller's zero-argument
    callbacks on the kernel itself: ``on_start`` at the job's start (used
    to snapshot world state at execution time) and ``on_done`` ``delay``
    seconds after its finish.  A callback that needs the time reads
    ``kernel.now``.  The server keeps no queue: a job's start is
    ``max(now, busy_until)`` and its finish is start plus a non-negative
    service time, so both are known when the job is booked.

    Two dynamic control knobs back the scenario engine's interventions
    (:mod:`repro.scenario`): ``enabled`` (a crashed component stops
    accepting new work; queued jobs drain) and ``service_multiplier``
    (a degraded component serves every *subsequent* job slower — jobs
    already queued keep the service time they were admitted with).

    Exactness.  With ``delay`` 0, ``submit`` schedules the events a
    server popping queued callbacks from its own start and completion
    events did, in the same order (start, then finish, lane 0), so each
    callback fires at the same ``(time, priority, seq)`` and reads the
    same ``kernel.now``.  A positive ``delay`` elides a network hop: where
    the conditions cannot change
    (:attr:`~repro.fabric.conditions.NetworkConditions.fixed`), the delay
    read at booking is the one read at the finish, so the next stage
    fires at the same float time ``finish + delay``.  Only its ``seq`` is
    allocated earlier, so it can move only against a lane-0 event due at
    that exact instant whose ``seq`` was allocated between the booking
    and the finish.  None did on the pinned ``default`` run
    (``tests/test_kernel_trace_golden.py --diff``), and
    ``tests/test_elision.py`` checks outcomes against the full chain.
    """

    __slots__ = (
        "kernel",
        "name",
        "stats",
        "busy_until",
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
        on_done: Callable[[], None] | None = None,
        on_start: Callable[[], None] | None = None,
        delay: float = 0.0,
    ) -> float:
        """Book a job; returns its finish time.

        Schedules ``on_start`` at the job's start and ``on_done`` at its
        finish plus ``delay``; either may be ``None``.  FIFO order holds
        because ``busy_until`` advances monotonically with each booking.
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
        stats.total_wait += start - now
        if on_start is not None:
            kernel.schedule(start, on_start)
        if on_done is not None:
            kernel.schedule(finish + delay, on_done)
        return finish
