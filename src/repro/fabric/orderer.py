"""Ordering service: block cutting and Raft-style consensus cost.

Blocks are cut when any of Fabric's three conditions is met first —
transaction *count*, *timeout* since the first buffered transaction, or
buffered *bytes*.  Each cut block then occupies the ordering service for a
per-block cost (Raft round, block assembly) plus a per-transaction cost,
so configurations that cut many small blocks saturate the orderer — the
failure mode behind the paper's *block size adaptation* recommendation.

An optional :mod:`repro.fabric.reorder` scheduler rewrites each batch
before it becomes a block (Fabric++ / FabricSharp).
"""

from __future__ import annotations

from typing import Callable

from repro.fabric.conditions import NetworkConditions
from repro.fabric.config import NetworkConfig
from repro.fabric.reorder import Scheduler
from repro.fabric.transaction import Transaction
from repro.sim.kernel import Event, Kernel
from repro.sim.resources import Server


class OrderingService:
    """Buffers envelopes, cuts blocks, and hands ordered batches downstream."""

    def __init__(
        self,
        kernel: Kernel,
        config: NetworkConfig,
        scheduler: Scheduler,
        deliver: Callable[[list[Transaction], str], None],
        conditions: NetworkConditions,
    ) -> None:
        self._kernel = kernel
        self._config = config
        self._timing = config.timing
        self._conditions = conditions
        self._scheduler = scheduler
        self._deliver = deliver
        #: Called as ``early_abort(tx, now)`` for each envelope the batch
        #: scheduler drops at a cut.  The network binds it for the length
        #: of a run (see ``FabricNetwork._pump_arrivals``).
        self.early_abort: Callable[[Transaction, float], None] | None = None
        self._server = Server(kernel, "orderer")
        self._buffer: list[Transaction] = []
        self._buffer_bytes = 0
        self._timeout_event: Event | None = None
        #: Live cutting parameters.  They start at the configured values
        #: and are the SLO-guardian controller's actuation surface — the
        #: controller re-sizes blocks mid-run *here*, never by mutating
        #: the shared (and possibly reused) :class:`NetworkConfig`.
        self.block_count = config.block_count
        self.block_timeout = config.block_timeout

    @property
    def server(self) -> Server:
        """The ordering service's server resource."""
        return self._server

    def submit(self, tx: Transaction) -> None:
        """An envelope arrives from a client."""
        tx.order_time = self._kernel.now
        self._buffer.append(tx)
        self._buffer_bytes += tx.estimated_bytes()
        if len(self._buffer) == 1:
            self._arm_timeout()
        if len(self._buffer) >= self.block_count:
            self._cut("count")
        elif self._buffer_bytes >= self._config.block_bytes:
            self._cut("bytes")

    def set_scheduler(self, scheduler: Scheduler) -> None:
        """Swap the batch scheduler (mitigation toggle seam).

        The scheduler is consulted only at cut time, so swapping between
        cuts affects exactly the blocks cut afterwards.
        """
        self._scheduler = scheduler

    def _arm_timeout(self) -> None:
        self._timeout_event = self._kernel.schedule_cancellable(
            self._kernel.now + self.block_timeout, self._on_timeout
        )

    def _on_timeout(self) -> None:
        if self._buffer:
            self._cut("timeout")

    def _cut(self, reason: str) -> None:
        # A no-op when the timeout itself is cutting: a fired event has
        # already left the heap.
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        batch = self._buffer
        self._buffer = []
        self._buffer_bytes = 0

        ordered, aborts = self._scheduler.schedule(batch)
        now = self._kernel.now
        for tx in aborts:
            self.early_abort(tx, now)
        if not ordered:
            # The scheduler aborted the whole batch; Fabric never emits
            # empty blocks.
            return

        service = self._timing.order_per_block + self._timing.order_per_tx * len(ordered)

        def on_done() -> None:
            deliver_at = self._kernel.now + self._conditions.network_delay()
            self._kernel.schedule(deliver_at, lambda: self._deliver(ordered, reason))

        self._server.submit(service, on_done)
