"""Ordering-stage transaction schedulers (Fabric++ / FabricSharp models).

The paper evaluates BlockOptR *on top of* two published Fabric extensions
that reorder transactions inside the ordering service to mitigate MVCC read
conflicts:

* **Fabric++** (Sharma et al., SIGMOD'19) builds a conflict graph within
  each block, aborts transactions involved in dependency cycles, and
  serializes the rest so that readers precede conflicting writers —
  eliminating intra-block conflicts.
* **FabricSharp** (Ruan et al., SIGMOD'20) additionally tracks recent
  committed writes (an OCC-style window over the last ``window`` blocks)
  and early-aborts transactions whose reads are already stale, saving the
  wasted ordering/validation work.

Both are modeled as pluggable :class:`Scheduler` strategies applied at
block-cut time, which is where the real systems intervene.
"""

from __future__ import annotations

from typing import Protocol

from repro.fabric.transaction import Transaction


class Scheduler(Protocol):
    """Rewrites a cut batch into (ordered transactions, early aborts).

    The orderer calls :meth:`schedule` once per cut batch and nothing else,
    so a scheduler keeps any cross-block state (FabricSharp's window of
    ordered writes) from the batches it schedules; it never sees a commit.
    """

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Return the batch to include in the block and the aborted txs."""
        ...


class FifoScheduler:
    """Vanilla Fabric: arrival order, no aborts."""

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Pass the batch through unchanged."""
        return list(batch), []


def _precedence(batch: list[Transaction]) -> tuple[list[set[int]], list[int]]:
    """The batch's reader-before-writer graph: ``(successors, indegree)``.

    ``j`` is a successor of ``i`` whenever ``j`` writes a key ``i`` reads,
    so ``i`` must come first (otherwise ``j``'s in-block commit bumps the
    version and invalidates ``i``); ``indegree[j]`` counts ``j``'s
    predecessors.
    """
    reads = [tx.rwset.read_keys for tx in batch]
    writes = [tx.rwset.write_keys for tx in batch]
    successors: list[set[int]] = [set() for _ in batch]
    indegree = [0] * len(batch)
    for i, read in enumerate(reads):
        for j, write in enumerate(writes):
            if i != j and write & read:
                successors[i].add(j)
                indegree[j] += 1
    return successors, indegree


class FabricPlusPlusScheduler:
    """Intra-block conflict-graph reordering with cycle aborts.

    Within a batch, transaction ``r`` must precede ``w`` whenever ``w``
    writes a key ``r`` reads (:func:`_precedence`).  We build that
    precedence graph, break cycles greedily by aborting the transaction
    with the highest conflict degree, and emit a topological order of the
    survivors.
    """

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Topologically order the batch, aborting cycle members."""
        if len(batch) <= 1:
            return list(batch), []

        successors, indegree = _precedence(batch)
        alive = set(range(len(batch)))
        aborted: list[int] = []
        order: list[int] = []
        # Kahn's algorithm with greedy cycle-breaking: when no source node
        # exists, abort the most conflicted remaining transaction.
        while alive:
            sources = sorted(i for i in alive if indegree[i] == 0)
            if sources:
                node = sources[0]
                order.append(node)
            else:
                node = max(
                    alive,
                    key=lambda i: (len(successors[i] & alive) + indegree[i], i),
                )
                aborted.append(node)
            alive.discard(node)
            for succ in successors[node]:
                if succ in alive:
                    indegree[succ] -= 1

        ordered_txs = [batch[i] for i in order]
        aborted_txs = [batch[i] for i in sorted(aborted)]
        return ordered_txs, aborted_txs


class ConflictAwareScheduler:
    """Intra-block conflict-aware reordering *without* aborts.

    The ``reorder`` mitigation (see docs/FAILURES.md): like
    :class:`FabricPlusPlusScheduler` it builds the reader-before-writer
    precedence graph and emits a topological order, so a transaction that
    merely *reads* a key written later in the same block validates against
    the pre-block version and survives.  Unlike Fabric++, transactions
    caught in a dependency cycle (e.g. two updates of the same hot key)
    are not aborted — the cycle's members are emitted in arrival order,
    exactly as vanilla Fabric would have committed them.  The mitigation
    therefore removes avoidable intra-block MVCC conflicts while never
    rejecting work.
    """

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Topologically order the batch, breaking cycles by arrival order."""
        if len(batch) <= 1:
            return list(batch), []

        successors, indegree = _precedence(batch)
        alive = set(range(len(batch)))
        order: list[int] = []
        while alive:
            sources = sorted(i for i in alive if indegree[i] == 0)
            if sources:
                node = sources[0]
            else:
                # A cycle: release its earliest-arrived member unchanged.
                node = min(alive)
            order.append(node)
            alive.discard(node)
            for succ in successors[node]:
                if succ in alive:
                    indegree[succ] -= 1
        return [batch[i] for i in order], []


class FabricSharpScheduler:
    """OCC-style early abort over a sliding window, then Fabric++ ordering.

    The orderer remembers which keys were written by blocks it recently
    ordered (``window`` blocks).  A transaction whose read version predates
    a remembered write can no longer validate, so it is aborted before
    consuming block space.  Like the real system this is an approximation —
    the orderer does not know whether those writes ultimately committed —
    which is why the paper observes FabricSharp trading MVCC conflicts for
    other failure classes.
    """

    def __init__(self, window: int = 5) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._inner = FabricPlusPlusScheduler()
        #: key -> index of the scheduler batch that last ordered a write to it.
        self._recent_writes: dict[str, int] = {}
        #: key -> endorse time of that last ordered write.
        self._write_times: dict[str, float] = {}
        #: batch index -> keys written, for window expiry.
        self._by_batch: dict[int, list[str]] = {}
        self._next_batch = 0

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Early-abort stale transactions, then Fabric++-order the rest."""
        fresh: list[Transaction] = []
        aborted: list[Transaction] = []
        for tx in batch:
            if self._is_stale(tx):
                aborted.append(tx)
            else:
                fresh.append(tx)
        ordered, cycle_aborts = self._inner.schedule(fresh)
        aborted.extend(cycle_aborts)

        index = self._next_batch
        self._next_batch += 1
        written: list[str] = []
        for tx in ordered:
            endorsed_at = tx.endorse_time if tx.endorse_time is not None else 0.0
            for key in tx.rwset.write_keys:
                self._recent_writes[key] = index
                self._write_times[key] = endorsed_at
                written.append(key)
        self._by_batch[index] = written
        expired = index - self.window
        if expired in self._by_batch:
            for key in self._by_batch.pop(expired):
                if self._recent_writes.get(key) == expired:
                    del self._recent_writes[key]
                    del self._write_times[key]
        return ordered, aborted

    def _is_stale(self, tx: Transaction) -> bool:
        """A tx is doomed if a write to one of its read keys was ordered
        after the tx executed (endorsement snapshot is already stale)."""
        endorsed_at = tx.endorse_time
        if endorsed_at is None:
            return False
        keys = set(tx.rwset.reads)
        for query in tx.rwset.range_queries:
            keys.update(query.keys())
        for key in keys:
            if key not in self._recent_writes:
                continue
            if self._write_times[key] >= endorsed_at:
                return True
        return False


#: The scheduler names :func:`make_scheduler` builds.
SCHEDULERS = ("fifo", "fabricpp", "fabricsharp", "conflict_aware")


def make_scheduler(name: str, window: int = 5) -> Scheduler:
    """Factory used by :class:`~repro.fabric.config.NetworkConfig.scheduler`."""
    if name not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {name!r}; known: {', '.join(SCHEDULERS)}")
    if name == "fifo":
        return FifoScheduler()
    if name == "fabricpp":
        return FabricPlusPlusScheduler()
    if name == "fabricsharp":
        return FabricSharpScheduler(window=window)
    return ConflictAwareScheduler()
