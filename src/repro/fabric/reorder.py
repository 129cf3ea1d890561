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

import heapq
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


def _schedule(
    batch: list[Transaction], abort_cycles: bool
) -> tuple[list[Transaction], list[Transaction]]:
    """Order ``batch`` readers-before-writers: ``(ordered, aborted)``.

    ``j`` must follow ``i`` whenever ``j`` writes a key ``i`` reads
    (otherwise ``j``'s in-block commit bumps the version and invalidates
    ``i``).  Kahn's algorithm emits the lowest-indexed source first.  When
    only cycles remain, ``abort_cycles`` aborts the most conflicted member
    (Fabric++); otherwise the earliest-arrived member is released as is
    (the conflict-aware scheduler).
    """
    writers: dict[str, list[int]] = {}
    for j, tx in enumerate(batch):
        for key in tx.rwset.writes:
            writers.setdefault(key, []).append(j)
    successors: list[set[int]] = []
    indegree = [0] * len(batch)
    for i, tx in enumerate(batch):
        after = {j for key in tx.rwset.read_keys for j in writers.get(key, ())}
        after.discard(i)
        successors.append(after)
        for j in after:
            indegree[j] += 1

    sources = [i for i, count in enumerate(indegree) if count == 0]  # ascending: a heap
    alive = set(range(len(batch)))
    order: list[int] = []
    aborted: list[int] = []
    while alive:
        if sources:
            node = heapq.heappop(sources)
            order.append(node)
        elif abort_cycles:
            node = max(alive, key=lambda i: (len(successors[i] & alive) + indegree[i], i))
            aborted.append(node)
        else:
            node = min(alive)
            order.append(node)
        alive.discard(node)
        for succ in successors[node]:
            if succ in alive:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(sources, succ)
    return [batch[i] for i in order], [batch[i] for i in sorted(aborted)]


class FabricPlusPlusScheduler:
    """Intra-block conflict-graph reordering with cycle aborts.

    Within a batch, transaction ``r`` must precede ``w`` whenever ``w``
    writes a key ``r`` reads.  We build that precedence graph, break
    cycles greedily by aborting the transaction with the highest conflict
    degree, and emit a topological order of the survivors.
    """

    def schedule(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """Topologically order the batch, aborting cycle members."""
        return _schedule(batch, abort_cycles=True)


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
        return _schedule(batch, abort_cycles=False)


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
        #: key -> (index of the batch that last ordered a write to it, that
        #: write's endorse time); an entry older than the window is ignored.
        self._last_write: dict[str, tuple[int, float]] = {}
        self._batches = 0

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
        ordered, cycle_aborts = _schedule(fresh, abort_cycles=True)
        aborted.extend(cycle_aborts)
        for tx in ordered:
            stamp = (self._batches, tx.endorse_time if tx.endorse_time is not None else 0.0)
            for key in tx.rwset.writes:
                self._last_write[key] = stamp
        self._batches += 1
        return ordered, aborted

    def _is_stale(self, tx: Transaction) -> bool:
        """A tx is doomed if a write to one of its read keys was ordered
        within the window after the tx executed (its endorsement snapshot
        is already stale)."""
        endorsed_at = tx.endorse_time
        if endorsed_at is None:
            return False
        oldest = self._batches - self.window
        for key in tx.rwset.read_keys:
            stamp = self._last_write.get(key)
            if stamp is not None and stamp[0] >= oldest and stamp[1] >= endorsed_at:
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
