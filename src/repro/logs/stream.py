"""Streaming record pipeline: consume a run block by block, O(blocks) memory.

The batch pipeline materializes the whole ledger, extracts a
:class:`~repro.logs.blockchain_log.BlockchainLog` and post-processes it —
O(transactions) memory, which caps realistic scale.  This module is the
streaming alternative:

* :class:`RunStream` is the hub.  Consumers register up front; every
  committed block is converted to :class:`LogRecord`s (config
  transactions update the captured :class:`ChannelConfig` instead) and
  fanned out record by record, exactly as the batch extraction would
  have ordered them.  Aborted transactions that never reach the chain
  are fanned out to transaction consumers as they happen.
* :class:`StreamingLedger` is the ledger stand-in: it enforces the same
  number/hash chain-continuity rules as
  :class:`~repro.fabric.ledger.Ledger`, forwards each appended block to
  the stream, and then lets the block go — no block list, no record
  list, no event list.

A *record consumer* implements ``consume(record)``; a *transaction
consumer* implements ``consume(tx)`` and additionally sees aborted
transactions (the forensics taxonomy needs abort stages and missing
endorsements that :class:`LogRecord` does not carry).  ``finish()``
semantics are left to each accumulator — the stream never calls it, the
harvesting caller does.  The accumulators in :mod:`repro.core.metrics`,
:mod:`repro.analysis.forensics` and :mod:`repro.logs.eventlog` implement
these protocols; see docs/SCALING.md for the full contract.
"""

from __future__ import annotations

from typing import Protocol

from repro.fabric.ledger import Block, Ledger
from repro.fabric.transaction import Transaction
from repro.logs.blockchain_log import (
    CONFIG_DEFAULTS,
    ChannelConfig,
    LogRecord,
    fold_config,
    record_from_transaction,
    validate_record,
)


class RecordConsumer(Protocol):
    """Anything that folds committed log records in one at a time."""

    def consume(self, record: LogRecord) -> None: ...  # pragma: no cover


class TransactionConsumer(Protocol):
    """Anything that folds finished transactions in, aborts included."""

    def consume(self, tx: Transaction) -> None: ...  # pragma: no cover


class RunStream:
    """Fan-out hub between the committing ledger and streaming consumers.

    Records are emitted in commit order with the same ``commit_order`` /
    ``block_position`` numbering the batch extraction assigns, so a
    consumer fed live produces byte-identical results to one fed from
    :func:`~repro.logs.extract.extract_blockchain_log`.
    """

    def __init__(self) -> None:
        self.record_consumers: list[RecordConsumer] = []
        self.tx_consumers: list[TransactionConsumer] = []
        #: Channel configuration captured from config transactions; the
        #: last config update wins, mirroring Fabric's semantics.
        self.config: ChannelConfig | None = None
        self._settings = dict(CONFIG_DEFAULTS)
        self._order = 0
        self.records_streamed = 0
        self.aborts_streamed = 0

    def add_record_consumer(self, consumer: RecordConsumer) -> "RunStream":
        self.record_consumers.append(consumer)
        return self

    def add_transaction_consumer(self, consumer: TransactionConsumer) -> "RunStream":
        self.tx_consumers.append(consumer)
        return self

    def accept_block(self, block: Block) -> int:
        """Convert and fan out one committed block; returns data-tx count.

        The block is not retained: once every consumer has folded its
        records in, the only references left are the caller's.
        """
        streamed = 0
        for position, tx in enumerate(block.transactions):
            if tx.is_config:
                self.config = fold_config(self._settings, tx)
                continue
            record = record_from_transaction(tx, self._order, position)
            validate_record(record, self._order - 1)
            self._order += 1
            streamed += 1
            for consumer in self.record_consumers:
                consumer.consume(record)
            for consumer in self.tx_consumers:
                consumer.consume(tx)
        self.records_streamed += streamed
        return streamed

    def accept_abort(self, tx: Transaction) -> None:
        """Fan out a transaction that aborted before reaching the chain.

        Only transaction consumers see aborts: the blockchain log (and
        therefore every record consumer) holds committed transactions,
        matching the batch extraction's default.
        """
        self.aborts_streamed += 1
        for consumer in self.tx_consumers:
            consumer.consume(tx)


class StreamingLedger:
    """Hash-chained ledger stand-in that streams blocks instead of keeping them.

    Duck-typed for the validator/network append path (``height``,
    ``tip_hash``, ``append``); the read-back API of
    :class:`~repro.fabric.ledger.Ledger` is deliberately absent — batch
    post-processing of a streamed run is a contradiction, and attempting
    it fails loudly.
    """

    GENESIS_HASH = Ledger.GENESIS_HASH

    def __init__(self, stream: RunStream) -> None:
        self.stream = stream
        self._height = 0
        self._tip_hash = self.GENESIS_HASH
        self.blocks_committed = 0
        #: Blocks containing at least one non-config transaction.
        self.data_blocks = 0
        #: Non-config transactions streamed off the chain.
        self.committed_txs = 0
        #: Commit time of the newest data block (None until one commits).
        self.last_commit_time: float | None = None
        #: Largest single block seen — the run's true record high-water.
        self.max_block_transactions = 0
        self.cut_reason_counts: dict[str, int] = {}

    @property
    def height(self) -> int:
        """Number of blocks committed so far (the next block number)."""
        return self._height

    @property
    def tip_hash(self) -> str:
        """Hash of the newest block (chained into the next one)."""
        return self._tip_hash

    def append(self, block: Block) -> None:
        """Verify chain continuity, stream the block out, keep only counters."""
        if block.number != self._height:
            raise ValueError(
                f"block number {block.number} does not extend ledger height {self._height}"
            )
        if block.previous_hash != self._tip_hash:
            raise ValueError("block does not chain from current tip")
        self._height += 1
        self._tip_hash = block.block_hash
        self.blocks_committed += 1
        size = len(block.transactions)
        if size > self.max_block_transactions:
            self.max_block_transactions = size
        self.cut_reason_counts[block.cut_reason] = (
            self.cut_reason_counts.get(block.cut_reason, 0) + 1
        )
        streamed = self.stream.accept_block(block)
        if streamed:
            self.data_blocks += 1
            self.committed_txs += streamed
            if block.committed_at is not None:
                self.last_commit_time = block.committed_at

    def transactions(self, include_config: bool = True):
        """Unavailable by design — the whole point is not keeping them."""
        raise RuntimeError(
            "a streaming ledger retains no transactions; register consumers "
            "on the RunStream before the run instead"
        )

    def __len__(self) -> int:
        return self._height

    def __iter__(self):
        raise RuntimeError(
            "a streaming ledger retains no blocks; register consumers "
            "on the RunStream before the run instead"
        )
