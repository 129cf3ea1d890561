"""The run's one output seam: a hash-checked fan-out of blocks and aborts.

Every :class:`~repro.fabric.network.FabricNetwork` appends to one
:class:`RunStream` its genesis block, each block the validator commits
and each transaction that aborts before reaching the chain.  The stream
keeps no block and no record: it checks that each block extends the
chain, numbers the committed data transactions (``tx.commit_order``),
keeps the run counters and fans everything out to the consumers
registered before the run:

* a *chain consumer* implements ``accept_block(block)`` and
  ``accept_abort(tx)``, like :class:`~repro.fabric.ledger.KeptChain`;
* a *transaction consumer* implements ``consume(tx)`` and sees every
  finished transaction, committed or aborted (the forensics taxonomy
  needs abort stages and missing endorsements that a log record
  does not carry);
* a *record consumer* implements ``consume(record)`` and sees each
  committed data transaction as a :class:`LogRecord`.  Records are built
  and validated only while a record consumer is registered, and
  :attr:`RunStream.records_streamed` counts exactly those.

``finish()`` semantics are left to each accumulator — the stream never
calls it, the harvesting caller does.  The accumulators in
:mod:`repro.core.metrics`, :mod:`repro.analysis.forensics` and
:mod:`repro.control.monitor` implement these protocols; see
docs/SCALING.md for the full contract.
"""

from __future__ import annotations

from repro.fabric.ledger import Block, Ledger
from repro.fabric.transaction import Transaction
from repro.logs.blockchain_log import (
    CONFIG_DEFAULTS,
    ChannelConfig,
    fold_config,
    record_from_transaction,
    validate_record,
)


class RunStream:
    """Fan-out hub between a network's commit and abort seams and its consumers.

    Records are emitted in commit order, numbered by ``tx.commit_order``
    (set here, for every committed data transaction) and their position
    in the block, so a consumer fed live produces byte-identical results
    to one fed from a :class:`~repro.logs.extract.ChainLog`, which
    replays the kept chain through a fresh stream.
    """

    def __init__(self) -> None:
        self.chain_consumers: list = []
        self.record_consumers: list = []
        self.tx_consumers: list = []
        #: Channel configuration captured from config transactions; the
        #: last config update wins, mirroring Fabric's semantics.
        self.config: ChannelConfig | None = None
        self._settings = dict(CONFIG_DEFAULTS)
        #: Blocks accepted so far (the next block number).
        self.height = 0
        #: Hash of the newest block (chained into the next one).
        self.tip_hash = Ledger.GENESIS_HASH
        #: Blocks holding at least one non-config transaction.
        self.data_blocks = 0
        #: Non-config transactions committed (the next commit order).
        self.committed_txs = 0
        #: Transactions that aborted before reaching the chain.
        self.aborts = 0
        #: Commit time of the newest data block (None until one commits).
        self.last_commit_time: float | None = None
        #: Largest single block seen — the run's true record high-water.
        self.max_block_transactions = 0
        self.cut_reason_counts: dict[str, int] = {}
        #: Log records built for record consumers.
        self.records_streamed = 0

    def add_chain_consumer(self, consumer) -> "RunStream":
        """Register ``consumer`` for every block and abort; returns the stream."""
        self.chain_consumers.append(consumer)
        return self

    def add_record_consumer(self, consumer) -> "RunStream":
        """Register ``consumer`` for every committed record; returns the stream."""
        self.record_consumers.append(consumer)
        return self

    def add_transaction_consumer(self, consumer) -> "RunStream":
        """Register ``consumer`` for every finished transaction; returns the stream."""
        self.tx_consumers.append(consumer)
        return self

    def accept_block(self, block: Block) -> None:
        """Check that ``block`` extends the chain, count it and fan it out.

        The block is not retained: once every consumer has taken it in,
        the only references left are the caller's and the chain
        consumers'.
        """
        if block.number != self.height:
            raise ValueError(
                f"block number {block.number} does not extend ledger height {self.height}"
            )
        if block.previous_hash != self.tip_hash:
            raise ValueError("block does not chain from current tip")
        self.height += 1
        self.tip_hash = block.block_hash
        transactions = block.transactions
        if len(transactions) > self.max_block_transactions:
            self.max_block_transactions = len(transactions)
        cut_reasons = self.cut_reason_counts
        cut_reasons[block.cut_reason] = cut_reasons.get(block.cut_reason, 0) + 1
        for consumer in self.chain_consumers:
            consumer.accept_block(block)

        record_consumers = self.record_consumers
        tx_consumers = self.tx_consumers
        first = order = self.committed_txs
        for position, tx in enumerate(transactions):
            if tx.is_config:
                self.config = fold_config(self._settings, tx)
                continue
            tx.commit_order = order
            if record_consumers:
                record = record_from_transaction(tx, position)
                validate_record(record, order - 1)
                for consumer in record_consumers:
                    consumer.consume(record)
            for consumer in tx_consumers:
                consumer.consume(tx)
            order += 1
        if order > first:
            self.committed_txs = order
            self.data_blocks += 1
            self.last_commit_time = block.committed_at
            if record_consumers:
                self.records_streamed += order - first

    def accept_abort(self, tx: Transaction) -> None:
        """Fan out a transaction that aborted before reaching the chain.

        Record consumers never see aborts: the blockchain log holds
        committed transactions only, as a real Fabric ledger does.
        """
        self.aborts += 1
        for consumer in self.chain_consumers:
            consumer.accept_abort(tx)
        for consumer in self.tx_consumers:
            consumer.consume(tx)
