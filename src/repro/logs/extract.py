"""Ledger extraction and cleaning (the paper's data-preprocessing step).

``BlockOptR registers as a client on the Fabric network, reads the entire
blockchain [...] the log is cleaned by removing the configuration and
setup-related transactions``.  Here the kept ledger plays the role of
the fetched chain: configuration transactions yield the
:class:`~repro.logs.blockchain_log.ChannelConfig` (the paper extracts
block count/timeout from the log) and are then dropped from the records.
"""

from __future__ import annotations

from repro.fabric.ledger import Ledger
from repro.fabric.network import FabricNetwork
from repro.logs.blockchain_log import BlockchainLog, record_from_transaction
from repro.logs.stream import RunStream


def extract_blockchain_log(
    source: FabricNetwork | Ledger, interval_seconds: float = 1.0
) -> BlockchainLog:
    """Extract the nine-attribute blockchain log from a ledger or network.

    The chain is replayed through a fresh :class:`RunStream`, which
    numbers its transactions and folds its config transactions exactly
    as a run's stream does (the last one to set a key wins); the
    network's own stream and its counters are left alone.  Transactions
    that never reached the chain are not in the log, as in a real Fabric
    ledger.  A ledger without a config transaction raises ``ValueError``.
    """
    ledger = source.ledger if isinstance(source, FabricNetwork) else source
    numbering = RunStream()
    for block in ledger:
        numbering.accept_block(block)
    if numbering.config is None:
        raise ValueError("ledger contains no configuration transaction")
    records = [
        record_from_transaction(tx, position)
        for block in ledger
        for position, tx in enumerate(block.transactions)
        if not tx.is_config
    ]
    log = BlockchainLog(
        records=records, config=numbering.config, interval_seconds=interval_seconds
    )
    log.validate()
    return log
