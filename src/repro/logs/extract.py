"""Ledger extraction and cleaning (the paper's data-preprocessing step).

``BlockOptR registers as a client on the Fabric network, reads the entire
blockchain [...] the log is cleaned by removing the configuration and
setup-related transactions``.  Here the ledger object plays the role of
the fetched chain: configuration transactions yield the
:class:`~repro.logs.blockchain_log.ChannelConfig` (the paper extracts
block count/timeout from the log) and are then dropped from the records.
"""

from __future__ import annotations

from repro.fabric.ledger import Ledger
from repro.fabric.network import FabricNetwork
from repro.logs.blockchain_log import (
    CONFIG_DEFAULTS,
    BlockchainLog,
    ChannelConfig,
    LogRecord,
    fold_config,
    record_from_transaction,
)


def extract_blockchain_log(
    source: FabricNetwork | Ledger,
    interval_seconds: float = 1.0,
    include_early_aborts: bool = False,
) -> BlockchainLog:
    """Extract the nine-attribute blockchain log from a ledger or network.

    ``include_early_aborts`` additionally appends transactions that never
    reached the chain (endorsement-phase aborts); real Fabric ledgers do
    not contain them, so the default matches the paper.  The channel
    configuration comes from the ledger's config transactions (the last
    one to set a key wins); a ledger without one raises ``ValueError``.
    """
    if isinstance(source, FabricNetwork):
        ledger = source.ledger
        early_aborts = source.aborted if include_early_aborts else []
    else:
        ledger = source
        early_aborts = []

    settings = dict(CONFIG_DEFAULTS)
    config: ChannelConfig | None = None
    records: list[LogRecord] = []
    order = 0
    for block in ledger:
        for position, tx in enumerate(block.transactions):
            if tx.is_config:
                config = fold_config(settings, tx)
                continue
            records.append(record_from_transaction(tx, order, position))
            order += 1
    if config is None:
        raise ValueError("ledger contains no configuration transaction")
    for tx in early_aborts:
        records.append(record_from_transaction(tx, order, -1))
        order += 1
    log = BlockchainLog(records=records, config=config, interval_seconds=interval_seconds)
    log.validate()
    return log
