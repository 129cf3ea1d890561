"""Ledger extraction and cleaning (the paper's data-preprocessing step).

``BlockOptR registers as a client on the Fabric network, reads the entire
blockchain [...] the log is cleaned by removing the configuration and
setup-related transactions``.  Here the kept ledger plays the role of
the fetched chain: configuration transactions yield the
:class:`~repro.logs.blockchain_log.ChannelConfig` (the paper extracts
block count/timeout from the log) and are then dropped from the records.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.fabric.network import FabricNetwork
from repro.logs.blockchain_log import BlockchainLog, LogRecord
from repro.logs.stream import RunStream


def extract_blockchain_log(
    network: FabricNetwork, interval_seconds: float = 1.0
) -> BlockchainLog:
    """Extract the nine-attribute blockchain log of a network's kept chain.

    The chain is replayed once through a fresh :class:`RunStream` with a
    record consumer on it, so each record is numbered, built and checked
    exactly as a run's stream does it, and the config transactions are
    folded the same way (the last one to set a key wins); the network's
    own stream and its counters are left alone.  Transactions that never
    reached the chain are not in the log, as in a real Fabric ledger.  A
    chain without a config transaction raises ``ValueError``.
    """
    records: list[LogRecord] = []
    replay = RunStream().add_record_consumer(SimpleNamespace(consume=records.append))
    for block in network.ledger:
        replay.accept_block(block)
    if replay.config is None:
        raise ValueError("ledger contains no configuration transaction")
    return BlockchainLog(
        records=records, config=replay.config, interval_seconds=interval_seconds
    )
