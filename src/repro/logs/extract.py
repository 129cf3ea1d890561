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
from typing import Iterator

from repro.fabric.network import FabricNetwork
from repro.logs.blockchain_log import BlockchainLog, ChannelConfig, LogRecord
from repro.logs.stream import RunStream


class ChainLog:
    """A network's kept chain read as a log, one block of records at a time.

    Each pass replays the chain through a fresh :class:`RunStream`, so each
    record is numbered, built and checked as a run's stream does it, and
    yields a block's records before it replays the next block; the
    network's own stream is left alone.  ``len()`` is the number of records
    the latest pass read.  ``config`` is set when a pass ends (the last
    config transaction to set a key wins); a chain without one raises
    ``ValueError`` there.
    """

    def __init__(self, network: FabricNetwork) -> None:
        self._ledger = network.ledger
        self.config: ChannelConfig | None = None
        self._read = 0

    def __len__(self) -> int:
        return self._read

    def __iter__(self) -> Iterator[LogRecord]:
        records: list[LogRecord] = []  # one block's
        replay = RunStream().add_record_consumer(SimpleNamespace(consume=records.append))
        self._read = 0
        for block in self._ledger:
            replay.accept_block(block)
            yield from records
            self._read += len(records)
            records.clear()
        if replay.config is None:
            raise ValueError("ledger contains no configuration transaction")
        self.config = replay.config


def extract_blockchain_log(network: FabricNetwork) -> BlockchainLog:
    """Extract the nine-attribute blockchain log of a network's kept chain:
    one :class:`ChainLog` pass, with its records listed."""
    chain = ChainLog(network)
    records = list(chain)
    return BlockchainLog(records=records, config=chain.config)
