"""The blockchain log: nine attributes per transaction (Section 4.1).

The preprocessed output of BlockOptR's data-preprocessing step.  Each
:class:`LogRecord` carries exactly the attributes the paper enumerates —
client timestamp, activity name, function arguments, endorsers, invoker,
read-write set, transaction status, derived transaction type, and commit
order — plus the block number needed for the block-size metrics.

An analysis keeps the log as columns: :class:`RecordTable` appends one
entry per column for each record and keeps no :class:`LogRecord` alive,
so a streamed log is read once and each record is dropped as soon as it
is consumed.  The Section 4.3 metrics
(:class:`repro.core.metrics.MetricsAccumulator`) and the Section 4.2
event log (:meth:`repro.logs.eventlog.EventLog.from_table`) are then
counted over the columns with ``Counter`` and ``itertools`` passes that
run in C.  Enum columns hold the member's ``_value_`` string: counting
strings hashes in C, where counting the members would call
``Enum.__hash__`` per record.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.fabric.transaction import TxStatus, TxType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.transaction import Transaction


@dataclass(frozen=True)
class ChannelConfig:
    """Channel configuration recovered from config transactions."""

    block_count: int
    block_timeout: float
    block_bytes: int
    endorsement_policy: str


#: The channel settings config transactions carry, with the value each
#: takes until a config transaction sets it.
CONFIG_DEFAULTS: dict[str, object] = {
    "block_count": 100,
    "block_timeout": 1.0,
    "block_bytes": 2 * 1024 * 1024,
    "endorsement_policy": "",
}


def fold_config(settings: dict[str, object], tx: "Transaction") -> ChannelConfig:
    """Apply one config transaction to ``settings`` (a copy of
    :data:`CONFIG_DEFAULTS`, updated in place) and return the result.

    Keys the transaction omits keep their value: the last config
    transaction to set a key wins, mirroring Fabric's config updates.
    """
    for key, value in tx.args:
        if key in settings:
            settings[key] = value
    return ChannelConfig(
        block_count=int(settings["block_count"]),
        block_timeout=float(settings["block_timeout"]),
        block_bytes=int(settings["block_bytes"]),
        endorsement_policy=str(settings["endorsement_policy"]),
    )


@dataclass(slots=True)
class LogRecord:
    """One transaction's entry in the blockchain log."""

    commit_order: int
    tx_id: str
    client_timestamp: float
    activity: str
    args: tuple[Any, ...]
    endorsers: tuple[str, ...]
    invoker: str
    invoker_org: str
    read_keys: tuple[str, ...]
    write_keys: tuple[str, ...]
    #: Written values, keyed like ``write_keys`` (needed by the delta-write
    #: detector: WS(x) +/- 1 == WS(y)).
    writes: dict[str, Any]
    #: Read versions as (block, tx) pairs, keyed like ``read_keys``.
    read_versions: dict[str, tuple[int, int]]
    #: Range-read bounds [start, end) (empty for non-range transactions);
    #: needed to attribute phantom conflicts to inserting/deleting writers.
    range_reads: tuple[tuple[str, str], ...]
    status: TxStatus
    tx_type: TxType
    block_number: int
    #: Position within the block; (block_number, block_position) is the
    #: state version a successful write created.
    block_position: int
    commit_time: float
    contract: str = "contract"
    #: Client attempt number: 1 = original submission, >1 = a retry issued
    #: under a :class:`~repro.fabric.retry.RetryPolicy`.  Carried in both
    #: exports; CSV files written before the ``attempt`` column read as 1.
    attempt: int = 1

    @property
    def rw_keys(self) -> frozenset[str]:
        """RWS(x): all keys accessed by the transaction."""
        return frozenset(self.read_keys) | frozenset(self.write_keys)

    @property
    def is_failure(self) -> bool:
        """True unless the transaction committed as valid (``SUCCESS``)."""
        return self.status.is_failure


@dataclass
class BlockchainLog:
    """The cleaned, ordered blockchain log plus channel configuration."""

    records: list[LogRecord]
    config: ChannelConfig
    #: Interval size (seconds) used by the distribution metrics; the
    #: paper's user-configurable ``ins``.
    interval_seconds: float = 1.0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)


def validate_record(record: LogRecord, last_order: int = -1) -> None:
    """Check one record's invariants (:class:`~repro.logs.stream.RunStream`
    checks every record it builds).

    ``last_order`` is the previous record's commit order; pass the default
    to skip the monotonicity check for an isolated record.
    """
    if record.commit_order <= last_order:
        raise ValueError(f"commit order not strictly increasing at tx {record.tx_id}")
    missing = set(record.writes) - set(record.write_keys)
    if missing:
        raise ValueError(f"write values without keys in tx {record.tx_id}: {missing}")
    unread = set(record.read_versions) - set(record.read_keys)
    if unread:
        raise ValueError(f"read versions without keys in tx {record.tx_id}: {unread}")


class RecordTable:
    """One column per attribute the metrics and the event log read.

    Fill it with ``records`` or :meth:`consume`, in commit order, then
    read it; the derived views (:attr:`failed`, :attr:`rows_by_activity`,
    :attr:`keys_by_activity`) are computed on first read, so read them
    only after the last record.
    """

    def __init__(self, records: Iterable[LogRecord] = ()) -> None:
        self.commit_orders = array("q")
        self.timestamps = array("d")
        self.activities: list[str] = []
        #: ``TxStatus`` values.
        self.statuses: list[str] = []
        #: ``TxType`` value of each executed transaction, ``None`` for one
        #: that never executed (empty read-write set and no range read):
        #: its derived type is an artifact.
        self.tx_types: list[str | None] = []
        self.endorsers: list[tuple[str, ...]] = []
        self.invokers: list[str] = []
        self.invoker_orgs: list[str] = []
        self.args: list[tuple[Any, ...]] = []
        self.rw_keys: list[frozenset[str]] = []
        #: ``-1`` for a transaction that never reached a block.
        self.block_numbers = array("q")
        #: One object per distinct activity, invoker, org and endorser
        #: tuple: a CSV row decodes its own copy of each, and the column
        #: passes hash and compare shared objects faster.
        self._shared: dict = {}
        for record in records:
            self.consume(record)

    def consume(self, record: LogRecord) -> None:
        """Append one record's columns."""
        rw_keys = record.rw_keys
        share = self._shared.setdefault
        activity = record.activity
        endorsers = record.endorsers
        invoker = record.invoker
        invoker_org = record.invoker_org
        self.commit_orders.append(record.commit_order)
        self.timestamps.append(record.client_timestamp)
        self.activities.append(share(activity, activity))
        self.statuses.append(record.status._value_)
        self.tx_types.append(
            record.tx_type._value_ if rw_keys or record.range_reads else None
        )
        self.endorsers.append(share(endorsers, endorsers))
        self.invokers.append(share(invoker, invoker))
        self.invoker_orgs.append(share(invoker_org, invoker_org))
        self.args.append(record.args)
        self.rw_keys.append(rw_keys)
        self.block_numbers.append(record.block_number)

    @cached_property
    def failed(self) -> list[bool]:
        """Per record, whether it failed: the selector for ``compress``."""
        return list(map(TxStatus.SUCCESS.value.__ne__, self.statuses))

    @cached_property
    def rows_by_activity(self) -> dict[str, list[int]]:
        """Each activity's row indices; activities in first-seen order."""
        activities = self.activities
        rows = range(len(activities))
        return {
            activity: list(compress(rows, map(activity.__eq__, activities)))
            for activity in dict.fromkeys(activities)
        }

    @cached_property
    def keys_by_activity(self) -> dict[str, set[str]]:
        """The keys each activity's transactions read or write."""
        rw_keys = self.rw_keys
        return {
            activity: set(chain.from_iterable(map(rw_keys.__getitem__, rows)))
            for activity, rows in self.rows_by_activity.items()
        }


def record_from_transaction(tx: "Transaction", block_position: int) -> LogRecord:
    """Build the blockchain-log record of a committed transaction.

    ``tx.commit_order`` must already be set: :class:`~repro.logs.stream
    .RunStream` numbers every committed transaction as its block is
    accepted, and both the live fan-out and the extraction read that
    number.
    """
    rwset = tx.rwset
    # A point read's version wins over the same key's range-read version.
    read_versions = {key: (v.block, v.tx) for key, v in rwset.reads.items()}
    for query in rwset.range_queries:
        for key, version in query.results:
            read_versions.setdefault(key, (version.block, version.tx))
    return LogRecord(
        commit_order=tx.commit_order,
        tx_id=tx.tx_id,
        client_timestamp=tx.client_timestamp,
        activity=tx.activity,
        args=tuple(tx.args),
        endorsers=tuple(tx.endorsers),
        invoker=tx.invoker_client,
        invoker_org=tx.invoker_org,
        read_keys=tuple(sorted(read_versions)),
        write_keys=tuple(sorted(rwset.writes)),
        writes=dict(rwset.writes),
        read_versions=read_versions,
        range_reads=tuple([(query.start, query.end) for query in rwset.range_queries]),
        status=tx.status,
        tx_type=rwset.derive_type(),
        block_number=tx.block_number if tx.block_number is not None else -1,
        block_position=block_position,
        commit_time=tx.commit_time if tx.commit_time is not None else -1.0,
        contract=tx.contract,
        attempt=tx.attempt,
    )


def interval_index(timestamp: float, start: float, ins: float) -> int:
    """Index of the ``[start + k*ins, start + (k+1)*ins)`` window holding ``timestamp``.

    The naive ``int((timestamp - start) / ins)`` mis-bins timestamps that
    sit exactly on a window boundary when the division rounds across it,
    so the estimate is nudged until the exact half-open comparisons hold.
    """
    index = int((timestamp - start) / ins)
    while index > 0 and timestamp < start + index * ins:
        index -= 1
    while timestamp >= start + (index + 1) * ins:
        index += 1
    return index
