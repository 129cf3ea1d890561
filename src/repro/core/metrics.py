"""Metrics derivation from the blockchain log (paper Section 4.3).

Computes every metric the paper defines — rate and failure distributions,
block size, endorser/invoker significance, key frequency/significance,
data-value correlation and (activity-based) proximity correlation — via
:class:`MetricsAccumulator`, a streaming consumer that takes each
:class:`~repro.logs.blockchain_log.LogRecord` in as it commits, keeps
its columns in a :class:`~repro.logs.blockchain_log.RecordTable` and
counts them when the stream ends, so the rule layer
(:mod:`repro.core.rules`) only ever looks at precomputed values and a run
never has to materialize the full log.  :func:`compute_metrics` is the
batch entry point: it feeds a
:class:`~repro.logs.blockchain_log.BlockchainLog` through the accumulator
record by record and returns the identical :class:`LogMetrics`.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import sub
from typing import Any, NamedTuple, Sequence

from repro.fabric.transaction import TxStatus, TxType
from repro.logs.blockchain_log import (
    BlockchainLog,
    ChannelConfig,
    LogRecord,
    RecordTable,
    interval_index,
)


@dataclass(frozen=True)
class ConflictPair:
    """A data-value correlation (corDV) pair: culprit ``y`` before failed ``x``.

    ``distance`` is the proximity correlation corP in commit-order
    positions; ``same_block`` classifies the failure as intra-block.
    ``reorderable`` is Table 1's activity-reordering condition —
    overlapping reads, disjoint write sets.
    """

    failed_order: int
    culprit_order: int
    failed_activity: str
    culprit_activity: str
    shared_keys: tuple[str, ...]
    distance: int
    same_block: bool
    reorderable: bool


def increment_delta(before: Any, after: Any) -> float | None:
    """The numeric increment between two written values, if one exists.

    Handles plain numbers and (recursively) dicts that are identical except
    for exactly one numeric leaf — how the DRM ``play`` counter looks in
    the write set.  Returns ``None`` when the values do not differ by a
    single numeric step.
    """
    if isinstance(before, bool) or isinstance(after, bool):
        return None
    if isinstance(before, (int, float)) and isinstance(after, (int, float)):
        return float(after) - float(before)
    if isinstance(before, dict) and isinstance(after, dict):
        if set(before) != set(after):
            return None
        delta: float | None = None
        for key in before:
            if before[key] == after[key]:
                continue
            step = increment_delta(before[key], after[key])
            if step is None or delta is not None:
                return None  # non-numeric change, or more than one changed leaf
            delta = step
        return delta
    return None


@dataclass(slots=True)
class ActivityStats:
    """Per-activity aggregates."""

    total: int = 0
    failures: int = 0
    type_counts: Counter = field(default_factory=Counter)

    def dominant_type(self) -> TxType | None:
        """Most frequent type, or ``None`` if no transaction ever executed."""
        if not self.type_counts:
            return None
        return self.type_counts.most_common(1)[0][0]

    def minority_types(self) -> dict[TxType, int]:
        """Counts of every type other than the dominant one."""
        dominant = self.dominant_type()
        if dominant is None:
            return {}
        return {t: c for t, c in self.type_counts.items() if t is not dominant}


@dataclass
class LogMetrics:
    """Everything Section 4.3 derives from one blockchain log."""

    total_transactions: int
    duration: float
    # (1) rate metrics
    tr: float
    trd: list[float]
    # (2) failure metrics
    total_failures: int
    tfr: float
    failure_counts: dict[TxStatus, int]
    frd: list[float]
    # (3) block size
    bcount: int
    btimeout: float
    bsize_avg: float
    # (4) endorser significance
    edsig: dict[str, int]
    edsig_org: dict[str, int]
    # (5) invoker significance
    ivsig: dict[str, int]
    ivsig_org: dict[str, int]
    # (6) key frequency / significance / hotkeys
    kfreq: dict[str, int]
    ksig: dict[str, int]
    ksig_failed: dict[str, int]
    key_failed_activities: dict[str, frozenset[str]]
    hotkeys: list[str]
    # (7)+(8) correlations
    conflict_pairs: list[ConflictPair]
    corpa: dict[str, list[int]]
    # derived evidence
    activity_stats: dict[str, ActivityStats]
    delta_candidates: dict[str, int]
    mvcc_failures: int
    reorderable_mvcc: int
    reorderable_activity_pairs: list[tuple[str, str]]
    self_dependent_activities: list[str]
    intra_block_pairs: int
    endorsement_policy: str


#: MVCC-like statuses (read-conflict failures the correlation pass tracks).
_MVCC_LIKE = (TxStatus.MVCC_CONFLICT, TxStatus.PHANTOM_CONFLICT)


class _Writer(NamedTuple):
    """The four attributes the corDV pass reads from a successful writer,
    so the accumulator never keeps a whole :class:`LogRecord` alive."""

    order: int
    activity: str
    write_set: frozenset[str]
    block_number: int


class MetricsAccumulator:
    """Streaming Section 4.3 metrics: consume records, then :meth:`finish`.

    Implements the record-consumer protocol (``consume``/``finish``): feed
    every log record in commit order, one at a time, and ``finish()``
    counts the columns of :attr:`table`.  Only the two history-dependent
    analyses run per record, on the records they concern: the corDV
    last-writer index and the delta-write version map.  All three are
    O(transactions); the bounded channel summaries used at large scale
    skip this class entirely (see ``docs/SCALING.md``).
    """

    def __init__(
        self,
        config: ChannelConfig | None = None,
        interval_seconds: float = 1.0,
        hotkey_failure_share: float = 0.1,
        hotkey_min_failures: int = 20,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"interval must be positive, got {interval_seconds}")
        #: Channel configuration; may be attached after construction (a
        #: run's stream only learns it from the genesis block).
        self.config = config
        self.interval_seconds = interval_seconds
        self.hotkey_failure_share = hotkey_failure_share
        self.hotkey_min_failures = hotkey_min_failures
        #: Every consumed record's columns (the event log reads them too).
        self.table = RecordTable()
        # corDV state: latest successful writer per key + sorted key index
        # for phantom range scans.
        self._last_writer: dict[str, _Writer] = {}
        self._written_keys_sorted: list[str] = []
        self._pairs: list[ConflictPair] = []
        # Delta-write state: written value per created state version.
        self._by_version: dict[tuple[str, int, int], Any] = {}
        self._delta_candidates: Counter = Counter()

    def consume(self, record: LogRecord) -> None:
        """Take one record in (records must arrive in commit order)."""
        self.table.consume(record)
        status = record.status
        if status is TxStatus.SUCCESS and record.write_keys:
            # Index the writer by key and by the state versions it created.
            block = record.block_number
            writer = _Writer(
                record.commit_order, record.activity, frozenset(record.write_keys), block
            )
            for key in record.write_keys:
                if key not in self._last_writer:
                    bisect.insort(self._written_keys_sorted, key)
                self._last_writer[key] = writer
                version = (key, block, record.block_position)
                self._by_version[version] = record.writes.get(key)
        elif status is TxStatus.MVCC_CONFLICT or status is TxStatus.PHANTOM_CONFLICT:
            self._add_conflict(record, status)

    def _add_conflict(self, record: LogRecord, status: TxStatus) -> None:
        """corDV pair and delta-write check of one MVCC/phantom failure.

        The corDV culprit is the latest successful transaction that wrote
        one of the failure's read keys.  Table 1's delta-write condition
        holds for an MVCC failure ``x`` with a single-key write whose
        written value is exactly one numeric step away from the value
        written by the transaction that created the version ``x`` read —
        i.e. ``x`` computed ``old + 1``.  Such updates can be rewritten as
        blind writes to unique delta keys.
        """
        last_writer = self._last_writer
        culprit: _Writer | None = None
        for key in record.read_keys:
            writer = last_writer.get(key)
            if writer is not None and (culprit is None or writer.order > culprit.order):
                culprit = writer
        if status is TxStatus.PHANTOM_CONFLICT:
            # A phantom's culprit may have written a *new* key inside the
            # scanned range, absent from the recorded read set.
            written_keys_sorted = self._written_keys_sorted
            for start, end in record.range_reads:
                lo = bisect.bisect_left(written_keys_sorted, start)
                hi = bisect.bisect_left(written_keys_sorted, end)
                for key in written_keys_sorted[lo:hi]:
                    writer = last_writer[key]
                    if culprit is None or writer.order > culprit.order:
                        culprit = writer
        if culprit is not None:
            culprit_writes = culprit.write_set
            shared = sorted(set(record.read_keys) & culprit_writes)
            disjoint_writes = not (set(record.write_keys) & culprit_writes)
            self._pairs.append(
                ConflictPair(
                    failed_order=record.commit_order,
                    culprit_order=culprit.order,
                    failed_activity=record.activity,
                    culprit_activity=culprit.activity,
                    shared_keys=tuple(shared),
                    distance=record.commit_order - culprit.order,
                    same_block=record.block_number == culprit.block_number,
                    reorderable=disjoint_writes,
                )
            )
        if status is TxStatus.MVCC_CONFLICT and len(record.write_keys) == 1:
            key = record.write_keys[0]
            version = record.read_versions.get(key)
            if version is not None:
                before = self._by_version.get((key, *version), _MISSING)
                if before is not _MISSING:
                    step = increment_delta(before, record.writes[key])
                    if step is not None and abs(step) == 1.0:
                        self._delta_candidates[record.activity] += 1

    def finish(self) -> LogMetrics:
        """Count the table's columns into the full :class:`LogMetrics`.

        ``Counter`` keeps first-seen order, so every dict keyed by status,
        activity, endorser, org or invoker lists its keys in the order of
        their first record.  The per-key dicts follow the iteration order
        of each record's ``rw_keys`` frozenset (``kfreq``, the failed-key
        dicts) or of a set (``ksig``), which changes with
        ``PYTHONHASHSEED``, so every consumer reads them by key or sorted.
        """
        if self.config is None:
            raise ValueError("no channel configuration attached before finish()")
        table = self.table
        stamps = table.timestamps
        failed = table.failed
        total = len(stamps)
        ins = self.interval_seconds

        if total:
            start = min(stamps)
            end = max(stamps)
            count = interval_index(end, start, ins) + 1
            # A stamp's interval is the number of inner bounds at or below
            # it: the half-open windows of interval_index, found in C.
            bounds = [start + index * ins for index in range(1, count)]
            slices = list(map(bisect.bisect_right, repeat(bounds), stamps))
            slice_totals = Counter(slices)
            slice_failures = Counter(compress(slices, failed))
            trd = [slice_totals[index] / ins for index in range(count)]
            frd = [slice_failures[index] / ins for index in range(count)]
        else:
            start = end = 0.0
            trd = []
            frd = []
        duration = end - start
        tr = total / duration if duration > 0 else float(total)

        failure_counts = {
            TxStatus(status): n
            for status, n in Counter(compress(table.statuses, failed)).items()
        }
        total_failures = sum(failure_counts.values())
        block_sizes = Counter(table.block_numbers)
        block_sizes.pop(-1, None)
        bsize_avg = (
            sum(block_sizes.values()) / len(block_sizes) if block_sizes else 0.0
        )

        activities = table.activities
        rows_by_activity = table.rows_by_activity
        activity_failures = Counter(compress(activities, failed))
        activity_stats = {
            activity: ActivityStats(total=len(rows), failures=activity_failures[activity])
            for activity, rows in rows_by_activity.items()
        }
        for (activity, tx_type), n in Counter(zip(activities, table.tx_types)).items():
            if tx_type is not None:
                activity_stats[activity].type_counts[TxType(tx_type)] = n

        edsig = Counter(chain.from_iterable(table.endorsers))
        edsig_org: dict[str, int] = {}
        for endorser, n in edsig.items():
            org = endorser.rpartition("-peer")[0]
            edsig_org[org] = edsig_org.get(org, 0) + n

        rw_keys = table.rw_keys
        kfreq = Counter(chain.from_iterable(compress(rw_keys, failed)))
        key_failed_activities: dict[str, dict[str, int]] = {}
        for activity, rows in rows_by_activity.items():
            failed_rows = compress(rows, map(failed.__getitem__, rows))
            keys = Counter(chain.from_iterable(map(rw_keys.__getitem__, failed_rows)))
            for key, n in keys.items():
                key_failed_activities.setdefault(key, {})[activity] = n
        significant = {
            key: _significant_activities(counts)
            for key, counts in key_failed_activities.items()
        }
        hot_cut = max(
            self.hotkey_min_failures, self.hotkey_failure_share * total_failures
        )
        hotkeys = sorted(
            (key for key, n in kfreq.items() if n >= hot_cut),
            key=lambda key: (-kfreq[key], key),
        )

        conflict_pairs = self._pairs
        mvcc_failures = sum(failure_counts.get(status, 0) for status in _MVCC_LIKE)
        reorderable = [pair for pair in conflict_pairs if pair.reorderable]
        reorderable_pairs = sorted(
            {(p.failed_activity, p.culprit_activity) for p in reorderable}
        )
        self_dependent = sorted(
            {
                p.failed_activity
                for p in conflict_pairs
                if p.failed_activity == p.culprit_activity and not p.reorderable
            }
        )

        return LogMetrics(
            total_transactions=total,
            duration=duration,
            tr=tr,
            trd=trd,
            total_failures=total_failures,
            tfr=total_failures / total if total else 0.0,
            failure_counts=failure_counts,
            frd=frd,
            bcount=self.config.block_count,
            btimeout=self.config.block_timeout,
            bsize_avg=bsize_avg,
            edsig=dict(edsig),
            edsig_org=edsig_org,
            ivsig=dict(Counter(table.invokers)),
            ivsig_org=dict(Counter(table.invoker_orgs)),
            kfreq=dict(kfreq),
            ksig=dict(Counter(chain.from_iterable(table.keys_by_activity.values()))),
            ksig_failed={key: len(acts) for key, acts in significant.items()},
            key_failed_activities={
                key: frozenset(acts) for key, acts in significant.items()
            },
            hotkeys=hotkeys,
            conflict_pairs=conflict_pairs,
            corpa=_corpa(rows_by_activity, table.commit_orders),
            activity_stats=activity_stats,
            delta_candidates=dict(self._delta_candidates),
            mvcc_failures=mvcc_failures,
            reorderable_mvcc=len(reorderable),
            reorderable_activity_pairs=reorderable_pairs,
            self_dependent_activities=self_dependent,
            intra_block_pairs=sum(1 for p in conflict_pairs if p.same_block),
            endorsement_policy=self.config.endorsement_policy,
        )


def _corpa(
    rows_by_activity: dict[str, list[int]], orders: Sequence[int]
) -> dict[str, list[int]]:
    """corPA: per activity, the commit-order distance from each of its
    transactions to the previous one.

    Keyed in the order of each activity's *second* transaction, where its
    first distance appears.
    """
    found = []
    for activity, rows in rows_by_activity.items():
        if len(rows) > 1:
            seen = list(map(orders.__getitem__, rows))
            found.append((rows[1], activity, list(map(sub, seen[1:], seen[:-1]))))
    return {activity: distances for _, activity, distances in sorted(found)}


#: Sentinel distinguishing "version never indexed" from a written ``None``.
_MISSING = object()


def compute_metrics(
    log: BlockchainLog,
    interval_seconds: float | None = None,
    hotkey_failure_share: float = 0.1,
    hotkey_min_failures: int = 20,
) -> LogMetrics:
    """Derive all Section 4.3 metrics from ``log``.

    Thin batch wrapper: feeds the log through a fresh
    :class:`MetricsAccumulator` record by record.  The hotkey thresholds
    are passed in (rather than read from
    :class:`~repro.core.thresholds.Thresholds`) so the metric layer stays
    independent of the rule layer.
    """
    ins = interval_seconds if interval_seconds is not None else log.interval_seconds
    accumulator = MetricsAccumulator(
        config=log.config,
        interval_seconds=ins,
        hotkey_failure_share=hotkey_failure_share,
        hotkey_min_failures=hotkey_min_failures,
    )
    for record in log.records:
        accumulator.consume(record)
    return accumulator.finish()


#: An activity must account for at least this share of a key's failures to
#: count toward the key's failed-activity significance (filters one-off
#: accesses like the single seeResults transaction in the voting use case).
SIGNIFICANT_ACTIVITY_SHARE = 0.05


def _significant_activities(counts: dict[str, int]) -> list[str]:
    total = sum(counts.values())
    if total == 0:
        return []
    return [
        activity
        for activity, count in counts.items()
        if count / total >= SIGNIFICANT_ACTIVITY_SHARE
    ]
