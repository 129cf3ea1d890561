"""Metrics derivation from the blockchain log (paper Section 4.3).

Computes every metric the paper defines — rate and failure distributions,
block size, endorser/invoker significance, key frequency/significance,
data-value correlation and (activity-based) proximity correlation — via
:class:`MetricsAccumulator`, a streaming consumer that folds each
:class:`~repro.logs.blockchain_log.LogRecord` in as it commits, so the
rule layer (:mod:`repro.core.rules`) only ever looks at precomputed
values and a run never has to materialize the full log.
:func:`compute_metrics` is the batch entry point: it feeds a
:class:`~repro.logs.blockchain_log.BlockchainLog` through the accumulator
record by record and returns the identical :class:`LogMetrics`.
"""

from __future__ import annotations

import bisect
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.fabric.transaction import TxStatus, TxType
from repro.logs.blockchain_log import (
    BlockchainLog,
    ChannelConfig,
    LogRecord,
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


class _Writer:
    """Slim stand-in for a successful writer (conflict-pair tracking).

    Retains only the four attributes the corDV pass reads from a culprit,
    so the streaming accumulator never keeps whole :class:`LogRecord`
    objects alive between blocks.
    """

    __slots__ = ("order", "activity", "write_keys", "write_set", "block_number")

    def __init__(self, record: LogRecord) -> None:
        self.order = record.commit_order
        self.activity = record.activity
        self.write_keys = record.write_keys
        self.write_set = frozenset(record.write_keys)
        self.block_number = record.block_number


class MetricsAccumulator:
    """Streaming Section 4.3 metrics: fold records in, then :meth:`finish`.

    Implements the record-consumer protocol (``consume``/``finish``): feed
    every log record in commit order — one at a time, straight off the
    ledger — and ``finish()`` returns the same :class:`LogMetrics` the
    batch :func:`compute_metrics` produces, bit for bit.  Per-record state
    is bounded by the key space and block count except for two exact
    analyses that are inherently history-dependent (the delta-write
    version index and the corPA distance lists); the bounded channel
    summaries used at large scale skip this class entirely (see
    ``docs/SCALING.md``).  Timestamps are kept in a compact ``array('d')``
    (plus one failure byte each) because the rate/failure distributions
    need the global min/max before they can bin.
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
        #: Channel configuration; may be attached after construction (the
        #: streaming ledger only learns it from the genesis block).
        self.config = config
        self.interval_seconds = interval_seconds
        self.hotkey_failure_share = hotkey_failure_share
        self.hotkey_min_failures = hotkey_min_failures
        self._stamps = array("d")
        self._fail_flags = bytearray()
        # Plain dicts updated with local-variable references, keyed in
        # first-seen order.  The per-key dicts (kfreq, ksig, ksig_failed,
        # key_failed_activities) follow frozenset iteration of each
        # record's rw_keys, which changes with PYTHONHASHSEED, so every
        # consumer reads them by key or in sorted order.
        self._failure_counts: dict[TxStatus, int] = {}
        self._edsig: dict[str, int] = {}
        self._edsig_org: dict[str, int] = {}
        self._ivsig: dict[str, int] = {}
        self._ivsig_org: dict[str, int] = {}
        self._ksig_sets: dict[str, set[str]] = {}
        self._kfreq: dict[str, int] = {}
        self._key_failed_activity_counts: dict[str, dict[str, int]] = {}
        self._activity_stats: dict[str, ActivityStats] = {}
        self._block_sizes: dict[int, int] = {}
        #: Memo of endorser name -> org (rpartition is per-record otherwise).
        self._endorser_org: dict[str, str] = {}
        # corDV state: latest successful writer per key + sorted key index
        # for phantom range scans.
        self._last_writer: dict[str, _Writer] = {}
        self._written_keys_sorted: list[str] = []
        self._pairs: list[ConflictPair] = []
        # corPA state: last commit order per activity.
        self._last_seen: dict[str, int] = {}
        self._corpa: dict[str, list[int]] = {}
        # Delta-write state: written value per created state version.
        self._by_version: dict[tuple[str, int, int], Any] = {}
        self._delta_candidates: Counter = Counter()

    def consume(self, record: LogRecord) -> None:
        """Fold one record in (records must arrive in commit order)."""
        self._stamps.append(record.client_timestamp)
        status = record.status
        failed = status is not TxStatus.SUCCESS
        self._fail_flags.append(1 if failed else 0)

        activity = record.activity
        stats = self._activity_stats.get(activity)
        if stats is None:
            stats = self._activity_stats[activity] = ActivityStats()
        stats.total += 1
        rw_keys = record.rw_keys
        # Transactions that never executed (all endorsements timed out)
        # have an empty read-write set; their derived type is an artifact
        # and must not feed the pruning detector.
        if rw_keys or record.range_reads:
            stats.type_counts[record.tx_type] += 1
        if failed:
            stats.failures += 1
            failure_counts = self._failure_counts
            failure_counts[status] = failure_counts.get(status, 0) + 1
            kfreq = self._kfreq
            key_failed = self._key_failed_activity_counts
            for key in rw_keys:
                kfreq[key] = kfreq.get(key, 0) + 1
                by_activity = key_failed.get(key)
                if by_activity is None:
                    by_activity = key_failed[key] = {}
                by_activity[activity] = by_activity.get(activity, 0) + 1
        edsig = self._edsig
        edsig_org = self._edsig_org
        endorser_org = self._endorser_org
        for endorser in record.endorsers:
            edsig[endorser] = edsig.get(endorser, 0) + 1
            org = endorser_org.get(endorser)
            if org is None:
                org = endorser_org[endorser] = endorser.rpartition("-peer")[0]
            edsig_org[org] = edsig_org.get(org, 0) + 1
        invoker = record.invoker
        self._ivsig[invoker] = self._ivsig.get(invoker, 0) + 1
        invoker_org = record.invoker_org
        self._ivsig_org[invoker_org] = self._ivsig_org.get(invoker_org, 0) + 1
        ksig_sets = self._ksig_sets
        for key in rw_keys:
            activities = ksig_sets.get(key)
            if activities is None:
                activities = ksig_sets[key] = set()
            activities.add(activity)
        block = record.block_number
        if block >= 0:
            self._block_sizes[block] = self._block_sizes.get(block, 0) + 1

        self._consume_conflicts(record, status)

        # corPA: commit-order distance to the previous same-activity tx.
        order = record.commit_order
        previous = self._last_seen.get(activity)
        if previous is not None:
            self._corpa.setdefault(activity, []).append(order - previous)
        self._last_seen[activity] = order

        self._consume_delta(record, status)

    def _consume_conflicts(self, record: LogRecord, status: TxStatus) -> None:
        """corDV pairs: for each MVCC/phantom failure, the latest
        successful transaction that wrote one of its read keys."""
        last_writer = self._last_writer
        if status in _MVCC_LIKE:
            culprit: _Writer | None = None
            for key in record.read_keys:
                writer = last_writer.get(key)
                if writer is None:
                    continue
                if culprit is None or writer.order > culprit.order:
                    culprit = writer
            if status is TxStatus.PHANTOM_CONFLICT:
                # A phantom's culprit may have written a *new* key inside
                # the scanned range, absent from the recorded read set.
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
        if status is TxStatus.SUCCESS and record.write_keys:
            writer = _Writer(record)
            for key in record.write_keys:
                if key not in last_writer:
                    bisect.insort(self._written_keys_sorted, key)
                last_writer[key] = writer

    def _consume_delta(self, record: LogRecord, status: TxStatus) -> None:
        """Table 1 delta-write condition, counted per activity.

        A failed MVCC transaction ``x`` with a single-key write is an
        increment/decrement in disguise when its written value is exactly
        one numeric step away from the value written by the transaction
        that created the version ``x`` read — i.e. ``x`` computed
        ``old + 1``.  Such updates can be rewritten as blind writes to
        unique delta keys.
        """
        by_version = self._by_version
        if status is TxStatus.MVCC_CONFLICT and len(record.write_keys) == 1:
            key = record.write_keys[0]
            version = record.read_versions.get(key)
            if version is not None:
                sentinel = _MISSING
                before = by_version.get((key, version[0], version[1]), sentinel)
                if before is not sentinel:
                    step = increment_delta(before, record.writes[key])
                    if step is not None and abs(step) == 1.0:
                        self._delta_candidates[record.activity] += 1
        if status is TxStatus.SUCCESS:
            writes = record.writes
            for key in record.write_keys:
                by_version[(key, record.block_number, record.block_position)] = (
                    writes.get(key)
                )

    def finish(self) -> LogMetrics:
        """Close the stream and derive the full :class:`LogMetrics`."""
        if self.config is None:
            raise ValueError("no channel configuration attached before finish()")
        stamps = self._stamps
        total = len(stamps)
        ins = self.interval_seconds

        if total:
            start = min(stamps)
            end = max(stamps)
            duration = end - start
        else:
            start = end = duration = 0.0
        tr = total / duration if duration > 0 else float(total)

        if total:
            count = interval_index(end, start, ins) + 1
            slice_totals = [0] * count
            slice_failures = [0] * count
            top = count - 1
            for stamp, flag in zip(stamps, self._fail_flags):
                index = interval_index(stamp, start, ins)
                if index > top:
                    index = top
                slice_totals[index] += 1
                slice_failures[index] += flag
            trd = [n / ins for n in slice_totals]
            frd = [n / ins for n in slice_failures]
        else:
            trd = []
            frd = []

        failure_counts = self._failure_counts
        total_failures = sum(failure_counts.values())
        block_sizes = self._block_sizes
        bsize_avg = (
            sum(block_sizes.values()) / len(block_sizes) if block_sizes else 0.0
        )

        kfreq = self._kfreq
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
            failure_counts=dict(failure_counts),
            frd=frd,
            bcount=self.config.block_count,
            btimeout=self.config.block_timeout,
            bsize_avg=bsize_avg,
            edsig=dict(self._edsig),
            edsig_org=dict(self._edsig_org),
            ivsig=dict(self._ivsig),
            ivsig_org=dict(self._ivsig_org),
            kfreq=dict(kfreq),
            ksig={key: len(acts) for key, acts in self._ksig_sets.items()},
            ksig_failed={
                key: len(_significant_activities(counts))
                for key, counts in self._key_failed_activity_counts.items()
            },
            key_failed_activities={
                key: frozenset(_significant_activities(counts))
                for key, counts in self._key_failed_activity_counts.items()
            },
            hotkeys=hotkeys,
            conflict_pairs=conflict_pairs,
            corpa=self._corpa,
            activity_stats=self._activity_stats,
            delta_candidates=dict(self._delta_candidates),
            mvcc_failures=mvcc_failures,
            reorderable_mvcc=len(reorderable),
            reorderable_activity_pairs=reorderable_pairs,
            self_dependent_activities=self_dependent,
            intra_block_pairs=sum(1 for p in conflict_pairs if p.same_block),
            endorsement_policy=self.config.endorsement_policy,
        )


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
