"""Streaming pipeline tests: batch equivalence, reference properties, memory.

The batch entry points (``compute_metrics``, ``forensics_report``) now
delegate to the same accumulators the streaming path uses, so comparing
the two directly would be vacuous.  The property tests here therefore
check the accumulators against *independent reference implementations
written in this file* (linear-scan binning, quadratic conflict search,
and the per-record metrics and CaseID folds that the column counts
replaced), and the end-to-end tests check that a live streamed run
reproduces what batch extraction + post-processing derives from the
identical workload.
"""

import bisect
import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import report_digest
from repro.analysis.forensics import ForensicsAccumulator, forensics_report
from repro.bench.experiments import make_synthetic, synthetic_spec
from repro.contracts.registry import genchain_family
from repro.core.metrics import (
    ActivityStats,
    ConflictPair,
    LogMetrics,
    MetricsAccumulator,
    compute_metrics,
    increment_delta,
)
from repro.fabric.network import FabricNetwork, run_workload
from repro.fabric.transaction import TxStatus, TxType
from repro.logs.blockchain_log import (
    BlockchainLog,
    ChannelConfig,
    LogRecord,
    interval_index,
)
from repro.logs.eventlog import CaseIdDerivation, derive_case_attribute, key_family
from repro.logs.extract import extract_blockchain_log
from repro.logs.stream import RunStream
from repro.shard.summary import RateSeriesAccumulator
from repro.workloads.synthetic import iter_synthetic_requests


def _streamed_run(spec, record_consumers=(), tx_consumers=()):
    """One full streaming-mode run of ``spec``; returns (stream, network, stats)."""
    deployment = genchain_family(num_keys=spec.num_keys).deploy()
    stream = RunStream()
    for consumer in record_consumers:
        stream.add_record_consumer(consumer)
    for consumer in tx_consumers:
        stream.add_transaction_consumer(consumer)
    network = FabricNetwork(spec.to_network_config(), deployment.contracts, stream=stream)
    stats = network.run_streamed(
        iter_synthetic_requests(spec, deployment.contracts[0].name)
    )
    return stream, network, stats


def _batch_run(base, seed, total):
    config, family, requests = make_synthetic(base, seed=seed, total_transactions=total)()
    return run_workload(config, family.deploy().contracts, requests)


class TestStreamedEquivalence:
    """A live streamed run == batch extraction on the identical workload."""

    BASE, SEED, TOTAL = "default", 13, 400

    def _spec(self):
        spec = synthetic_spec(self.BASE, seed=self.SEED)
        spec.total_transactions = self.TOTAL
        return spec

    def test_metrics_match_batch_end_to_end(self):
        network, _ = _batch_run(self.BASE, self.SEED, self.TOTAL)
        batch = compute_metrics(extract_blockchain_log(network))

        accumulator = MetricsAccumulator()
        stream, _, _ = _streamed_run(self._spec(), record_consumers=[accumulator])
        accumulator.config = stream.config
        assert accumulator.finish() == batch

    def test_forensics_match_batch_end_to_end(self):
        network, _ = _batch_run(self.BASE, self.SEED, self.TOTAL)
        batch = forensics_report(network)

        accumulator = ForensicsAccumulator()
        _, streamed_network, _ = _streamed_run(self._spec(), tx_consumers=[accumulator])
        streamed = accumulator.finish(
            mitigation=streamed_network.config.mitigation
        )
        assert report_digest(streamed) == report_digest(batch)

    def test_run_stats_match_the_batch_ledger(self):
        network, _ = _batch_run(self.BASE, self.SEED, self.TOTAL)
        log = extract_blockchain_log(network)

        census = _RecordCensus()
        stream, _, stats = _streamed_run(self._spec(), record_consumers=[census])
        assert stats.committed == len(log.records)
        assert stream.records_streamed == census.seen == len(log.records)
        assert stream.height == network.ledger.height
        assert stream.tip_hash == network.ledger.tip_hash

    def test_streaming_ledger_refuses_read_back(self):
        _, network, _ = _streamed_run(self._spec())
        with pytest.raises(RuntimeError):
            network.ledger.transactions()
        with pytest.raises(RuntimeError):
            list(network.ledger)


# -- reference-implementation properties -------------------------------------------


def _make_record(order, ts, status=TxStatus.SUCCESS, keys=(), writes=None,
                 activity="act", endorsers=("Org1-peer0",)):
    writes = writes or {}
    return LogRecord(
        commit_order=order,
        tx_id=f"tx{order}",
        client_timestamp=ts,
        activity=activity,
        args=(),
        endorsers=tuple(endorsers),
        invoker="Org1-client0",
        invoker_org="Org1",
        read_keys=tuple(keys),
        write_keys=tuple(sorted(writes)),
        writes=dict(writes),
        read_versions={key: (0, 0) for key in keys},
        range_reads=(),
        status=status,
        tx_type=TxType.UPDATE if writes else TxType.READ,
        block_number=order // 10,
        block_position=order % 10,
        commit_time=ts + 1.0,
    )


def _linear_scan_index(timestamp, start, ins):
    """Reference binning: walk the windows until the half-open test holds."""
    index = 0
    while timestamp >= start + (index + 1) * ins:
        index += 1
    return index


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=40),
    st.floats(0.1, 5.0, allow_nan=False),
    st.floats(0.0, 10.0, allow_nan=False),
)
def test_property_interval_index_matches_linear_scan(stamps, ins, start):
    for stamp in stamps:
        timestamp = start + stamp
        assert interval_index(timestamp, start, ins) == _linear_scan_index(
            timestamp, start, ins
        )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 30.0, allow_nan=False), st.booleans()),
        min_size=1,
        max_size=40,
    ),
    st.floats(0.1, 3.0, allow_nan=False),
)
def test_property_rate_series_matches_brute_force(items, ins):
    accumulator = RateSeriesAccumulator(ins)
    totals: dict[int, int] = {}
    failures: dict[int, int] = {}
    for order, (ts, failed) in enumerate(items):
        status = TxStatus.MVCC_CONFLICT if failed else TxStatus.SUCCESS
        accumulator.consume(_make_record(order, ts, status=status))
        index = _linear_scan_index(ts, 0.0, ins)
        totals[index] = totals.get(index, 0) + 1
        if failed:
            failures[index] = failures.get(index, 0) + 1
    expected = sorted(
        [index, totals[index], failures.get(index, 0)] for index in totals
    )
    assert [list(row) for row in accumulator.series()] == expected


class _ReferenceMetrics:
    """The per-record metrics fold: every counter updated as each record
    arrives.  ``MetricsAccumulator`` counts the same metrics over columns
    when the stream ends; this is the reference it must match, dict key
    order included."""

    def __init__(self, config, interval_seconds=1.0, hotkey_failure_share=0.1,
                 hotkey_min_failures=20):
        self.config = config
        self.interval_seconds = interval_seconds
        self.hotkey_failure_share = hotkey_failure_share
        self.hotkey_min_failures = hotkey_min_failures
        self._stamps = []
        self._fail_flags = []
        self._failure_counts = {}
        self._edsig = {}
        self._edsig_org = {}
        self._ivsig = {}
        self._ivsig_org = {}
        self._ksig_sets = {}
        self._kfreq = {}
        self._key_failed_activity_counts = {}
        self._activity_stats = {}
        self._block_sizes = {}
        self._last_writer = {}
        self._written_keys_sorted = []
        self._pairs = []
        self._last_seen = {}
        self._corpa = {}
        self._by_version = {}
        self._delta_candidates = Counter()

    def consume(self, record):
        self._stamps.append(record.client_timestamp)
        status = record.status
        failed = status is not TxStatus.SUCCESS
        self._fail_flags.append(1 if failed else 0)
        activity = record.activity
        stats = self._activity_stats.setdefault(activity, ActivityStats())
        stats.total += 1
        rw_keys = record.rw_keys
        if rw_keys or record.range_reads:
            stats.type_counts[record.tx_type] += 1
        if failed:
            stats.failures += 1
            self._failure_counts[status] = self._failure_counts.get(status, 0) + 1
            for key in rw_keys:
                self._kfreq[key] = self._kfreq.get(key, 0) + 1
                by_activity = self._key_failed_activity_counts.setdefault(key, {})
                by_activity[activity] = by_activity.get(activity, 0) + 1
        for endorser in record.endorsers:
            self._edsig[endorser] = self._edsig.get(endorser, 0) + 1
            org = endorser.rpartition("-peer")[0]
            self._edsig_org[org] = self._edsig_org.get(org, 0) + 1
        self._ivsig[record.invoker] = self._ivsig.get(record.invoker, 0) + 1
        org = record.invoker_org
        self._ivsig_org[org] = self._ivsig_org.get(org, 0) + 1
        for key in rw_keys:
            self._ksig_sets.setdefault(key, set()).add(activity)
        if record.block_number >= 0:
            block = record.block_number
            self._block_sizes[block] = self._block_sizes.get(block, 0) + 1
        self._consume_conflicts(record, status)
        previous = self._last_seen.get(activity)
        if previous is not None:
            self._corpa.setdefault(activity, []).append(record.commit_order - previous)
        self._last_seen[activity] = record.commit_order
        self._consume_delta(record, status)

    def _consume_conflicts(self, record, status):
        last_writer = self._last_writer
        if status in (TxStatus.MVCC_CONFLICT, TxStatus.PHANTOM_CONFLICT):
            culprit = None
            for key in record.read_keys:
                writer = last_writer.get(key)
                if writer is not None and (culprit is None or writer[0] > culprit[0]):
                    culprit = writer
            if status is TxStatus.PHANTOM_CONFLICT:
                written = self._written_keys_sorted
                for start, end in record.range_reads:
                    lo = bisect.bisect_left(written, start)
                    hi = bisect.bisect_left(written, end)
                    for key in written[lo:hi]:
                        writer = last_writer[key]
                        if culprit is None or writer[0] > culprit[0]:
                            culprit = writer
            if culprit is not None:
                order, activity, write_set, block = culprit
                self._pairs.append(
                    ConflictPair(
                        failed_order=record.commit_order,
                        culprit_order=order,
                        failed_activity=record.activity,
                        culprit_activity=activity,
                        shared_keys=tuple(sorted(set(record.read_keys) & write_set)),
                        distance=record.commit_order - order,
                        same_block=record.block_number == block,
                        reorderable=not (set(record.write_keys) & write_set),
                    )
                )
        if status is TxStatus.SUCCESS and record.write_keys:
            writer = (
                record.commit_order,
                record.activity,
                frozenset(record.write_keys),
                record.block_number,
            )
            for key in record.write_keys:
                if key not in last_writer:
                    bisect.insort(self._written_keys_sorted, key)
                last_writer[key] = writer

    def _consume_delta(self, record, status):
        if status is TxStatus.MVCC_CONFLICT and len(record.write_keys) == 1:
            key = record.write_keys[0]
            version = record.read_versions.get(key)
            if version is not None and (key, *version) in self._by_version:
                before = self._by_version[(key, *version)]
                step = increment_delta(before, record.writes[key])
                if step is not None and abs(step) == 1.0:
                    self._delta_candidates[record.activity] += 1
        if status is TxStatus.SUCCESS:
            for key in record.write_keys:
                self._by_version[(key, record.block_number, record.block_position)] = (
                    record.writes.get(key)
                )

    @staticmethod
    def _significant(counts):
        total = sum(counts.values())
        return [a for a, n in counts.items() if total and n / total >= 0.05]

    def finish(self):
        stamps = self._stamps
        total = len(stamps)
        ins = self.interval_seconds
        start, end = (min(stamps), max(stamps)) if total else (0.0, 0.0)
        duration = end - start
        trd, frd = [], []
        if total:
            count = _linear_scan_index(end, start, ins) + 1
            trd, frd = [0] * count, [0] * count
            for stamp, flag in zip(stamps, self._fail_flags):
                index = _linear_scan_index(stamp, start, ins)
                trd[index] += 1
                frd[index] += flag
            trd = [n / ins for n in trd]
            frd = [n / ins for n in frd]
        total_failures = sum(self._failure_counts.values())
        kfreq = self._kfreq
        hot_cut = max(self.hotkey_min_failures, self.hotkey_failure_share * total_failures)
        pairs = self._pairs
        reorderable = [p for p in pairs if p.reorderable]
        counts = self._key_failed_activity_counts
        return LogMetrics(
            total_transactions=total,
            duration=duration,
            tr=total / duration if duration > 0 else float(total),
            trd=trd,
            total_failures=total_failures,
            tfr=total_failures / total if total else 0.0,
            failure_counts=dict(self._failure_counts),
            frd=frd,
            bcount=self.config.block_count,
            btimeout=self.config.block_timeout,
            bsize_avg=(
                sum(self._block_sizes.values()) / len(self._block_sizes)
                if self._block_sizes
                else 0.0
            ),
            edsig=dict(self._edsig),
            edsig_org=dict(self._edsig_org),
            ivsig=dict(self._ivsig),
            ivsig_org=dict(self._ivsig_org),
            kfreq=dict(kfreq),
            ksig={key: len(acts) for key, acts in self._ksig_sets.items()},
            ksig_failed={key: len(self._significant(c)) for key, c in counts.items()},
            key_failed_activities={
                key: frozenset(self._significant(c)) for key, c in counts.items()
            },
            hotkeys=sorted(
                (key for key, n in kfreq.items() if n >= hot_cut),
                key=lambda key: (-kfreq[key], key),
            ),
            conflict_pairs=pairs,
            corpa=self._corpa,
            activity_stats=self._activity_stats,
            delta_candidates=dict(self._delta_candidates),
            mvcc_failures=sum(
                self._failure_counts.get(s, 0)
                for s in (TxStatus.MVCC_CONFLICT, TxStatus.PHANTOM_CONFLICT)
            ),
            reorderable_mvcc=len(reorderable),
            reorderable_activity_pairs=sorted(
                {(p.failed_activity, p.culprit_activity) for p in reorderable}
            ),
            self_dependent_activities=sorted(
                {
                    p.failed_activity
                    for p in pairs
                    if p.failed_activity == p.culprit_activity and not p.reorderable
                }
            ),
            intra_block_pairs=sum(1 for p in pairs if p.same_block),
            endorsement_policy=self.config.endorsement_policy,
        )


class _ReferenceDerivation:
    """The per-record CaseID derivation fold: coverage and value sets per
    argument position and key family, updated record by record."""

    def __init__(self):
        self._total = 0
        self._activities = set()
        self._arg_coverage = {}
        self._arg_values = {}
        self._family_coverage = {}
        self._family_values = {}

    def consume(self, record):
        self._total += 1
        self._activities.add(record.activity)
        for index, arg in enumerate(record.args):
            self._arg_coverage.setdefault(index, set()).add(record.activity)
            self._arg_values.setdefault(index, set()).add(str(arg))
        for key in record.rw_keys:
            parsed = key_family(key)
            if parsed is not None:
                family, value = parsed
                self._family_coverage.setdefault(family, set()).add(record.activity)
                self._family_values.setdefault(family, set()).add(value)

    def finish(self):
        n = len(self._activities)
        scores = {
            f"arg:{index}": (
                len(self._arg_coverage[index]) / n,
                len(self._arg_values[index]),
            )
            for index in range(len(self._arg_coverage))
        }
        for family in sorted(self._family_coverage):
            scores[f"key:{family}"] = (
                len(self._family_coverage[family]) / n,
                len(self._family_values[family]),
            )
        attribute, (coverage, distinct) = max(
            scores.items(), key=lambda item: (item[1][0], item[1][1], item[0])
        )
        return CaseIdDerivation(attribute, coverage, distinct, scores)


#: The LogMetrics dicts whose keys keep first-seen order (the per-key
#: dicts follow frozenset iteration, so only their contents are compared).
_ORDERED_METRICS = (
    "failure_counts", "activity_stats", "edsig", "edsig_org", "ivsig",
    "ivsig_org", "corpa", "delta_candidates",
)
_KEYS = ("k1", "k2", "item:a", "item:b")

#: One transaction: client timestamp (whole seconds sit on window
#: bounds), activity, read keys, write keys, the written value's step from
#: the value read (+-1 is a delta write), status, whether it range-reads
#: [k1, k3), type, endorsers, invoker, whether it failed before reaching a
#: block, and arguments.
_STEP = st.tuples(
    st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 6.0, allow_nan=False)),
    st.sampled_from(["pay", "check", "close"]),
    st.lists(st.sampled_from(_KEYS), max_size=2, unique=True),
    st.lists(st.sampled_from(_KEYS), max_size=2, unique=True),
    st.sampled_from([-1, 1, 2]),
    st.sampled_from(
        [
            TxStatus.SUCCESS,
            TxStatus.MVCC_CONFLICT,
            TxStatus.PHANTOM_CONFLICT,
            TxStatus.ENDORSEMENT_FAILURE,
        ]
    ),
    st.booleans(),
    st.sampled_from(list(TxType)),
    st.lists(
        st.sampled_from(["Org1-peer0", "Org1-peer1", "Org2-peer0", "Org3-peer0"]),
        max_size=3,
        unique=True,
    ),
    st.sampled_from(
        [("Org1-client0", "Org1"), ("Org2-client0", "Org2"), ("Org2-client1", "Org2")]
    ),
    st.booleans(),
    st.lists(st.sampled_from(["x", "y", 3]), max_size=2),
)


def _records_from_steps(steps):
    """Log records whose reads see the versions earlier successes wrote."""
    state = {}  # key -> (version, value) of its latest successful write
    records = []
    for order, step in enumerate(steps):
        (stamp, activity, reads, writes, delta, status, ranged, tx_type,
         endorsers, (invoker, invoker_org), unblocked, args) = step
        in_block = status is TxStatus.SUCCESS or not unblocked
        block, position = (order // 3, order % 3) if in_block else (-1, -1)
        written = {key: state.get(key, ((0, 0), 0))[1] + delta for key in writes}
        records.append(
            LogRecord(
                commit_order=order,
                tx_id=f"tx{order}",
                client_timestamp=stamp,
                activity=activity,
                args=tuple(args),
                endorsers=tuple(endorsers),
                invoker=invoker,
                invoker_org=invoker_org,
                read_keys=tuple(sorted(reads)),
                write_keys=tuple(sorted(writes)),
                writes=written,
                read_versions={key: state.get(key, ((0, 0), 0))[0] for key in reads},
                range_reads=(("k1", "k3"),) if ranged else (),
                status=status,
                tx_type=tx_type,
                block_number=block,
                block_position=position,
                commit_time=stamp + 1.0,
            )
        )
        if status is TxStatus.SUCCESS:
            for key, value in written.items():
                state[key] = ((block, position), value)
    return records


@settings(max_examples=80, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=30), st.sampled_from([1.0, 0.3]))
def test_property_metrics_counts_match_reference(steps, ins):
    records = _records_from_steps(steps)
    config = ChannelConfig(100, 1.0, 1 << 20, "Majority(Org1,Org2)")
    accumulator = MetricsAccumulator(config=config, interval_seconds=ins)
    reference = _ReferenceMetrics(config, interval_seconds=ins)
    derivation = _ReferenceDerivation()
    for record in records:
        accumulator.consume(record)
        reference.consume(record)
        derivation.consume(record)
    metrics = accumulator.finish()
    expected = reference.finish()

    assert metrics == expected
    for name in _ORDERED_METRICS:
        assert list(getattr(metrics, name)) == list(getattr(expected, name)), name
    for activity, stats in expected.activity_stats.items():
        assert list(metrics.activity_stats[activity].type_counts) == list(stats.type_counts)
    log = BlockchainLog(records=records, config=config)
    try:
        expected_derivation = derivation.finish()
    except ValueError:  # no argument and no keyed access: nothing to derive
        with pytest.raises(ValueError):
            derive_case_attribute(log)
    else:
        derived = derive_case_attribute(log)
        assert derived == expected_derivation
        assert list(derived.scores) == list(expected_derivation.scores)

    # Brute-force recomputation of the countable metrics.
    failed = [r for r in records if r.status is not TxStatus.SUCCESS]
    assert metrics.total_transactions == len(records)
    assert metrics.total_failures == len(failed)
    failure_counts: dict[TxStatus, int] = {}
    for record in failed:
        failure_counts[record.status] = failure_counts.get(record.status, 0) + 1
    assert metrics.failure_counts == failure_counts
    kfreq: dict[str, int] = {}
    for record in failed:
        for key in record.rw_keys:
            kfreq[key] = kfreq.get(key, 0) + 1
    assert metrics.kfreq == kfreq
    ivsig: dict[str, int] = {}
    for record in records:
        ivsig[record.invoker] = ivsig.get(record.invoker, 0) + 1
    assert metrics.ivsig == ivsig
    corpa: dict[str, list[int]] = {}
    last: dict[str, int] = {}
    for record in records:
        if record.activity in last:
            corpa.setdefault(record.activity, []).append(
                record.commit_order - last[record.activity]
            )
        last[record.activity] = record.commit_order
    assert metrics.corpa == corpa


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(["a", "b", "c"]), max_size=2),  # read keys
            st.lists(st.sampled_from(["a", "b", "c"]), max_size=2),  # write keys
            st.booleans(),  # this record fails with an MVCC conflict
        ),
        min_size=1,
        max_size=25,
    )
)
def test_property_conflict_pairs_match_quadratic_reference(items):
    """The bounded last-writer index == a full-history quadratic search."""
    records = []
    for order, (reads, writes, fails) in enumerate(items):
        status = TxStatus.MVCC_CONFLICT if fails else TxStatus.SUCCESS
        records.append(
            _make_record(
                order,
                float(order),
                status=status,
                keys=reads,
                writes={key: order for key in writes},
            )
        )

    accumulator = MetricsAccumulator(
        config=ChannelConfig(100, 1.0, 1 << 20, "Majority(Org1,Org2)")
    )
    for record in records:
        accumulator.consume(record)
    pairs = accumulator.finish().conflict_pairs

    expected = []
    for position, record in enumerate(records):
        if record.status is not TxStatus.MVCC_CONFLICT:
            continue
        culprit = None
        for earlier in records[:position]:
            if earlier.status is not TxStatus.SUCCESS or not earlier.write_keys:
                continue
            if set(record.read_keys) & set(earlier.write_keys):
                if culprit is None or earlier.commit_order > culprit.commit_order:
                    culprit = earlier
        if culprit is not None:
            expected.append(
                (
                    record.commit_order,
                    culprit.commit_order,
                    tuple(sorted(set(record.read_keys) & set(culprit.write_keys))),
                )
            )
    assert [
        (pair.failed_order, pair.culprit_order, pair.shared_keys) for pair in pairs
    ] == expected


# -- memory ceiling ----------------------------------------------------------------


class _RecordCensus:
    """Record consumer that samples how many LogRecords are alive."""

    def __init__(self, every: int = 10_000) -> None:
        self.every = every
        self.seen = 0
        self.max_live = 0

    def consume(self, record: LogRecord) -> None:
        self.seen += 1
        if self.seen % self.every == 0:
            live = sum(1 for obj in gc.get_objects() if type(obj) is LogRecord)
            if live > self.max_live:
                self.max_live = live


def test_streamed_run_never_holds_more_than_one_block_of_records():
    """100k transactions streamed: live LogRecords stay below one block.

    The batch pipeline would hold all 100k records at once; the streaming
    path materializes each record transiently during fan-out, so at any
    sampled moment the census sees at most a handful (bounded by one
    block even if a consumer were to batch per block).
    """
    spec = synthetic_spec("default", seed=7)
    spec.total_transactions = 100_000
    census = _RecordCensus(every=10_000)
    _, network, stats = _streamed_run(spec, record_consumers=[census])
    assert stats.committed == 100_000
    assert census.seen == 100_000
    ceiling = network.stream.max_block_transactions
    assert census.max_live <= ceiling, (
        f"{census.max_live} live records at a sample point; "
        f"expected at most one block ({ceiling})"
    )


def test_analysis_of_a_kept_chain_holds_one_block_of_records(monkeypatch):
    """BlockOptR reads a network's kept chain one block at a time: while
    it folds a 4,000-tx run's records in, no more are alive than the
    largest block holds (listing the log first would keep all of them)."""
    from repro.core import BlockOptR

    network, _ = _batch_run("default", 7, 4_000)
    census = _RecordCensus(every=250)
    consume = MetricsAccumulator.consume

    def counted(accumulator, record):
        census.consume(record)
        consume(accumulator, record)

    monkeypatch.setattr(MetricsAccumulator, "consume", counted)
    report = BlockOptR().analyze_network(network)
    assert census.seen == len(report.log) == network.stream.committed_txs == 4_000
    ceiling = network.stream.max_block_transactions
    assert 0 < census.max_live <= ceiling, (
        f"{census.max_live} live records at a sample point; "
        f"expected at most one block ({ceiling})"
    )


def test_finished_streamed_network_is_freed_by_reference_counting():
    """A finished network, world state and contracts included, leaves no
    reference cycle.

    With the cyclic collector off, dropping the last reference to a
    streamed channel's network must free it at once: the arrival pump,
    the flights and the stages' callbacks back into the network are all
    released by the time ``run_streamed`` returns, and no contract refers
    to itself (its dispatch table holds plain functions, per class).
    """
    spec = synthetic_spec("default", seed=7)
    spec.total_transactions = 2_000
    gc.collect()
    gc.disable()
    try:
        _, network, stats = _streamed_run(spec)
        assert stats.committed + stats.aborted == stats.issued
        network_ref = weakref.ref(network)
        state_ref = weakref.ref(network.state_db)
        contract_refs = [weakref.ref(c) for c in network.contracts.values()]
        assert contract_refs
        del network
        assert network_ref() is None
        assert state_ref() is None
        assert [ref() for ref in contract_refs] == [None] * len(contract_refs)
    finally:
        gc.enable()


# -- one output seam ---------------------------------------------------------------


def _reference_summary(network, first_submit):
    """Reference run summary: one walk of the kept chain, as the batch
    summary computed it before the run result became a live fold."""
    committed = list(network.ledger.transactions(include_config=False))
    every = committed + list(network.aborted)
    latencies = sorted(
        tx.latency for tx in every if tx.status is TxStatus.SUCCESS and tx.latency is not None
    )
    submitted = sum(1 for tx in every if tx.abort_stage != "endorsement")
    successes = sum(1 for tx in every if tx.status is TxStatus.SUCCESS)
    data_blocks = [
        block for block in network.ledger if any(not tx.is_config for tx in block.transactions)
    ]
    last_commit = max((tx.commit_time for tx in committed), default=first_submit)
    makespan = max(last_commit - first_submit, 1e-9)
    return {
        "total_issued": len(every),
        "success_count": successes,
        "success_throughput": successes / makespan,
        "avg_latency": sum(latencies) / len(latencies) if latencies else 0.0,
        "success_rate": successes / submitted if submitted else 0.0,
        "blocks": len(data_blocks),
        "early_aborts": len(network.aborted),
    }


def _fold_case(case):
    """(network, result, first submit) of a run with commits and aborts."""
    import dataclasses

    from repro.bench.experiments import make_usecase
    from repro.fabric.retry import RetryPolicy
    from repro.scenario.library import get_scenario

    if case == "pruned_scm":
        # The pruned contract aborts illogical transitions at endorsement.
        config, family, requests = make_usecase("scm", total_transactions=600)()
        contracts = family.deploy("process_model_pruning").contracts
        network, result = run_workload(config, contracts, requests)
    else:
        config, family, requests = make_synthetic(
            "workload_update_heavy", seed=7, total_transactions=600
        )()
        # The conflict storm retargets keys, not submit times.
        config = dataclasses.replace(
            config,
            mitigation=case,
            retry=RetryPolicy(max_attempts=2),
            scenario=get_scenario("conflict_storm"),
        )
        network, result = run_workload(config, family.deploy().contracts, requests)
    return network, result, min(request.submit_time for request in requests)


@pytest.mark.parametrize(
    "case, abort_stage",
    [("none", None), ("early_abort", "stale_read"), ("pruned_scm", "endorsement")],
)
def test_run_result_fold_matches_a_walk_of_the_kept_chain(case, abort_stage):
    """The run's one outcome fold gives both the RunResult and the
    forensics report that walks of the kept chain give."""
    network, result, first_submit = _fold_case(case)
    if abort_stage is not None:
        assert any(tx.abort_stage == abort_stage for tx in network.aborted)
    reference = _reference_summary(network, first_submit)
    assert {name: getattr(result, name) for name in reference} == reference
    assert report_digest(network.outcomes.finish_run(network)) == report_digest(
        forensics_report(network)
    )


def test_a_plan_run_keeps_no_chain(monkeypatch):
    """Of an experiment's runs only the baseline keeps its chain, which
    BlockOptR replays; a plan run's forensics report comes from its
    network's live outcome fold."""
    import repro.fabric.network as network_module
    from repro.bench.harness import execute_experiment
    from repro.core.recommendations import OptimizationKind
    from repro.fabric.ledger import KeptChain

    built = []

    class CountedChain(KeptChain):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(network_module, "KeptChain", CountedChain)
    outcome = execute_experiment(
        "one plan",
        make_synthetic("default", seed=7, total_transactions=300),
        [("rate control", (OptimizationKind.TRANSACTION_RATE_CONTROL,))],
    )
    assert len(outcome.rows) == len(outcome.forensics) == 2
    assert len(built) == 1


def test_records_are_built_only_for_record_consumers(monkeypatch):
    """No record consumer: no LogRecord is built and records_streamed stays
    0.  One record consumer: it counts exactly the committed data txs."""
    import repro.logs.stream as stream_module

    built = []
    convert = stream_module.record_from_transaction

    def counting(tx, position):
        built.append(tx.tx_id)
        return convert(tx, position)

    monkeypatch.setattr(stream_module, "record_from_transaction", counting)
    spec = synthetic_spec("default", seed=3)
    spec.total_transactions = 300

    tally = ForensicsAccumulator()
    stream, _, stats = _streamed_run(spec, tx_consumers=[tally])
    assert stats.committed > 0 and tally.total == stats.committed + stats.aborted
    assert built == [] and stream.records_streamed == 0

    census = _RecordCensus()
    stream, _, stats = _streamed_run(spec, record_consumers=[census])
    assert stream.records_streamed == census.seen == len(built) == stats.committed


def test_one_run_path_for_kept_and_caller_streams():
    """run() and run_streamed() share one body whatever the stream: run()
    on a caller's stream summarizes the same run, and run_streamed() on a
    kept-chain network keeps the same chain."""
    config, family, requests = make_synthetic("default", seed=13, total_transactions=300)()
    kept, result = run_workload(config, family.deploy().contracts, requests)

    stream = RunStream()
    on_stream = FabricNetwork(config, family.deploy().contracts, stream=stream)
    assert on_stream.run(requests) == result
    assert stream.tip_hash == kept.ledger.tip_hash
    with pytest.raises(RuntimeError, match="keeps no chain"):
        on_stream.aborted

    streamed = FabricNetwork(config, family.deploy().contracts)
    stats = streamed.run_streamed(sorted(requests, key=lambda r: r.submit_time))
    assert stats.committed == sum(1 for _ in kept.ledger.transactions(include_config=False))
    assert streamed.ledger.tip_hash == kept.ledger.tip_hash
    assert [tx.tx_id for tx in streamed.aborted] == [tx.tx_id for tx in kept.aborted]


def test_run_streamed_refuses_workload_transforms():
    from repro.scenario.spec import Intervention, ScenarioSpec

    config, family, requests = make_synthetic("default", seed=13, total_transactions=200)()
    storm = ScenarioSpec(
        name="storm",
        interventions=(
            Intervention(kind="conflict_storm", at=0.1, duration=0.3, fraction=0.5),
        ),
    )
    config.scenario = storm
    network = FabricNetwork(config, family.deploy().contracts)
    with pytest.raises(ValueError, match="workload-transform"):
        network.run_streamed(iter(requests))
    network = FabricNetwork(config, family.deploy().contracts)
    assert network.run(requests).total_issued >= len(requests)


def test_finished_run_network_is_freed_by_reference_counting():
    """A finished run() network keeps its chain and its outcome fold as
    consumers of its stream; neither refers back to the network, and no
    contract refers to itself, so with the cyclic collector off dropping
    the network frees it, its contracts included, at once."""
    from repro.fabric.ledger import KeptChain

    gc.collect()
    gc.disable()
    try:
        network, result = _batch_run("default", 7, 2_000)
        assert result.total_issued >= 2_000
        assert [type(c) for c in network.stream.chain_consumers] == [KeptChain]
        assert [type(c) for c in network.stream.tx_consumers] == [ForensicsAccumulator]
        network_ref = weakref.ref(network)
        state_ref = weakref.ref(network.state_db)
        contract_refs = [weakref.ref(c) for c in network.contracts.values()]
        assert contract_refs
        del network
        assert network_ref() is None
        assert state_ref() is None
        assert [ref() for ref in contract_refs] == [None] * len(contract_refs)
    finally:
        gc.enable()
