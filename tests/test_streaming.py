"""Streaming pipeline tests: batch equivalence, reference properties, memory.

The batch entry points (``compute_metrics``, ``forensics_report``) now
delegate to the same accumulators the streaming path uses, so comparing
the two directly would be vacuous.  The property tests here therefore
check the accumulators against *independent reference implementations
written in this file* (linear-scan binning, quadratic conflict search),
and the end-to-end tests check that a live streamed run reproduces what
batch extraction + post-processing derives from the identical workload.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import report_digest
from repro.analysis.forensics import ForensicsAccumulator, forensics_report
from repro.bench.experiments import make_synthetic, synthetic_spec
from repro.contracts.registry import genchain_family
from repro.core.metrics import MetricsAccumulator, compute_metrics
from repro.fabric.network import FabricNetwork, run_workload
from repro.fabric.transaction import TxStatus, TxType
from repro.logs.blockchain_log import (
    ChannelConfig,
    LogRecord,
    interval_index,
)
from repro.logs.extract import extract_blockchain_log
from repro.logs.stream import RunStream, StreamingLedger
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

        stream, streamed_network, stats = _streamed_run(self._spec())
        assert stats.committed == len(log.records)
        assert stream.records_streamed == len(log.records)
        assert streamed_network.ledger.height == network.ledger.height
        assert streamed_network.ledger.tip_hash == network.ledger.tip_hash

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


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["pay", "check", "close"]),
            st.lists(st.sampled_from(["k1", "k2", "k3", "k4"]), max_size=3),
            st.sampled_from(
                [TxStatus.SUCCESS, TxStatus.MVCC_CONFLICT, TxStatus.ENDORSEMENT_FAILURE]
            ),
            st.booleans(),  # writes its read keys too
        ),
        min_size=1,
        max_size=30,
    )
)
def test_property_metrics_counts_match_reference(items):
    records = []
    for order, (activity, keys, status, writes_keys) in enumerate(items):
        writes = {key: order for key in keys} if writes_keys else {}
        records.append(
            _make_record(
                order, float(order), status=status, keys=keys, writes=writes,
                activity=activity,
            )
        )

    accumulator = MetricsAccumulator(
        config=ChannelConfig(100, 1.0, 1 << 20, "Majority(Org1,Org2)")
    )
    for record in records:
        accumulator.consume(record)
    metrics = accumulator.finish()

    # Reference: brute-force recomputation of the countable metrics.
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
    ceiling = network.ledger.max_block_transactions
    assert census.max_live <= ceiling, (
        f"{census.max_live} live records at a sample point; "
        f"expected at most one block ({ceiling})"
    )


def test_finished_streamed_network_is_freed_by_reference_counting():
    """A finished network, world state included, leaves no reference cycle.

    With the cyclic collector off, dropping the last reference to a
    streamed channel's network must free it at once: the arrival pump,
    the flights and the stages' callbacks back into the network are all
    released by the time ``run_streamed`` returns.
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
        del network
        assert network_ref() is None
        assert state_ref() is None
    finally:
        gc.enable()
