"""Focused tests for validation semantics and endorsement behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.chaincode import (
    MISSING_VERSION,
    ChaincodeAbort,
    ChaincodeContext,
    contract_function,
)
from repro.fabric.config import TimingConfig
from repro.fabric.network import run_workload
from repro.fabric.state import WorldState
from repro.fabric.transaction import (
    RangeQueryInfo,
    ReadWriteSet,
    TxRequest,
    TxStatus,
    TxType,
    Version,
)
from repro.fabric.validator import rwset_conflict

from tests.conftest import CounterContract, caused, small_config


def _statuses(network):
    return [tx.status for tx in network.ledger.transactions(include_config=False)]


def test_intra_block_conflict_detected():
    """Two updates of one key in the same block: the second fails."""
    config = small_config(block_count=25, block_timeout=5.0)
    requests = [
        TxRequest(submit_time=0.0, activity="bump", args=("ctr:0000",), contract="counter"),
        TxRequest(submit_time=0.001, activity="bump", args=("ctr:0000",), contract="counter"),
    ]
    network, _ = run_workload(config, [CounterContract()], requests)
    statuses = _statuses(network)
    assert statuses.count(TxStatus.SUCCESS) == 1
    assert statuses.count(TxStatus.MVCC_CONFLICT) == 1
    blocks = {tx.block_number for tx in network.ledger.transactions(include_config=False)}
    assert len(blocks) == 1  # really intra-block


def test_inter_block_conflict_detected():
    """Updates landing in different blocks can still conflict if the second
    was endorsed before the first committed."""
    config = small_config(block_count=1, block_timeout=5.0)
    requests = [
        TxRequest(submit_time=0.0, activity="bump", args=("ctr:0000",), contract="counter"),
        TxRequest(submit_time=0.002, activity="bump", args=("ctr:0000",), contract="counter"),
    ]
    network, _ = run_workload(config, [CounterContract()], requests)
    statuses = _statuses(network)
    blocks = [tx.block_number for tx in network.ledger.transactions(include_config=False)]
    assert blocks[0] != blocks[1]
    assert statuses == [TxStatus.SUCCESS, TxStatus.MVCC_CONFLICT]


def test_blind_writes_never_conflict():
    config = small_config()
    requests = [
        TxRequest(submit_time=0.001 * i, activity="put", args=("ctr:0000", i), contract="counter")
        for i in range(10)
    ]
    _, result = run_workload(config, [CounterContract()], requests)
    assert result.success_rate == 1.0


def test_failed_tx_does_not_update_state():
    config = small_config()
    requests = [
        TxRequest(submit_time=0.001 * i, activity="bump", args=("ctr:0000",), contract="counter")
        for i in range(6)
    ]
    network, result = run_workload(config, [CounterContract()], requests)
    value = network.state_db.namespace("counter").get("ctr:0000").value
    assert value == result.success_count < 6


def test_read_missing_key_fails_if_created_before_commit():
    config = small_config()
    requests = [
        # Read of a key that does not exist yet...
        TxRequest(submit_time=0.0, activity="get", args=("ctr:7777",), contract="counter"),
        # ...while a creation races it into the same block.
        TxRequest(submit_time=0.001, activity="put", args=("ctr:7777", 1), contract="counter"),
    ]
    network, _ = run_workload(config, [CounterContract()], requests)
    # FIFO: the read commits first (still missing -> success); re-run with
    # creation first to exercise the failure path.
    requests = [
        TxRequest(submit_time=0.0, activity="put", args=("ctr:8888", 1), contract="counter"),
        TxRequest(submit_time=0.001, activity="get", args=("ctr:8888",), contract="counter"),
    ]
    network, _ = run_workload(config, [CounterContract()], requests)
    statuses = _statuses(network)
    assert statuses == [TxStatus.SUCCESS, TxStatus.MVCC_CONFLICT]


def test_endorsement_timeout_produces_policy_failure():
    """An overloaded mandatory endorser makes clients give up -> policy failure."""
    timing = TimingConfig(endorse_per_tx=0.5, endorse_timeout=0.4)
    config = small_config(timing=timing, endorsement_policy="And(Org1,Org2)")
    requests = [
        TxRequest(submit_time=0.001 * i, activity="get", args=("ctr:0001",), contract="counter")
        for i in range(10)
    ]
    network, result = run_workload(config, [CounterContract()], requests)
    assert caused(network, "policy_") > 0


def test_missing_endorsements_recorded():
    timing = TimingConfig(endorse_per_tx=0.5, endorse_timeout=0.4)
    config = small_config(timing=timing, endorsement_policy="And(Org1,Org2)")
    requests = [
        TxRequest(submit_time=0.001 * i, activity="get", args=("ctr:0001",), contract="counter")
        for i in range(10)
    ]
    network, _ = run_workload(config, [CounterContract()], requests)
    failing = [
        tx
        for tx in network.ledger.transactions(include_config=False)
        if tx.status is TxStatus.ENDORSEMENT_FAILURE
    ]
    assert failing
    assert all(tx.missing_endorsements for tx in failing)


def test_selection_skew_concentrates_endorsers():
    config = small_config(
        endorsement_policy="OutOf(1,Org1,Org2)", endorser_selection_skew=6.0
    )
    requests = [
        TxRequest(submit_time=0.01 * i, activity="get", args=("ctr:0001",), contract="counter")
        for i in range(60)
    ]
    network, _ = run_workload(config, [CounterContract()], requests)
    from collections import Counter

    counts = Counter()
    for tx in network.ledger.transactions(include_config=False):
        for endorser in tx.endorsers:
            counts[endorser.rpartition("-peer")[0]] += 1
    assert counts["Org1"] > 50  # skew 6 -> nearly always the first alternative


def test_balanced_selection_spreads_endorsers():
    config = small_config(
        endorsement_policy="OutOf(1,Org1,Org2)", endorser_selection_skew=0.0
    )
    requests = [
        TxRequest(submit_time=0.01 * i, activity="get", args=("ctr:0001",), contract="counter")
        for i in range(200)
    ]
    network, _ = run_workload(config, [CounterContract()], requests)
    from collections import Counter

    counts = Counter()
    for tx in network.ledger.transactions(include_config=False):
        for endorser in tx.endorsers:
            counts[endorser.rpartition("-peer")[0]] += 1
    assert abs(counts["Org1"] - counts["Org2"]) < 60


def test_fabricpp_scheduler_reduces_intra_block_conflicts():
    """With the Fabric++ scheduler, the reader-before-writer order saves
    transactions that FIFO would fail."""
    base = small_config(block_count=25, block_timeout=5.0)
    requests = []
    for i in range(12):
        requests.append(
            TxRequest(submit_time=0.001 * (2 * i), activity="put", args=(f"ctr:{i:04d}", 1), contract="counter")
        )
        requests.append(
            TxRequest(submit_time=0.001 * (2 * i) + 0.0005, activity="get", args=(f"ctr:{i:04d}",), contract="counter")
        )
    _, fifo_result = run_workload(base, [CounterContract()], list(requests))
    pp = small_config(block_count=25, block_timeout=5.0, scheduler="fabricpp")
    _, pp_result = run_workload(pp, [CounterContract()], list(requests))
    assert pp_result.success_count > fifo_result.success_count


def test_fabricsharp_early_aborts_counted():
    config = small_config(scheduler="fabricsharp", block_count=5, block_timeout=0.05)
    requests = [
        TxRequest(submit_time=0.001 * i, activity="bump", args=("ctr:0000",), contract="counter")
        for i in range(30)
    ]
    network, result = run_workload(config, [CounterContract()], requests)
    if result.early_aborts:
        assert all(tx.abort_stage == "ordering" for tx in network.aborted)
        # Ordering-stage aborts stay in the success-rate denominator.
        assert caused(network, "early_abort_") == result.early_aborts


class _AbortsAfterRecording(CounterContract):
    """Reads, writes and scans, then early-aborts every ``doomed`` call."""

    @contract_function
    def doomed(self, ctx: ChaincodeContext, key: str) -> None:
        ctx.get_state(key)
        ctx.put_state(key, 1)
        ctx.get_state_range("ctr:0000", "ctr:0009")
        raise ChaincodeAbort("anomalous")


def test_chaincode_abort_leaves_the_transaction_rwset_empty():
    """The chaincode records into the transaction's own read-write set; an
    abort must not leave the partial reads, writes and scans behind."""
    requests = [
        TxRequest(submit_time=i / 50.0, activity=activity, args=("ctr:0003",), contract="counter")
        for i, activity in enumerate(["doomed", "bump"] * 10)
    ]
    network, result = run_workload(small_config(), [_AbortsAfterRecording()], requests)
    aborted = [tx for tx in network.aborted if tx.abort_stage == "endorsement"]
    assert len(aborted) == 10 and result.total_issued == 20
    for tx in aborted:
        assert tx.rwset == ReadWriteSet() and tx.rwset.derive_type() is TxType.READ
        assert tx.endorse_time is None
    committed = list(network.ledger.transactions(include_config=False))
    assert committed and all(tx.rwset.writes for tx in committed)


# -- rwset_conflict against the body it replaced ----------------------------------


def _reference_rwset_conflict(namespace, rwset):
    """``rwset_conflict`` before its unchanged-scan shortcut: two dicts and
    two key sets for every range query."""
    for key, read_version in rwset.reads.items():
        current = namespace.version(key)
        if read_version == MISSING_VERSION:
            if current is not None:
                return TxStatus.MVCC_CONFLICT, key
        elif current != read_version:
            return TxStatus.MVCC_CONFLICT, key
    for query in rwset.range_queries:
        current_scan = {
            key: entry.version for key, entry in namespace.range_scan(query.start, query.end)
        }
        recorded = dict(query.results)
        if set(current_scan) != set(recorded):
            changed = min(set(current_scan) ^ set(recorded))
            return TxStatus.PHANTOM_CONFLICT, changed
        for key, read_version in recorded.items():
            if current_scan[key] != read_version:
                return TxStatus.MVCC_CONFLICT, key
    return None


_KEYS = [f"k{i:02d}" for i in range(16)]
_key = st.sampled_from(_KEYS)
_version = st.builds(Version, st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(
    initial=st.dictionaries(_key, _version, min_size=4),
    reads=st.sets(_key, max_size=3),
    ranges=st.lists(st.tuples(_key, _key).map(sorted), max_size=3),
    changes=st.lists(st.tuples(_key, st.none() | _version), max_size=8),
)
def test_property_rwset_conflict_matches_reference(initial, reads, ranges, changes):
    """Execute reads and range reads against one state, then delete,
    insert and re-version keys (``None`` deletes) before validating: the
    verdict, status and key alike, is the old body's."""
    state = WorldState()
    for key, version in initial.items():
        state.put(key, 1, version)
    rwset = ReadWriteSet(
        reads={key: state.version(key) or MISSING_VERSION for key in sorted(reads)},
        range_queries=[
            RangeQueryInfo(
                start,
                end,
                tuple([(key, entry.version) for key, entry in state.range_scan(start, end)]),
            )
            for start, end in ranges
        ],
    )
    for key, version in changes:
        if version is None:
            state.delete(key)
        else:
            state.put(key, 1, version)
    assert rwset_conflict(state, rwset) == _reference_rwset_conflict(state, rwset)
