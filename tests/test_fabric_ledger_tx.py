"""Unit tests for ledger blocks and transaction types."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.ledger import Block, Ledger
from repro.fabric.transaction import (
    DELETED,
    RangeQueryInfo,
    ReadWriteSet,
    Transaction,
    TxStatus,
    TxType,
    Version,
)
from repro.logs.blockchain_log import LogRecord, record_from_transaction


def _tx(i: int) -> Transaction:
    return Transaction(
        tx_id=f"tx{i}",
        client_timestamp=0.0,
        activity="a",
        args=(),
        contract="c",
        invoker_client="Org1-client0",
        invoker_org="Org1",
    )


class TestLedger:
    def test_append_and_iterate(self):
        ledger = Ledger()
        block = Block(number=0, transactions=[_tx(1)], previous_hash=Ledger.GENESIS_HASH)
        ledger.append(block)
        assert ledger.height == 1
        assert [t.tx_id for t in ledger.transactions()] == ["tx1"]

    def test_wrong_number_rejected(self):
        ledger = Ledger()
        block = Block(number=1, transactions=[_tx(1)], previous_hash=Ledger.GENESIS_HASH)
        with pytest.raises(ValueError):
            ledger.append(block)

    def test_wrong_previous_hash_rejected(self):
        ledger = Ledger()
        ledger.append(Block(number=0, transactions=[_tx(1)], previous_hash=Ledger.GENESIS_HASH))
        with pytest.raises(ValueError):
            ledger.append(Block(number=1, transactions=[_tx(2)], previous_hash="bogus"))

    def test_chain_verification(self):
        ledger = Ledger()
        for i in range(3):
            ledger.append(
                Block(number=i, transactions=[_tx(i)], previous_hash=ledger.tip_hash)
            )
        assert ledger.verify_chain()

    def test_tampering_detected(self):
        ledger = Ledger()
        ledger.append(Block(number=0, transactions=[_tx(1)], previous_hash=Ledger.GENESIS_HASH))
        ledger.append(Block(number=1, transactions=[_tx(2)], previous_hash=ledger.tip_hash))
        next(iter(ledger)).transactions.append(_tx(99))
        assert not ledger.verify_chain()

    def test_config_filtering(self):
        ledger = Ledger()
        config_tx = _tx(0)
        config_tx.is_config = True
        ledger.append(Block(number=0, transactions=[config_tx], previous_hash=Ledger.GENESIS_HASH))
        ledger.append(Block(number=1, transactions=[_tx(1)], previous_hash=ledger.tip_hash))
        assert [t.tx_id for t in ledger.transactions(include_config=False)] == ["tx1"]
        assert len(list(ledger.transactions(include_config=True))) == 2


class TestTxTypeDerivation:
    def test_pure_read(self):
        rwset = ReadWriteSet(reads={"k": Version(0, 0)})
        assert rwset.derive_type() is TxType.READ

    def test_blind_write(self):
        rwset = ReadWriteSet(writes={"k": 1})
        assert rwset.derive_type() is TxType.WRITE

    def test_update_reads_and_writes(self):
        rwset = ReadWriteSet(reads={"k": Version(0, 0)}, writes={"k": 2})
        assert rwset.derive_type() is TxType.UPDATE

    def test_range_read(self):
        rwset = ReadWriteSet(
            range_queries=[RangeQueryInfo(start="a", end="b", results=())]
        )
        assert rwset.derive_type() is TxType.RANGE_READ

    def test_delete_takes_priority(self):
        rwset = ReadWriteSet(reads={"k": Version(0, 0)}, writes={"k": DELETED})
        assert rwset.derive_type() is TxType.DELETE

    def test_empty_rwset_is_read(self):
        assert ReadWriteSet().derive_type() is TxType.READ


class TestReadWriteSet:
    def test_read_keys_include_range_results(self):
        rwset = ReadWriteSet(
            reads={"a": Version(0, 0)},
            range_queries=[
                RangeQueryInfo(start="b", end="d", results=(("b", Version(0, 1)), ("c", Version(0, 2))))
            ],
        )
        assert rwset.read_keys == {"a", "b", "c"}

    def test_estimated_bytes_grows_with_content(self):
        small = ReadWriteSet(writes={"k": 1}).estimated_bytes()
        big = ReadWriteSet(writes={f"key{i}": "x" * 50 for i in range(10)}).estimated_bytes()
        assert big > small


class TestTransaction:
    def test_latency_requires_commit(self):
        tx = _tx(1)
        assert tx.latency is None
        tx.commit_time = 4.0
        tx.client_timestamp = 1.0
        assert tx.latency == 3.0

    def test_status_failure_flags(self):
        assert not TxStatus.SUCCESS.is_failure
        for status in (
            TxStatus.MVCC_CONFLICT,
            TxStatus.PHANTOM_CONFLICT,
            TxStatus.ENDORSEMENT_FAILURE,
            TxStatus.EARLY_ABORT,
        ):
            assert status.is_failure


# -- reference bodies of the per-transaction helpers --------------------------------
#
# Straightforward loop-and-generator versions of ``derive_type``,
# ``Transaction.estimated_bytes`` and ``record_from_transaction``.  The
# helpers on the hot path must give the same type, the same byte estimate
# and the same log record (dict order included) for every read-write set.


def _reference_derive_type(rwset: ReadWriteSet) -> TxType:
    if any(value == DELETED for value in rwset.writes.values()):
        return TxType.DELETE
    if rwset.range_queries:
        return TxType.RANGE_READ
    if rwset.writes and rwset.reads:
        return TxType.UPDATE
    if rwset.writes:
        return TxType.WRITE
    return TxType.READ


def _reference_estimated_bytes(tx: Transaction) -> int:
    size = 160
    for key, version in tx.rwset.reads.items():
        size += len(key) + 16
        del version
    for key, value in tx.rwset.writes.items():
        size += len(key) + len(str(value))
    for query in tx.rwset.range_queries:
        size += len(query.start) + len(query.end) + 24 * len(query.results)
    size += sum(len(arg_str) for arg_str in map(str, tx.args))
    size += 64 * max(1, len(tx.endorsers))
    return size


def _reference_record(tx: Transaction, block_position: int) -> LogRecord:
    read_versions = {key: (v.block, v.tx) for key, v in tx.rwset.reads.items()}
    read_keys = set(tx.rwset.reads)
    for query in tx.rwset.range_queries:
        for key, version in query.results:
            read_keys.add(key)
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
        read_keys=tuple(sorted(read_keys)),
        write_keys=tuple(sorted(frozenset(tx.rwset.writes))),
        writes=dict(tx.rwset.writes),
        read_versions=read_versions,
        range_reads=tuple((query.start, query.end) for query in tx.rwset.range_queries),
        status=tx.status,
        tx_type=_reference_derive_type(tx.rwset),
        block_number=tx.block_number if tx.block_number is not None else -1,
        block_position=block_position,
        commit_time=tx.commit_time if tx.commit_time is not None else -1.0,
        contract=tx.contract,
        attempt=tx.attempt,
    )


# Few keys, so range results overlap point reads and writes often.
_KEYS = st.sampled_from(["k0", "k1", "k2", "k3", "key-four"])
_VERSIONS = st.builds(Version, st.integers(-1, 4), st.integers(-1, 4))
_RANGES = st.builds(
    lambda start, results: RangeQueryInfo(start, start + "~", tuple(sorted(results.items()))),
    _KEYS,
    st.dictionaries(_KEYS, _VERSIONS, max_size=4),
)
_RWSETS = st.builds(
    ReadWriteSet,
    st.dictionaries(_KEYS, _VERSIONS, max_size=4),
    st.dictionaries(_KEYS, st.one_of(st.integers(-9, 99), st.text(max_size=4), st.just(DELETED))),
    st.lists(_RANGES, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    rwset=_RWSETS,
    args=st.lists(st.one_of(st.integers(-99, 999), st.text(max_size=6)), max_size=4),
    endorsers=st.lists(st.sampled_from(["Org1-peer0", "Org2-peer0", "Org3-peer1"]), max_size=3),
    status=st.sampled_from(list(TxStatus)),
    position=st.integers(0, 9),
)
def test_property_per_transaction_helpers_match_reference_bodies(
    rwset, args, endorsers, status, position
):
    tx = _tx(7)
    tx.rwset, tx.args, tx.endorsers, tx.status = rwset, tuple(args), tuple(endorsers), status
    tx.commit_order, tx.block_number, tx.commit_time = 3, 2, 1.5
    assert rwset.derive_type() is _reference_derive_type(rwset)
    assert tx.estimated_bytes() == _reference_estimated_bytes(tx)
    record, reference = record_from_transaction(tx, position), _reference_record(tx, position)
    assert record == reference
    assert repr(record) == repr(reference)  # dict order and tuple types too
