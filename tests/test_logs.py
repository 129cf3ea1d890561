"""Tests for blockchain-log extraction, export round trips, event logs."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric.transaction import TxStatus, TxType
from repro.logs import (
    BlockchainLog,
    ChainLog,
    ChannelConfig,
    EventLog,
    LogRecord,
    derive_case_attribute,
    extract_blockchain_log,
    log_from_csv,
    log_from_json,
    log_to_csv,
    log_to_json,
)
from repro.logs.blockchain_log import interval_index, validate_record


def make_record(order, activity="act", args=(), keys=(), writes=None, status=TxStatus.SUCCESS, ts=None):
    writes = writes or {}
    return LogRecord(
        commit_order=order,
        tx_id=f"tx{order}",
        client_timestamp=float(order) / 10.0 if ts is None else ts,
        activity=activity,
        args=tuple(args),
        endorsers=("Org1-peer0",),
        invoker="Org1-client0",
        invoker_org="Org1",
        read_keys=tuple(keys),
        write_keys=tuple(writes),
        writes=dict(writes),
        read_versions={k: (0, 0) for k in keys},
        range_reads=(),
        status=status,
        tx_type=TxType.UPDATE if writes else TxType.READ,
        block_number=order // 10,
        block_position=order % 10,
        commit_time=float(order) / 10.0 + 1.0,
    )


def make_log(records):
    config = ChannelConfig(
        block_count=100, block_timeout=1.0, block_bytes=1 << 20, endorsement_policy="Majority(Org1,Org2)"
    )
    return BlockchainLog(records=records, config=config)


class TestExtraction:
    def test_nine_attributes_present(self, finished_network):
        network, _ = finished_network
        log = extract_blockchain_log(network)
        record = log.records[0]
        # Paper Section 4.1: the nine attributes.
        assert record.client_timestamp >= 0.0
        assert record.activity
        assert isinstance(record.args, tuple)
        assert record.endorsers
        assert record.invoker and record.invoker_org
        assert isinstance(record.rw_keys, frozenset)
        assert isinstance(record.status, TxStatus)
        assert isinstance(record.tx_type, TxType)
        assert record.commit_order == 0

    def test_config_transactions_cleaned(self, finished_network):
        network, _ = finished_network
        log = extract_blockchain_log(network)
        assert all(record.activity != "__config__" for record in log)

    def test_config_recovered_from_ledger(self, finished_network):
        network, _ = finished_network
        log = extract_blockchain_log(network)
        assert log.config.block_count == network.config.block_count
        assert log.config.endorsement_policy == network.config.endorsement_policy

    def test_commit_order_strictly_increasing(self, finished_network):
        network, _ = finished_network
        log = extract_blockchain_log(network)
        assert [record.commit_order for record in log] == list(range(len(log)))

    def test_extraction_replays_the_live_records(self, counter_contract):
        """One replay of the kept chain gives the records the run's own
        stream built live, and leaves that stream's counters alone; so
        does each pass of a ChainLog, which yields them block by block."""
        from repro.fabric.network import FabricNetwork
        from tests.conftest import counter_requests, small_config

        live: list[LogRecord] = []
        network = FabricNetwork(small_config(), [counter_contract])
        network.stream.add_record_consumer(SimpleNamespace(consume=live.append))
        network.run(counter_requests(count=200, rate=200.0))
        streamed = network.stream.records_streamed
        log = extract_blockchain_log(network)
        assert log.records == live and len(live) == streamed > 0
        assert network.stream.records_streamed == streamed
        assert log.config == network.stream.config

        chain = ChainLog(network)
        assert chain.config is None and len(chain) == 0
        for _ in range(2):
            assert list(chain) == live
            assert len(chain) == network.stream.committed_txs == streamed
            assert chain.config == network.stream.config
        assert network.stream.records_streamed == streamed

    def test_chain_log_without_config_raises_at_the_end_of_a_pass(self):
        from repro.fabric.ledger import Ledger

        ledger = Ledger()
        for block in _chain([_data_tx("tx-1")]):
            ledger.append(block)
        chain = ChainLog(SimpleNamespace(ledger=ledger))
        records = iter(chain)
        assert next(records).tx_id == "tx-1"
        with pytest.raises(ValueError, match="no configuration transaction"):
            next(records)
        assert chain.config is None and len(chain) == 1

    def test_ledger_without_config_rejected(self):
        from repro.fabric.ledger import Ledger

        with pytest.raises(ValueError):
            extract_blockchain_log(SimpleNamespace(ledger=Ledger()))
        ledger = Ledger()
        for block in _chain([_data_tx("tx-1")]):
            ledger.append(block)
        with pytest.raises(ValueError, match="no configuration transaction"):
            extract_blockchain_log(SimpleNamespace(ledger=ledger))

    def test_last_config_wins_in_extraction_and_stream(self):
        """A later config transaction overrides only the keys it sets, and
        the batch extraction and the streaming hub agree on the result."""
        from repro.fabric.ledger import Ledger
        from repro.logs.stream import RunStream

        blocks = _chain(
            [_config_tx("config-0", (("block_count", 50), ("block_timeout", 2.0),
                                     ("block_bytes", 4096),
                                     ("endorsement_policy", "OutOf(1,Org1,Org2)")))],
            [_data_tx("tx-1")],
            [_config_tx("config-1", (("block_count", 300),))],
            [_data_tx("tx-2")],
        )
        ledger = Ledger()
        stream = RunStream()
        for block in blocks:
            ledger.append(block)
            stream.accept_block(block)
        expected = ChannelConfig(
            block_count=300,
            block_timeout=2.0,
            block_bytes=4096,
            endorsement_policy="OutOf(1,Org1,Org2)",
        )
        log = extract_blockchain_log(SimpleNamespace(ledger=ledger))
        assert log.config == expected
        assert stream.config == expected
        assert [record.tx_id for record in log] == ["tx-1", "tx-2"]


def _config_tx(tx_id, args):
    from repro.fabric.transaction import Transaction

    return Transaction(
        tx_id=tx_id,
        client_timestamp=0.0,
        activity="__config__",
        args=args,
        contract="__channel__",
        invoker_client="admin",
        invoker_org="OrdererOrg",
        is_config=True,
        status=TxStatus.SUCCESS,
        commit_time=0.0,
    )


def _data_tx(tx_id):
    from repro.fabric.transaction import Transaction

    return Transaction(
        tx_id=tx_id,
        client_timestamp=0.5,
        activity="put",
        args=("k1",),
        contract="counter",
        invoker_client="Org1-client0",
        invoker_org="Org1",
        endorsers=("Org1-peer0",),
        status=TxStatus.SUCCESS,
        commit_time=1.0,
    )


def _chain(*block_transactions):
    """Hash-chained blocks holding the given transaction lists, in order."""
    from repro.fabric.ledger import Block, Ledger

    blocks = []
    previous = Ledger.GENESIS_HASH
    for number, transactions in enumerate(block_transactions):
        block = Block(
            number=number,
            transactions=list(transactions),
            previous_hash=previous,
            committed_at=float(number),
        )
        blocks.append(block)
        previous = block.block_hash
    return blocks


class TestIntervalBoundaries:
    """Regressions for the float-division binning bug in interval_index."""

    def test_division_overshoot_pulled_back(self):
        # (1.3 - 1.0) / 0.1 rounds to 3.0000000000000004, so naive int()
        # binning places the record in a window that starts after it.
        index = interval_index(1.3, 1.0, 0.1)
        assert 1.0 + index * 0.1 <= 1.3 < 1.0 + (index + 1) * 0.1

    def test_division_undershoot_pushed_forward(self):
        # 2.1 / 0.7 rounds to 2.9999999999999996, leaving the record one
        # window short of the boundary it sits on.
        index = interval_index(2.1, 0.0, 0.7)
        assert index * 0.7 <= 2.1 < (index + 1) * 0.7

    def test_half_open_invariant_on_boundary_grid(self):
        # Every k*ins timestamp must satisfy the half-open window
        # comparisons exactly.
        for ins in (0.1, 0.3, 0.7, 1.0):
            for k in range(200):
                timestamp = k * ins
                index = interval_index(timestamp, 0.0, ins)
                assert index * ins <= timestamp < (index + 1) * ins


class TestValidation:
    def test_validate_rejects_read_versions_without_keys(self):
        record = make_record(0, keys=["a"])
        record.read_versions["ghost"] = (1, 0)
        with pytest.raises(ValueError, match="read versions without keys"):
            validate_record(record)

    def test_validate_rejects_writes_without_keys(self):
        record = make_record(0, writes={"k": 1})
        record.writes["ghost"] = 2
        with pytest.raises(ValueError, match="write values without keys"):
            validate_record(record)

    def test_validate_accepts_partial_read_versions(self):
        # A version map covering only some read keys is fine (range reads
        # may surface keys without versions); the subset must hold the
        # other way around.
        record = make_record(0, keys=["a", "b"])
        del record.read_versions["b"]
        validate_record(record)


class TestExport:
    def test_json_roundtrip(self, finished_network, tmp_path):
        network, _ = finished_network
        log = extract_blockchain_log(network)
        path = tmp_path / "log.json"
        log_to_json(log, path)
        loaded = log_from_json(path)
        assert len(loaded) == len(log)
        assert loaded.config == log.config
        assert loaded.records[0] == log.records[0]

    def test_csv_roundtrip(self, finished_network, tmp_path):
        network, _ = finished_network
        log = extract_blockchain_log(network)
        path = tmp_path / "log.csv"
        log_to_csv(log, path)
        loaded = log_from_csv(path)
        assert len(loaded) == len(log)
        for original, restored in zip(log.records, loaded.records):
            assert restored.activity == original.activity
            assert restored.status == original.status
            assert restored.read_versions == original.read_versions
            assert restored.range_reads == original.range_reads

    @pytest.fixture(scope="class")
    def retried_log(self):
        """A 400-tx crash_burst run with up to 3 attempts: it logs retries."""
        from repro.bench.experiments import make_scenario
        from repro.fabric.network import run_workload

        config, family, requests = make_scenario(
            "default", "crash_burst", retry_attempts=3, total_transactions=400
        )()
        network, _ = run_workload(config, family.deploy().contracts, requests)
        return extract_blockchain_log(network)

    def test_csv_and_json_round_trips_agree_field_for_field(self, retried_log, tmp_path):
        log_to_csv(retried_log, tmp_path / "log.csv")
        log_to_json(retried_log, tmp_path / "log.json")
        from_csv = log_from_csv(tmp_path / "log.csv").records
        from_json = log_from_json(tmp_path / "log.json").records
        assert any(record.attempt > 1 for record in from_json)
        assert from_csv == from_json == retried_log.records

    def test_csv_without_attempt_column_reads_as_first_attempts(
        self, retried_log, tmp_path
    ):
        """Files written before the ``attempt`` column still read."""
        import csv

        path = tmp_path / "log.csv"
        log_to_csv(retried_log, path)
        with open(path, newline="") as handle:
            config_row, *rows = list(csv.reader(handle))
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows([config_row, *(row[:-1] for row in rows)])
        assert rows[0][-1] == "attempt"
        loaded = log_from_csv(path)
        assert {record.attempt for record in loaded.records} == {1}
        assert [
            record.tx_id for record in loaded.records
        ] == [record.tx_id for record in retried_log.records]

    def test_csv_requires_config_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,log\n")
        with pytest.raises(ValueError):
            log_from_csv(path)

    @pytest.mark.parametrize("text", ["#config,100\n", ""], ids=["short", "empty"])
    def test_csv_short_or_empty_config_row_is_a_value_error(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="missing #config header row"):
            log_from_csv(path)


class TestCaseIdDerivation:
    def test_key_family_wins_on_coverage(self):
        records = [
            make_record(0, activity="create", keys=["item:A"], writes={"item:A": 1}),
            make_record(1, activity="check", keys=["item:A"]),
            make_record(2, activity="create", keys=["item:B"], writes={"item:B": 1}),
            make_record(3, activity="check", keys=["item:B"]),
        ]
        derivation = derive_case_attribute(make_log(records))
        assert derivation.attribute == "key:item"
        assert derivation.coverage == 1.0
        assert derivation.distinct_values == 2

    def test_granularity_breaks_ties(self):
        # arg0 has 2 distinct values, arg1 has 4 -> arg1 preferred.
        records = [
            make_record(i, activity="a", args=(f"coarse{i % 2}", f"fine{i}"))
            for i in range(4)
        ]
        derivation = derive_case_attribute(make_log(records))
        assert derivation.attribute == "arg:1"

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            derive_case_attribute(make_log([]))

    def test_scores_exposed(self):
        records = [make_record(0, activity="a", args=("x",))]
        derivation = derive_case_attribute(make_log(records))
        assert "arg:0" in derivation.scores


class TestEventLog:
    def _sample_log(self):
        records = []
        order = 0
        for case in ("A", "B", "C"):
            for activity in ("create", "process", "close"):
                records.append(
                    make_record(order, activity=activity, keys=[f"case:{case}"])
                )
                order += 1
        return make_log(records)

    def test_traces_follow_commit_order(self):
        event_log = EventLog.from_blockchain_log(self._sample_log())
        assert event_log.traces() == [("create", "process", "close")] * 3

    def test_trace_variants_counted(self):
        event_log = EventLog.from_blockchain_log(self._sample_log())
        assert event_log.trace_variants() == {("create", "process", "close"): 3}

    def test_explicit_case_attribute(self):
        event_log = EventLog.from_blockchain_log(self._sample_log(), case_attribute="key:case")
        assert len(event_log.cases()) == 3

    def test_exclude_failures(self):
        records = [
            make_record(0, activity="a", keys=["case:A"]),
            make_record(1, activity="b", keys=["case:A"], status=TxStatus.MVCC_CONFLICT),
        ]
        log = make_log(records)
        with_failures = EventLog.from_blockchain_log(log, case_attribute="key:case")
        without = EventLog.from_blockchain_log(
            log, case_attribute="key:case", include_failures=False
        )
        assert len(with_failures) == 2
        assert len(without) == 1

    def test_records_without_case_value_skipped(self):
        records = [
            make_record(0, activity="a", keys=["case:A"]),
            make_record(1, activity="noise"),  # no keys, no args
        ]
        event_log = EventLog.from_blockchain_log(make_log(records), case_attribute="key:case")
        assert len(event_log) == 1

    def test_activities_listing(self):
        event_log = EventLog.from_blockchain_log(self._sample_log())
        assert event_log.activities() == ["close", "create", "process"]

    def test_first_key_in_sorted_order_names_the_case(self):
        records = [make_record(0, activity="a", keys=["case:B", "case:A", "other:Z"])]
        event_log = EventLog.from_blockchain_log(make_log(records), case_attribute="key:case")
        assert [event.case_id for event in event_log] == ["A"]

    def test_excluded_failures_still_count_in_the_derivation(self):
        # Over successes alone arg:0 wins (3 values); the failed "b"
        # transactions make key:item the only attribute covering both.
        records = [
            make_record(i, activity="a", args=(f"p{i}",), keys=["item:1"]) for i in range(3)
        ]
        records.append(
            make_record(3, activity="b", keys=["item:2"], status=TxStatus.MVCC_CONFLICT)
        )
        log = make_log(records)
        without = EventLog.from_blockchain_log(log, include_failures=False)
        assert without.derivation == derive_case_attribute(log)
        assert without.derivation.attribute == "key:item"
        assert [event.activity for event in without] == ["a", "a", "a"]


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["create", "update", "close"]),
            st.sampled_from(["A", "B", "C", "D"]),
            st.sampled_from(list(TxStatus)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_event_log_partitions_records(items):
    records = [
        make_record(i, activity=activity, keys=[f"case:{case}"], status=status)
        for i, (activity, case, status) in enumerate(items)
    ]
    event_log = EventLog.from_blockchain_log(make_log(records), case_attribute="key:case")
    assert sum(len(events) for events in event_log.cases().values()) == len(items)
    # Within each case, commit order is increasing.
    for events in event_log.cases().values():
        orders = [e.commit_order for e in events]
        assert orders == sorted(orders)
