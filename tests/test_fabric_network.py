"""Integration tests for the full EOV pipeline."""

import dataclasses

import pytest

from repro.fabric.config import NetworkConfig, TimingConfig, default_orgs
from repro.fabric.network import FabricNetwork, run_workload
from repro.fabric.transaction import TxRequest, TxStatus

from tests.conftest import CounterContract, counter_requests, small_config


def test_all_transactions_accounted(finished_network):
    network, result = finished_network
    assert result.total_issued == 200
    assert result.success_count + sum(network.outcomes.cause_counts.values()) == 200


def test_ledger_chain_valid(finished_network):
    network, _ = finished_network
    assert network.ledger.verify_chain()


def test_genesis_block_carries_config(finished_network):
    network, _ = finished_network
    genesis = next(iter(network.ledger))
    assert genesis.transactions[0].is_config
    args = dict(genesis.transactions[0].args)
    assert args["block_count"] == network.config.block_count


def test_commit_order_assigned_sequentially(finished_network):
    network, _ = finished_network
    orders = [tx.commit_order for tx in network.ledger.transactions(include_config=False)]
    assert orders == list(range(len(orders)))


def test_successful_write_updates_state(counter_contract):
    config = small_config()
    requests = [
        TxRequest(submit_time=0.0, activity="put", args=("ctr:0001", 99), contract="counter")
    ]
    network, result = run_workload(config, [counter_contract], requests)
    assert result.success_count == 1
    assert network.state_db.namespace("counter").get("ctr:0001").value == 99


def test_sequential_bumps_all_succeed(counter_contract):
    """Spaced-out increments never conflict."""
    config = small_config()
    requests = [
        TxRequest(submit_time=i * 3.0, activity="bump", args=("ctr:0000",), contract="counter")
        for i in range(5)
    ]
    network, result = run_workload(config, [counter_contract], requests)
    assert result.success_rate == 1.0
    assert network.state_db.namespace("counter").get("ctr:0000").value == 5


def test_concurrent_bumps_conflict(counter_contract):
    """Simultaneous increments of one key: exactly the serializable subset wins."""
    config = small_config()
    requests = [
        TxRequest(submit_time=0.001 * i, activity="bump", args=("ctr:0000",), contract="counter")
        for i in range(10)
    ]
    network, result = run_workload(config, [counter_contract], requests)
    final = network.state_db.namespace("counter").get("ctr:0000").value
    # State must equal the number of SUCCESSFUL increments (serializability).
    assert final == result.success_count
    assert network.outcomes.cause_counts["mvcc_conflict"] > 0


def test_phantom_conflict_on_insert_during_scan(counter_contract):
    config = small_config()
    # The insert is sent first and commits earlier in the same block; the
    # scan executes against the pre-insert snapshot, so at validation the
    # scanned range has a new member.
    requests = [
        TxRequest(submit_time=0.0, activity="put", args=("ctr:9999", 1), contract="counter"),
        TxRequest(submit_time=0.001, activity="scan", args=("ctr:", "ctr:￿"), contract="counter"),
        # Second scan long after, should succeed.
        TxRequest(submit_time=10.0, activity="scan", args=("ctr:", "ctr:￿"), contract="counter"),
    ]
    network, result = run_workload(config, [counter_contract], requests)
    statuses = [tx.status for tx in network.ledger.transactions(include_config=False)]
    assert TxStatus.PHANTOM_CONFLICT in statuses
    assert statuses[-1] is TxStatus.SUCCESS


def test_reads_of_stable_keys_succeed(counter_contract):
    config = small_config()
    requests = [
        TxRequest(submit_time=i / 100.0, activity="get", args=(f"ctr:{i % 20:04d}",), contract="counter")
        for i in range(50)
    ]
    _, result = run_workload(config, [counter_contract], requests)
    assert result.success_rate == 1.0


def test_empty_workload_rejected(counter_contract):
    network = FabricNetwork(small_config(), [counter_contract])
    with pytest.raises(ValueError):
        network.run([])


def test_policy_must_match_orgs(counter_contract):
    config = small_config(endorsement_policy="And(Org1,Org9)")
    with pytest.raises(ValueError):
        FabricNetwork(config, [counter_contract])


def test_duplicate_contract_names_rejected():
    with pytest.raises(ValueError):
        FabricNetwork(small_config(), [CounterContract(), CounterContract()])


def test_no_contracts_rejected():
    with pytest.raises(ValueError):
        FabricNetwork(small_config(), [])


def test_unknown_mitigation_rejected(counter_contract):
    """A mitigation assigned after the config's own check still cannot
    run under a mistyped name, at construction or mid-run."""
    config = small_config()
    config.mitigation = "reordr"
    with pytest.raises(ValueError, match="unknown mitigation 'reordr'"):
        FabricNetwork(config, [counter_contract])
    network = FabricNetwork(small_config(), [counter_contract])
    with pytest.raises(ValueError, match="unknown mitigation"):
        network.set_mitigation("early_abrot")
    assert network.mitigation == "none"


def test_determinism_same_seed(counter_contract):
    requests = counter_requests(count=150, rate=300.0)
    n1, r1 = run_workload(small_config(), [CounterContract()], list(requests))
    n2, r2 = run_workload(small_config(), [CounterContract()], list(requests))
    assert r1.success_count == r2.success_count
    assert r1.avg_latency == r2.avg_latency
    assert n1.outcomes.cause_counts == n2.outcomes.cause_counts


def test_block_cutting_by_count(counter_contract):
    config = small_config(block_count=10, block_timeout=60.0)
    requests = counter_requests(count=100, rate=1000.0)
    network, result = run_workload(config, [counter_contract], requests)
    data_blocks = [b for b in network.ledger if not b.transactions[0].is_config]
    full = [b for b in data_blocks if len(b) == 10]
    assert len(full) >= 9
    assert network.stream.cut_reason_counts.get("count", 0) >= 9


def test_block_cutting_by_timeout(counter_contract):
    config = small_config(block_count=1000, block_timeout=0.2)
    requests = counter_requests(count=50, rate=100.0)
    network, _ = run_workload(config, [counter_contract], requests)
    assert network.stream.cut_reason_counts.get("timeout", 0) >= 1
    assert network.stream.cut_reason_counts.get("count", 0) == 0


def test_block_cutting_by_bytes(counter_contract):
    config = small_config(block_count=10_000, block_timeout=60.0, block_bytes=2000)
    requests = counter_requests(count=60, rate=1000.0)
    network, _ = run_workload(config, [counter_contract], requests)
    assert network.stream.cut_reason_counts.get("bytes", 0) >= 1


def test_invoker_org_pinning(counter_contract):
    config = small_config()
    requests = [
        TxRequest(
            submit_time=i / 100.0,
            activity="get",
            args=("ctr:0000",),
            contract="counter",
            invoker_org="Org2",
        )
        for i in range(20)
    ]
    network, _ = run_workload(config, [counter_contract], requests)
    invokers = {tx.invoker_org for tx in network.ledger.transactions(include_config=False)}
    assert invokers == {"Org2"}


def test_endorsers_satisfy_policy(finished_network):
    network, _ = finished_network
    for tx in network.ledger.transactions(include_config=False):
        if tx.status is not TxStatus.ENDORSEMENT_FAILURE:
            orgs = {name.rpartition("-peer")[0] for name in tx.endorsers}
            assert network.policy.is_satisfied_by(orgs)


def test_latency_positive_for_all_successes(finished_network):
    network, _ = finished_network
    for tx in network.ledger.transactions(include_config=False):
        if tx.status is TxStatus.SUCCESS:
            assert tx.latency is not None and tx.latency > 0


def _non_default_config_fields() -> dict:
    """A value other than its default for every :class:`NetworkConfig` field."""
    from repro.control.spec import ControlSpec
    from repro.fabric.retry import RetryPolicy
    from repro.scenario.library import get_scenario

    return {
        "orgs": default_orgs(3, num_clients=4),
        "endorsement_policy": "OutOf(2,Org1,Org2,Org3)",
        "block_count": 77,
        "block_timeout": 2.5,
        "block_bytes": 4096,
        "endorser_selection_skew": 0.5,
        "scheduler": "fabricsharp",
        "scheduler_window": 9,
        "timing": TimingConfig(client_per_tx=0.02),
        "seed": 11,
        "retry": RetryPolicy(max_attempts=4),
        "mitigation": "early_abort",
        "control": ControlSpec(policy="noop"),
        "scenario": get_scenario("crash_burst"),
    }


@pytest.mark.parametrize(
    "name", [field.name for field in dataclasses.fields(NetworkConfig)]
)
def test_config_copy_keeps_every_field(name):
    values = _non_default_config_fields()
    assert name in values, f"give NetworkConfig.{name} a non-default value above"
    config = NetworkConfig(**values)
    assert getattr(config, name) != getattr(NetworkConfig(), name)
    assert getattr(config.copy(), name) == getattr(config, name)


def test_config_copy_clones_the_orgs():
    """A client boost applied to the copy leaves the original alone."""
    config = NetworkConfig()
    clone = config.copy()
    assert clone.orgs == config.orgs and clone.orgs is not config.orgs
    clone.org("Org1").num_clients *= 2
    assert config.org("Org1").num_clients == 5
    assert clone.org("Org1").num_clients == 10
