"""Shared fixtures: small, fast network/workload setups for unit tests."""

from __future__ import annotations

import pytest

from repro.fabric.chaincode import ChaincodeContext, Contract, contract_function
from repro.fabric.config import NetworkConfig, TimingConfig, default_orgs
from repro.fabric.network import FabricNetwork, run_workload
from repro.fabric.state import WorldState
from repro.fabric.transaction import TxRequest, Version


class CounterContract(Contract):
    """Tiny contract used across unit tests: counters plus reads/scans."""

    name = "counter"

    def __init__(self, num_keys: int = 20) -> None:
        self.num_keys = num_keys

    def key(self, index: int) -> str:
        return f"ctr:{index:04d}"

    def setup(self, state: WorldState) -> None:
        for index in range(self.num_keys):
            state.put(self.key(index), 0, Version(0, index))

    @contract_function
    def get(self, ctx: ChaincodeContext, key: str):
        return ctx.get_state(key)

    @contract_function
    def bump(self, ctx: ChaincodeContext, key: str) -> None:
        value = ctx.get_state(key) or 0
        ctx.put_state(key, value + 1)

    @contract_function
    def put(self, ctx: ChaincodeContext, key: str, value) -> None:
        ctx.put_state(key, value)

    @contract_function
    def scan(self, ctx: ChaincodeContext, start: str, end: str):
        return ctx.get_state_range(start, end)

    @contract_function
    def drop(self, ctx: ChaincodeContext, key: str) -> None:
        ctx.get_state(key)
        ctx.delete_state(key)


def caused(network: FabricNetwork, prefix: str) -> int:
    """Failures of ``network``'s run whose taxonomy cause starts with ``prefix``
    (``"policy_"``: endorsement-policy failures; ``"early_abort_"``: early
    aborts), read off the run's outcome fold."""
    return sum(
        count
        for cause, count in network.outcomes.cause_counts.items()
        if cause.startswith(prefix)
    )


def small_config(**overrides) -> NetworkConfig:
    """A 2-org network with fast timing for unit tests."""
    defaults = dict(
        orgs=default_orgs(2, num_clients=2, endorsers_per_org=1),
        endorsement_policy="Majority(Org1,Org2)",
        block_count=25,
        block_timeout=0.5,
        timing=TimingConfig(),
        seed=11,
    )
    defaults.update(overrides)
    return NetworkConfig(**defaults)


def counter_requests(
    count: int = 100, rate: float = 100.0, bump_fraction: float = 0.5, num_keys: int = 20
) -> list[TxRequest]:
    """Deterministic mixed read/bump workload over the counter contract."""
    requests = []
    for index in range(count):
        key = f"ctr:{index % num_keys:04d}"
        if index % 100 < bump_fraction * 100:
            requests.append(
                TxRequest(submit_time=index / rate, activity="bump", args=(key,), contract="counter")
            )
        else:
            requests.append(
                TxRequest(submit_time=index / rate, activity="get", args=(key,), contract="counter")
            )
    return requests


@pytest.fixture
def counter_contract() -> CounterContract:
    return CounterContract()


@pytest.fixture
def small_network(counter_contract) -> FabricNetwork:
    return FabricNetwork(small_config(), [counter_contract])


@pytest.fixture
def finished_network(counter_contract):
    """A network that has already executed a small mixed workload."""
    network, result = run_workload(
        small_config(), [counter_contract], counter_requests(count=200, rate=200.0)
    )
    return network, result
