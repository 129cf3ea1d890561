"""Elided hops ≡ the full stage chain.

A network with no scenario and no controller has fixed conditions
(:class:`~repro.fabric.conditions.NetworkConditions`), so its client
jobs schedule the next stage at ``finish + delay`` themselves and its
endorsing peers get no completion events (see
:class:`~repro.sim.resources.Server`).  A no-op controller changes no
outcome but makes the conditions writable, so the same run takes the
full stage chain.  The differential cases run both ways and compare the
run and forensics digests; the last two check the gate itself.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.experiments import make_synthetic, make_usecase, usecase_plans
from repro.bench.harness import run_baseline
from repro.control.spec import ControlSpec
from repro.core.apply import apply_recommendations
from repro.fabric.network import FabricNetwork
from repro.fabric.retry import RetryPolicy
from repro.fabric.transaction import TxRequest
from repro.scenario.fuzz import execute
from repro.scenario.spec import Intervention, ScenarioSpec
from tests.conftest import CounterContract, small_config

NOOP = ControlSpec(policy="noop")
JITTERED = RetryPolicy(max_attempts=3, jitter=0.5)

#: ``(base, scheduler, mitigation, retry)``: every scheduler, every
#: mitigation, with and without jittered retries, on one- and
#: multi-endorsement policies.
SYNTHETIC = [
    ("default", "fifo", "early_abort", JITTERED),
    ("default", "fabricsharp", "reorder", None),
    ("endorsement_policy_p1", "fabricsharp", "early_abort", None),
    ("endorsement_policy_p1", "fifo", "none", JITTERED),
    ("endorsement_policy_p2_skew", "fifo", "reorder", JITTERED),
    ("key_dist_skew_2", "fabricsharp", "none", JITTERED),
    ("key_dist_skew_2", "fifo", "early_abort", None),
    ("tx_dist_skew_70", "fabricsharp", "early_abort", None),
    ("workload_rangeread_heavy", "fabricsharp", "early_abort", JITTERED),
]


class _Deployed:
    """A contract family whose one deployment is an applied plan's."""

    def __init__(self, deployment) -> None:
        self._deployment = deployment

    def deploy(self):
        return self._deployment


def _both_ways(build, **fields):
    """The fixed-condition run of ``build()``'s bundle, with ``fields``
    set on its config, and the same run under a no-op controller."""
    runs = []
    for control in (None, NOOP):
        config, family, requests = build()
        runs.append(execute(replace(config, control=control, **fields), family, requests))
    elided, full = runs
    assert elided.network.conditions.fixed
    assert not full.network.conditions.fixed
    assert elided.digest == full.digest
    assert elided.forensics_digest == full.forensics_digest
    return elided, full


@pytest.mark.parametrize("case", SYNTHETIC, ids=lambda case: "-".join(map(str, case[:3])))
def test_synthetic_run_is_the_same_either_way(case):
    base, scheduler, mitigation, retry = case
    build = make_synthetic(base, seed=3, scheduler=scheduler, total_transactions=400)
    elided, full = _both_ways(build, mitigation=mitigation, retry=retry)
    assert len(elided.trace) < len(full.trace)


def test_early_abort_checks_staleness_at_the_packaging_finish():
    """Under ``early_abort`` the packaging job keeps its completion event:
    one org's backlogged clients let read sets go stale before it."""
    build = make_synthetic("tx_dist_skew_70", seed=3, total_transactions=400)
    elided, _ = _both_ways(build, mitigation="early_abort", retry=JITTERED)
    stages = [tx.abort_stage for tx in elided.network.aborted]
    assert stages.count("stale_read") > 0


@pytest.mark.parametrize("retry", [None, JITTERED], ids=["no-retry", "jittered-retry"])
def test_pruned_contract_aborts_at_endorsement_either_way(retry):
    """The elided round's abort branch: a pruned contract rejects at the
    executor's start, so the round goes back through ``on_abort``."""
    make = make_usecase("scm", total_transactions=500, seed=0)
    plans = [plan for plan in usecase_plans("scm") if plan[0] == "process model pruning"]
    _, _, [(_, recs, _)] = run_baseline(make(), plans)

    def build():
        applied = apply_recommendations(list(recs), *make())
        return applied.config, _Deployed(applied.deployment), applied.requests

    elided, _ = _both_ways(build, retry=retry)
    stages = [tx.abort_stage for tx in elided.network.aborted]
    assert stages.count("endorsement") > 0


def test_conditions_of_a_fixed_network_refuse_writes():
    network = FabricNetwork(small_config(), [CounterContract()])
    conditions = network.conditions
    assert conditions.fixed
    for write in (
        lambda: conditions.set_delay_multiplier(2.0),
        lambda: conditions.set_org_delay_multiplier("Org1", 2.0),
        lambda: conditions.set_send_rate_cap(10.0),
    ):
        with pytest.raises(RuntimeError, match="fixed"):
            write()
    assert conditions.journal == []
    assert conditions.network_delay() == small_config().timing.network_delay


def test_a_scenario_network_reads_the_hop_delay_at_the_finish():
    """A latency spike that starts while the proposal is in service
    delays the proposal's hop to the endorsers."""
    config = small_config()
    timing = config.timing
    spike = ScenarioSpec(
        "spike", [Intervention("latency_spike", at=timing.client_per_tx / 2, factor=4.0)]
    )
    config.scenario = spike
    network = FabricNetwork(config, [CounterContract()])
    assert not network.conditions.fixed
    network.run([TxRequest(0.0, "get", ("ctr:0000",), "counter")])
    [tx] = network.ledger.transactions(include_config=False)
    assert tx.endorse_time == timing.client_per_tx + 4.0 * timing.network_delay
