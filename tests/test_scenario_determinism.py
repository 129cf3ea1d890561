"""Kernel determinism under scenarios (ISSUE 2, satellite 2).

Identical seed + scenario spec must yield an identical run: the same
kernel event trace event for event, the same ledger fingerprint, the same
`RunResult` numbers and the same applied-intervention timeline —
including under crash/recover interventions, whose whole point is to
perturb the middle of the run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.experiments import make_synthetic
from repro.fabric.network import FabricNetwork
from repro.scenario import get_scenario, run_digest, scenario_names


def _execute(scenario_name: str | None, seed: int, total: int = 350):
    config, family, requests = make_synthetic(
        "default", seed=seed, total_transactions=total
    )()
    config.scenario = get_scenario(scenario_name) if scenario_name else None
    network = FabricNetwork(config, family.deploy().contracts)
    trace = network.kernel.enable_trace()
    result = network.run(requests)
    return network, result, trace


def _result_fields(result) -> dict:
    """Every scalar/dict field of a RunResult (the ledger is fingerprinted
    separately by run_digest)."""
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "ledger"
    }


@pytest.mark.parametrize("scenario_name", [None, *scenario_names()])
def test_identical_seed_and_scenario_reproduce_the_run(scenario_name):
    net_a, res_a, trace_a = _execute(scenario_name, seed=11)
    net_b, res_b, trace_b = _execute(scenario_name, seed=11)

    assert trace_a == trace_b, "kernel event traces diverged"
    assert run_digest(net_a) == run_digest(net_b), "ledger outcomes diverged"
    assert _result_fields(res_a) == _result_fields(res_b)
    if scenario_name is not None:
        timeline_a = net_a.scenario_engine.timeline
        timeline_b = net_b.scenario_engine.timeline
        assert timeline_a == timeline_b and timeline_a


def test_every_library_scenario_is_behaviourally_distinct():
    # ISSUE 8 satellite: two library entries with the same run digest
    # would mean one of them (e.g. a fuzzer-promoted composition) is a
    # behavioural duplicate and should not have been added.
    digests = {}
    for name in scenario_names():
        network, _, _ = _execute(name, seed=11)
        digests.setdefault(run_digest(network), []).append(name)
    duplicates = {d: names for d, names in digests.items() if len(names) > 1}
    assert not duplicates, f"scenarios share a run digest: {duplicates}"


def test_different_seeds_actually_diverge():
    # Guards the test above against vacuous equality (e.g. the trace
    # accidentally recording nothing).
    _, _, trace_a = _execute("crash_burst", seed=11)
    _, _, trace_b = _execute("crash_burst", seed=12)
    assert trace_a and trace_b
    assert trace_a != trace_b


def test_interventions_fire_before_same_instant_workload_events():
    from repro.sim.kernel import INTERVENTION_PRIORITY, Kernel

    kernel = Kernel()
    order = []
    kernel.schedule(1.0, lambda: order.append("workload"))
    kernel.schedule_intervention(1.0, lambda: order.append("intervention"))
    trace = kernel.enable_trace()
    kernel.run()
    assert order == ["intervention", "workload"]
    assert [priority for _, priority, _ in trace] == [INTERVENTION_PRIORITY, 0]


def test_scenario_runs_are_deterministic_across_process_boundaries(tmp_path):
    # The executor ships scenario specs to worker processes by name;
    # serial in-process and pool results must match bit for bit.
    from repro.bench.executor import run_spec, run_suite
    from repro.bench.registry import get

    spec = get("scenario_faults/crash_recover").with_overrides(total_transactions=300)
    serial = run_spec(spec)
    parallel = run_suite([spec], jobs=2, cache=None)
    assert parallel.outcomes[0].rows == serial.rows
