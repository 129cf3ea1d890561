"""The SLO-guardian control subsystem (ISSUE 10).

Covers the control package units (bounds, monitor, timeline, spec,
policies), the live actuation seams (satellite 1), the shared
bounded-actuation envelope with the offline recommender (satellite 2),
and the determinism properties (satellite 3): controller-off runs are
byte-identical to pre-control builds, controller-on runs are
deterministic per (seed, policy, scenario) across replays and across
the batch and streamed run modes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.experiments import make_synthetic
from repro.control import (
    ActuationError,
    ControlAction,
    ControlDecision,
    ControlSpec,
    ControlTimeline,
    ControllerState,
    GuardianPolicy,
    NoopPolicy,
    SLOTargets,
    WindowedMonitor,
    clamp_actuation,
    make_policy,
    render_control_timeline,
    validate_actuation,
)
from repro.control.monitor import WindowObservables, quantile
from repro.fabric.conditions import NetworkConditions
from repro.fabric.config import NetworkConfig, TimingConfig
from repro.fabric.network import FabricNetwork, run_workload
from repro.fabric.retry import RetryPolicy
from repro.scenario import get_scenario, run_digest
from repro.scenario.spec import Intervention, ScenarioSpec


def _bundle(total: int = 300, seed: int = 7, retry: int = 2):
    config, family, requests = make_synthetic(
        "default", seed=seed, total_transactions=total
    )()
    if retry > 1:
        config.retry = RetryPolicy(max_attempts=retry)
    return config, family, requests


# -- bounds -------------------------------------------------------------------------


def test_clamp_actuation_clamps_into_the_envelope():
    assert clamp_actuation("block_count", 0.0) == (1, True)
    assert clamp_actuation("block_count", 10**9) == (10_000, True)
    assert clamp_actuation("block_count", 57.4) == (57, False)
    assert clamp_actuation("block_timeout", 1.5) == (1.5, False)
    value, clamped = clamp_actuation("send_rate_cap", 1e9)
    assert clamped and value == 100_000.0


def test_validate_actuation_rejects_out_of_envelope_and_unknown():
    validate_actuation("mitigation", "reorder")
    with pytest.raises(ActuationError):
        validate_actuation("mitigation", "yolo")
    with pytest.raises(ActuationError):
        validate_actuation("block_count", 0)
    with pytest.raises(ActuationError):
        clamp_actuation("no_such_actuator", 1.0)


# -- monitor ------------------------------------------------------------------------


def test_quantile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert quantile(values, 0.5) == 2.0
    assert quantile(values, 0.95) == 4.0
    assert quantile([7.0], 0.5) == 7.0


def test_monitor_windows_tumble_and_reset():
    monitor = WindowedMonitor()
    window = monitor.snapshot(1.0)
    assert window.submitted == 0 and window.abort_rate == 0.0
    assert window.index == 0 and window.start == 0.0 and window.end == 1.0
    second = monitor.snapshot(2.0)
    assert second.index == 1 and second.start == 1.0


def test_window_observables_roundtrip_dict():
    monitor = WindowedMonitor()
    window = monitor.snapshot(0.25)
    data = window.to_dict()
    assert json.loads(json.dumps(data)) == data


# -- timeline -----------------------------------------------------------------------


def _decision(time: float = 1.0) -> ControlDecision:
    return ControlDecision(
        time=time,
        rule="endorsement_pressure",
        observables={"abort_rate": 0.5},
        actions=(
            ControlAction(
                actuator="send_rate_cap", old=None, new=120.0, clamped=False
            ),
        ),
    )


def test_timeline_json_roundtrip_and_digest_stability():
    timeline = ControlTimeline(policy="guardian")
    timeline.ticks = 4
    timeline.record(_decision())
    clone = ControlTimeline.from_dict(json.loads(timeline.to_json()))
    assert clone.to_dict() == timeline.to_dict()
    assert clone.digest() == timeline.digest()
    other = ControlTimeline(policy="guardian")
    other.ticks = 4
    assert other.digest() != timeline.digest()


def test_render_control_timeline_mentions_rule_and_actuator():
    timeline = ControlTimeline(policy="guardian")
    timeline.record(_decision())
    text = render_control_timeline(timeline)
    assert "endorsement_pressure" in text and "send_rate_cap" in text
    assert timeline.digest()[:12] in text


# -- spec ---------------------------------------------------------------------------


def test_control_spec_validation():
    spec = ControlSpec(policy="guardian", interval=0.5, slo=SLOTargets(0.05, 2.0))
    assert spec.slo.max_p95_latency == 2.0
    with pytest.raises(ValueError):
        ControlSpec(policy="nope")
    with pytest.raises(ValueError):
        ControlSpec(interval=0.0)
    with pytest.raises(ValueError):
        SLOTargets(max_abort_rate=1.5)
    with pytest.raises(ValueError):
        NetworkConfig(control="guardian")  # type: ignore[arg-type]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_control_spec_rejects_non_finite_settings(value):
    # A NaN latency target compares false against every p95 and would
    # silently switch the latency rule off; a NaN interval ticks at "nan s".
    with pytest.raises(ValueError, match="must be finite"):
        ControlSpec(interval=value)
    with pytest.raises(ValueError, match="must be finite"):
        SLOTargets(max_p95_latency=value)
    with pytest.raises(ValueError, match="must be finite"):
        SLOTargets(max_abort_rate=value)


# -- policies -----------------------------------------------------------------------


def _window(**overrides) -> WindowObservables:
    base = dict(
        index=0,
        start=0.0,
        end=0.25,
        submitted=40,
        successes=10,
        aborted=30,
        abort_rate=0.75,
        causes={"policy_crashed_peer": 30},
        dominant_cause="policy_crashed_peer",
        retry_rate=0.0,
        hot_key_share=0.0,
        org_gaps={},
        p50_latency=0.5,
        p95_latency=1.0,
        throughput=40.0,
    )
    base.update(overrides)
    return WindowObservables(**base)


def _state(**overrides) -> ControllerState:
    base = dict(
        block_count=100, block_timeout=1.0, mitigation="none", send_rate_cap=None
    )
    base.update(overrides)
    return ControllerState(**base)


def test_guardian_throttles_on_endorsement_pressure():
    policy = GuardianPolicy(SLOTargets())
    (proposal,) = policy.decide(_window(), _state())
    assert proposal.rule == "endorsement_pressure"
    assert proposal.actuator == "send_rate_cap"
    # Success-weighted: 40 submitted over 0.25s, 75% aborting.
    assert proposal.value == pytest.approx(160.0 * 0.25)


def test_guardian_tightens_retries_before_the_cap_in_a_retry_storm():
    policy = GuardianPolicy(SLOTargets())
    (proposal,) = policy.decide(
        _window(retry_rate=0.5), _state(retry_max_attempts=3)
    )
    assert proposal.actuator == "retry_max_attempts" and proposal.value == 2


def test_guardian_reorders_then_throttles_on_conflict_pressure():
    policy = GuardianPolicy(SLOTargets())
    window = _window(
        causes={"mvcc_conflict": 30}, dominant_cause="mvcc_conflict"
    )
    (first,) = policy.decide(window, _state())
    assert first.actuator == "mitigation" and first.value == "reorder"
    (second,) = policy.decide(window, _state(mitigation="reorder"))
    assert second.rule == "conflict_pressure"
    assert second.actuator == "send_rate_cap"


def test_guardian_recovery_relaxes_then_clears_the_cap():
    policy = GuardianPolicy(SLOTargets())
    healthy = _window(submitted=4, aborted=0, successes=4, abort_rate=0.0)
    (relax,) = policy.decide(healthy, _state(send_rate_cap=10.0))
    assert relax.rule == "recovery"
    assert relax.value == pytest.approx(10.0 / GuardianPolicy.CAP_STEP)
    (clear,) = policy.decide(healthy, _state(send_rate_cap=100.0))
    assert clear.value is None


def test_guardian_holds_on_empty_windows_even_under_a_cap():
    # Zero completions is no evidence of health: clearing a cap on it
    # would flush the paced backlog into a fault still in progress.
    policy = GuardianPolicy(SLOTargets())
    empty = _window(submitted=0, aborted=0, successes=0, abort_rate=0.0, causes={},
                    dominant_cause=None, throughput=0.0)
    assert policy.decide(empty, _state(send_rate_cap=10.0)) == []


def test_noop_policy_never_actuates():
    assert NoopPolicy().decide(_window(), _state()) == []
    with pytest.raises(ValueError):
        make_policy("unknown", SLOTargets())


# -- satellite 1: the actuation seam ------------------------------------------------


def test_conditions_journal_attributes_every_writer():
    conditions = NetworkConditions(TimingConfig())
    conditions.set_delay_multiplier(4.0, source="scenario")
    conditions.set_send_rate_cap(50.0, source="control")
    conditions.set_send_rate_cap(None, source="control")
    assert conditions.journal == [
        ("scenario", "delay_multiplier", 1.0, 4.0),
        ("control", "send_rate_cap", None, 50.0),
        ("control", "send_rate_cap", 50.0, None),
    ]
    with pytest.raises(ValueError):
        conditions.set_send_rate_cap(-1.0)


def test_controller_throttle_composes_with_latency_spike():
    # A latency_spike scenario (scenario-engine writes) composed with the
    # guardian (controller writes) on one conditions seam: both sources
    # appear in the journal, the run is deterministic, and the last
    # writer in kernel order holds the final value.
    # A crashing peer gives the guardian something to throttle while the
    # spike exercises the scenario engine's writes on the same seam.
    spike = ScenarioSpec(
        name="spike",
        interventions=(
            Intervention(kind="latency_spike", at=0.5, duration=4.0, factor=8.0),
            Intervention(
                kind="peer_crash", at=0.5, duration=3.0, target="Org2-peer0"
            ),
        ),
    )

    def run_once():
        config, family, requests = _bundle(total=300)
        config.control = ControlSpec()
        config.scenario = spike
        return run_workload(config, family.deploy().contracts, requests)

    net_a, res_a = run_once()
    net_b, res_b = run_once()
    assert run_digest(net_a) == run_digest(net_b)
    assert net_a.conditions.journal == net_b.conditions.journal
    sources = {entry[0] for entry in net_a.conditions.journal}
    assert "scenario" in sources and "control" in sources
    final_cap = [
        entry[3] for entry in net_a.conditions.journal if entry[1] == "send_rate_cap"
    ][-1]
    assert net_a.conditions.send_rate_cap == final_cap


# -- satellite 2: one bounded-actuation envelope ------------------------------------


def test_offline_block_size_recommendation_clamps_through_the_envelope():
    from repro.core.apply import apply_recommendations
    from repro.core.recommendations import OptimizationKind, Recommendation

    config, family, requests = _bundle(total=50, retry=1)
    for runaway, expected in ((0, 1), (10**9, 10_000)):
        rec = Recommendation(
            kind=OptimizationKind.BLOCK_SIZE_ADAPTATION,
            rationale="regression: out-of-range rule output",
            actions={"block_count": runaway},
        )
        applied = apply_recommendations([rec], config, family, requests)
        assert applied.config.block_count == expected
        # __post_init__ re-validation accepted the clamped config.
        assert applied.config.block_count >= 1


# -- controller integration ---------------------------------------------------------


def test_noop_controller_run_is_byte_identical_to_controller_off():
    def run(spec):
        config, family, requests = _bundle(total=300)
        config.control = spec
        config.scenario = get_scenario("crash_burst")
        network = FabricNetwork(config, family.deploy().contracts)
        trace = network.kernel.enable_trace()
        network.run(requests)
        return run_digest(network), trace

    from repro.sim.kernel import CONTROL_PRIORITY

    off_digest, off_trace = run(None)
    noop_digest, noop_trace = run(ControlSpec(policy="noop"))
    assert noop_digest == off_digest
    # The noop controller's ticks ride the dedicated control lane — they
    # appear in the trace without perturbing any simulation outcome.
    assert not any(entry[1] == CONTROL_PRIORITY for entry in off_trace)
    assert any(entry[1] == CONTROL_PRIORITY for entry in noop_trace)


def test_guardian_reduces_aborts_on_crash_burst():
    config, family, requests = _bundle(total=600)
    config.scenario = get_scenario("crash_burst")
    _, off = run_workload(config, family.deploy().contracts, requests)
    config2, family2, requests2 = _bundle(total=600)
    config2.control = ControlSpec()
    config2.scenario = get_scenario("crash_burst")
    network, on = run_workload(config2, family2.deploy().contracts, requests2)
    assert on.success_rate > off.success_rate
    assert network.controller.timeline.decisions


def test_controller_state_seeds_from_the_live_network():
    config, family, requests = _bundle(total=40)
    config.control = ControlSpec(policy="noop")
    network = FabricNetwork(config, family.deploy().contracts)
    state = network.controller.state
    assert state.block_count == config.block_count
    assert state.block_timeout == config.block_timeout
    assert state.retry_max_attempts == config.retry.max_attempts
    assert state.send_rate_cap is None


def test_controller_state_reads_the_live_network():
    """No mirror: a value written on the network outside the controller
    is what the next state shows."""
    config, family, requests = _bundle(total=40)
    config.control = ControlSpec(policy="noop")
    network = FabricNetwork(config, family.deploy().contracts)
    network.orderer.block_count = 77
    network.orderer.block_timeout = 0.5
    network.set_mitigation("reorder")
    network.conditions.set_send_rate_cap(50.0, source="test")
    network.set_retry_policy(RetryPolicy(max_attempts=5))
    assert network.controller.state == ControllerState(
        block_count=77,
        block_timeout=0.5,
        mitigation="reorder",
        send_rate_cap=50.0,
        retry_max_attempts=5,
    )


@pytest.mark.parametrize(
    "actuator",
    [
        "block_count",
        "block_timeout",
        "mitigation",
        "send_rate_cap",
        "retry_max_attempts",
    ],
)
def test_a_proposal_equal_to_the_live_value_is_a_no_op(actuator):
    from types import SimpleNamespace

    from repro.control.policy import Proposal

    config, family, requests = _bundle(total=40)
    config.control = ControlSpec(policy="noop")
    network = FabricNetwork(config, family.deploy().contracts)
    controller = network.controller
    before = controller.state
    hold = Proposal(rule="hold", actuator=actuator, value=getattr(before, actuator))
    assert controller._apply(hold) is None
    controller.policy = SimpleNamespace(decide=lambda window, state: [hold])
    controller._tick()
    assert controller.timeline.ticks == 1
    assert controller.timeline.decisions == []
    assert controller.state == before
    assert network.conditions.journal == []


def test_unknown_actuator_raises_actuation_error():
    from repro.control.policy import Proposal

    config, family, requests = _bundle(total=40)
    config.control = ControlSpec(policy="noop")
    network = FabricNetwork(config, family.deploy().contracts)
    with pytest.raises(ActuationError):
        network.controller._apply(
            Proposal(rule="r", actuator="warp_drive", value=9000)
        )


# -- satellite 3: determinism properties --------------------------------------------


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=1, max_value=2**16),
    policy=st.sampled_from(["guardian", "noop"]),
    scenario=st.sampled_from(
        ["crash_burst", "conflict_storm", "flash_crowd_outage"]
    ),
)
def test_controller_on_is_deterministic_per_seed_policy_scenario(
    seed, policy, scenario
):
    import dataclasses

    from repro.analysis.forensics import (
        ForensicsAccumulator,
        forensics_report,
        report_digest,
    )
    from repro.logs.stream import RunStream
    from repro.scenario.engine import ScenarioEngine

    spec = get_scenario(scenario)

    def run():
        config, family, requests = _bundle(total=250, seed=seed)
        config.control = ControlSpec(policy=policy)
        config.scenario = spec
        network = FabricNetwork(config, family.deploy().contracts)
        trace = network.kernel.enable_trace()
        network.run(requests)
        return (
            tuple(trace),
            run_digest(network),
            network.controller.timeline.digest(),
            report_digest(forensics_report(network)),
        )

    def streamed():
        # Workload transforms need the whole request list, so they are
        # applied up front; only network interventions run live.
        config, family, requests = _bundle(total=250, seed=seed)
        config.control = ControlSpec(policy=policy)
        pre = ScenarioEngine(spec)
        ordered = sorted(
            pre.transform_requests(requests), key=lambda r: r.submit_time
        )
        network_ivs = tuple(spec.network_interventions())
        live = (
            dataclasses.replace(spec, interventions=network_ivs)
            if network_ivs
            else None
        )
        config.scenario = live
        stream = RunStream()
        forensics = ForensicsAccumulator()
        stream.add_transaction_consumer(forensics)
        network = FabricNetwork(config, family.deploy().contracts, stream=stream)
        network.run_streamed(ordered)
        timeline = list(pre.timeline)
        if network.scenario_engine is not None:
            timeline += network.scenario_engine.timeline
        report = forensics.finish(
            scenario=spec.name,
            mitigation=config.mitigation,
            timeline=sorted(timeline, key=lambda entry: (entry[0], entry[1])),
            resubmissions=network.retries_issued,
            recovered=network.retries_recovered,
            exhausted=network.retries_exhausted,
        )
        return network.controller.timeline.digest(), report_digest(report)

    reference = run()
    assert run() == reference, "controller-on replay diverged"
    assert streamed() == reference[2:], "streamed run diverged under the controller"
