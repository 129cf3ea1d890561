"""Scenario engine: spec DSL, interventions, transforms, bench + CLI paths."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.bench.experiments import make_synthetic
from repro.fabric.network import FabricNetwork, run_workload
from repro.scenario import Intervention, ScenarioSpec, get_scenario, scenario_names
from repro.workloads.schedule import compress_window, piecewise_rate_times

from tests.conftest import CounterContract, caused, counter_requests, small_config


def _bundle(total=400, experiment="default"):
    config, family, requests = make_synthetic(
        experiment, total_transactions=total
    )()
    return config, family.deploy().contracts, requests


def _run(scenario=None, total=400, experiment="default"):
    config, contracts, requests = _bundle(total, experiment)
    config.scenario = scenario
    return run_workload(config, contracts, requests)


# -- spec validation and serialization -------------------------------------------------


class TestScenarioSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown intervention kind"):
            Intervention(kind="meteor_strike", at=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Intervention(kind="peer_crash", at=-0.5)

    def test_windowed_kinds_require_duration(self):
        with pytest.raises(ValueError, match="requires a duration"):
            Intervention(kind="burst_arrivals", at=1.0, factor=2.0)
        with pytest.raises(ValueError, match="requires a duration"):
            Intervention(kind="conflict_storm", at=1.0)

    def test_burst_factor_must_exceed_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            Intervention(kind="burst_arrivals", at=0.0, duration=1.0, factor=1.0)

    def test_conflict_storm_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            Intervention(kind="conflict_storm", at=0.0, duration=1.0, fraction=0.0)
        with pytest.raises(ValueError, match="fraction"):
            Intervention(kind="conflict_storm", at=0.0, duration=1.0, fraction=1.5)

    def test_scenario_needs_interventions(self):
        with pytest.raises(ValueError, match="no interventions"):
            ScenarioSpec(name="empty")

    def test_every_library_scenario_round_trips_through_json(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_to_dict_omits_fields_irrelevant_to_the_kind(self):
        # Dumps double as authoring templates: a crash must not advertise
        # factor/fraction/hot_keys/activity, which do nothing for it.
        crash = Intervention(kind="peer_crash", at=0.5, target="Org1-peer0").to_dict()
        assert set(crash) == {"kind", "at", "target"}
        spike = Intervention(kind="latency_spike", at=1.0, duration=2.0, factor=5.0)
        assert set(spike.to_dict()) == {"kind", "at", "duration", "factor"}
        storm = Intervention(kind="conflict_storm", at=0.0, duration=1.0).to_dict()
        assert {"fraction", "hot_keys", "activity"} <= set(storm)
        assert "target" not in storm

    def test_from_dict_reports_missing_fields(self):
        with pytest.raises(ValueError, match="missing field"):
            ScenarioSpec.from_dict({"name": "x"})
        with pytest.raises(ValueError, match="malformed"):
            ScenarioSpec.from_dict(
                {"name": "x", "interventions": [{"kind": "peer_crash", "when": 1}]}
            )

    def test_unknown_library_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_intervention_partition(self):
        spec = get_scenario("chaos")
        network = {iv.kind for iv in spec.network_interventions()}
        workload = {iv.kind for iv in spec.workload_interventions()}
        assert not network & workload
        assert len(spec.network_interventions()) + len(
            spec.workload_interventions()
        ) == len(spec.interventions)


class TestSpecValidationHardening:
    """Parse-time rejection of degenerate values (ISSUE 8, satellite 1).

    NaN comparisons are always false, so ``at < 0``-style checks silently
    accept NaN unless finiteness is checked first — and a NaN timestamp
    would wedge the kernel heap's tuple ordering mid-run.  The fuzzer
    relies on every one of these being caught at construction time.
    """

    def test_nan_and_inf_times_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                Intervention(kind="peer_crash", at=bad, target="Org1")

    def test_nan_and_inf_durations_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                Intervention(kind="latency_spike", at=0.0, duration=bad, factor=2.0)

    def test_nan_factor_and_fraction_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Intervention(
                kind="latency_spike", at=0.0, duration=1.0, factor=float("nan")
            )
        with pytest.raises(ValueError, match="finite"):
            Intervention(
                kind="conflict_storm", at=0.0, duration=1.0, fraction=float("nan")
            )

    def test_out_of_range_factor_rejected(self):
        with pytest.raises(ValueError, match="must be <="):
            Intervention(kind="latency_spike", at=0.0, duration=1.0, factor=1e6)

    def test_profile_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at offset 0.0"):
            Intervention(kind="rate_curve", at=0.0, profile=((0.5, 100.0),))

    def test_unordered_profile_breakpoints_rejected(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Intervention(
                kind="rate_curve",
                at=0.0,
                profile=((0.0, 100.0), (2.0, 50.0), (1.0, 200.0)),
            )

    def test_profile_rates_must_be_positive_finite_and_bounded(self):
        with pytest.raises(ValueError, match="positive"):
            Intervention(kind="rate_curve", at=0.0, profile=((0.0, 0.0),))
        with pytest.raises(ValueError, match="finite"):
            Intervention(kind="rate_curve", at=0.0, profile=((0.0, float("nan")),))
        with pytest.raises(ValueError, match="must be <="):
            Intervention(kind="rate_curve", at=0.0, profile=((0.0, 1e9),))

    def test_profile_rejected_on_other_kinds(self):
        with pytest.raises(ValueError, match="does not take a rate profile"):
            Intervention(
                kind="latency_spike",
                at=0.0,
                duration=1.0,
                factor=2.0,
                profile=((0.0, 100.0),),
            )

    def test_region_lag_requires_an_org_target(self):
        with pytest.raises(ValueError, match="organization target"):
            Intervention(kind="region_lag", at=0.0, duration=1.0, factor=2.0)

    def test_hot_key_drift_needs_two_phases(self):
        with pytest.raises(ValueError, match=">= 2 phases"):
            Intervention(
                kind="hot_key_drift", at=0.0, duration=1.0, phases=1
            )

    def test_mix_shift_activity_membership(self):
        with pytest.raises(ValueError, match="from_activity"):
            Intervention(
                kind="mix_shift", at=0.0, duration=1.0, from_activity="meteor"
            )
        # write requires a value argument, so a shift *onto* write would
        # produce invalid single-arg requests — rejected at parse time.
        with pytest.raises(ValueError, match="to_activity"):
            Intervention(
                kind="mix_shift", at=0.0, duration=1.0, to_activity="write"
            )
        with pytest.raises(ValueError, match="must change the activity"):
            Intervention(
                kind="mix_shift",
                at=0.0,
                duration=1.0,
                from_activity="read",
                to_activity="read",
            )

    def test_new_kinds_round_trip_json(self):
        spec = ScenarioSpec(
            name="new_kinds",
            interventions=(
                Intervention(
                    kind="rate_curve",
                    at=0.2,
                    profile=((0.0, 500.0), (1.0, 100.0), (2.5, 900.0)),
                ),
                Intervention(
                    kind="hot_key_drift",
                    at=0.1,
                    duration=2.0,
                    fraction=0.5,
                    hot_keys=3,
                    activity="update",
                    phases=3,
                ),
                Intervention(
                    kind="mix_shift",
                    at=0.3,
                    duration=1.0,
                    fraction=0.75,
                    from_activity="write",
                    to_activity="read",
                ),
                Intervention(
                    kind="region_lag", at=0.4, duration=1.0, target="Org2", factor=5.0
                ),
            ),
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        for iv in spec.interventions:
            assert iv.describe()


# -- kernel-scheduled interventions ----------------------------------------------------


class TestNetworkInterventions:
    def test_crash_causes_endorsement_failures_until_recovery(self):
        base_network, _ = _run()
        crash = ScenarioSpec(
            name="crash",
            interventions=(
                Intervention(kind="peer_crash", at=0.2, duration=0.5, target="Org1-peer0"),
            ),
        )
        network, result = _run(crash)
        assert caused(base_network, "policy_") == 0
        assert caused(network, "policy_") > 0
        # Recovery happened: transactions after the window still succeed.
        assert result.success_count > 0
        kinds = [kind for _, kind, _ in network.scenario_engine.timeline]
        assert kinds == ["peer_crash", "peer_recover"]

    def test_explicit_recover_matches_auto_recover(self):
        auto = ScenarioSpec(
            name="auto",
            interventions=(
                Intervention(kind="peer_crash", at=0.2, duration=0.5, target="Org2-peer0"),
            ),
        )
        explicit = ScenarioSpec(
            name="explicit",
            interventions=(
                Intervention(kind="peer_crash", at=0.2, target="Org2-peer0"),
                Intervention(kind="peer_recover", at=0.7, target="Org2-peer0"),
            ),
        )
        net_a, a = _run(auto)
        net_b, b = _run(explicit)
        assert a.summary_row() == b.summary_row()
        assert net_a.outcomes.cause_counts == net_b.outcomes.cause_counts

    def test_endorser_slowdown_raises_latency_and_restores(self):
        _, baseline = _run()
        slow = ScenarioSpec(
            name="slow",
            interventions=(
                Intervention(
                    kind="endorser_slowdown", at=0.2, duration=1.0, target="Org1", factor=8.0
                ),
            ),
        )
        network, result = _run(slow)
        assert result.avg_latency > baseline.avg_latency
        # The multiplier is restored after the window.
        for peer in network.endorsers.peers("Org1"):
            assert peer.service_multiplier == 1.0

    def test_latency_spike_raises_latency_and_restores(self):
        _, baseline = _run()
        spike = ScenarioSpec(
            name="spike",
            interventions=(
                Intervention(kind="latency_spike", at=0.2, duration=1.0, factor=200.0),
            ),
        )
        network, result = _run(spike)
        assert result.avg_latency > baseline.avg_latency
        assert network.conditions.delay_multiplier == 1.0

    def test_orderer_degradation_raises_latency(self):
        _, baseline = _run()
        degraded = ScenarioSpec(
            name="degraded",
            interventions=(
                Intervention(kind="orderer_degradation", at=0.2, duration=1.5, factor=6.0),
            ),
        )
        network, result = _run(degraded)
        assert result.avg_latency > baseline.avg_latency
        assert network.orderer.server.service_multiplier == 1.0

    def test_permanent_crash_of_all_peers_fails_everything_submitted(self):
        dead = ScenarioSpec(
            name="dead",
            interventions=(Intervention(kind="peer_crash", at=0.0),),
        )
        network, result = _run(dead)
        assert result.success_count == 0
        assert caused(network, "policy_") > 0

    def test_unknown_target_raises_at_install_time(self):
        config, contracts, requests = _bundle()
        bad = ScenarioSpec(
            name="bad",
            interventions=(
                Intervention(kind="peer_crash", at=0.5, target="Org9-peer3"),
            ),
        )
        config.scenario = bad
        with pytest.raises(KeyError, match="unknown endorser target"):
            FabricNetwork(config, contracts)

    def test_accounting_survives_interventions(self):
        # run() raises on any transaction-accounting mismatch, so a clean
        # return under chaos means nothing was lost or double counted.
        _, result = _run(get_scenario("chaos"), total=600)
        assert result.total_issued == 600

    def test_disabled_peer_not_selected_while_sibling_up(self):
        config = small_config(seed=3)
        config.orgs[0].endorsers_per_org = 2
        contract = CounterContract()
        network = FabricNetwork(config, [contract])
        crashed, healthy = network.endorsers.peers("Org1")
        crashed.enabled = False
        result = network.run(counter_requests(count=60, rate=200.0))
        assert crashed.stats.jobs == 0
        assert healthy.stats.jobs > 0
        assert caused(network, "policy_") == 0
        assert result.success_count > 0


# -- workload transforms ---------------------------------------------------------------


class TestWorkloadTransforms:
    def test_compress_window_preserves_count_and_order(self):
        config, contracts, requests = _bundle()
        squeezed = compress_window(requests, start=0.5, duration=0.6, factor=3.0)
        assert len(squeezed) == len(requests)
        times = [r.submit_time for r in squeezed]
        assert times == sorted(times)
        for before, after in zip(requests, squeezed):
            if 0.5 <= before.submit_time < 1.1:
                assert after.submit_time == pytest.approx(
                    0.5 + (before.submit_time - 0.5) / 3.0
                )
            else:
                assert after.submit_time == before.submit_time
            assert (after.activity, after.args) == (before.activity, before.args)

    def test_compress_window_validation(self):
        with pytest.raises(ValueError, match="duration"):
            compress_window([], start=0.0, duration=0.0, factor=2.0)
        with pytest.raises(ValueError, match="factor"):
            compress_window([], start=0.0, duration=1.0, factor=1.0)

    def test_burst_raises_peak_pressure(self):
        _, baseline = _run()
        burst = ScenarioSpec(
            name="burst",
            interventions=(
                Intervention(kind="burst_arrivals", at=0.2, duration=0.8, factor=4.0),
            ),
        )
        _, result = _run(burst)
        # Compressing arrivals can only hold or worsen latency.
        assert result.avg_latency >= baseline.avg_latency

    def test_conflict_storm_inflates_mvcc_conflicts(self):
        base_network, _ = _run(experiment="workload_update_heavy")
        storm = ScenarioSpec(
            name="storm",
            interventions=(
                Intervention(
                    kind="conflict_storm",
                    at=0.0,
                    duration=2.0,
                    fraction=1.0,
                    hot_keys=2,
                ),
            ),
        )
        network, _ = _run(storm, experiment="workload_update_heavy")
        assert (
            network.outcomes.cause_counts["mvcc_conflict"]
            > base_network.outcomes.cause_counts["mvcc_conflict"]
        )

    def test_conflict_storm_retargets_requested_fraction(self):
        from repro.scenario.engine import _conflict_storm

        config, contracts, requests = _bundle(experiment="workload_update_heavy")
        iv = Intervention(
            kind="conflict_storm", at=0.0, duration=1.0, fraction=0.5, hot_keys=3
        )
        out, hit = _conflict_storm(requests, iv)
        assert len(out) == len(requests)
        in_window = [
            r for r in requests if r.activity == "update" and 0.0 <= r.submit_time < 1.0
        ]
        assert hit == pytest.approx(len(in_window) * 0.5, abs=1)
        retargeted_keys = {o.args[0] for r, o in zip(requests, out) if o.args != r.args}
        assert 0 < len(retargeted_keys) <= 3
        # Non-update requests are untouched.
        for before, after in zip(requests, out):
            if before.activity != "update":
                assert before.args == after.args

    def test_piecewise_rate_times_counts_and_extends(self):
        times = piecewise_rate_times(10, [(1.0, 5.0), (1.0, 2.0)])
        assert len(times) == 10
        assert times == sorted(times)
        assert times[:5] == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8])
        # Second segment (and its rate) extends past its nominal duration.
        assert times[5:] == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])

    def test_piecewise_rate_times_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            piecewise_rate_times(5, [])
        with pytest.raises(ValueError, match="duration"):
            piecewise_rate_times(5, [(0.0, 10.0)])
        with pytest.raises(ValueError, match="rate"):
            piecewise_rate_times(5, [(1.0, 0.0)])


# -- bench and CLI integration ---------------------------------------------------------


class TestScenarioBench:
    def test_make_scenario_takes_specs_as_well_as_names(self):
        from repro.bench.experiments import make_scenario
        from repro.control import ControlSpec, SLOTargets
        from repro.fabric.retry import RetryPolicy

        control = ControlSpec("guardian", 0.5, SLOTargets(max_abort_rate=0.2))
        by_spec = make_scenario(
            "default",
            get_scenario("crash_burst"),
            mitigation="reorder",
            retry_attempts=3,
            policy=control,
            total_transactions=100,
        )()
        by_name = make_scenario(
            "default", "crash_burst", policy="noop", total_transactions=100
        )()
        assert len(by_spec) == len(by_name) == 3
        spec_config, name_config = by_spec[0], by_name[0]
        # Every run setting rides on the bundle's config.
        assert spec_config.scenario == name_config.scenario == get_scenario("crash_burst")
        assert (spec_config.mitigation, name_config.mitigation) == ("reorder", "none")
        assert spec_config.retry == RetryPolicy(max_attempts=3)
        assert name_config.retry is None
        assert spec_config.control is control
        assert name_config.control == ControlSpec("noop")

    def test_plan_runs_stay_under_the_baseline_scenario(self):
        """A plan's config is a copy of the bundle's, scenario included, so
        the plan network installs the engine the baseline ran under."""
        from repro.bench.experiments import make_scenario
        from repro.bench.harness import run_plan
        from repro.core.apply import apply_recommendations
        from repro.core.recommendations import OptimizationKind, Recommendation

        bundle = make_scenario("default", "crash_burst", total_transactions=200)()
        resize = Recommendation(
            kind=OptimizationKind.BLOCK_SIZE_ADAPTATION,
            rationale="test",
            actions={"block_count": 50},
        )
        applied = apply_recommendations([resize], *bundle)
        assert applied.config is not bundle[0]
        assert applied.config.block_count == 50
        assert applied.config.scenario == bundle[0].scenario == get_scenario("crash_burst")
        network = FabricNetwork(applied.config, applied.deployment.contracts)
        assert network.scenario_engine.spec == get_scenario("crash_burst")
        _, forensics, _ = run_plan(bundle, ("block size", (resize,), False))
        assert forensics["scenario"] == "crash_burst"
        assert any(kind == "peer_crash" for _, kind, _ in forensics["timeline"])

    def test_make_scenario_rejects_a_policy_that_is_not_off_or_a_name(self):
        """Unquoted YAML ``off`` reaches the factory as False: it must fail
        when the factory is built, not as an AttributeError mid-run."""
        from repro.bench.experiments import make_scenario

        for policy in (False, None):
            with pytest.raises(ValueError, match=f"unknown control policy {policy!r}"):
                make_scenario("default", "crash_burst", policy=policy)

    def test_registry_exposes_scenario_group(self):
        from repro.bench.registry import select

        specs = select(["scenario_faults", "fuzzed"])
        # Every library scenario runs from the registry: the hand-written
        # ones under scenario_faults, the fuzzer-promoted ones under fuzzed.
        assert {spec.variant for spec in specs} >= set(scenario_names()) - {"chaos"}
        for spec in specs:
            assert spec.maker == "scenario"
            # Scenario name is part of the cache identity.
            assert dict(spec.payload()["maker_args"])["scenario"] == spec.variant

    def test_scenario_experiment_round_trips_executor_and_cache(self, tmp_path):
        from repro.bench.cache import ResultCache
        from repro.bench.executor import run_spec, run_suite
        from repro.bench.registry import get

        spec = get("scenario_faults/crash_burst").with_overrides(
            total_transactions=300
        )
        serial = run_spec(spec)
        cache = ResultCache(tmp_path)
        cold = run_suite([spec], jobs=2, cache=cache)
        assert cold.simulated_runs == spec.run_count()
        warm = run_suite([spec], jobs=2, cache=cache)
        assert warm.simulated_runs == 0
        assert cold.outcomes[0].rows == serial.rows == warm.outcomes[0].rows
        assert cold.outcomes[0].recommendations == serial.recommendations

    def test_scenario_baseline_differs_from_steady_state(self):
        from repro.bench.executor import run_spec
        from repro.bench.registry import get

        faulted = run_spec(
            get("scenario_faults/crash_burst").with_overrides(total_transactions=300)
        )
        # send_rate_300 is the default configuration spelled explicitly.
        steady = run_spec(
            get("table3/send_rate_300").with_overrides(total_transactions=300)
        )
        assert faulted.row("without") != steady.row("without")


class TestScenarioCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_dump_round_trips(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--dump", "crash_burst"]) == 0
        dumped = ScenarioSpec.from_json(capsys.readouterr().out)
        assert dumped == get_scenario("crash_burst")

    def test_run_with_determinism_check(self, capsys):
        from repro.cli import main

        rc = main(["scenario", "--txs", "300", "--check-determinism"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "determinism check (second run, same seed): identical" in out
        assert "under scenario" in out

    def test_run_from_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "storm.json"
        path.write_text(get_scenario("conflict_storm").to_json())
        rc = main(["scenario", "--spec", str(path), "--txs", "300"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflict_storm" in out

    def test_unknown_scenario_name_errors(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--name", "nope", "--txs", "100"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_spec_file_errors(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "interventions": []}))
        assert main(["scenario", "--spec", str(path), "--txs", "100"]) == 2

    def test_missing_spec_file_reports_filename(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "nope.json"
        assert main(["scenario", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nope.json" in err  # not a bare errno like "error: 2"

    def test_unknown_base_is_a_clean_error(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--base", "nope", "--txs", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown synthetic experiment" in err
        assert len(err.strip().splitlines()) == 1

    def test_guardian_row_replays_identically(self, capsys):
        from repro.cli import main

        argv = ["scenario", "--policy", "guardian", "--retry", "2", "--txs", "300"]
        rc = main(argv + ["--check-determinism"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "determinism check (second run, same seed): identical" in out
        assert "control timeline — policy guardian" in out
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("run "))
        assert [line[:16].strip() for line in lines[header + 1 : header + 5]] == [
            "steady-state",
            "under scenario",
            "with mitigation",
            "guardian on",
        ]

    def test_noop_row_equals_the_scenario_row(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--policy", "noop", "--txs", "300"]) == 0
        lines = capsys.readouterr().out.splitlines()

        def row(label):
            return next(line[16:] for line in lines if line.startswith(label))

        assert row("noop on") == row("under scenario")
        assert row("noop on") != row("steady-state")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--policy", "guardian", "--slo", "max_abort_rate"], "KEY=VALUE"),
            (["--policy", "guardian", "--slo", "bogus=1"], "max_abort_rate, max_p95"),
            (["--policy", "guardian", "--slo", "max_abort_rate=lots"], "needs a number"),
            (["--policy", "guardian", "--slo", "max_p95_latency=nan"], "must be finite"),
            (["--policy", "guardian", "--interval", "nan"], "must be finite"),
            (["--slo", "max_abort_rate=0.2"], "need --policy"),
            (["--interval", "0.5"], "need --policy"),
        ],
    )
    def test_bad_controller_flags_exit_2(self, flags, message, capsys):
        from repro.cli import main

        assert main(["scenario", "--txs", "100", *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""  # rejected before anything runs

    def test_check_determinism_names_what_diverged(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.scenario import fuzz

        real_execute = fuzz.execute
        calls = []

        def execute(*bundle):
            run = real_execute(*bundle)
            calls.append(run)
            # Rows are steady-state and under scenario; the third call replays.
            return dataclasses.replace(run, digest="0" * 64) if len(calls) > 2 else run

        monkeypatch.setattr(fuzz, "execute", execute)
        assert main(["scenario", "--txs", "300", "--check-determinism"]) == 1
        out = capsys.readouterr().out
        assert len(calls) == 3
        assert "determinism check (second run, same seed): DIVERGED" in out
        assert "  - run digests diverged: " in out
        assert "kernel event traces" not in out

    def test_divergences_compares_the_control_timeline_digest(self):
        from repro.scenario.fuzz import Execution, divergences

        first = Execution(
            network=None,
            result=None,
            digest="run",
            report=None,
            forensics_digest="forensics",
            control_digest="a" * 64,
            trace=((0.5, 0, 1),),
        )
        assert divergences(first, first) == []
        second = dataclasses.replace(first, control_digest="b" * 64)
        assert divergences(first, second) == [
            "control-timeline digests diverged across identical runs"
        ]
