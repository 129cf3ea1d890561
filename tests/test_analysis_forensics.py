"""The failure-forensics layer (repro.analysis).

Covers the abort-cause classification, the report structure (taxonomy
counts, hot-key/key-family attribution, per-org breakdown, time buckets
aligned with the scenario timeline), JSON round trips and digests, the
text renderer, the bench wiring (forensics cached with outcomes, the
``failure_forensics`` sweep showing a mitigation reducing the MVCC abort
rate at identical seed), and the ``repro analyze --cached`` CLI path.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    CAUSES,
    ForensicsReport,
    classify_transaction,
    forensics_report,
    render_cause_summary,
    render_forensics,
    report_digest,
)
from repro.bench.experiments import make_scenario, make_synthetic
from repro.fabric.network import run_workload
from repro.fabric.transaction import Transaction, TxStatus
from repro.scenario.library import get_scenario


def _tx(status, abort_stage=None, missing_reasons=(), conflict_key=None):
    return Transaction(
        tx_id="t",
        client_timestamp=0.0,
        activity="update",
        args=("key000001",),
        contract="c",
        invoker_client="Org1-client0",
        invoker_org="Org1",
        status=status,
        abort_stage=abort_stage,
        missing_reasons=missing_reasons,
        conflict_key=conflict_key,
    )


def _partial_outage_network(txs=800):
    config, family, requests = make_synthetic(
        "default", seed=7, total_transactions=txs
    )()
    config.scenario = get_scenario("partial_outage")
    return run_workload(config, family.deploy().contracts, requests)


class TestClassification:
    def test_success_and_pending_are_not_failures(self):
        assert classify_transaction(_tx(TxStatus.SUCCESS)) is None
        assert classify_transaction(_tx(None)) is None

    @pytest.mark.parametrize(
        "status, stage, reasons, expected",
        [
            (TxStatus.MVCC_CONFLICT, None, (), "mvcc_conflict"),
            (TxStatus.PHANTOM_CONFLICT, None, (), "phantom_conflict"),
            (TxStatus.ENDORSEMENT_FAILURE, None, ("timeout",), "policy_endorsement_timeout"),
            (TxStatus.ENDORSEMENT_FAILURE, None, ("crashed",), "policy_crashed_peer"),
            # Timeout dominates: the client spent the full endorsement
            # window on it, so it decided the transaction's fate.
            (
                TxStatus.ENDORSEMENT_FAILURE,
                None,
                ("crashed", "timeout"),
                "policy_endorsement_timeout",
            ),
            (TxStatus.ENDORSEMENT_FAILURE, None, (), "policy_unsatisfied"),
            (TxStatus.EARLY_ABORT, "endorsement", (), "early_abort_chaincode"),
            (TxStatus.EARLY_ABORT, "ordering", (), "early_abort_scheduler"),
            (TxStatus.EARLY_ABORT, "stale_read", (), "early_abort_stale_read"),
        ],
    )
    def test_taxonomy(self, status, stage, reasons, expected):
        tx = _tx(status, abort_stage=stage, missing_reasons=reasons)
        assert classify_transaction(tx) == expected
        assert expected in CAUSES


class TestReport:
    @pytest.fixture(scope="class")
    def outage(self):
        network, result = _partial_outage_network()
        return network, result, forensics_report(network)

    def test_attributes_at_least_four_distinct_causes(self, outage):
        _, _, report = outage
        assert len(report.distinct_causes()) >= 4

    def test_totals_reconcile(self, outage):
        network, result, report = outage
        assert report.total_issued == result.total_issued
        assert report.successes == result.success_count
        assert report.failures == sum(report.cause_counts.values())
        assert report.successes + report.failures == report.total_issued

    def test_buckets_cover_every_transaction(self, outage):
        _, _, report = outage
        assert sum(bucket.issued for bucket in report.buckets) == report.total_issued
        assert sum(bucket.failed for bucket in report.buckets) == report.failures
        for bucket in report.buckets:
            assert sum(bucket.causes.values()) == bucket.failed
            assert 0.0 <= bucket.failure_rate <= 1.0

    def test_timeline_spans_the_bucket_series(self, outage):
        network, _, report = outage
        assert report.scenario == "partial_outage"
        assert report.timeline  # the scenario fired
        assert report.timeline == sorted(report.timeline, key=lambda e: (e[0], e[1]))
        # Interventions fire inside the submit-time span of the series.
        assert report.buckets[0].start <= report.timeline[0][0] <= report.buckets[-1].end

    def test_org_attribution_matches_missing_endorsements(self, outage):
        network, _, report = outage
        expected: dict[str, int] = {}
        for tx in list(network.ledger.transactions(include_config=False)) + network.aborted:
            if tx.status is TxStatus.ENDORSEMENT_FAILURE:
                for org in tx.missing_endorsements:
                    expected[org] = expected.get(org, 0) + 1
        assert report.org_policy_failures == dict(sorted(expected.items()))

    def test_hot_keys_and_families(self):
        # The conflict storm funnels update conflicts onto few hot keys.
        config, family, requests = make_synthetic(
            "workload_update_heavy", seed=7, total_transactions=600
        )()
        config.scenario = get_scenario("conflict_storm")
        network, _ = run_workload(config, family.deploy().contracts, requests)
        report = forensics_report(network)
        assert report.hot_keys
        top_key, top_count = report.hot_keys[0]
        assert top_count >= report.hot_keys[-1][1]
        assert report.key_families and report.key_families[0][0] == "key"
        assert sum(count for _, count in report.key_families) >= top_count

    def test_dict_round_trip_and_digest(self, outage):
        _, _, report = outage
        clone = ForensicsReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert report_digest(clone) == report_digest(report)
        assert len(report_digest(report)) == 64
        with pytest.raises(ValueError):
            ForensicsReport.from_dict({"scenario": None})

    def test_bucket_count_validated(self, outage):
        network, _, _ = outage
        with pytest.raises(ValueError):
            forensics_report(network, buckets=0)
        single = forensics_report(network, buckets=1)
        assert len(single.buckets) == 1

    def test_steady_state_run_has_no_timeline(self):
        config, family, requests = make_synthetic(
            "default", seed=7, total_transactions=300
        )()
        network, _ = run_workload(config, family.deploy().contracts, requests)
        report = forensics_report(network)
        assert report.scenario is None
        assert report.timeline == []
        assert report.retry.resubmissions == 0


class TestRenderer:
    def test_full_report_sections(self):
        network, _ = _partial_outage_network(txs=600)
        text = render_forensics(forensics_report(network), title="t")
        assert "abort causes" in text
        assert "policy_endorsement_timeout" in text
        assert "missing endorsements by organization" in text
        assert "failure rate over time" in text
        assert "peer_crash" in text  # timeline inlined into the series
        # Accepts the dict form too, identically.
        assert render_forensics(forensics_report(network).to_dict(), title="t") == text

    def test_cause_summary(self):
        network, _ = _partial_outage_network(txs=600)
        summary = render_cause_summary(forensics_report(network))
        assert "policy_crashed_peer=" in summary

    def test_no_failures_renders_cleanly(self):
        config, family, requests = make_synthetic(
            "send_rate_50", seed=7, total_transactions=120
        )()
        network, _ = run_workload(config, family.deploy().contracts, requests)
        report = forensics_report(network)
        if report.failures == 0:
            assert "(no failures)" in render_forensics(report)
            assert render_cause_summary(report) == "no failures"


class TestBenchWiring:
    def test_failure_forensics_sweep_mitigation_beats_baseline(self):
        """Acceptance: at identical seed, at least one mitigation cell of
        the ``failure_forensics`` sweep measurably reduces the MVCC abort
        rate versus its no-mitigation baseline."""
        from repro.bench.registry import get

        baseline_spec = get("failure_forensics/conflict_storm__none")
        mitigated_spec = get("failure_forensics/conflict_storm__early_abort")
        assert baseline_spec.seed == mitigated_spec.seed

        def baseline_report(spec):
            bundle = spec.with_overrides(total_transactions=600).make_bundle()()
            config, family, requests = bundle
            network, _ = run_workload(config, family.deploy().contracts, requests)
            return forensics_report(network)

        plain = baseline_report(baseline_spec)
        mitigated = baseline_report(mitigated_spec)
        assert mitigated.mvcc_abort_rate < plain.mvcc_abort_rate
        assert (
            mitigated.cause_counts["mvcc_conflict"] < plain.cause_counts["mvcc_conflict"]
        )

    def test_forensics_none_cell_is_bit_identical_to_plain_scenario(self):
        """The sweep's baseline cell reproduces the unmitigated run."""
        from repro.scenario.engine import run_digest

        config, family, requests = make_scenario(
            "workload_update_heavy",
            "conflict_storm",
            mitigation="none",
            retry_attempts=1,
            total_transactions=400,
        )()
        network, _ = run_workload(config, family.deploy().contracts, requests)

        plain_config, plain_family, plain_requests = make_synthetic(
            "workload_update_heavy", seed=7, total_transactions=400
        )()
        plain_config.scenario = get_scenario("conflict_storm")
        plain_network, _ = run_workload(
            plain_config, plain_family.deploy().contracts, plain_requests
        )
        assert run_digest(network) == run_digest(plain_network)

    def test_outcomes_cache_forensics(self, tmp_path):
        from repro.bench.cache import ResultCache
        from repro.bench.executor import run_suite
        from repro.bench.registry import get

        spec = get("failure_forensics/partial_outage__retry").with_overrides(
            total_transactions=300
        )
        cache = ResultCache(tmp_path)
        cold = run_suite([spec], jobs=1, cache=cache)
        warm = run_suite([spec], jobs=1, cache=cache)
        assert warm.simulated_runs == 0
        assert warm.outcomes[0].forensics == cold.outcomes[0].forensics
        report = ForensicsReport.from_dict(warm.outcomes[0].forensics[0])
        assert report.retry.resubmissions > 0

    def test_cli_analyze_cached_renders_forensics(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "analyze",
                "--cached",
                "scenario_faults/partial_outage",
                "--txs",
                "400",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "failure forensics" in out
        assert "abort causes" in out
        # Warm path: served from cache, same report.
        code = main(
            [
                "analyze",
                "--cached",
                "scenario_faults/partial_outage",
                "--txs",
                "400",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        warm_out = capsys.readouterr().out
        assert code == 0
        assert "[cache]" in warm_out

    def test_cli_analyze_cache_only_miss_is_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "analyze",
                "--cached",
                "scenario_faults/partial_outage",
                "--txs",
                "400",
                "--cache-dir",
                str(tmp_path),
                "--cache-only",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "no cache entry" in captured.err
        assert "Traceback" not in captured.err

    def test_cli_analyze_cached_schema_mismatch_is_clean_error(
        self, tmp_path, capsys
    ):
        import json

        from repro.bench.cache import ResultCache
        from repro.bench.registry import get
        from repro.cli import main

        argv = [
            "analyze",
            "--cached",
            "scenario_faults/partial_outage",
            "--txs",
            "400",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Corrupt the stored forensics payloads the way an incompatible
        # writer would: entries present but missing every expected field.
        spec = get("scenario_faults/partial_outage").with_overrides(
            total_transactions=400
        )
        path = ResultCache(tmp_path).path(spec)
        record = json.loads(path.read_text())
        record["outcome"]["forensics"] = [
            {"bogus": True} for _ in record["outcome"]["forensics"]
        ]
        path.write_text(json.dumps(record))

        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "schema-mismatched" in captured.err
        assert "Traceback" not in captured.err

    def test_cli_analyze_argument_validation(self, capsys):
        from repro.cli import main

        assert main(["analyze"]) == 2
        assert main(["analyze", "log.csv", "--cached", "x/y"]) == 2
        assert main(["analyze", "--cached", "no/such"]) == 2
        assert main(["analyze", "--cached", "scenario_faults/chaos", "--txs", "0"]) == 2
        capsys.readouterr()

    def test_cli_scenario_with_mitigation_and_retry(self, capsys):
        from repro.cli import main

        code = main(
            [
                "scenario",
                "--name",
                "partial_outage",
                "--txs",
                "400",
                "--mitigation",
                "early_abort",
                "--retry",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "with mitigation" in out
        assert "with early_abort + retry(2):" in out
        assert "resubmissions" in out

    def test_cli_scenario_rejects_bad_retry(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--txs", "100", "--retry", "0"]) == 2
        capsys.readouterr()
