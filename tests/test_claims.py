"""The paper's claims as data (``repro.bench.claims``), with no simulation:
the rows are checked against the registry, the evaluator runs on
hand-built outcomes and ``suite`` on a stubbed executor."""

import pytest

from repro.bench.claims import CLAIMS, OPS, PRIMARY, check_claims, jaccard, report_lines
from repro.bench.executor import SuiteReport
from repro.bench.experiments import TABLE3_EXPECTED
from repro.bench.harness import ExperimentOutcome, RunRow
from repro.bench.registry import select
from repro.cli import main
from repro.core.recommendations import OptimizationKind

(VOTING,) = select(["fig16"])
TABLE3 = select(["table3"])


def _outcome(spec, rows, recommended=()):
    """An outcome of ``spec`` with ``rows[label] = (tput, lat, succ%)``."""
    labels = ["without", *(label for label, _ in spec.plans)]
    rows = [RunRow(label, *rows[label]) for label in labels]
    return ExperimentOutcome(spec.title, rows, sorted(recommended))


def _voting(alteration_success):
    rows = {
        "without": (10.0, 5.0, 10.0),
        "transaction rate control": (10.0, 4.0, 12.0),
        "data model alteration": (50.0, 4.0, alteration_success),
        "all": (45.0, 3.0, 100.0),
    }
    return _outcome(VOTING, rows, ["data_model_alteration"])


def _table3(misses):
    """Table 3 outcomes that recommend the paper's set, but for the first
    ``misses``, which recommend nothing."""
    return [
        _outcome(
            spec,
            {"without": (1.0, 1.0, 1.0)},
            [] if index < misses else [k.value for k in TABLE3_EXPECTED[spec.variant]],
        )
        for index, spec in enumerate(TABLE3)
    ]


def _verdicts(specs, outcomes):
    return {verdict.claim.name: verdict for verdict in check_claims(specs, outcomes)}


class TestClaimData:
    def test_every_selector_matches_registry_specs(self):
        for claim in CLAIMS:
            assert select(claim.experiments.split(",")), claim.name

    def test_every_row_label_is_without_or_a_plan_label(self):
        for claim in CLAIMS:
            named = {label for label in (claim.row, claim.ref) if isinstance(label, str)}
            for spec in select(claim.experiments.split(",")):
                labels = {"", "without", *(label for label, _ in spec.plans)}
                assert named <= labels, (claim.name, spec.exp_id)

    def test_every_kind_is_an_optimization_kind(self):
        kinds = {kind.value for kind in OptimizationKind}
        assert {claim.kind for claim in CLAIMS} <= kinds | {"", "primary"}
        assert set(PRIMARY.values()) <= kinds

    def test_names_ops_metrics_and_budgets_are_well_formed(self):
        assert len({claim.name for claim in CLAIMS}) == len(CLAIMS)
        metrics = ("throughput", "latency", "success_pct", "mean_jaccard")
        for claim in CLAIMS:
            assert claim.op in OPS and claim.metric in metrics, claim.name
            assert claim.min_txs in (800, 2000, 4000), claim.name


class TestEvaluator:
    def test_names_a_failed_claim_with_its_experiment_and_numbers(self):
        verdicts = _verdicts([VOTING], [_voting(alteration_success=50.0)])
        assert report_lines(list(verdicts.values())) == [
            "claim failed: fig16 alteration reaches 99% success: "
            "fig16_voting/voting: 50.00 >= 99.00 is false",
            "claims: 5 hold, 1 fail, 0 not checked",
        ]

    def test_counts_quorum_misses(self):
        primary = "table3 primary recommendation (2 misses)"
        agreement = "table3 mean Jaccard above 0.5"
        verdicts = _verdicts(TABLE3, _table3(misses=2))
        assert verdicts[primary].status == verdicts[agreement].status == "holds"
        verdicts = _verdicts(TABLE3, _table3(misses=3))
        assert verdicts[primary].detail == (
            "table3/endorsement_policy_p1: endorser_restructuring in [] is false "
            "(3 misses, 2 allowed)"
        )
        assert verdicts[agreement].status == "holds"  # mean Jaccard 12 / 15
        assert jaccard("num_orgs_4", ["transaction_rate_control", "delta_writes"]) == 0.5

    def test_not_checked_below_min_txs(self):
        spec = select(["fig08"])[0].with_overrides(total_transactions=2000)
        rows = {"without": (100.0, 3.0, 60.0), "client resource boost": (100.0, 1.0, 50.0)}
        verdicts = _verdicts([spec], [_outcome(spec, rows, ["client_resource_boost"])])
        assert verdicts["fig08 boost keeps success"].status == "not checked"
        assert verdicts["fig08 boost cuts latency"].status == "holds"

    def test_not_checked_at_a_derived_seed(self):
        spec = VOTING.with_overrides(seed=3)
        verdicts = _verdicts([spec], [_voting(alteration_success=50.0)])
        assert {v.status for v in verdicts.values()} == {"not checked"}

    def test_not_checked_for_an_incomplete_group(self):
        verdicts = _verdicts(TABLE3[:1], _table3(misses=1)[:1])
        (counts,) = report_lines(list(verdicts.values()))
        assert counts == "claims: 0 hold, 0 fail, 2 not checked"

    def test_a_selection_no_claim_covers_reports_nothing(self):
        (spec,) = select(["scenario_faults/crash_burst"])
        assert check_claims([spec], [_voting(alteration_success=50.0)]) == []
        assert report_lines([]) == []


@pytest.mark.parametrize("success, status", [(100.0, 0), (50.0, 1)])
def test_suite_exits_1_when_a_checked_claim_fails(monkeypatch, capsys, success, status):
    def fake_run_suite(specs, jobs=1, cache=None, progress=None):
        return SuiteReport(outcomes=[_voting(success) for _ in specs])

    monkeypatch.setattr("repro.bench.executor.run_suite", fake_run_suite)
    assert main(["suite", "--only", "fig16", "--no-cache", "--quiet"]) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("claims: ") and lines[-1].startswith("suite: ")
    assert sum(line.startswith("claim failed: ") for line in lines) == status
