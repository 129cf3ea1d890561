"""The run → analyze → optimize → re-run loop behind every figure.

The paper's protocol (Section 5): execute a workload without
optimizations, feed the ledger to BlockOptR, implement the recommended
optimizations (Table 4 settings), re-execute the same workload, and
compare success throughput, average latency and success rate.

The protocol is written once, as :func:`run_baseline`, :func:`run_plan`
and :func:`assemble_outcome`.  Serial :func:`execute_experiment` calls
them in turn; the parallel executor runs the first two as pool tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.contracts.registry import ContractFamily
from repro.core.apply import apply_recommendations
from repro.core.recommendations import OptimizationKind, Recommendation
from repro.core.recommender import AnalysisReport, BlockOptR
from repro.core.thresholds import Thresholds
from repro.fabric.config import NetworkConfig
from repro.fabric.network import run_workload
from repro.fabric.policy import parse_policy
from repro.fabric.results import RunResult
from repro.fabric.transaction import TxRequest
from repro.scenario.spec import ScenarioSpec

#: A factory producing one experiment's ingredients: ``(config, family,
#: requests)`` or, for scenario experiments, ``(config, family, requests,
#: scenario)``.
MakeBundle = Callable[[], tuple]


def unpack_bundle(
    bundle: tuple,
) -> tuple[NetworkConfig, ContractFamily, list[TxRequest], ScenarioSpec | None]:
    """Normalize a bundle to ``(config, family, requests, scenario)``.

    Pre-scenario makers return 3-tuples; scenario makers append the
    :class:`ScenarioSpec`.  :func:`run_baseline` and :func:`run_plan`
    handle the two shapes through this one helper.
    """
    if len(bundle) == 3:
        config, family, requests = bundle
        return config, family, requests, None
    config, family, requests, scenario = bundle
    return config, family, requests, scenario


@dataclass
class RunRow:
    """One bar group of a paper figure: a run's three headline numbers."""

    label: str
    throughput: float
    latency: float
    success_pct: float
    #: Kinds actually applied for this run (empty for the baseline).
    applied: tuple[str, ...] = ()
    #: True when the optimization was applied despite not being recommended
    #: (to regenerate a paper row); EXPERIMENTS.md records these.
    forced: bool = False

    @staticmethod
    def from_result(label: str, result: RunResult, applied=(), forced=False) -> "RunRow":
        return RunRow(
            label=label,
            throughput=round(result.success_throughput, 1),
            latency=round(result.avg_latency, 2),
            success_pct=round(result.success_rate * 100.0, 1),
            applied=tuple(k.value if isinstance(k, OptimizationKind) else str(k) for k in applied),
            forced=forced,
        )


@dataclass
class ExperimentOutcome:
    """Everything a bench run produces for one experiment."""

    name: str
    rows: list[RunRow]
    recommendations: list[str]
    #: Paper-reported (throughput, latency, success%) per row label.
    paper: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    report: AnalysisReport | None = None
    #: One failure-forensics report (dict form, see
    #: :func:`repro.analysis.forensics.forensics_report`) per row, in row
    #: order; ``None`` on outcomes hydrated from pre-forensics caches.
    forensics: list[dict] | None = None
    #: One control timeline (dict form, see
    #: :meth:`repro.control.timeline.ControlTimeline.to_dict`) per row, in
    #: row order (``None`` entries for controller-off runs); ``None`` when
    #: no run of the experiment had a controller installed.
    control: list[dict | None] | None = None

    def row(self, label: str) -> RunRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(f"no row labelled {label!r} in {self.name}")

    def __str__(self) -> str:
        from repro.bench.tables import format_outcome

        return format_outcome(self)


def default_recommendation(
    kind: OptimizationKind, report: AnalysisReport
) -> Recommendation:
    """Build an applicable recommendation even when the rule did not fire.

    Benches must regenerate every paper row; when our detector disagrees
    with the paper's (thresholds differ), the optimization is applied
    anyway and the row is flagged ``forced``.
    """
    metrics = report.metrics
    if kind is OptimizationKind.BLOCK_SIZE_ADAPTATION:
        actions = {"block_count": max(1, round(metrics.tr * metrics.btimeout))}
    elif kind is OptimizationKind.TRANSACTION_RATE_CONTROL:
        actions = {"target_rate": 100.0}
    elif kind is OptimizationKind.ENDORSER_RESTRUCTURING:
        try:
            policy = parse_policy(metrics.endorsement_policy)
            orgs = sorted(policy.organizations())
            minimum = policy.min_endorsements()
        except Exception:
            orgs = sorted(metrics.edsig_org)
            minimum = 1
        actions = {
            "policy": f"OutOf({minimum},{','.join(orgs)})",
            "balance_selection": True,
        }
    elif kind is OptimizationKind.CLIENT_RESOURCE_BOOST:
        busiest = max(metrics.ivsig_org, key=lambda org: metrics.ivsig_org[org])
        actions = {"orgs": (busiest,), "scale_factor": 2}
    elif kind is OptimizationKind.ACTIVITY_REORDERING:
        pairs = {
            (p.failed_activity, p.culprit_activity)
            for p in metrics.conflict_pairs
            if p.reorderable and p.failed_activity != p.culprit_activity
        }
        culprits = {culprit for _, culprit in pairs}
        front = {failed for failed, _ in pairs if failed not in culprits}
        actions = {"front": tuple(sorted(front)), "back": ()}
    else:
        # Contract-swap kinds need no parameters beyond the kind itself.
        actions = {}
    return Recommendation(
        kind=kind, rationale="forced by the bench harness", actions=actions
    )


def control_timeline_dict(network) -> dict | None:
    """Dict-form control timeline of ``network``, ``None`` when no
    controller is installed (controller-off runs)."""
    controller = getattr(network, "controller", None)
    return controller.timeline.to_dict() if controller is not None else None


#: One run's share of an :class:`ExperimentOutcome`: its row, its
#: failure-forensics report and its control timeline (dict forms; the
#: timeline is ``None`` for controller-off runs).
RunRecord = tuple[RunRow, dict, dict | None]
#: One resolved plan: its label, the recommendations to apply, and
#: whether any of them was forced (applied although not recommended).
PlanTask = tuple[str, tuple[Recommendation, ...], bool]


def _record(row: RunRow, network) -> RunRecord:
    from repro.analysis.forensics import forensics_report

    return row, forensics_report(network).to_dict(), control_timeline_dict(network)


def run_baseline(
    bundle: tuple,
    plans: list[tuple[str, tuple[OptimizationKind, ...]]],
    thresholds: Thresholds | None = None,
) -> tuple[RunRecord, AnalysisReport, list[PlanTask]]:
    """Run the unoptimized workload, analyze it, and resolve every plan.

    Returns the baseline's record, BlockOptR's analysis report, and one
    :data:`PlanTask` per plan: each plan kind maps to the report's
    recommendation, or to :func:`default_recommendation` (and the task is
    marked forced) when the rule did not fire.
    """
    config, family, requests, scenario = unpack_bundle(bundle)
    network, baseline = run_workload(
        config, family.deploy().contracts, requests, scenario=scenario
    )
    report = BlockOptR(thresholds).analyze_network(network)
    recommended = report.recommended_kinds()
    tasks = []
    for label, kinds in plans:
        recs = tuple(
            report.get(kind) if kind in recommended else default_recommendation(kind, report)
            for kind in kinds
        )
        tasks.append((label, recs, not recommended.issuperset(kinds)))
    return _record(RunRow.from_result("without", baseline), network), report, tasks


def run_plan(bundle: tuple, task: PlanTask) -> RunRecord:
    """Apply one resolved plan to ``bundle`` and re-run it.

    Scenario bundles re-run under the same scenario as the baseline: the
    recommendations are evaluated under the faults they were derived from.
    """
    label, recs, forced = task
    config, family, requests, scenario = unpack_bundle(bundle)
    applied = apply_recommendations(list(recs), config, family, requests)
    network, optimized = run_workload(
        applied.config,
        applied.deployment.contracts,
        applied.requests,
        scenario=scenario,
    )
    row = RunRow.from_result(label, optimized, applied=applied.applied, forced=forced)
    return _record(row, network)


def assemble_outcome(
    name: str,
    records: list[RunRecord],
    recommended: set[OptimizationKind],
    paper: dict[str, tuple[float, float, float]] | None = None,
    report: AnalysisReport | None = None,
) -> ExperimentOutcome:
    """The outcome of one experiment from its records, baseline first."""
    rows, forensics, control = (list(column) for column in zip(*records))
    return ExperimentOutcome(
        name=name,
        rows=rows,
        recommendations=sorted(kind.value for kind in recommended),
        paper=dict(paper or {}),
        report=report,
        forensics=forensics,
        control=control if any(entry is not None for entry in control) else None,
    )


def execute_experiment(
    name: str,
    make: MakeBundle,
    plans: list[tuple[str, tuple[OptimizationKind, ...]]],
    thresholds: Thresholds | None = None,
    paper: dict[str, tuple[float, float, float]] | None = None,
    keep_report: bool = False,
) -> ExperimentOutcome:
    """Run one experiment: baseline, analysis, then one run per plan.

    ``plans`` lists the optimization combinations the figure shows, e.g.
    ``[("rate control", (TRANSACTION_RATE_CONTROL,)), ("all", (...))]``.
    The baseline and every plan share one bundle from ``make``.
    """
    bundle = make()
    baseline, report, tasks = run_baseline(bundle, plans, thresholds)
    records = [baseline] + [run_plan(bundle, task) for task in tasks]
    return assemble_outcome(
        name,
        records,
        report.recommended_kinds(),
        paper,
        report if keep_report else None,
    )


def run_usecase_demo(
    usecase: str, total_transactions: int = 3000, seed: int = 7
) -> ExperimentOutcome:
    """One-call demo used by the CLI: run, analyze, apply all, re-run."""
    from repro.bench.experiments import make_usecase, usecase_plans

    make = make_usecase(usecase, total_transactions=total_transactions, seed=seed)
    plans = usecase_plans(usecase)
    return execute_experiment(f"demo:{usecase}", make, plans)
