"""The run → analyze → optimize → re-run loop behind every figure.

The paper's protocol (Section 5): execute a workload without
optimizations, feed the ledger to BlockOptR, implement the recommended
optimizations (Table 4 settings), re-execute the same workload, and
compare success throughput, average latency and success rate.

The protocol is written once, as :func:`run_baseline`, :func:`run_plan`
and :func:`assemble_outcome`, which :func:`execute_group` calls in turn
for every experiment that shares one bundle; :func:`execute_experiment`
runs a group of one, and the parallel executor runs one group per pool
task.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

from repro.contracts.registry import ContractFamily
from repro.core.apply import apply_recommendations
from repro.core.recommendations import OptimizationKind, Recommendation
from repro.core.recommender import AnalysisReport, BlockOptR
from repro.fabric.config import NetworkConfig
from repro.fabric.network import FabricNetwork, run_workload
from repro.fabric.policy import parse_policy
from repro.fabric.results import RunResult
from repro.fabric.transaction import TxRequest
from repro.logs.stream import RunStream

#: A factory producing one experiment's ingredients, ``(config, family,
#: requests)``; a scenario experiment's config carries its scenario.
MakeBundle = Callable[[], tuple[NetworkConfig, ContractFamily, list[TxRequest]]]


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
        """The row of ``result``, its numbers rounded as the tables print them."""
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
    #: One failure-forensics report (dict form, see
    #: :class:`repro.analysis.forensics.ForensicsReport`) per row, in row
    #: order; ``None`` on outcomes hydrated from pre-forensics caches.
    forensics: list[dict] | None = None
    #: One control timeline (dict form, see
    #: :meth:`repro.control.timeline.ControlTimeline.to_dict`) per row, in
    #: row order (``None`` entries for controller-off runs); ``None`` when
    #: no run of the experiment had a controller installed.
    control: list[dict | None] | None = None

    def row(self, label: str) -> RunRow:
        """The row labelled ``label``; ``KeyError`` when there is none."""
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


def _record(row: RunRow, network: FabricNetwork) -> RunRecord:
    """A run's record; its forensics report comes from the live outcome fold."""
    report = network.outcomes.finish_run(network)
    return row, report.to_dict(), control_timeline_dict(network)


def run_baseline(
    bundle: tuple, plans: list[tuple[str, tuple[OptimizationKind, ...]]]
) -> tuple[RunRecord, set[OptimizationKind], list[PlanTask]]:
    """Run the unoptimized workload, analyze it, and resolve every plan.

    Returns the baseline's record, the kinds BlockOptR recommended, and one
    :data:`PlanTask` per plan: each plan kind maps to the report's
    recommendation, or to :func:`default_recommendation` (and the task is
    marked forced) when the rule did not fire.  The baseline keeps its
    chain: BlockOptR replays it.  The report, whose log reads that chain,
    is not returned, so the chain goes with this call.
    """
    config, family, requests = bundle
    network, baseline = run_workload(config, family.deploy().contracts, requests)
    report = BlockOptR().analyze_network(network)
    recommended = report.recommended_kinds()
    tasks = []
    for label, kinds in plans:
        recs = tuple(
            report.get(kind) if kind in recommended else default_recommendation(kind, report)
            for kind in kinds
        )
        tasks.append((label, recs, not recommended.issuperset(kinds)))
    return _record(RunRow.from_result("without", baseline), network), recommended, tasks


def run_plan(bundle: tuple, task: PlanTask) -> RunRecord:
    """Apply one resolved plan to ``bundle`` and re-run it.

    Scenario bundles re-run under the same scenario as the baseline (the
    applied config is a copy of the bundle's, scenario included): the
    recommendations are evaluated under the faults they were derived from.
    Nothing reads a plan run's chain, so its network runs on a stream of
    its own and keeps none.
    """
    label, recs, forced = task
    config, family, requests = bundle
    applied = apply_recommendations(list(recs), config, family, requests)
    network = FabricNetwork(
        applied.config, applied.deployment.contracts, stream=RunStream()
    )
    optimized = network.run(applied.requests)
    row = RunRow.from_result(label, optimized, applied=applied.applied, forced=forced)
    return _record(row, network)


def assemble_outcome(
    name: str,
    records: list[RunRecord],
    recommended: set[OptimizationKind],
    paper: dict[str, tuple[float, float, float]] | None = None,
) -> ExperimentOutcome:
    """The outcome of one experiment from its records, baseline first."""
    rows, forensics, control = (list(column) for column in zip(*records))
    return ExperimentOutcome(
        name=name,
        rows=rows,
        recommendations=sorted(kind.value for kind in recommended),
        paper=dict(paper or {}),
        forensics=forensics,
        control=control if any(entry is not None for entry in control) else None,
    )


#: One experiment of a group: its name, its plans (as
#: :func:`execute_experiment` takes them) and the paper's values.
Experiment = tuple[
    str,
    list[tuple[str, tuple[OptimizationKind, ...]]],
    dict[str, tuple[float, float, float]] | None,
]


def _own_copy(record: RunRecord, label: str) -> RunRecord:
    """One outcome's copy of a shared record, under its own row label."""
    row, forensics, control = record
    return replace(row, label=label), copy.deepcopy(forensics), copy.deepcopy(control)


def execute_group(
    make: MakeBundle, experiments: Sequence[Experiment]
) -> Iterator[tuple[ExperimentOutcome, int]]:
    """Run experiments that share one bundle, yielding each outcome in turn.

    The bundle from ``make`` is built once; its baseline, BlockOptR
    analysis and each distinct plan (keyed by its tuple of kinds) run
    once, the first time an experiment needs them.  The simulator is
    deterministic, so a second run would only repeat the first.  Each
    experiment's outcome is yielded as soon as its own runs finish,
    together with the number of runs simulated for it; it holds its own
    copies of the shared records, under its own row labels, so no
    outcome sees another's mutations.
    """
    bundle = make()
    # Each distinct plan under one of its labels; every outcome relabels.
    distinct = {kinds: label for _, plans, _ in experiments for label, kinds in plans}
    # One function per run, not one body: each run's network is freed
    # when its step returns, so the baseline's (and the chain it keeps)
    # does not stay alive across the plan runs.
    baseline, recommended, tasks = run_baseline(
        bundle, [(label, kinds) for kinds, label in distinct.items()]
    )
    task_of = dict(zip(distinct, tasks))
    done: dict[tuple[OptimizationKind, ...], RunRecord] = {}
    runs = 1
    for name, plans, paper in experiments:
        for _, kinds in plans:
            if kinds not in done:
                done[kinds] = run_plan(bundle, task_of[kinds])
                runs += 1
        records = [_own_copy(baseline, "without")] + [
            _own_copy(done[kinds], label) for label, kinds in plans
        ]
        yield assemble_outcome(name, records, recommended, paper), runs
        runs = 0


def execute_experiment(
    name: str,
    make: MakeBundle,
    plans: list[tuple[str, tuple[OptimizationKind, ...]]],
    paper: dict[str, tuple[float, float, float]] | None = None,
) -> ExperimentOutcome:
    """Run one experiment: baseline, analysis, then one run per plan.

    ``plans`` lists the optimization combinations the figure shows, e.g.
    ``[("rate control", (TRANSACTION_RATE_CONTROL,)), ("all", (...))]``.
    The baseline and every plan share one bundle from ``make``: this is
    :func:`execute_group` on a group of one.
    """
    [(outcome, _)] = execute_group(make, [(name, plans, paper)])
    return outcome


def run_usecase_demo(
    usecase: str, total_transactions: int = 3000, seed: int = 7
) -> ExperimentOutcome:
    """One-call demo used by the CLI: run, analyze, apply all, re-run."""
    from repro.bench.experiments import make_usecase, usecase_plans

    make = make_usecase(usecase, total_transactions=total_transactions, seed=seed)
    plans = usecase_plans(usecase)
    return execute_experiment(f"demo:{usecase}", make, plans)
