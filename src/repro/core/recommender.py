"""The BlockOptR workflow (paper Figure 5).

``Fabric network -> blockchain data preprocessing -> metrics derivation /
event log generation -> process model generation -> optimization
recommendation``.  :class:`BlockOptR` runs the whole pipeline over a
live :class:`~repro.fabric.FabricNetwork`, an exported log file, or a
blockchain log, and returns a single :class:`AnalysisReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.metrics import LogMetrics, MetricsAccumulator
from repro.core.recommendations import Level, OptimizationKind, Recommendation
from repro.core.rules import evaluate_rules
from repro.core.thresholds import Thresholds
from repro.fabric.network import FabricNetwork
from repro.logs.blockchain_log import BlockchainLog
from repro.logs.eventlog import EventLog
from repro.logs.export import CsvLog, log_from_json
from repro.logs.extract import ChainLog
from repro.mining.dfg import DirectlyFollowsGraph
from repro.mining.footprint import FootprintMatrix
from repro.mining.heuristics import DependencyGraph, heuristics_miner


@dataclass
class AnalysisReport:
    """Everything one BlockOptR run produces."""

    #: The analyzed log; for a CSV file or a network's kept chain, the
    #: :class:`CsvLog` or :class:`ChainLog` it was read through (config
    #: and record count, no records).
    log: BlockchainLog | CsvLog | ChainLog
    metrics: LogMetrics
    recommendations: list[Recommendation]
    event_log: EventLog
    dfg: DirectlyFollowsGraph
    dependency_graph: DependencyGraph
    footprint: FootprintMatrix

    def by_level(self, level: Level) -> list[Recommendation]:
        return [rec for rec in self.recommendations if rec.level is level]

    def recommended_kinds(self) -> set[OptimizationKind]:
        return {rec.kind for rec in self.recommendations}

    def get(self, kind: OptimizationKind) -> Recommendation:
        for rec in self.recommendations:
            if rec.kind is kind:
                return rec
        raise KeyError(f"{kind.value} was not recommended")


class BlockOptR:
    """The automated optimization recommendation tool."""

    def __init__(
        self,
        thresholds: Thresholds | None = None,
        case_attribute: str | None = None,
        dependency_threshold: float = 0.7,
    ) -> None:
        self.thresholds = thresholds or Thresholds()
        #: Force a CaseID attribute instead of the automated derivation.
        self.case_attribute = case_attribute
        self.dependency_threshold = dependency_threshold

    # -- entry points ------------------------------------------------------------

    def analyze_network(self, network: FabricNetwork) -> AnalysisReport:
        """Analyze a just-run simulated network, one block of its chain at a time."""
        return self.analyze_log(ChainLog(network))

    def analyze_file(self, path: str | Path) -> AnalysisReport:
        """Analyze an exported log (.csv or .json); a CSV streams through."""
        path = Path(path)
        if path.suffix == ".csv":
            log = CsvLog(path)
        elif path.suffix == ".json":
            log = log_from_json(path)
        else:
            raise ValueError(f"unsupported log format {path.suffix!r}")
        return self.analyze_log(log)

    def analyze_log(self, log: BlockchainLog | CsvLog | ChainLog) -> AnalysisReport:
        """The Figure 5 pipeline over a preprocessed blockchain log.

        One pass over ``log`` appends each record to one column table,
        from which both the Section 4.3 metrics and the Section 4.2 event
        log are counted, so a :class:`CsvLog` or :class:`ChainLog` is read
        once and no record outlives its step.  The config is attached
        after the pass: a :class:`ChainLog` learns it during the pass.
        """
        accumulator = MetricsAccumulator(
            interval_seconds=self.thresholds.interval_seconds,
            hotkey_failure_share=self.thresholds.hotkey_failure_share,
            hotkey_min_failures=self.thresholds.hotkey_min_failures,
        )
        for record in log:
            accumulator.consume(record)
        accumulator.config = log.config
        metrics = accumulator.finish()
        event_log = EventLog.from_table(accumulator.table, self.case_attribute)
        # The table and the corDV/delta indexes are O(transactions); free
        # them before the rules and mining run.
        del accumulator
        recommendations = evaluate_rules(metrics, self.thresholds)
        dfg = DirectlyFollowsGraph.from_traces(event_log.traces())
        dependency_graph = heuristics_miner(
            dfg, dependency_threshold=self.dependency_threshold
        )
        footprint = FootprintMatrix.from_dfg(dfg)
        return AnalysisReport(
            log=log,
            metrics=metrics,
            recommendations=recommendations,
            event_log=event_log,
            dfg=dfg,
            dependency_graph=dependency_graph,
            footprint=footprint,
        )
