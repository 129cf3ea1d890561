"""Exact cost counters read from the program's public objects.

:func:`install` wraps ``FabricNetwork.run`` and ``FabricNetwork.run_streamed``
so that, when a network finishes a run, its kernel, its ``Server`` stations,
the returned ``RunResult`` / ``StreamedRunStats``, its scenario engine and
its controller timeline are read once and summed into a :class:`Counters`.
The hook runs once per simulated run, not per event, so it is installed in
untraced runs too.  Every counter is deterministic for a seed: two runs of
one seed must give identical values, traced or not.

A counter source that no longer exists is reported in ``missing`` instead
of failing the run.
"""

from __future__ import annotations

import importlib
from dataclasses import asdict, dataclass, field

#: Station kinds, in pipeline order, for the simulated-wait counters.
STATIONS = ("client", "endorser", "orderer", "validator")


@dataclass
class Counters:
    """Sums over every simulated run of one pass."""

    runs: int = 0
    #: Transactions that finished (committed + aborted), retries included.
    finished: int = 0
    #: Of those, transactions that reached a block (one log record each).
    in_blocks: int = 0
    #: Successful transactions.  A streamed run's stats do not carry them;
    #: the workload adds them from its own summary.
    successes: int = 0
    #: Requests the workload generated (first attempts).
    requests: int = 0
    retries: int = 0
    blocks: int = 0
    events: int = 0
    station_jobs: int = 0
    #: Simulated queue wait summed per station kind, in seconds.
    station_wait: dict = field(default_factory=lambda: {s: 0.0 for s in STATIONS})
    records_streamed: int = 0
    #: BlockOptR analyses, the log records they read and the
    #: recommendations they made.
    analyses: int = 0
    analysis_records: int = 0
    recommendations: int = 0
    interventions: int = 0
    control_ticks: int = 0
    control_actuations: int = 0
    #: Counter sources that could not be read (program changed shape).
    missing: list = field(default_factory=list)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["missing"] = sorted(set(self.missing))
        return data


def install(counters: Counters, keep_event_logs: list | None = None) -> list[str]:
    """Hook the network runs and BlockOptR analyses; returns targets not found.

    ``keep_event_logs``, when given, collects the event log of every
    analysis so the traced run can count cases and variants after the pass.
    """
    skipped = []
    network = _class("repro.fabric.network", "FabricNetwork")
    active: set[int] = set()
    for name in ("run", "run_streamed"):
        original = network.__dict__.get(name) if network else None
        if original is None:
            skipped.append(f"repro.fabric.network:FabricNetwork.{name}")
            continue
        setattr(network, name, _hooked(original, counters, active))

    advisor = _class("repro.core.recommender", "BlockOptR")
    original = advisor.__dict__.get("analyze_log") if advisor else None
    if original is None:
        skipped.append("repro.core.recommender:BlockOptR.analyze_log")
    else:

        def analyze_log(self, *args, **kwargs):
            report = original(self, *args, **kwargs)
            counters.analyses += 1
            counters.analysis_records += len(report.log)
            counters.recommendations += len(report.recommendations)
            if keep_event_logs is not None:
                keep_event_logs.append(report.event_log)
            return report

        advisor.analyze_log = analyze_log
    return skipped


def _class(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def _hooked(original, counters: Counters, active: set[int]):
    def run(network, *args, **kwargs):
        # Only the outermost run of a network counts, in case one run
        # method is built on the other.
        if id(network) in active:
            return original(network, *args, **kwargs)
        active.add(id(network))
        try:
            result = original(network, *args, **kwargs)
        finally:
            active.discard(id(network))
        _read(network, result, counters)
        return result

    return run


def _read(network, result, counters: Counters) -> None:
    counters.runs += 1
    missing = counters.missing
    retries = _get(network, "retries_issued", missing, 0)
    counters.retries += retries
    kernel = _get(network, "kernel", missing)
    if kernel is not None:
        counters.events += _get(kernel, "events_processed", missing, 0)

    if hasattr(result, "total_issued"):  # RunResult (batch run)
        finished = result.total_issued
        counters.finished += finished
        counters.in_blocks += finished - result.early_aborts
        counters.successes += result.success_count
        counters.blocks += result.blocks
        counters.requests += finished - retries
    elif hasattr(result, "committed"):  # StreamedRunStats
        counters.finished += result.committed + result.aborted
        counters.in_blocks += result.committed
        counters.blocks += result.data_blocks
        counters.requests += result.issued
    else:
        missing.append("run result")

    for station, servers in _stations(network, missing):
        for server in servers:
            counters.station_jobs += server.stats.jobs
            counters.station_wait[station] += server.stats.total_wait

    stream = getattr(network, "stream", None)
    if stream is not None:
        counters.records_streamed += _get(stream, "records_streamed", missing, 0)
    engine = getattr(network, "scenario_engine", None)
    if engine is not None:
        counters.interventions += len(_get(engine, "timeline", missing, ()))
    controller = getattr(network, "controller", None)
    if controller is not None:
        timeline = controller.timeline
        counters.control_ticks += timeline.ticks
        counters.control_actuations += sum(len(d.actions) for d in timeline.decisions)


def _stations(network, missing: list):
    try:
        yield "client", network.clients.servers()
        yield "endorser", network.endorsers.servers()
        yield "orderer", [network.orderer.server]
        yield "validator", [network.validator.server]
    except AttributeError as exc:
        missing.append(f"stations ({exc})")


def _get(obj, name: str, missing: list, default=None):
    try:
        return getattr(obj, name)
    except AttributeError:
        missing.append(f"{type(obj).__name__}.{name}")
        return default
