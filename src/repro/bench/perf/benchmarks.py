"""The microbenchmark registry: what ``repro perf`` can measure.

Each :class:`Microbenchmark` is a *factory of trials*: calling
:meth:`Microbenchmark.make` performs all un-measured setup (workload
generation, log construction) and returns a zero-argument closure whose
execution is the measured region.  The closure returns a small,
JSON-able payload describing *what the measured code computed* — the
runner hashes it into the benchmark's determinism digest, so a behaviour
change in the hot path is caught even when timings drift.

The registry covers the layers every experiment run exercises:

========================  =====================================================
``kernel_event_churn``    schedule/cancel/fire cycles through the event heap
``pipeline_round_trip``   full endorse → order → validate lifecycle of a
                          synthetic workload
``metrics_accumulation``  the single-pass Section 4.3 metrics derivation
``eventlog_derivation``   CaseID derivation + event-log construction
``small_experiment``      an entire registry experiment (baseline + analysis +
                          optimized re-runs) at a small transaction budget
``forensics_pass``        the failure-forensics post-processing pass over a
                          faulted run with retries (repro.analysis)
``streaming_overhead``    the same pipeline round trip in streaming mode —
                          request generator, RunStream fan-out and bounded
                          accumulators instead of a materialized ledger
``controller_overhead``   the same round trip with a noop SLO-guardian
                          ticking on the kernel's control lane — compare
                          against ``pipeline_round_trip`` for the cost of
                          the monitor + tick machinery (repro.control)
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: The measured region: runs once per trial, returns the digest payload.
Trial = Callable[[], object]


@dataclass(frozen=True)
class Microbenchmark:
    """One registered microbenchmark."""

    name: str
    description: str
    #: Builds a fresh trial closure; everything inside ``make`` is setup
    #: and excluded from timing.
    make: Callable[[], Trial]


def _kernel_event_churn() -> Trial:
    from repro.sim.kernel import Kernel

    count = 20_000

    def trial() -> object:
        kernel = Kernel()
        cancelled = 0
        events = []
        # A braided schedule: interleaved times, two priority lanes, and a
        # cancellation pattern — the shapes the orderer timeout logic and
        # the scenario intervention lane actually produce.
        for index in range(count):
            time = float((index * 7919) % 1000) + index / count
            event = kernel.schedule(time, _noop)
            if index % 11 == 0:
                events.append(event)
        for event in events:
            event.cancel()
            cancelled += 1
        kernel.run()
        return {"processed": kernel.events_processed, "cancelled": cancelled}

    return trial


def _noop() -> None:
    return None


def _pipeline_round_trip() -> Trial:
    from repro.bench.experiments import make_synthetic

    make = make_synthetic("default", seed=7, total_transactions=1500)

    def trial() -> object:
        from repro.fabric.network import run_workload

        config, family, requests = make()
        deployment = family.deploy()
        _, result = run_workload(config, deployment.contracts, requests)
        return result.summary_row()

    return trial


def _controller_overhead() -> Trial:
    from repro.bench.experiments import make_synthetic

    make = make_synthetic("default", seed=7, total_transactions=1500)

    def trial() -> object:
        from repro.control.spec import ControlSpec
        from repro.fabric.network import run_workload

        config, family, requests = make()
        config.control = ControlSpec(policy="noop")
        deployment = family.deploy()
        network, result = run_workload(config, deployment.contracts, requests)
        payload = result.summary_row()
        # A noop controller must not perturb the run: the summary row is
        # identical to pipeline_round_trip's, so the digests double as a
        # controller-off equivalence check; the tick count pins cadence.
        payload["control_ticks"] = network.controller.timeline.ticks
        return payload

    return trial


def _make_log():
    """A committed blockchain log shared by the analysis benchmarks."""
    from repro.bench.experiments import make_synthetic
    from repro.fabric.network import run_workload
    from repro.logs.extract import extract_blockchain_log

    config, family, requests = make_synthetic(
        "workload_update_heavy", seed=11, total_transactions=2000
    )()
    deployment = family.deploy()
    network, _ = run_workload(config, deployment.contracts, requests)
    return extract_blockchain_log(network)


def _metrics_accumulation() -> Trial:
    log = _make_log()

    def trial() -> object:
        from repro.core.metrics import compute_metrics

        metrics = compute_metrics(log)
        return {
            "total": metrics.total_transactions,
            "failures": metrics.total_failures,
            "keys": len(metrics.kfreq),
            "pairs": len(metrics.conflict_pairs),
            "hotkeys": list(metrics.hotkeys[:5]),
        }

    return trial


def _eventlog_derivation() -> Trial:
    log = _make_log()

    def trial() -> object:
        from repro.logs.eventlog import EventLog

        event_log = EventLog.from_blockchain_log(log)
        return {
            "attribute": event_log.derivation.attribute,
            "events": len(event_log),
            "variants": len(event_log.trace_variants()),
        }

    return trial


def _small_experiment() -> Trial:
    from repro.bench.registry import select

    (spec,) = select(["fig16_voting"])
    spec = spec.with_overrides(total_transactions=600)

    def trial() -> object:
        from repro.bench.executor import run_spec

        outcome = run_spec(spec)
        return {
            "rows": [
                (row.label, row.throughput, row.latency, row.success_pct)
                for row in outcome.rows
            ],
            "recommendations": list(outcome.recommendations),
        }

    return trial


def _forensics_pass() -> Trial:
    from repro.bench.experiments import make_forensics
    from repro.bench.harness import unpack_bundle
    from repro.fabric.network import run_workload

    # Setup (untimed): one faulted, retry-heavy run — the densest
    # forensics input the registry produces.
    config, family, requests, scenario = unpack_bundle(
        make_forensics(
            "default", "partial_outage", retry_attempts=3, total_transactions=2000
        )()
    )
    deployment = family.deploy()
    network, _ = run_workload(config, deployment.contracts, requests, scenario=scenario)

    def trial() -> object:
        from repro.analysis import forensics_report, report_digest

        report = forensics_report(network)
        return {
            "causes": dict(report.cause_counts),
            "buckets": len(report.buckets),
            "digest": report_digest(report),
        }

    return trial


def _streaming_overhead() -> Trial:
    """The streaming counterpart of ``pipeline_round_trip``.

    Same workload and seed, but the run goes through the O(blocks) path:
    requests pulled one at a time from the generator, blocks fanned out
    through a :class:`~repro.logs.stream.RunStream` into the bounded
    shard accumulators, no ledger materialization.  Compared against
    ``pipeline_round_trip`` this measures what the streaming machinery
    costs; the ``--compare`` ratchet keeps that overhead from creeping.
    """
    from repro.bench.experiments import synthetic_spec

    spec = synthetic_spec("default", seed=7)
    spec.total_transactions = 1500

    def trial() -> object:
        from repro.contracts.registry import genchain_family
        from repro.fabric.network import FabricNetwork
        from repro.logs.stream import RunStream
        from repro.shard.summary import RateSeriesAccumulator, RunStatsAccumulator
        from repro.workloads.synthetic import iter_synthetic_requests

        deployment = genchain_family(num_keys=spec.num_keys).deploy()
        stream = RunStream()
        run_stats = RunStatsAccumulator()
        rates = RateSeriesAccumulator(1.0)
        stream.add_transaction_consumer(run_stats).add_record_consumer(rates)
        network = FabricNetwork(
            spec.to_network_config(), deployment.contracts, stream=stream
        )
        stats = network.run_streamed(
            iter_synthetic_requests(spec, deployment.contracts[0].name)
        )
        return {
            "records": stream.records_streamed,
            "committed": stats.committed,
            "aborted": stats.aborted,
            "blocks": stats.blocks,
            "successes": run_stats.successes,
            "intervals": len(rates.totals),
        }

    return trial


_REGISTRY: tuple[Microbenchmark, ...] = (
    Microbenchmark(
        name="kernel_event_churn",
        description="schedule/cancel/fire 20k events through the kernel heap",
        make=_kernel_event_churn,
    ),
    Microbenchmark(
        name="pipeline_round_trip",
        description="endorse-order-validate a 1.5k-tx synthetic workload",
        make=_pipeline_round_trip,
    ),
    Microbenchmark(
        name="metrics_accumulation",
        description="Section 4.3 metrics over a 2k-tx update-heavy log",
        make=_metrics_accumulation,
    ),
    Microbenchmark(
        name="eventlog_derivation",
        description="CaseID derivation + event-log build from the same log",
        make=_eventlog_derivation,
    ),
    Microbenchmark(
        name="small_experiment",
        description="one full registry experiment (voting, 600 txs)",
        make=_small_experiment,
    ),
    Microbenchmark(
        name="forensics_pass",
        description="forensics post-processing of a 2k-tx faulted run with retries",
        make=_forensics_pass,
    ),
    Microbenchmark(
        name="streaming_overhead",
        description="the 1.5k-tx pipeline round trip through the streaming path",
        make=_streaming_overhead,
    ),
    Microbenchmark(
        name="controller_overhead",
        description="the 1.5k-tx round trip with a noop SLO-guardian ticking",
        make=_controller_overhead,
    ),
)


def all_benchmarks() -> tuple[Microbenchmark, ...]:
    """Every registered microbenchmark, in registry order."""
    return _REGISTRY


def benchmark_names() -> list[str]:
    """Registry-order names (the ``--only`` vocabulary)."""
    return [bench.name for bench in _REGISTRY]


def get_benchmark(name: str) -> Microbenchmark:
    """Look up one benchmark; raises ``KeyError`` with the valid names."""
    for bench in _REGISTRY:
        if bench.name == name:
            return bench
    raise KeyError(
        f"unknown benchmark {name!r}; expected one of {', '.join(benchmark_names())}"
    )
