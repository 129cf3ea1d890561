"""The benchmark's three workloads, each driving the program's public API.

A workload has a set-up (imports, plans, specs — everything before the
timed region) and a *pass*: one closed-loop sweep of its operations, each
started after the previous one returned.  Every operation yields a digest
of its output, checked by ``run.py`` against ``pins.json``.

* ``sharded_stream`` — ``plan_shards(base="default", channels=4, 50k txs)``
  then ``run_sharded``: what ``repro shard`` runs.  One operation per pass.
* ``analyze_logs`` — ``BlockOptR().analyze_file`` + ``render_report`` on
  the SCM, DRM, EHR and voting CSV logs: what ``repro analyze LOG.csv``
  runs.  One operation per log.
* ``paper_protocol`` — ``run_suite(all_specs(), jobs=1, cache=<fresh>)`` at
  800 txs: what ``repro suite --txs 800`` runs.  One operation per
  experiment (106 in the default registry).

Functions are looked up on their modules at call time, so the traced run's
wrappers see every call.  ``run_pass`` times with the ``clock`` it is given,
which leaves out the benchmark's host-speed sampling (``pace.py``).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

#: Transactions of the sharded run (the ``large_scale/multichannel_50k``
#: golden's size) and of each paper-protocol experiment.
SHARD_TXS = 50_000
SHARD_CHANNELS = 4
SUITE_TXS = 800
#: Use cases of the analyze_logs inputs and their size.  The loan log is
#: left out: its baseline data model rewrites the whole portfolio on each
#: write, so its CSV grows quadratically with the run.
USECASES = ("scm", "drm", "ehr", "voting")
USECASE_TXS = 10_000


def short_digest(data) -> str:
    """First 16 hex digits of sha256 over canonical JSON."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Op:
    """One operation's outcome: name, host seconds, digest or error."""

    __slots__ = ("name", "seconds", "digest", "error")

    def __init__(self, name: str, seconds: float, digest=None, error=None) -> None:
        self.name = name
        self.seconds = seconds
        self.digest = digest
        self.error = error

    def to_list(self) -> list:
        return [self.name, self.seconds, self.digest, self.error]


class ShardedStream:
    name = "sharded_stream"

    def __init__(self, seed: int, inputs: Path, work: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        import repro.bench.experiments  # noqa: F401 - loaded lazily by a run
        import repro.contracts.registry  # noqa: F401
        import repro.logs.stream  # noqa: F401
        import repro.shard
        import repro.workloads.synthetic  # noqa: F401

        self.shard = repro.shard
        self.plan = repro.shard.plan_shards(
            base="default",
            channels=SHARD_CHANNELS,
            total_transactions=SHARD_TXS,
            seed=self.seed,
        )

    def run_pass(self, counters, clock) -> dict:
        started = clock()
        try:
            stitched = self.shard.run_sharded(self.plan)
        except Exception as exc:  # an operation that raises counts as failed
            seconds = clock() - started
            return {"seconds": seconds, "ops": [Op("run", seconds, error=repr(exc))]}
        seconds = clock() - started
        counters.successes += stitched.successes
        return {"seconds": seconds, "ops": [Op("run", seconds, stitched.digest())]}


class AnalyzeLogs:
    name = "analyze_logs"

    def __init__(self, seed: int, inputs: Path, work: Path) -> None:
        self.paths = [inputs / f"{usecase}.csv" for usecase in USECASES]

    def setup(self) -> None:
        import repro.core

        self.core = repro.core
        missing = [str(path) for path in self.paths if not path.is_file()]
        if missing:
            raise FileNotFoundError(f"analyze_logs inputs missing: {missing}")

    def run_pass(self, counters, clock) -> dict:
        core = self.core
        ops = []
        for usecase, path in zip(USECASES, self.paths):
            started = clock()
            try:
                report = core.BlockOptR().analyze_file(path)
                core.render_report(report)
            except Exception as exc:  # an operation that raises counts as failed
                ops.append(Op(usecase, clock() - started, error=repr(exc)))
                continue
            seconds = clock() - started
            ops.append(Op(usecase, seconds, _analysis_digest(report)))
        return {"seconds": sum(op.seconds for op in ops), "ops": ops}


def _analysis_digest(report) -> str:
    """Recommendation kinds plus the headline LogMetrics counts."""
    metrics = report.metrics
    return short_digest(
        {
            "kinds": sorted(rec.kind.value for rec in report.recommendations),
            "transactions": metrics.total_transactions,
            "failures": metrics.total_failures,
            "failure_counts": {
                status.value: count for status, count in metrics.failure_counts.items()
            },
            "mvcc_failures": metrics.mvcc_failures,
            "reorderable_mvcc": metrics.reorderable_mvcc,
            "intra_block_pairs": metrics.intra_block_pairs,
            "hotkeys": list(metrics.hotkeys),
            "block_count": metrics.bcount,
        }
    )


class PaperProtocol:
    name = "paper_protocol"

    def __init__(self, seed: int, inputs: Path, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.passes = 0

    def setup(self) -> None:
        import repro.analysis
        import repro.bench.cache
        import repro.bench.executor
        import repro.bench.registry
        import repro.control

        self.analysis = repro.analysis
        self.control = repro.control
        self.executor = repro.bench.executor
        self.cache = repro.bench.cache
        self.specs = [
            spec.with_overrides(seed=self.seed, total_transactions=SUITE_TXS)
            for spec in repro.bench.registry.all_specs()
        ]

    def run_pass(self, counters, clock) -> dict:
        self.passes += 1
        cache_dir = self.work / f"cache-{self.passes}"
        stamps: list[float] = []
        started = clock()
        try:
            report = self.executor.run_suite(
                self.specs,
                jobs=1,
                cache=self.cache.ResultCache(cache_dir),
                progress=lambda message: stamps.append(clock()),
            )
            seconds = clock() - started
        except Exception as exc:  # every experiment of the pass failed
            seconds = clock() - started
            error = repr(exc).splitlines()[0]
            ops = [Op(spec.exp_id, seconds, error=error) for spec in self.specs]
            return {"seconds": seconds, "ops": ops}
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        ops = []
        previous = started
        for spec, stamp, outcome in zip(self.specs, stamps, report.outcomes):
            ops.append(Op(spec.exp_id, stamp - previous, self._digest(outcome)))
            previous = stamp
        return {
            "seconds": seconds,
            "ops": ops,
            "scores": paper_scores(report.outcomes),
            "forensics_reports": sum(len(o.forensics or ()) for o in report.outcomes),
            "simulated_runs": report.simulated_runs,
        }

    def _digest(self, outcome) -> str:
        """Rows, recommendations, forensics and control-timeline digests."""
        timeline = self.control.ControlTimeline
        return short_digest(
            {
                "rows": [
                    [
                        row.label,
                        row.throughput,
                        row.latency,
                        row.success_pct,
                        list(row.applied),
                        row.forced,
                    ]
                    for row in outcome.rows
                ],
                "recommendations": list(outcome.recommendations),
                "forensics": [
                    self.analysis.report_digest(report)
                    for report in outcome.forensics or ()
                ],
                "control": [
                    None if entry is None else timeline.from_dict(entry).digest()
                    for entry in outcome.control or ()
                ],
            }
        )


def paper_scores(outcomes) -> dict:
    """The simulated-time scores of one suite pass against the paper.

    ``paper_success_gain_pp`` and ``paper_latency_gain_pct`` average, over
    optimized rows whose optimizations BlockOptR recommended (``forced``
    false), the change against the experiment's baseline row;
    ``paper_success_err_pp`` averages |reproduced − paper| success% over
    the rows that carry paper values.
    """
    gains, latency_gains, errors = [], [], []
    for outcome in outcomes:
        baseline = outcome.rows[0]
        for row in outcome.rows[1:]:
            if row.forced:
                continue
            gains.append(row.success_pct - baseline.success_pct)
            if baseline.latency > 0:
                latency_gains.append(100.0 * (1.0 - row.latency / baseline.latency))
        for label, (_, _, success) in outcome.paper.items():
            try:
                row = outcome.row(label)
            except KeyError:
                continue
            errors.append(abs(row.success_pct - success))
    return {
        "paper_success_gain_pp": _mean(gains),
        "paper_latency_gain_pct": _mean(latency_gains),
        "paper_success_err_pp": _mean(errors),
        "gain_rows": len(gains),
        "paper_rows": len(errors),
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


WORKLOADS = {cls.name: cls for cls in (ShardedStream, AnalyzeLogs, PaperProtocol)}


def generate_inputs(seed: int, out: Path) -> None:
    """Write the analyze_logs CSV logs for ``seed`` (simulated, not timed)."""
    from repro.bench.experiments import make_usecase
    from repro.fabric.network import run_workload
    from repro.logs.export import log_to_csv
    from repro.logs.extract import extract_blockchain_log

    out.mkdir(parents=True, exist_ok=True)
    for usecase in USECASES:
        config, family, requests = make_usecase(
            usecase, total_transactions=USECASE_TXS, seed=seed
        )()
        network, _ = run_workload(config, family.deploy().contracts, requests)
        log_to_csv(extract_blockchain_log(network), out / f"{usecase}.csv")
