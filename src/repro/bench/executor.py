"""Parallel experiment executor: fan experiments out over a process pool.

The paper's protocol (run → analyze → apply recommendations → re-run) is
embarrassingly parallel across experiments, and within one experiment the
per-plan optimized runs are independent of one another once the baseline
has been analyzed.  The executor exploits both levels:

* **wave 1** — one pool task per experiment calls
  :func:`~repro.bench.harness.run_baseline`: run the baseline workload,
  analyze it with BlockOptR and resolve each plan's recommendations;
* **wave 2** — as each baseline completes, one pool task per plan calls
  :func:`~repro.bench.harness.run_plan` on a freshly generated bundle.

These are the steps serial :func:`execute_experiment` calls too.  Because
the simulator is fully deterministic for a fixed seed (the kernel breaks
ties by insertion order and nothing depends on process state), the fan-out
is bit-for-bit equivalent to serial output —
``tests/test_executor_equivalence.py`` pins this down.

Results are memoized via :class:`~repro.bench.cache.ResultCache`; a warm
re-run performs zero simulation runs.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.bench.cache import ResultCache
from repro.bench.harness import (
    ExperimentOutcome,
    PlanTask,
    RunRecord,
    assemble_outcome,
    execute_experiment,
    run_baseline,
    run_plan,
)
from repro.bench.registry import ExperimentSpec
from repro.core.recommendations import OptimizationKind

#: Optional progress sink: called with one human-readable line per event.
Progress = Callable[[str], None]


class ExperimentExecutionError(RuntimeError):
    """A cell of a suite/matrix run crashed — with its identity attached.

    In a large sweep the raw worker exception is useless on its own (a
    pool future only says *something* failed); this wrapper names the
    experiment, the stage (baseline / plan / whole run) and carries the
    original traceback text, so the failing cell can be re-run with
    ``--only <exp_id>`` immediately.
    """

    def __init__(self, exp_id: str, stage: str, original: BaseException) -> None:
        self.exp_id = exp_id
        self.stage = stage
        self.original = original
        detail = "".join(
            traceback.format_exception(
                type(original), original, original.__traceback__
            )
        ).rstrip()
        super().__init__(
            f"experiment {exp_id!r} failed during {stage}: {original!r}\n"
            f"original traceback:\n{detail}"
        )


def _attribute(exp_id: str, stage: str, exc: BaseException) -> "ExperimentExecutionError":
    """Wrap a worker/serial failure, never double-wrapping."""
    if isinstance(exc, ExperimentExecutionError):
        return exc
    return ExperimentExecutionError(exp_id, stage, exc)


def derive_seed(base_seed: int, name: str) -> int:
    """Deterministic per-experiment seed from a base seed and a run name.

    Stable across processes and Python versions (unlike ``hash()``), so a
    suite run with ``--seed N`` gives every experiment its own
    reproducible stream.
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


@dataclass
class SuiteReport:
    """What one suite invocation did and produced."""

    outcomes: list[ExperimentOutcome] = field(default_factory=list)
    #: exp_ids actually simulated this invocation.
    executed: list[str] = field(default_factory=list)
    #: exp_ids served from the result cache.
    cached: list[str] = field(default_factory=list)
    #: Workload simulations performed (0 on a fully warm cache).
    simulated_runs: int = 0
    wall_seconds: float = 0.0
    jobs: int = 1

    def summary(self) -> str:
        """One-line human summary (the suite's final stdout line)."""
        return (
            f"suite: {len(self.outcomes)} experiments "
            f"({len(self.cached)} cached, {len(self.executed)} executed), "
            f"{self.simulated_runs} simulation runs, "
            f"{self.wall_seconds:.1f}s wall, jobs={self.jobs}"
        )


def run_spec(spec: ExperimentSpec) -> ExperimentOutcome:
    """Run one experiment serially, exactly as the bench scripts always have."""
    if spec.maker == "sharded":
        from repro.shard import run_registry_spec

        return run_registry_spec(spec)
    return execute_experiment(
        spec.title, spec.make_bundle(), spec.resolved_plans(), paper=spec.paper_dict()
    )


# -- pool worker tasks --------------------------------------------------------------
#
# Top-level functions (picklable) receiving declarative specs; each task
# regenerates its bundle from the spec, which is deterministic and keeps
# the payload shipped between processes tiny.


def _baseline_task(
    spec: ExperimentSpec,
) -> tuple[RunRecord, set[OptimizationKind], list[PlanTask]]:
    """Wave 1: :func:`~repro.bench.harness.run_baseline` on a fresh bundle.

    Only the recommended kinds leave the worker, not the analysis report
    (which holds the whole blockchain log).
    """
    record, report, tasks = run_baseline(spec.make_bundle()(), spec.resolved_plans())
    return record, report.recommended_kinds(), tasks


def _plan_task(spec: ExperimentSpec, task: PlanTask) -> RunRecord:
    """Wave 2: :func:`~repro.bench.harness.run_plan` on a fresh bundle."""
    return run_plan(spec.make_bundle()(), task)


# -- the suite runner ---------------------------------------------------------------


def run_suite(
    specs: Sequence[ExperimentSpec],
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Progress | None = None,
) -> SuiteReport:
    """Run ``specs``, fanning out over ``jobs`` worker processes.

    ``cache=None`` disables caching entirely.  Outcomes come back in the
    order of ``specs`` regardless of completion order.  ``jobs <= 1``
    executes serially in-process (the reference path the parallel one is
    tested against).
    """
    started = time.perf_counter()
    report = SuiteReport(jobs=max(1, jobs))
    note = progress or (lambda message: None)

    outcomes: dict[str, ExperimentOutcome] = {}
    to_run: list[ExperimentSpec] = []
    for spec in specs:
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            outcomes[spec.exp_id] = hit
            report.cached.append(spec.exp_id)
            note(f"cached   {spec.exp_id}")
        else:
            to_run.append(spec)

    def finish(spec: ExperimentSpec, outcome: ExperimentOutcome) -> None:
        outcomes[spec.exp_id] = outcome
        report.executed.append(spec.exp_id)
        if cache is not None:
            cache.put(spec, outcome)
        note(f"executed {spec.exp_id}")

    if to_run and report.jobs == 1:
        for spec in to_run:
            try:
                outcome = run_spec(spec)
            except Exception as exc:
                raise _attribute(spec.exp_id, "serial run", exc) from exc
            report.simulated_runs += spec.run_count()
            finish(spec, outcome)
    elif to_run:
        _run_parallel(to_run, report, finish)

    report.outcomes = [outcomes[spec.exp_id] for spec in specs]
    report.wall_seconds = time.perf_counter() - started
    return report


def _run_parallel(
    to_run: list[ExperimentSpec],
    report: SuiteReport,
    finish: Callable[[ExperimentSpec, ExperimentOutcome], None],
) -> None:
    by_id = {spec.exp_id: spec for spec in to_run}
    recommended: dict[str, set[OptimizationKind]] = {}
    # exp_id -> {row index -> RunRecord}: the baseline is row 0 and plan i
    # is row i + 1, filled as tasks finish.  Keyed by index, not label:
    # duplicate plan labels must still produce one row each, exactly as
    # the serial path does.
    records: dict[str, dict[int, RunRecord]] = {spec.exp_id: {} for spec in to_run}

    with ProcessPoolExecutor(max_workers=report.jobs) as pool:
        futures = {}
        for spec in to_run:
            if spec.maker == "sharded":
                # Sharded experiments have no baseline/plan split: the
                # whole run is one pool task producing the outcome.
                futures[pool.submit(run_spec, spec)] = ("whole", spec.exp_id, None)
            else:
                futures[pool.submit(_baseline_task, spec)] = (
                    "baseline",
                    spec.exp_id,
                    None,
                )
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                kind, exp_id, plan_index = futures.pop(future)
                spec = by_id[exp_id]
                if (error := future.exception()) is not None:
                    stage = kind
                    if kind == "plan":
                        stage = f"plan {spec.plans[plan_index][0]!r}"
                    raise _attribute(exp_id, stage, error) from error
                if kind == "whole":
                    report.simulated_runs += spec.run_count()
                    finish(spec, future.result())
                    continue
                report.simulated_runs += 1
                rows = records[exp_id]
                if kind == "baseline":
                    rows[0], recommended[exp_id], tasks = future.result()
                    for index, task in enumerate(tasks):
                        plan_future = pool.submit(_plan_task, spec, task)
                        futures[plan_future] = ("plan", exp_id, index)
                else:
                    rows[plan_index + 1] = future.result()
                if len(rows) == len(spec.plans) + 1:
                    ordered = [rows[index] for index in range(len(rows))]
                    finish(
                        spec,
                        assemble_outcome(
                            spec.title, ordered, recommended[exp_id], spec.paper_dict()
                        ),
                    )
