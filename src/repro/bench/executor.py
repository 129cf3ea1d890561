"""Parallel experiment executor: fan experiments out over a process pool.

The paper's protocol (run → analyze → apply recommendations → re-run) is
embarrassingly parallel across bundles.  Experiments whose specs build
the same bundle (:meth:`ExperimentSpec.bundle_key`: Table 3 shares every
synthetic workload with Figures 7-12) form one group, which runs its
baseline, its BlockOptR analysis and each distinct plan once
(:func:`repro.bench.harness.execute_group`).  Each pool task is one
group: :func:`run_group`, the same body the serial path iterates.
Because the simulator is fully deterministic for a fixed seed (the
kernel breaks ties by insertion order and nothing depends on process
state), the fan-out is bit-for-bit equivalent to serial output, and a
group's outcomes to each experiment run alone —
``tests/test_executor_equivalence.py`` pins this down.

Results are memoized via :class:`~repro.bench.cache.ResultCache`; a warm
re-run performs zero simulation runs.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.bench.cache import ResultCache
from repro.bench.harness import ExperimentOutcome, execute_experiment, execute_group
from repro.bench.registry import ExperimentSpec

#: Optional progress sink: called with one human-readable line per event.
Progress = Callable[[str], None]


class ExperimentExecutionError(RuntimeError):
    """A cell of a suite/matrix run crashed — with its identity attached.

    In a large sweep the raw worker exception is useless on its own (a
    pool future only says *something* failed); this wrapper names the
    experiment and carries the original traceback text, so the failing
    cell can be re-run with ``--only <exp_id>`` immediately.
    """

    def __init__(
        self, exp_id: str, original: BaseException, detail: str | None = None
    ) -> None:
        self.exp_id = exp_id
        self.original = original
        #: The original traceback as text (``detail`` re-supplies it when
        #: the error is rebuilt from a pickle).
        self.detail = detail or "".join(
            traceback.format_exception(
                type(original), original, original.__traceback__
            )
        ).rstrip()
        super().__init__(
            f"experiment {exp_id!r} failed: {original!r}\n"
            f"original traceback:\n{self.detail}"
        )

    def __reduce__(self):
        # A pool worker raises this error and the parent re-raises it: the
        # traceback's text crosses the process boundary, the traceback
        # object cannot.
        return type(self), (self.exp_id, self.original, self.detail)


@dataclass
class SuiteReport:
    """What one suite invocation did and produced."""

    outcomes: list[ExperimentOutcome] = field(default_factory=list)
    #: exp_ids actually simulated this invocation.
    executed: list[str] = field(default_factory=list)
    #: exp_ids served from the result cache.
    cached: list[str] = field(default_factory=list)
    #: Workload simulations performed (0 on a fully warm cache); a run
    #: that experiments of one group share counts once.
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
    """Run one experiment in this process, as a group of one.

    A top-level function receiving a declarative spec, so it pickles; the
    bundle is built from the spec, which is deterministic and keeps the
    payload shipped between processes tiny.
    """
    return execute_experiment(
        spec.title, spec.make_bundle(), spec.resolved_plans(), paper=spec.paper_dict()
    )


def _group_outcomes(
    group: Sequence[ExperimentSpec],
) -> Iterator[tuple[ExperimentOutcome, int]]:
    """``(outcome, runs simulated for it)`` per spec of one bundle group.

    Outcomes come in group order, each as soon as its own runs finish.
    A step that raises is charged to the experiment it ran for: an
    :class:`ExperimentExecutionError` names that spec.
    """
    finished = 0
    try:
        for step in execute_group(
            group[0].make_bundle(),
            [(spec.title, spec.resolved_plans(), spec.paper_dict()) for spec in group],
        ):
            yield step
            finished += 1
    except Exception as exc:
        raise ExperimentExecutionError(group[finished].exp_id, exc) from exc


def run_group(group: Sequence[ExperimentSpec]) -> list[tuple[ExperimentOutcome, int]]:
    """Pool task: every outcome of one bundle group (:func:`_group_outcomes`)."""
    return list(_group_outcomes(group))


# -- the suite runner ---------------------------------------------------------------


def bundle_groups(specs: Sequence[ExperimentSpec]) -> list[list[ExperimentSpec]]:
    """``specs`` grouped by :meth:`ExperimentSpec.bundle_key`, first seen first."""
    groups: dict[str, list[ExperimentSpec]] = {}
    for spec in specs:
        groups.setdefault(spec.bundle_key(), []).append(spec)
    return list(groups.values())


def cold_run_count(specs: Sequence[ExperimentSpec]) -> int:
    """Runs :func:`run_suite` simulates for ``specs`` with nothing cached."""
    groups = bundle_groups(specs)  # a baseline each, then every distinct plan
    return len(groups) + sum(len({v for s in g for _, v in s.plans}) for g in groups)


def run_suite(
    specs: Sequence[ExperimentSpec],
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Progress | None = None,
) -> SuiteReport:
    """Run ``specs``, fanning out over ``jobs`` worker processes.

    ``cache=None`` disables caching entirely; hits are served per
    experiment, and the uncached specs are grouped by bundle.  Outcomes
    come back in the order of ``specs`` regardless of completion order.
    ``jobs <= 1`` executes serially in-process, one group after another
    (the reference path the parallel one is tested against).
    """
    started = time.perf_counter()
    report = SuiteReport(jobs=max(1, jobs))
    note = progress or (lambda message: None)

    outcomes: dict[str, ExperimentOutcome] = {}
    uncached: list[ExperimentSpec] = []
    for spec in specs:
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            outcomes[spec.exp_id] = hit
            report.cached.append(spec.exp_id)
            note(f"cached   {spec.exp_id}")
        else:
            uncached.append(spec)
    groups = bundle_groups(uncached)

    def finish(spec: ExperimentSpec, outcome: ExperimentOutcome, runs: int) -> None:
        outcomes[spec.exp_id] = outcome
        report.executed.append(spec.exp_id)
        report.simulated_runs += runs
        if cache is not None:
            cache.put(spec, outcome)
        note(f"executed {spec.exp_id}")

    if groups and report.jobs == 1:
        for group in groups:
            for spec, (outcome, runs) in zip(group, _group_outcomes(group)):
                finish(spec, outcome, runs)
    elif groups:
        with ProcessPoolExecutor(max_workers=report.jobs) as pool:
            futures = {pool.submit(run_group, group): group for group in groups}
            for future in as_completed(futures):
                group = futures[future]
                if (error := future.exception()) is not None:
                    # Leaving the block waits for every queued task unless
                    # they are cancelled first.
                    pool.shutdown(cancel_futures=True)
                    if isinstance(error, ExperimentExecutionError):
                        raise error
                    # A failure outside the group body (a worker died, say).
                    raise ExperimentExecutionError(group[0].exp_id, error) from error
                for spec, (outcome, runs) in zip(group, future.result()):
                    finish(spec, outcome, runs)

    report.outcomes = [outcomes[spec.exp_id] for spec in specs]
    report.wall_seconds = time.perf_counter() - started
    return report
