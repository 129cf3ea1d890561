"""Serial/parallel equivalence: the process-pool executor must be exact.

The simulator is fully deterministic for a fixed seed (the kernel breaks
ties by insertion order), so fanning an experiment out over worker
processes must reproduce serial ``execute_experiment`` output bit for bit
— exact floats, same applied/forced flags, same recommendation sets.
Three representative experiments cover the three bundle makers
(synthetic, use case, loan) and multi-plan resolution.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.bench.cache import ResultCache
from repro.bench.executor import run_spec, run_suite
from repro.bench.registry import get

#: Small but non-trivial budgets: enough traffic for MVCC conflicts and
#: recommendations to fire, small enough for the tier-1 time budget.
REPRESENTATIVES = [
    get("fig09_block_size/block_count_50").with_overrides(total_transactions=400),
    get("fig16_voting/voting").with_overrides(total_transactions=400),
    get("fig17_loan/send_rate_300").with_overrides(total_transactions=400),
]


@pytest.fixture(scope="module")
def serial_outcomes():
    return [run_spec(spec) for spec in REPRESENTATIVES]


def test_parallel_rows_identical_to_serial(serial_outcomes):
    report = run_suite(REPRESENTATIVES, jobs=2, cache=None)
    assert len(report.outcomes) == len(serial_outcomes)
    for parallel, serial in zip(report.outcomes, serial_outcomes):
        assert parallel.name == serial.name
        # RunRow dataclass equality covers exact float equality of the
        # headline numbers plus applied kinds and forced flags.
        assert parallel.rows == serial.rows
        assert parallel.recommendations == serial.recommendations
        assert parallel.paper == serial.paper


def test_parallel_matches_at_higher_job_counts(serial_outcomes):
    report = run_suite(REPRESENTATIVES, jobs=4, cache=None)
    assert [outcome.rows for outcome in report.outcomes] == [
        outcome.rows for outcome in serial_outcomes
    ]


def test_cache_round_trip_preserves_rows(tmp_path, serial_outcomes):
    cache = ResultCache(tmp_path)
    first = run_suite(REPRESENTATIVES, jobs=2, cache=cache)
    assert first.simulated_runs == sum(s.run_count() for s in REPRESENTATIVES)
    warm = run_suite(REPRESENTATIVES, jobs=2, cache=cache)
    assert warm.simulated_runs == 0
    assert warm.cached == [spec.exp_id for spec in REPRESENTATIVES]
    assert [outcome.rows for outcome in warm.outcomes] == [
        outcome.rows for outcome in serial_outcomes
    ]


def test_seed_override_changes_results_deterministically():
    spec = REPRESENTATIVES[0]
    reseeded = spec.with_overrides(seed=99)
    assert reseeded.seed != spec.seed
    a, b = run_spec(reseeded), run_spec(reseeded)
    assert a.rows == b.rows  # same seed -> same exact numbers


class TestCacheRobustness:
    """Corrupt cache entries are a miss — deleted and re-executed."""

    SPEC = get("table3/num_orgs_4").with_overrides(total_transactions=200)

    @pytest.fixture()
    def warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = run_suite([self.SPEC], jobs=1, cache=cache)
        assert report.executed == [self.SPEC.exp_id]
        return cache

    @pytest.mark.parametrize(
        "garbage",
        [
            b"",  # interrupted before any byte landed
            b'{"exp_id": "table3/num_orgs_4", "outcome"',  # truncated mid-write
            b"\xff\xfe\x00 not even utf-8 \x9c",  # binary junk
            b'{"spec": {}}',  # valid JSON, missing the outcome
            b'{"outcome": 42}',  # outcome of the wrong shape
        ],
        ids=["empty", "truncated", "binary", "missing-key", "wrong-shape"],
    )
    def test_garbage_entry_is_deleted_and_rerun(self, warm_cache, garbage):
        path = warm_cache.path(self.SPEC)
        path.write_bytes(garbage)
        assert warm_cache.get(self.SPEC) is None
        assert not path.exists()  # the bad bytes never trip a second run
        rerun = run_suite([self.SPEC], jobs=1, cache=warm_cache)
        assert rerun.executed == [self.SPEC.exp_id]
        assert rerun.simulated_runs == self.SPEC.run_count()
        # The fresh entry is healthy again.
        assert warm_cache.get(self.SPEC) is not None

    def test_intact_entry_is_untouched(self, warm_cache):
        path = warm_cache.path(self.SPEC)
        before = path.read_bytes()
        warm = run_suite([self.SPEC], jobs=1, cache=warm_cache)
        assert warm.cached == [self.SPEC.exp_id]
        assert path.read_bytes() == before


class TestSharedGroups:
    """Experiments that share a bundle share its runs, and stay exact.

    Three specs of the ``block_count_1000`` bundle: Table 3 (baseline
    only), Figure 11 and Figure 12 (one shared plan, ``activity
    reordering`` under two labels).  Figure 10's spec of that bundle at
    another seed is a different bundle and must not join the group.
    """

    TXS = 200
    SUITE = [
        get("table3/block_count_1000").with_overrides(total_transactions=TXS),
        get("fig11_reordering/block_count_1000").with_overrides(total_transactions=TXS),
        get("fig12_combined/block_count_1000").with_overrides(total_transactions=TXS),
        get("fig10_rate_control/block_count_1000").with_overrides(
            seed=8, total_transactions=TXS
        ),
    ]
    #: The seed-7 group's baseline and shared plan, plus Figure 10's
    #: baseline and plan.
    DISTINCT_RUNS = 4

    @pytest.fixture(scope="class")
    def references(self):
        return [run_spec(spec) for spec in self.SUITE]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_outcome_equals_its_own_run(self, references, jobs):
        lines: list[str] = []
        report = run_suite(self.SUITE, jobs=jobs, cache=None, progress=lines.append)
        assert report.simulated_runs == self.DISTINCT_RUNS
        assert sum(spec.run_count() for spec in self.SUITE) == 7
        assert sorted(lines) == sorted(f"executed {spec.exp_id}" for spec in self.SUITE)
        for spec, outcome, reference in zip(self.SUITE, report.outcomes, references):
            assert outcome.name == reference.name == spec.title
            assert outcome.rows == reference.rows
            assert outcome.recommendations == reference.recommendations
            assert outcome.paper == reference.paper
            assert outcome.forensics == reference.forensics
            assert outcome.control == reference.control
        # The shared plan row keeps each figure's own label.
        assert report.outcomes[1].rows[1].label == "activity reordering"
        assert report.outcomes[2].rows[1].label == "all"

    def test_serial_progress_follows_each_experiments_own_runs(self, monkeypatch):
        from repro.bench import harness

        events: list[str] = []
        real_run_plan = harness.run_plan

        def run_plan(bundle, task):
            _, recommendations, _ = task
            events.append("run " + "+".join(rec.kind.value for rec in recommendations))
            return real_run_plan(bundle, task)

        monkeypatch.setattr(harness, "run_plan", run_plan)
        run_suite(self.SUITE, jobs=1, cache=None, progress=events.append)
        assert events == [
            "executed table3/block_count_1000",
            "run activity_reordering",
            "executed fig11_reordering/block_count_1000",
            "executed fig12_combined/block_count_1000",
            "run transaction_rate_control",
            "executed fig10_rate_control/block_count_1000",
        ]

    def test_group_mates_do_not_share_mutable_records(self, references):
        outcomes = run_suite(self.SUITE[:3], jobs=1, cache=None).outcomes
        for row in outcomes[1].rows:
            row.throughput = -1.0
        outcomes[1].forensics[0]["cause_counts"]["mutated"] = 1
        outcomes[1].forensics[1]["buckets"].clear()
        for outcome, reference in zip(outcomes[::2], references[::2]):
            assert outcome.rows == reference.rows
            assert outcome.forensics == reference.forensics

    def test_a_failing_plan_names_its_own_experiment(self, monkeypatch):
        from repro.bench import executor, harness

        def run_plan(bundle, task):
            raise RuntimeError("plan failed")

        monkeypatch.setattr(harness, "run_plan", run_plan)
        with pytest.raises(executor.ExperimentExecutionError) as excinfo:
            run_suite(self.SUITE[:3], jobs=1, cache=None)
        assert excinfo.value.exp_id == "fig11_reordering/block_count_1000"


class TestFailureAttribution:
    """A crashing cell must surface its exp_id plus the original traceback."""

    @staticmethod
    def poison_spec():
        from dataclasses import replace

        return replace(
            get("table3/num_orgs_4").with_overrides(total_transactions=200),
            exp_id="poison/bad_maker",
            maker="no_such_maker",
        )

    def test_serial_failure_names_the_experiment(self):
        from repro.bench.executor import ExperimentExecutionError

        with pytest.raises(ExperimentExecutionError) as excinfo:
            run_suite([self.poison_spec()], jobs=1, cache=None)
        error = excinfo.value
        assert error.exp_id == "poison/bad_maker"
        assert "poison/bad_maker" in str(error)
        assert "original traceback" in str(error)
        assert "no_such_maker" in str(error)
        assert isinstance(error.original, KeyError)

    def test_parallel_failure_names_the_experiment(self):
        from repro.bench.executor import ExperimentExecutionError

        with pytest.raises(ExperimentExecutionError) as excinfo:
            run_suite([self.poison_spec()], jobs=2, cache=None)
        error = excinfo.value
        assert error.exp_id == "poison/bad_maker"
        assert "no_such_maker" in str(error)
        # The worker's traceback text crossed the process boundary.
        assert "make_bundle" in str(error)

    def test_parallel_failure_cancels_the_queued_experiments(self, tmp_path, monkeypatch):
        """A failure raises at once: experiments still queued never start.

        Up to five slow cells can start before the cancel (two on the
        workers, three in the pool's call queue), so there are twelve.
        Each has its own seed, so each is its own bundle group and task.
        """
        from dataclasses import replace

        from repro.bench import executor

        monkeypatch.setenv("REPRO_TEST_MARKERS", str(tmp_path))
        monkeypatch.setattr(executor, "run_group", _marking_run_group)
        base = get("table3/num_orgs_4")
        slow = [
            replace(base, exp_id=f"slow/{index}", seed=100 + index) for index in range(12)
        ]
        with pytest.raises(executor.ExperimentExecutionError) as excinfo:
            run_suite([replace(base, exp_id="poison/first"), *slow], jobs=2, cache=None)
        assert excinfo.value.exp_id == "poison/first"
        started = sorted(path.name for path in tmp_path.iterdir())
        assert "poison_first" in started
        assert len(started) - 1 < len(slow) / 2, started


def _marking_run_group(group):
    """Pool task stand-in: mark the group's one experiment as started,
    then fail at once (``poison/``) or take half a second."""
    [spec] = group
    Path(os.environ["REPRO_TEST_MARKERS"], spec.exp_id.replace("/", "_")).touch()
    if spec.exp_id.startswith("poison/"):
        raise RuntimeError("poisoned cell")
    time.sleep(0.5)
    return []
