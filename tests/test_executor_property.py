"""Property test for the suite executor (ISSUE 1, satellite 3).

For any subset of the run table, any ``jobs`` in 1..4 and any cache state
(cold or pre-warmed), the executor must return exactly one outcome per
requested experiment, in request order, with no duplicate or missing run
labels — and every outcome must equal the serial reference bit for bit.
"""

from __future__ import annotations

import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.cache import ResultCache
from repro.bench.executor import run_spec, run_suite
from repro.bench.registry import get

#: A tiny run table: all three plan shapes (none, single, multiple) at a
#: budget small enough for many hypothesis examples.  The last two share
#: one bundle, so together they run one baseline.
RUN_TABLE = [
    get("table3/send_rate_50").with_overrides(total_transactions=150),
    get("fig09_block_size/block_count_50").with_overrides(total_transactions=150),
    get("fig08_client_boost/tx_dist_skew_70").with_overrides(total_transactions=150),
    get("fig12_combined/tx_dist_skew_70").with_overrides(total_transactions=150),
]

_reference_cache: dict[str, object] = {}


def _distinct_runs(specs) -> int:
    """Runs a cold suite of ``specs`` simulates: per bundle, one baseline
    and one run per distinct plan."""
    kinds_by_bundle: dict[str, set] = {}
    for spec in specs:
        kinds_by_bundle.setdefault(spec.bundle_key(), set()).update(
            kinds for _, kinds in spec.plans
        )
    return sum(1 + len(kinds) for kinds in kinds_by_bundle.values())


def _reference(spec):
    """Serial reference outcome, computed once per spec across examples."""
    if spec.exp_id not in _reference_cache:
        _reference_cache[spec.exp_id] = run_spec(spec)
    return _reference_cache[spec.exp_id]


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=len(RUN_TABLE) - 1),
        min_size=0,
        max_size=len(RUN_TABLE),
        unique=True,
    ),
    jobs=st.integers(min_value=1, max_value=4),
    warm=st.booleans(),
)
def test_any_subset_any_jobs_any_cache_state(indices, jobs, warm):
    subset = [RUN_TABLE[i] for i in indices]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        if warm:
            primed = run_suite(subset, jobs=1, cache=cache)
            assert primed.simulated_runs == _distinct_runs(subset)

        report = run_suite(subset, jobs=jobs, cache=cache)

        # One outcome per requested experiment, in request order.
        assert [o.name for o in report.outcomes] == [s.title for s in subset]
        # Warm cache -> zero simulation runs; cold -> every run simulated.
        if warm:
            assert report.simulated_runs == 0
            assert report.executed == []
        else:
            assert report.simulated_runs == _distinct_runs(subset)
            assert sorted(report.executed) == sorted(s.exp_id for s in subset)

        for spec, outcome in zip(subset, report.outcomes):
            reference = _reference(spec)
            # No duplicate or missing run labels, exact row equality.
            labels = [row.label for row in outcome.rows]
            assert labels == ["without"] + [label for label, _ in spec.plans]
            assert len(set(labels)) == len(labels)
            assert outcome.rows == reference.rows
            assert outcome.recommendations == reference.recommendations
