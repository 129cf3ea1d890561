"""Property tests for the cross-channel stitcher (ISSUE 8, satellite 2).

:func:`repro.shard.summary.stitch` merges bounded per-channel summaries
into one report, and its merge arithmetic must agree with brute force
over the underlying per-transaction data for *any* channel shapes —
including channels that committed nothing, whose divisors are all zero.
The summaries here are synthesized directly (not produced by runs) so
hypothesis can explore shapes a real workload would rarely reach.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.forensics import CAUSES, TOP_N
from repro.shard.plan import ChannelPlan, ShardPlan
from repro.shard.summary import ChannelSummary, stitch

#: Small key alphabet so merged counts actually collide across channels.
_KEYS = [f"user:u{i}" for i in range(8)]

#: One channel's synthetic ground truth: per-transaction latencies, a
#: conflict hot-key histogram and the channel's wall-clock window.
_channel_data = st.fixed_dictionaries(
    {
        "latencies": st.lists(
            st.floats(0.001, 100.0, allow_nan=False, allow_infinity=False),
            max_size=30,
        ),
        "hot_keys": st.dictionaries(
            st.sampled_from(_KEYS), st.integers(1, 50), max_size=TOP_N
        ),
        "first_submit": st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
        "span": st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
        "failures": st.integers(0, 20),
    }
)

_channels = st.lists(_channel_data, min_size=1, max_size=6)


def _summarize(index: int, data: dict) -> ChannelSummary:
    """Fold one channel's ground truth the way a streamed run would."""
    latencies = data["latencies"]
    successes = len(latencies)
    failures = data["failures"]
    cause_counts = {cause: 0 for cause in CAUSES}
    cause_counts["mvcc_conflict"] = failures
    return ChannelSummary(
        name=f"channel{index}",
        seed=100 + index,
        planned_transactions=successes + failures,
        issued=successes + failures,
        committed=successes,
        aborted=failures,
        blocks=successes // 5 + 1,
        data_blocks=successes // 5,
        max_block_transactions=min(successes, 5),
        cut_reasons={},
        submitted=successes + failures,
        successes=successes,
        failures=failures,
        cause_counts=cause_counts,
        hot_keys=sorted(
            ([key, count] for key, count in data["hot_keys"].items()),
            key=lambda item: (-item[1], item[0]),
        ),
        key_families=[],
        org_policy_failures={},
        max_attempt=1,
        latency_sum=sum(latencies),
        latency_count=successes,
        latency_max=max(latencies, default=0.0),
        first_submit=data["first_submit"],
        last_commit=data["first_submit"] + data["span"],
        rate_series=[],
    )


def _stitched(channel_data: list[dict]):
    summaries = [_summarize(i, data) for i, data in enumerate(channel_data)]
    total = sum(summary.issued for summary in summaries)
    plan = ShardPlan(
        base="default",
        seed=7,
        total_transactions=max(total, len(summaries)),
        interval_seconds=1.0,
        channels=tuple(
            ChannelPlan(
                index=summary.seed - 100,
                name=summary.name,
                seed=summary.seed,
                transactions=summary.planned_transactions,
                clients=(("Org1", 1), ("Org2", 1)),
            )
            for summary in summaries
        ),
    )
    return stitch(plan, summaries)


@settings(max_examples=60, deadline=None)
@given(_channels)
def test_merged_mean_latency_matches_brute_force(channel_data):
    # The stitcher merges (sum, count) pairs; brute force averages the
    # concatenated per-transaction latencies.  They must agree exactly
    # up to float summation order.
    stitched = _stitched(channel_data)
    all_latencies = [
        latency for data in channel_data for latency in data["latencies"]
    ]
    if not all_latencies:
        assert stitched.avg_latency == 0.0
    else:
        brute = sum(all_latencies) / len(all_latencies)
        assert abs(stitched.avg_latency - brute) < 1e-9 * max(1.0, brute)


@settings(max_examples=60, deadline=None)
@given(_channels)
def test_makespan_spans_earliest_submit_to_latest_commit(channel_data):
    # Channels run concurrently: the stitched span is min-to-max across
    # channels (floored at MIN_MAKESPAN), never the per-channel sum.
    stitched = _stitched(channel_data)
    first = min(data["first_submit"] for data in channel_data)
    last = max(data["first_submit"] + data["span"] for data in channel_data)
    assert stitched.makespan == max(last - first, 1e-9)


@settings(max_examples=60, deadline=None)
@given(_channels)
def test_top_hot_keys_match_brute_force_merge(channel_data):
    # Every synthetic channel holds at most TOP_N keys, so nothing is
    # truncated channel-side and the stitched top-N must equal the
    # brute-force top-N over the summed histograms.
    stitched = _stitched(channel_data)
    merged: dict[str, int] = {}
    for data in channel_data:
        for key, count in data["hot_keys"].items():
            merged[key] = merged.get(key, 0) + count
    brute = sorted(merged.items(), key=lambda item: (-item[1], item[0]))[:TOP_N]
    assert stitched.hot_keys() == [list(item) for item in brute]


@settings(max_examples=60, deadline=None)
@given(_channels)
def test_totals_and_digest_are_defined_for_any_shape(channel_data):
    stitched = _stitched(channel_data)
    total_success = sum(len(data["latencies"]) for data in channel_data)
    total_failures = sum(data["failures"] for data in channel_data)
    assert stitched.successes == total_success
    assert stitched.failures == total_failures
    assert stitched.issued == total_success + total_failures
    assert 0.0 <= stitched.success_rate <= 1.0
    assert stitched.cause_counts()["mvcc_conflict"] == total_failures
    # The digest must be computable (finite, JSON-serializable) for any
    # channel shape, and stable for identical inputs.
    assert stitched.digest() == _stitched(channel_data).digest()


def test_all_channels_empty_is_well_defined():
    # The all-aborts edge: no channel committed anything, every divisor
    # (latency_count, submitted, makespan) is at its degenerate floor.
    empty = [
        {
            "latencies": [],
            "hot_keys": {},
            "first_submit": 1.0,
            "span": 0.0,
            "failures": 0,
        }
        for _ in range(3)
    ]
    stitched = _stitched(empty)
    assert stitched.avg_latency == 0.0
    assert stitched.success_rate == 0.0
    assert stitched.throughput == 0.0
    assert stitched.makespan == 1e-9
    assert stitched.hot_keys() == []
    assert stitched.digest()
