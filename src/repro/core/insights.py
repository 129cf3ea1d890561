"""Deeper log analytics beyond the nine rules.

The paper's metrics section hints at analyses the rules only partially
consume — proximity-correlation versus block size (inter- vs intra-block
failures, which "helps to choose between inter- or intra-block transaction
reordering strategies") and per-activity failure profiles.  This module
computes those as a structured :class:`LogInsights` object, used by the
extended report and the scheduler-choice ablation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.metrics import LogMetrics


@dataclass
class ActivityProfile:
    """One activity's health summary."""

    total: int
    failures: int
    failure_rate: float
    failed_as_victim: int
    caused_as_culprit: int


@dataclass
class LogInsights:
    """Structural analytics over one analyzed log."""

    #: Share of conflict pairs whose culprit sits in the same block.
    intra_block_share: float
    #: Histogram of proximity correlations (corP), bucketed.
    distance_histogram: dict[str, int]
    #: Scheduler suggestion per the paper: intra-block failures favour
    #: Fabric++-style in-block reordering; inter-block favours
    #: FabricSharp-style windowed early abort.
    suggested_scheduler: str
    activity_profiles: dict[str, ActivityProfile]

    def top_victims(self, n: int = 3) -> list[str]:
        """Activities that fail the most as conflict victims."""
        ranked = sorted(
            self.activity_profiles.items(),
            key=lambda item: -item[1].failed_as_victim,
        )
        return [name for name, profile in ranked[:n] if profile.failed_as_victim]

    def top_culprits(self, n: int = 3) -> list[str]:
        """Activities whose writes invalidate the most transactions."""
        ranked = sorted(
            self.activity_profiles.items(),
            key=lambda item: -item[1].caused_as_culprit,
        )
        return [name for name, profile in ranked[:n] if profile.caused_as_culprit]


_BUCKETS = ((1, "1"), (5, "2-5"), (20, "6-20"), (100, "21-100"))


def _bucket(distance: int) -> str:
    for upper, label in _BUCKETS:
        if distance <= upper:
            return label
    return ">100"


def derive_insights(metrics: LogMetrics) -> LogInsights:
    """Compute :class:`LogInsights` from precomputed metrics."""
    pairs = metrics.conflict_pairs
    intra = sum(1 for pair in pairs if pair.same_block)
    intra_share = intra / len(pairs) if pairs else 0.0

    histogram: Counter = Counter(_bucket(pair.distance) for pair in pairs)

    victims: Counter = Counter(pair.failed_activity for pair in pairs)
    culprits: Counter = Counter(pair.culprit_activity for pair in pairs)

    profiles = {}
    for activity, stats in metrics.activity_stats.items():
        profiles[activity] = ActivityProfile(
            total=stats.total,
            failures=stats.failures,
            failure_rate=stats.failures / stats.total if stats.total else 0.0,
            failed_as_victim=victims.get(activity, 0),
            caused_as_culprit=culprits.get(activity, 0),
        )

    # Paper Section 4.3 (metric 8): "If intra-block failures are very high,
    # smaller block sizes can potentially reduce failures ... helps to
    # choose between inter- or intra-block transaction reordering".
    if not pairs:
        suggestion = "none"
    elif intra_share >= 0.5:
        suggestion = "fabricpp"  # in-block reordering removes intra-block conflicts
    else:
        suggestion = "fabricsharp"  # windowed early abort targets inter-block staleness

    return LogInsights(
        intra_block_share=intra_share,
        distance_histogram=dict(histogram),
        suggested_scheduler=suggestion,
        activity_profiles=profiles,
    )


def render_insights(insights: LogInsights) -> str:
    """Readable appendix for the BlockOptR report."""
    lines = [
        "Conflict structure",
        "------------------",
        f"intra-block failure share: {insights.intra_block_share:.0%}"
        f" -> suggested system-level scheduler: {insights.suggested_scheduler}",
        f"conflict distances (commit-order positions): "
        + ", ".join(
            f"{label}: {count}"
            for label, count in sorted(insights.distance_histogram.items())
        ),
    ]
    victims = insights.top_victims()
    culprits = insights.top_culprits()
    if victims:
        lines.append(f"most-failing activities: {', '.join(victims)}")
    if culprits:
        lines.append(f"most-invalidating activities: {', '.join(culprits)}")
    return "\n".join(lines)
