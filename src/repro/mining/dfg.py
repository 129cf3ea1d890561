"""Directly-follows graphs.

The basic artifact every miner builds on: how often activity ``b``
directly follows activity ``a`` within a trace, plus the start/end
activity sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class DirectlyFollowsGraph:
    """Directly-follows counts over a set of traces."""

    counts: Counter = field(default_factory=Counter)
    activity_counts: Counter = field(default_factory=Counter)
    start_activities: Counter = field(default_factory=Counter)
    end_activities: Counter = field(default_factory=Counter)

    @staticmethod
    def from_traces(traces: Iterable[tuple[str, ...]]) -> "DirectlyFollowsGraph":
        dfg = DirectlyFollowsGraph()
        for trace in traces:
            if not trace:
                continue
            dfg.start_activities[trace[0]] += 1
            dfg.end_activities[trace[-1]] += 1
            dfg.activity_counts.update(trace)
            dfg.counts.update(zip(trace, trace[1:]))
        return dfg

    def activities(self) -> list[str]:
        return sorted(self.activity_counts)

    def follows(self, a: str, b: str) -> int:
        """How often ``b`` directly follows ``a``."""
        return self.counts.get((a, b), 0)

    def most_frequent_path(self) -> list[str]:
        """Greedy walk along heaviest edges from the top start activity.

        A readable "main flow" summary (not a formal model): starts at the
        most frequent start activity, repeatedly follows the heaviest
        outgoing edge to an unvisited activity.
        """
        if not self.start_activities:
            return []
        current = self.start_activities.most_common(1)[0][0]
        path = [current]
        visited = {current}
        while True:
            candidates = [
                (count, b)
                for (a, b), count in self.counts.items()
                if a == current and b not in visited
            ]
            if not candidates:
                return path
            _, nxt = max(candidates)
            path.append(nxt)
            visited.add(nxt)
            current = nxt
