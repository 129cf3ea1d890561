"""The Heuristics miner (Weijters & van der Aalst, 2006).

More robust than the alpha algorithm on noisy logs (which blockchain logs
are — failed and out-of-order transactions appear as noise): the
dependency measure

    a => b  =  (|a > b| - |b > a|) / (|a > b| + |b > a| + 1)

is thresholded to keep only confident causal edges, with frequency
filtering for rare behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mining.dfg import DirectlyFollowsGraph


@dataclass
class DependencyGraph:
    """Thresholded dependency relation over activities."""

    activities: tuple[str, ...]
    dependency: dict[tuple[str, str], float]
    edges: set[tuple[str, str]] = field(default_factory=set)
    start_activities: tuple[str, ...] = ()
    end_activities: tuple[str, ...] = ()


def heuristics_miner(
    dfg: DirectlyFollowsGraph,
    dependency_threshold: float = 0.9,
    min_edge_frequency: int = 1,
) -> DependencyGraph:
    """Mine a dependency graph from directly-follows counts.

    ``dependency_threshold`` is the classical confidence cut-off; lowering
    it admits weaker (noisier) edges.  ``min_edge_frequency`` additionally
    drops edges observed fewer times, which is how rare anomalous paths
    (the ones process-model pruning removes) can be filtered in or out.
    """
    if not 0.0 <= dependency_threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {dependency_threshold}")
    activities = tuple(dfg.activities())

    dependency: dict[tuple[str, str], float] = {}
    edges: set[tuple[str, str]] = set()
    for a in activities:
        for b in activities:
            forward = dfg.follows(a, b)
            backward = dfg.follows(b, a)
            if a == b:
                # Length-one loop measure: |a>a| / (|a>a| + 1).
                value = forward / (forward + 1.0)
            else:
                value = (forward - backward) / (forward + backward + 1.0)
            dependency[(a, b)] = value
            if value >= dependency_threshold and forward >= min_edge_frequency:
                edges.add((a, b))

    return DependencyGraph(
        activities=activities,
        dependency=dependency,
        edges=edges,
        start_activities=tuple(sorted(dfg.start_activities)),
        end_activities=tuple(sorted(dfg.end_activities)),
    )
