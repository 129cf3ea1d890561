"""Process mining over derived event logs (paper Section 2.2, 4.2).

Implements the classical algorithms the paper relies on: directly-follows
graphs, footprint relations, a **Heuristics miner** (dependency graph
with frequency thresholds), and footprint conformance — used to "verify
compliance with the new process model" (Figure 4).
"""

from repro.mining.conformance import footprint_conformance, model_diff
from repro.mining.dfg import DirectlyFollowsGraph
from repro.mining.footprint import FootprintMatrix, Relation
from repro.mining.heuristics import DependencyGraph, heuristics_miner

__all__ = [
    "DependencyGraph",
    "DirectlyFollowsGraph",
    "FootprintMatrix",
    "Relation",
    "footprint_conformance",
    "heuristics_miner",
    "model_diff",
]
