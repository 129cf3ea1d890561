"""Process mining over derived event logs (paper Section 2.2, 4.2).

Implements the classical algorithms the paper relies on: directly-follows
graphs, footprint relations, the **Alpha miner** (used for Figures 2 and
4), a **Heuristics miner** (dependency graph with frequency thresholds),
and conformance checking — token-replay fitness plus footprint
conformance — used to "verify compliance with the new process model".
"""

from repro.mining.alpha import alpha_miner
from repro.mining.conformance import (
    footprint_conformance,
    model_diff,
    token_replay_fitness,
)
from repro.mining.dfg import DirectlyFollowsGraph
from repro.mining.footprint import FootprintMatrix, Relation
from repro.mining.heuristics import DependencyGraph, heuristics_miner
from repro.mining.petrinet import PetriNet, Place

__all__ = [
    "DependencyGraph",
    "DirectlyFollowsGraph",
    "FootprintMatrix",
    "PetriNet",
    "Place",
    "Relation",
    "alpha_miner",
    "footprint_conformance",
    "heuristics_miner",
    "model_diff",
    "token_replay_fitness",
]
