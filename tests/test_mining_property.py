"""Property-based tests for the mining layer.

Hypothesis generates event logs — both unconstrained random traces and
logs sampled from random loop-free sequential process models — and
checks:

* DFG / footprint consistency: the footprint relations are exactly the
  four classical functions of the directly-follows counts, with the
  ``->`` / ``<-`` antisymmetry and ``||`` / ``#`` symmetry they imply;
* the heuristics miner covers its own structured log: it keeps a
  dependency edge for every observed directly-follows pair, and the
  graph stays acyclic;
* footprint conformance is bounded in [0, 1] and symmetric for arbitrary
  inputs.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.mining.conformance import footprint_conformance
from repro.mining.dfg import DirectlyFollowsGraph
from repro.mining.footprint import FootprintMatrix, Relation
from repro.mining.heuristics import heuristics_miner

ALPHABET = ["a", "b", "c", "d", "e"]

#: Arbitrary traces over a small alphabet (loops and noise allowed).
traces_strategy = st.lists(
    st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8).map(tuple),
    min_size=1,
    max_size=12,
)


@st.composite
def structured_logs(draw):
    """A log sampled from a random loop-free sequential process model.

    The model is a sequence of 2-6 slots; each slot is either one fixed
    activity or an XOR choice between two.  All slot alphabets are
    disjoint and every variant appears in the log, so every edge of the
    model is observed and none is observed in reverse.
    """
    slot_count = draw(st.integers(min_value=2, max_value=6))
    symbols = [f"t{i}" for i in range(2 * slot_count)]
    slots: list[tuple[str, ...]] = []
    for index in range(slot_count):
        pool = symbols[2 * index : 2 * index + 2]
        if draw(st.booleans()):
            slots.append((pool[0],))
        else:
            slots.append(tuple(pool))

    def expand(prefix: list[str], remaining: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
        if not remaining:
            return [tuple(prefix)]
        out = []
        for choice in remaining[0]:
            out.extend(expand(prefix + [choice], remaining[1:]))
        return out

    variants = expand([], slots)
    repeats = draw(st.integers(min_value=1, max_value=3))
    return variants * repeats


# -- DFG / footprint consistency ------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(traces=traces_strategy)
def test_dfg_counts_match_manual_enumeration(traces):
    dfg = DirectlyFollowsGraph.from_traces(traces)
    expected = Counter()
    for trace in traces:
        for left, right in zip(trace, trace[1:]):
            expected[(left, right)] += 1
    assert dfg.counts == expected
    assert sum(dfg.counts.values()) == sum(len(t) - 1 for t in traces)
    assert sum(dfg.start_activities.values()) == len(traces)
    assert sum(dfg.end_activities.values()) == len(traces)
    # Start/end activities must be observed activities.
    assert set(dfg.start_activities) <= set(dfg.activity_counts)
    assert set(dfg.end_activities) <= set(dfg.activity_counts)


@settings(max_examples=50, deadline=None)
@given(traces=traces_strategy)
def test_footprint_is_the_classical_function_of_the_dfg(traces):
    dfg = DirectlyFollowsGraph.from_traces(traces)
    footprint = FootprintMatrix.from_dfg(dfg)
    for a in footprint.activities:
        for b in footprint.activities:
            forward, backward = dfg.follows(a, b) > 0, dfg.follows(b, a) > 0
            expected = (
                Relation.PARALLEL
                if forward and backward
                else Relation.CAUSALITY
                if forward
                else Relation.REVERSE
                if backward
                else Relation.CHOICE
            )
            assert footprint.relation(a, b) is expected


@settings(max_examples=50, deadline=None)
@given(traces=traces_strategy)
def test_footprint_symmetry_laws(traces):
    footprint = FootprintMatrix.from_traces(traces)
    mirror = {
        Relation.CAUSALITY: Relation.REVERSE,
        Relation.REVERSE: Relation.CAUSALITY,
        Relation.PARALLEL: Relation.PARALLEL,
        Relation.CHOICE: Relation.CHOICE,
    }
    for a in footprint.activities:
        for b in footprint.activities:
            assert footprint.relation(b, a) is mirror[footprint.relation(a, b)]
    # A footprint agrees with itself perfectly.
    assert footprint_conformance(footprint, footprint) == 1.0


# -- the heuristics miner covers its own log ------------------------------------------


@settings(max_examples=30, deadline=None)
@given(log=structured_logs())
def test_heuristics_graph_covers_its_own_structured_log(log):
    # Threshold 0.5 admits any edge never observed in reverse (measure
    # f/(f+1) >= 0.5 from the first observation), which is every edge of
    # a loop-free sequential log.
    dfg = DirectlyFollowsGraph.from_traces(log)
    graph = heuristics_miner(dfg, dependency_threshold=0.5)
    for (a, b), count in dfg.counts.items():
        if count > 0:
            assert (a, b) in graph.edges, f"dependency edge {(a, b)} missing"
    assert nx.is_directed_acyclic_graph(nx.DiGraph(graph.edges))


# -- conformance bounded in [0, 1] ----------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(reference=traces_strategy, observed=traces_strategy)
def test_footprint_conformance_bounded_and_symmetric(reference, observed):
    ref = FootprintMatrix.from_traces(reference)
    obs = FootprintMatrix.from_traces(observed)
    value = footprint_conformance(ref, obs)
    assert 0.0 <= value <= 1.0
    assert footprint_conformance(obs, ref) == value
