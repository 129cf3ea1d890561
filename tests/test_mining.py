"""Tests for process mining: DFG, footprints, heuristics, conformance."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.mining import (
    DirectlyFollowsGraph,
    FootprintMatrix,
    Relation,
    footprint_conformance,
    heuristics_miner,
    model_diff,
)

SIMPLE = [("a", "b", "c")] * 10
CHOICE = [("a", "b", "d")] * 5 + [("a", "c", "d")] * 5
PARALLEL = [("a", "b", "c", "d")] * 5 + [("a", "c", "b", "d")] * 5


class TestDfg:
    def test_counts(self):
        dfg = DirectlyFollowsGraph.from_traces(SIMPLE)
        assert dfg.follows("a", "b") == 10
        assert dfg.follows("b", "a") == 0
        assert dfg.activity_counts["a"] == 10

    def test_start_end_activities(self):
        dfg = DirectlyFollowsGraph.from_traces(CHOICE)
        assert set(dfg.start_activities) == {"a"}
        assert set(dfg.end_activities) == {"d"}

    def test_most_frequent_path(self):
        dfg = DirectlyFollowsGraph.from_traces(SIMPLE)
        assert dfg.most_frequent_path() == ["a", "b", "c"]

    def test_empty_traces_ignored(self):
        dfg = DirectlyFollowsGraph.from_traces([(), ("a",)])
        assert dfg.activity_counts["a"] == 1
        assert dfg.most_frequent_path() == ["a"]


class TestFootprint:
    def test_causality(self):
        fp = FootprintMatrix.from_traces(SIMPLE)
        assert fp.relation("a", "b") is Relation.CAUSALITY
        assert fp.relation("b", "a") is Relation.REVERSE

    def test_choice(self):
        fp = FootprintMatrix.from_traces(CHOICE)
        assert fp.relation("b", "c") is Relation.CHOICE

    def test_parallel(self):
        fp = FootprintMatrix.from_traces(PARALLEL)
        assert fp.relation("b", "c") is Relation.PARALLEL


class TestHeuristics:
    def test_dependency_measure(self):
        graph = heuristics_miner(DirectlyFollowsGraph.from_traces(SIMPLE))
        assert graph.dependency[("a", "b")] == pytest.approx(10 / 11)
        assert graph.dependency[("b", "a")] == pytest.approx(-10 / 11)

    def test_edges_thresholded(self):
        graph = heuristics_miner(
            DirectlyFollowsGraph.from_traces(SIMPLE), dependency_threshold=0.9
        )
        assert ("a", "b") in graph.edges
        assert ("b", "a") not in graph.edges

    def test_noise_filtered_by_frequency(self):
        noisy = SIMPLE + [("c", "a")]  # one backwards observation
        strict = heuristics_miner(
            DirectlyFollowsGraph.from_traces(noisy),
            dependency_threshold=0.3,
            min_edge_frequency=2,
        )
        assert ("c", "a") not in strict.edges

    def test_parallel_pairs_get_no_edges(self):
        graph = heuristics_miner(
            DirectlyFollowsGraph.from_traces(PARALLEL), dependency_threshold=0.5
        )
        assert ("b", "c") not in graph.edges
        assert ("c", "b") not in graph.edges

    def test_loop_detection(self):
        # The dependency measure is antisymmetric, so a length-two loop
        # never yields both a->b and b->a: only the stronger direction
        # passes the threshold, and the graph has no loop.
        length_two = [("a", "b", "a", "b", "c")] * 5
        graph = heuristics_miner(
            DirectlyFollowsGraph.from_traces(length_two), dependency_threshold=0.3
        )
        assert set(graph.edges) == {("a", "b"), ("b", "c")}
        assert nx.is_directed_acyclic_graph(nx.DiGraph(graph.edges))
        # A repeated activity is a self-loop edge, which is a loop.
        self_loop = [("a", "b", "b", "c")] * 5
        graph = heuristics_miner(
            DirectlyFollowsGraph.from_traces(self_loop), dependency_threshold=0.3
        )
        assert ("b", "b") in graph.edges
        assert not nx.is_directed_acyclic_graph(nx.DiGraph(graph.edges))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            heuristics_miner(
                DirectlyFollowsGraph.from_traces(SIMPLE), dependency_threshold=1.5
            )


class TestConformance:
    def test_footprint_conformance_identical(self):
        fp = FootprintMatrix.from_traces(SIMPLE)
        assert footprint_conformance(fp, fp) == 1.0

    def test_footprint_conformance_partial(self):
        before = FootprintMatrix.from_traces(SIMPLE)
        after = FootprintMatrix.from_traces([("a", "c", "b")] * 5)
        score = footprint_conformance(before, after)
        assert 0.0 < score < 1.0

    def test_model_diff_detects_new_activity(self):
        before = FootprintMatrix.from_traces(SIMPLE)
        after = FootprintMatrix.from_traces([("a", "b", "c", "x")] * 5)
        diff = model_diff(before, after)
        assert diff.added_activities == ("x",)
        assert diff.removed_activities == ()
        assert diff.changed_relations == ()

    def test_model_diff_detects_relation_change(self):
        before = FootprintMatrix.from_traces([("a", "b")] * 5)
        after = FootprintMatrix.from_traces([("b", "a")] * 5)
        diff = model_diff(before, after)
        changed = {(a, b) for a, b, _, _ in diff.changed_relations}
        assert ("a", "b") in changed

    def test_model_diff_identical(self):
        fp = FootprintMatrix.from_traces(SIMPLE)
        diff = model_diff(fp, fp)
        assert diff.added_activities == diff.removed_activities == ()
        assert diff.changed_relations == ()


_activities = st.sampled_from(["a", "b", "c", "d", "e"])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(_activities, min_size=1, max_size=6).map(tuple), min_size=1, max_size=20))
def test_property_footprint_symmetry(traces):
    """The footprint is anti-symmetric: rel(a,b) mirrors rel(b,a)."""
    fp = FootprintMatrix.from_traces(traces)
    mirror = {
        Relation.CAUSALITY: Relation.REVERSE,
        Relation.REVERSE: Relation.CAUSALITY,
        Relation.PARALLEL: Relation.PARALLEL,
        Relation.CHOICE: Relation.CHOICE,
    }
    for a in fp.activities:
        for b in fp.activities:
            assert fp.relation(b, a) is mirror[fp.relation(a, b)]

