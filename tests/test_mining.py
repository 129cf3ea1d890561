"""Tests for process mining: DFG, footprints, alpha, heuristics, conformance."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mining import (
    DirectlyFollowsGraph,
    FootprintMatrix,
    PetriNet,
    Relation,
    alpha_miner,
    footprint_conformance,
    heuristics_miner,
    model_diff,
    token_replay_fitness,
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

    def test_edges_threshold(self):
        dfg = DirectlyFollowsGraph.from_traces(CHOICE)
        assert ("a", "b", 5) in dfg.edges()
        assert dfg.edges(min_count=6) == []

    def test_networkx_export(self):
        graph = DirectlyFollowsGraph.from_traces(SIMPLE).to_networkx()
        assert graph.has_edge("a", "b")
        assert graph["a"]["b"]["weight"] == 10

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
        assert fp.independent("b", "c")

    def test_parallel(self):
        fp = FootprintMatrix.from_traces(PARALLEL)
        assert fp.relation("b", "c") is Relation.PARALLEL

    def test_causal_pairs_sorted(self):
        fp = FootprintMatrix.from_traces(SIMPLE)
        assert fp.causal_pairs() == [("a", "b"), ("b", "c")]

    def test_render_contains_symbols(self):
        text = FootprintMatrix.from_traces(SIMPLE).render()
        assert "->" in text and "#" in text


class TestAlpha:
    def test_sequence_model(self):
        net = alpha_miner(SIMPLE)
        assert set(net.transitions) == {"a", "b", "c"}
        names = net.place_names()
        assert PetriNet.SOURCE in names and PetriNet.SINK in names
        assert net.allows(("a", "b", "c"))
        assert not net.allows(("b", "a", "c"))

    def test_choice_model(self):
        net = alpha_miner(CHOICE)
        assert net.allows(("a", "b", "d"))
        assert net.allows(("a", "c", "d"))
        assert not net.allows(("a", "b", "c", "d"))

    def test_xor_split_creates_shared_place(self):
        net = alpha_miner(CHOICE)
        # One place a->(b|c) rather than two separate ones.
        shared = [p for p in net.places if set(p.outputs) == {"b", "c"}]
        assert shared

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            alpha_miner([])

    def test_replay_counts(self):
        net = alpha_miner(SIMPLE)
        produced, consumed, missing, remaining = net.replay_trace(("a", "b", "c"))
        assert missing == 0 and remaining == 0
        assert produced == consumed

    def test_unknown_activity_counts_missing(self):
        net = alpha_miner(SIMPLE)
        _, _, missing, _ = net.replay_trace(("a", "zzz", "b", "c"))
        assert missing >= 1


class TestHeuristics:
    def test_dependency_measure(self):
        graph = heuristics_miner(DirectlyFollowsGraph.from_traces(SIMPLE))
        assert graph.measure("a", "b") == pytest.approx(10 / 11)
        assert graph.measure("b", "a") == pytest.approx(-10 / 11)

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

    def test_successors_predecessors(self):
        graph = heuristics_miner(DirectlyFollowsGraph.from_traces(SIMPLE))
        assert graph.successors("a") == ["b"]
        assert graph.predecessors("b") == ["a"]

    def test_loop_detection(self):
        # The dependency measure is antisymmetric, so a length-two loop
        # never yields both a->b and b->a: only the stronger direction
        # passes the threshold, and the graph has no loop.
        length_two = [("a", "b", "a", "b", "c")] * 5
        graph = heuristics_miner(
            DirectlyFollowsGraph.from_traces(length_two), dependency_threshold=0.3
        )
        assert set(graph.edges) == {("a", "b"), ("b", "c")}
        assert not graph.has_loop()
        # A repeated activity is a self-loop edge, which is a loop.
        self_loop = [("a", "b", "b", "c")] * 5
        graph = heuristics_miner(
            DirectlyFollowsGraph.from_traces(self_loop), dependency_threshold=0.3
        )
        assert ("b", "b") in graph.edges
        assert graph.has_loop()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            heuristics_miner(
                DirectlyFollowsGraph.from_traces(SIMPLE), dependency_threshold=1.5
            )


class TestConformance:
    def test_perfect_fitness(self):
        net = alpha_miner(SIMPLE)
        assert token_replay_fitness(net, SIMPLE) == pytest.approx(1.0)

    def test_deviating_traces_lower_fitness(self):
        net = alpha_miner(SIMPLE)
        fitness = token_replay_fitness(net, [("c", "b", "a")])
        assert fitness < 1.0

    def test_fitness_needs_traces(self):
        net = alpha_miner(SIMPLE)
        with pytest.raises(ValueError):
            token_replay_fitness(net, [])

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
        assert not diff.is_identical()

    def test_model_diff_detects_relation_change(self):
        before = FootprintMatrix.from_traces([("a", "b")] * 5)
        after = FootprintMatrix.from_traces([("b", "a")] * 5)
        diff = model_diff(before, after)
        changed = {(a, b) for a, b, _, _ in diff.changed_relations}
        assert ("a", "b") in changed

    def test_model_diff_identical(self):
        fp = FootprintMatrix.from_traces(SIMPLE)
        assert model_diff(fp, fp).is_identical()


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


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(_activities, min_size=1, max_size=5).map(tuple), min_size=1, max_size=15))
def test_property_alpha_transitions_cover_log(traces):
    net = alpha_miner(traces)
    seen = {activity for trace in traces for activity in trace}
    assert set(net.transitions) == seen
