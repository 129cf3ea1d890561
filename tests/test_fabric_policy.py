"""Unit + property tests for endorsement policies."""

import pytest
from hypothesis import given, strategies as st

from repro.fabric.policy import (
    EndorsementPolicy,
    PolicyError,
    parse_policy,
    standard_policy,
)


class TestParsing:
    def test_single_org(self):
        policy = parse_policy("Org1")
        assert policy.kind == "org"
        assert policy.organizations() == {"Org1"}

    def test_p1_shape(self):
        policy = parse_policy("And(Org1,Or(Org2,Org3,Org4))")
        assert policy.kind == "and"
        assert policy.organizations() == {"Org1", "Org2", "Org3", "Org4"}

    def test_whitespace_tolerated(self):
        policy = parse_policy("  And( Org1 , Or(Org2, Org3) ) ")
        assert policy.organizations() == {"Org1", "Org2", "Org3"}

    def test_majority_normalizes_to_outof(self):
        policy = parse_policy("Majority(Org1,Org2,Org3,Org4)")
        assert policy.kind == "outof"
        assert policy.m == 3

    def test_majority_of_two_means_both(self):
        policy = parse_policy("Majority(Org1,Org2)")
        assert policy.m == 2

    def test_case_insensitive_keywords(self):
        assert parse_policy("AND(Org1,OR(Org2,Org3))").kind == "and"
        assert parse_policy("outof(1,Org1,Org2)").m == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "And(Org1",
            "And(Org1))",
            "OutOf(Org1,Org2)",
            "OutOf(5,Org1,Org2)",
            "And(Org1,,Org2)",
            "42",
            "And(Org1 Org2)",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(PolicyError):
            parse_policy(bad)

    def test_roundtrip_expression(self):
        text = "And(Org1,Or(Org2,Org3,Org4))"
        assert parse_policy(parse_policy(text).to_expression()).to_expression() == (
            parse_policy(text).to_expression()
        )


class TestEvaluation:
    def test_and_requires_all(self):
        policy = parse_policy("And(Org1,Org2)")
        assert policy.is_satisfied_by({"Org1", "Org2"})
        assert not policy.is_satisfied_by({"Org1"})

    def test_or_requires_any(self):
        policy = parse_policy("Or(Org1,Org2)")
        assert policy.is_satisfied_by({"Org2"})
        assert not policy.is_satisfied_by({"Org3"})

    def test_outof_threshold(self):
        policy = parse_policy("OutOf(2,Org1,Org2,Org3)")
        assert policy.is_satisfied_by({"Org1", "Org3"})
        assert not policy.is_satisfied_by({"Org2"})

    def test_p1_semantics(self):
        policy = standard_policy("P1")
        assert policy.is_satisfied_by({"Org1", "Org3"})
        assert not policy.is_satisfied_by({"Org2", "Org3", "Org4"})  # Org1 mandatory

    def test_p2_semantics(self):
        policy = standard_policy("P2")
        assert policy.is_satisfied_by({"Org2", "Org4"})
        assert not policy.is_satisfied_by({"Org1", "Org2"})

    def test_empty_set_never_satisfies(self):
        for name in ("P1", "P2", "P3", "P4"):
            assert not standard_policy(name).is_satisfied_by(set())


class TestMinimalSets:
    def test_p1_minimal_sets(self):
        sets = standard_policy("P1").minimal_satisfying_sets()
        assert sets == (
            frozenset({"Org1", "Org2"}),
            frozenset({"Org1", "Org3"}),
            frozenset({"Org1", "Org4"}),
        )

    def test_p4_minimal_sets_count(self):
        # OutOf(2, 4 orgs) -> C(4,2) = 6 pairs.
        assert len(standard_policy("P4").minimal_satisfying_sets()) == 6

    def test_min_endorsements(self):
        assert standard_policy("P1").min_endorsements() == 2
        assert standard_policy("P3").min_endorsements() == 3
        assert parse_policy("Or(Org1,Org2)").min_endorsements() == 1

    def test_minimal_sets_are_minimal(self):
        sets = standard_policy("P2").minimal_satisfying_sets()
        for a in sets:
            for b in sets:
                if a != b:
                    assert not a < b

    def test_p0_is_any_single_org(self):
        sets = standard_policy("P0", num_orgs=3).minimal_satisfying_sets()
        assert sets == (frozenset({"Org1"}), frozenset({"Org2"}), frozenset({"Org3"}))


def test_unknown_standard_policy():
    with pytest.raises(PolicyError):
        standard_policy("P9")


@st.composite
def policies(draw, depth=0):
    orgs = [f"Org{i}" for i in range(1, 6)]
    if depth >= 2 or draw(st.booleans()):
        return EndorsementPolicy.single(draw(st.sampled_from(orgs)))
    kind = draw(st.sampled_from(["and", "or", "outof"]))
    n = draw(st.integers(min_value=1, max_value=3))
    children = [draw(policies(depth=depth + 1)) for _ in range(n)]
    if kind == "and":
        return EndorsementPolicy.and_(*children)
    if kind == "or":
        return EndorsementPolicy.or_(*children)
    m = draw(st.integers(min_value=1, max_value=n))
    return EndorsementPolicy.out_of(m, *children)


@given(policies())
def test_property_minimal_sets_satisfy_policy(policy):
    for org_set in policy.minimal_satisfying_sets():
        assert policy.is_satisfied_by(org_set)


@given(policies())
def test_property_satisfaction_is_monotone(policy):
    """Adding endorsing orgs never breaks a satisfied policy."""
    all_orgs = policy.organizations()
    for org_set in policy.minimal_satisfying_sets():
        assert policy.is_satisfied_by(org_set | all_orgs)


@given(policies())
def test_property_expression_roundtrip(policy):
    reparsed = parse_policy(policy.to_expression())
    assert reparsed.minimal_satisfying_sets() == policy.minimal_satisfying_sets()


@given(policies())
def test_property_proper_subsets_of_minimal_fail(policy):
    for org_set in policy.minimal_satisfying_sets():
        for org in org_set:
            assert not policy.is_satisfied_by(org_set - {org})
