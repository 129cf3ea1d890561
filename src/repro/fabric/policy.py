"""Endorsement policies: AST, parser, evaluation, satisfying sets.

Supports the grammar used throughout the paper::

    P1: And(Org1, Or(Org2, Org3, Org4))
    P2: And(Or(Org1, Org2), Or(Org3, Org4))
    P3: Majority(Org1, ..., OrgN)
    P4: OutOf(2, Org1, Org2, Org3, Org4)

``Majority`` normalizes to ``OutOf(floor(n/2)+1, ...)``.  Besides boolean
evaluation over a set of collected endorsements, the module enumerates the
*minimal satisfying sets* — the alternatives a client can choose between —
which drives both endorser selection and the endorser-bottleneck analysis
(mandatory orgs appear in every alternative).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable


class PolicyError(ValueError):
    """Raised for malformed policy expressions."""


@dataclass(frozen=True)
class EndorsementPolicy:
    """A parsed policy node.

    ``kind`` is one of ``"org"``, ``"and"``, ``"or"``, ``"outof"``.
    Leaves carry ``org``; ``outof`` carries the threshold ``m``.
    """

    kind: str
    org: str = ""
    m: int = 0
    children: tuple["EndorsementPolicy", ...] = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def single(org: str) -> "EndorsementPolicy":
        """Leaf node: one organization's endorsement."""
        return EndorsementPolicy(kind="org", org=org)

    @staticmethod
    def and_(*children: "EndorsementPolicy") -> "EndorsementPolicy":
        """Conjunction: every child must be satisfied."""
        return EndorsementPolicy(kind="and", children=tuple(children))

    @staticmethod
    def or_(*children: "EndorsementPolicy") -> "EndorsementPolicy":
        """Disjunction: at least one child must be satisfied."""
        return EndorsementPolicy(kind="or", children=tuple(children))

    @staticmethod
    def out_of(m: int, *children: "EndorsementPolicy") -> "EndorsementPolicy":
        """Threshold: at least ``m`` of the children must be satisfied."""
        if not 0 < m <= len(children):
            raise PolicyError(f"OutOf threshold {m} invalid for {len(children)} children")
        return EndorsementPolicy(kind="outof", m=m, children=tuple(children))

    # -- semantics -------------------------------------------------------------

    def organizations(self) -> frozenset[str]:
        """All organizations mentioned anywhere in the policy."""
        if self.kind == "org":
            return frozenset((self.org,))
        orgs: set[str] = set()
        for child in self.children:
            orgs |= child.organizations()
        return frozenset(orgs)

    def is_satisfied_by(self, endorsing_orgs: Iterable[str]) -> bool:
        """Does the set of endorsing organizations satisfy the policy?"""
        orgs = frozenset(endorsing_orgs)
        return self._eval(orgs)

    def _eval(self, orgs: frozenset[str]) -> bool:
        if self.kind == "org":
            return self.org in orgs
        if self.kind == "and":
            return all(child._eval(orgs) for child in self.children)
        if self.kind == "or":
            return any(child._eval(orgs) for child in self.children)
        if self.kind == "outof":
            satisfied = sum(1 for child in self.children if child._eval(orgs))
            return satisfied >= self.m
        raise PolicyError(f"unknown policy kind {self.kind!r}")

    def minimal_satisfying_sets(self) -> tuple[frozenset[str], ...]:
        """All minimal org sets that satisfy the policy, smallest first.

        These are the alternatives clients choose among when selecting
        endorsers.  Deterministic order: by size, then lexicographically.
        """
        return _minimal_sets_cached(self)

    def min_endorsements(self) -> int:
        """Size of the smallest satisfying set."""
        sets = self.minimal_satisfying_sets()
        if not sets:
            raise PolicyError("policy is unsatisfiable")
        return len(sets[0])

    def to_expression(self) -> str:
        """Render back to the paper's textual syntax."""
        if self.kind == "org":
            return self.org
        inner = ",".join(child.to_expression() for child in self.children)
        if self.kind == "and":
            return f"And({inner})"
        if self.kind == "or":
            return f"Or({inner})"
        return f"OutOf({self.m},{inner})"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_expression()


@lru_cache(maxsize=256)
def _minimal_sets_cached(policy: EndorsementPolicy) -> tuple[frozenset[str], ...]:
    orgs = sorted(policy.organizations())
    satisfying: list[frozenset[str]] = []
    # Policies in practice involve a handful of orgs, so the power-set walk
    # (smallest subsets first, with supersets of known solutions skipped)
    # stays tiny.
    for size in range(1, len(orgs) + 1):
        for combo in itertools.combinations(orgs, size):
            candidate = frozenset(combo)
            if any(existing <= candidate for existing in satisfying):
                continue
            if policy._eval(candidate):
                satisfying.append(candidate)
    satisfying.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(satisfying)


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[(),])")


def _tokenize(expression: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(expression):
        match = _TOKEN_RE.match(expression, pos)
        if match is None:
            remainder = expression[pos:].strip()
            if not remainder:
                break
            raise PolicyError(f"unexpected character at {expression[pos:]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> str | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise PolicyError("unexpected end of policy expression")
        self._index += 1
        return token

    def _expect(self, token: str) -> None:
        actual = self._next()
        if actual != token:
            raise PolicyError(f"expected {token!r}, found {actual!r}")

    def parse(self) -> EndorsementPolicy:
        """Parse the full expression; reject trailing tokens."""
        policy = self._parse_node()
        if self._peek() is not None:
            raise PolicyError(f"trailing tokens starting at {self._peek()!r}")
        return policy

    def _parse_node(self) -> EndorsementPolicy:
        token = self._next()
        lowered = token.lower()
        if lowered in ("and", "or", "outof", "majority"):
            self._expect("(")
            if lowered == "outof":
                m_token = self._next()
                if not m_token.isdigit():
                    raise PolicyError(f"OutOf needs a numeric threshold, found {m_token!r}")
                self._expect(",")
                children = self._parse_children()
                return EndorsementPolicy.out_of(int(m_token), *children)
            children = self._parse_children()
            if lowered == "and":
                return EndorsementPolicy.and_(*children)
            if lowered == "or":
                return EndorsementPolicy.or_(*children)
            majority = len(children) // 2 + 1
            return EndorsementPolicy.out_of(majority, *children)
        if token.isdigit():
            raise PolicyError(f"unexpected number {token!r}")
        return EndorsementPolicy.single(token)

    def _parse_children(self) -> list[EndorsementPolicy]:
        children = [self._parse_node()]
        while True:
            token = self._next()
            if token == ")":
                return children
            if token != ",":
                raise PolicyError(f"expected ',' or ')', found {token!r}")
            children.append(self._parse_node())


def parse_policy(expression: str) -> EndorsementPolicy:
    """Parse a policy expression like ``And(Org1, Or(Org2, Org3))``.

    >>> parse_policy("OutOf(2, Org1, Org2, Org3)").min_endorsements()
    2
    """
    tokens = _tokenize(expression)
    if not tokens:
        raise PolicyError("empty policy expression")
    return _Parser(tokens).parse()


def standard_policy(name: str, num_orgs: int = 4) -> EndorsementPolicy:
    """The paper's named policies P1-P4 (plus the repo default P0).

    ``P0`` — our documented Table 2 default — is ``OutOf(1, all orgs)``:
    any single organization endorses, giving balanced minimal load.
    """
    orgs = [f"Org{i}" for i in range(1, num_orgs + 1)]
    if name == "P0":
        return parse_policy(f"OutOf(1,{','.join(orgs)})")
    if name == "P1":
        return parse_policy("And(Org1,Or(Org2,Org3,Org4))")
    if name == "P2":
        return parse_policy("And(Or(Org1,Org2),Or(Org3,Org4))")
    if name == "P3":
        return parse_policy(f"Majority({','.join(orgs)})")
    if name == "P4":
        return parse_policy(f"OutOf(2,{','.join(orgs)})")
    raise PolicyError(f"unknown standard policy {name!r}")
