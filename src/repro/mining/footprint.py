"""Footprint matrices: the alpha-algorithm relations.

For every ordered activity pair the footprint records one of the four
classical relations derived from directly-follows observations:

* ``a -> b`` (causality): ``a > b`` observed but never ``b > a``;
* ``a <- b`` (reverse causality);
* ``a || b`` (parallel): both directions observed;
* ``a # b`` (choice): neither direction observed.

Every BlockOptR analysis report carries its log's footprint, and
footprints give a cheap conformance measure — the fraction of matching
cells between two logs' footprints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.mining.dfg import DirectlyFollowsGraph


class Relation(enum.Enum):
    """Alpha-algorithm footprint relations."""

    CAUSALITY = "->"
    REVERSE = "<-"
    PARALLEL = "||"
    CHOICE = "#"


@dataclass(frozen=True)
class FootprintMatrix:
    """Relations over all activity pairs of a log."""

    activities: tuple[str, ...]
    relations: dict[tuple[str, str], Relation]

    @staticmethod
    def from_dfg(dfg: DirectlyFollowsGraph) -> "FootprintMatrix":
        activities = tuple(dfg.activities())
        relations: dict[tuple[str, str], Relation] = {}
        for a in activities:
            for b in activities:
                forward = dfg.follows(a, b) > 0
                backward = dfg.follows(b, a) > 0
                if forward and backward:
                    relation = Relation.PARALLEL
                elif forward:
                    relation = Relation.CAUSALITY
                elif backward:
                    relation = Relation.REVERSE
                else:
                    relation = Relation.CHOICE
                relations[(a, b)] = relation
        return FootprintMatrix(activities=activities, relations=relations)

    @staticmethod
    def from_traces(traces: Iterable[tuple[str, ...]]) -> "FootprintMatrix":
        return FootprintMatrix.from_dfg(DirectlyFollowsGraph.from_traces(traces))

    def relation(self, a: str, b: str) -> Relation:
        return self.relations[(a, b)]
