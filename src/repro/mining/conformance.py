"""Conformance checking: does behaviour match a model?

Used by the paper in two places: confirming that a redesigned workload
*adheres to the new process model* (Figure 4), and detecting deviations
(illogical paths) as evidence for process-model pruning.

:func:`footprint_conformance` is the fraction of footprint-matrix cells
on which two behaviours agree; it is cheap and works model-free between
two logs.  :func:`model_diff` names the cells that changed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mining.footprint import FootprintMatrix


def footprint_conformance(
    reference: FootprintMatrix, observed: FootprintMatrix
) -> float:
    """Fraction of matching footprint cells over the shared activities.

    Activities present in only one footprint count as full mismatches for
    their row/column — new or vanished activities are deviations too.
    """
    ref_acts = set(reference.activities)
    obs_acts = set(observed.activities)
    union = sorted(ref_acts | obs_acts)
    if not union:
        raise ValueError("both footprints are empty")
    matches = 0
    cells = 0
    for a in union:
        for b in union:
            cells += 1
            if a in ref_acts and b in ref_acts and a in obs_acts and b in obs_acts:
                if reference.relation(a, b) is observed.relation(a, b):
                    matches += 1
    return matches / cells


@dataclass(frozen=True)
class ModelDiff:
    """Differences between two behaviours' footprints."""

    added_activities: tuple[str, ...]
    removed_activities: tuple[str, ...]
    changed_relations: tuple[tuple[str, str, str, str], ...]
    conformance: float


def model_diff(reference: FootprintMatrix, observed: FootprintMatrix) -> ModelDiff:
    """Structured diff between two footprints.

    ``changed_relations`` lists ``(a, b, before, after)`` for every shared
    pair whose relation changed — e.g. after activity reordering,
    ``(UpdateAuditInfo, Ship)`` flips from ``||`` to ``<-``.
    """
    ref_acts = set(reference.activities)
    obs_acts = set(observed.activities)
    changed: list[tuple[str, str, str, str]] = []
    for a in sorted(ref_acts & obs_acts):
        for b in sorted(ref_acts & obs_acts):
            before = reference.relation(a, b)
            after = observed.relation(a, b)
            if before is not after:
                changed.append((a, b, before.value, after.value))
    return ModelDiff(
        added_activities=tuple(sorted(obs_acts - ref_acts)),
        removed_activities=tuple(sorted(ref_acts - obs_acts)),
        changed_relations=tuple(changed),
        conformance=footprint_conformance(reference, observed),
    )
