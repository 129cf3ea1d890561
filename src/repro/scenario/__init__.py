"""Declarative fault injection and dynamic network conditions.

The paper diagnoses Fabric from steady-state runs; real deployments see
peer crashes, endorser slowdowns, latency spikes and bursty traffic.
This package widens the workload space BlockOptR can be validated
against:

* :mod:`repro.scenario.spec` — the :class:`ScenarioSpec` DSL: a named
  list of timed :class:`Intervention` records, JSON round-trippable;
* :mod:`repro.scenario.engine` — applies a spec to a
  :class:`~repro.fabric.network.FabricNetwork`: kernel-scheduled
  interventions (crash/recover, slowdowns, latency, orderer degradation)
  plus deterministic workload transforms (bursts, conflict storms);
* :mod:`repro.scenario.library` — named, ready-made scenarios used by
  the bench registry and ``python -m repro scenario``;
* :mod:`repro.scenario.fuzz` — the seeded scenario fuzzer: random
  compositions checked by differential oracles, shrunk to minimal
  reproducers, ranked by severity and promoted into the library
  (``python -m repro fuzz``).

Every scenario run stays bit-for-bit deterministic for a fixed seed: the
transforms are pure functions of the request list and interventions fire
on the kernel's dedicated priority lane.
"""

from repro.scenario.engine import ScenarioEngine, run_digest
from repro.scenario.fuzz import FuzzConfig, run_campaign
from repro.scenario.library import get_scenario, scenario_names
from repro.scenario.spec import Intervention, ScenarioSpec

__all__ = [
    "FuzzConfig",
    "Intervention",
    "ScenarioEngine",
    "ScenarioSpec",
    "get_scenario",
    "run_campaign",
    "run_digest",
    "scenario_names",
]
