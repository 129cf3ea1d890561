"""Declarative controller configuration: SLO targets + policy selection.

A :class:`ControlSpec` rides on :attr:`repro.fabric.config.NetworkConfig
.control`; the network installs an :class:`~repro.control.controller
.SLOGuardian` when one is present.  Both dataclasses are frozen.  A
registry experiment names its controller by the ``policy`` string in its
``maker_args``, which is what the result cache keys on;
:func:`repro.bench.experiments.make_scenario` builds the spec from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Selectable control policies (see :mod:`repro.control.policy`).
POLICIES = ("guardian", "noop")


def _finite(value: float, label: str) -> None:
    """Reject NaN/inf: a NaN target compares false and silently disables its rule."""
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")


@dataclass(frozen=True)
class SLOTargets:
    """Service-level objectives the guardian steers toward.

    ``max_abort_rate`` is the tolerated fraction of submitted
    transactions aborting per observation window; ``max_p95_latency`` is
    the tolerated 95th-percentile end-to-end commit latency in seconds.
    """

    max_abort_rate: float = 0.10
    max_p95_latency: float = 5.0

    def __post_init__(self) -> None:
        _finite(self.max_abort_rate, "max_abort_rate")
        _finite(self.max_p95_latency, "max_p95_latency")
        if not 0.0 <= self.max_abort_rate <= 1.0:
            raise ValueError(
                f"max_abort_rate must be in [0, 1], got {self.max_abort_rate!r}"
            )
        if self.max_p95_latency <= 0:
            raise ValueError(
                f"max_p95_latency must be positive, got {self.max_p95_latency!r}"
            )


@dataclass(frozen=True)
class ControlSpec:
    """One controller configuration: which policy, how often, which SLOs."""

    policy: str = "guardian"
    #: Observation-window / tick width in simulated seconds.
    interval: float = 0.25
    slo: SLOTargets = field(default_factory=SLOTargets)

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown control policy {self.policy!r}; known: {', '.join(POLICIES)}"
            )
        _finite(self.interval, "interval")
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval!r}")
