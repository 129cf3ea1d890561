"""Declarative controller configuration: SLO targets + policy selection.

A :class:`ControlSpec` rides on :attr:`repro.fabric.config.NetworkConfig
.control`; the network installs an :class:`~repro.control.controller
.SLOGuardian` when one is present.  Both dataclasses are frozen and
JSON-round-trippable so controller experiments flow unchanged through
the bench registry, the process-pool executor and the result cache —
the spec *is* the cache-keyable description of the controller.
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

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return {
            "max_abort_rate": self.max_abort_rate,
            "max_p95_latency": self.max_p95_latency,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SLOTargets":
        """Inverse of :meth:`to_dict`."""
        return cls(
            max_abort_rate=float(data["max_abort_rate"]),
            max_p95_latency=float(data["max_p95_latency"]),
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

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready, cache-keyable)."""
        return {
            "policy": self.policy,
            "interval": self.interval,
            "slo": self.slo.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControlSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            policy=str(data["policy"]),
            interval=float(data["interval"]),
            slo=SLOTargets.from_dict(data["slo"]),
        )
