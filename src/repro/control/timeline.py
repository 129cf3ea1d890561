"""Actuation audit trail: every controller decision, JSON-round-trippable.

The :class:`ControlTimeline` is the controller's analogue of the scenario
engine's applied timeline — a complete, deterministic record of *what the
controller did and why*: each decision carries the rule that fired, the
triggering window's observables snapshot and the old→new value of every
actuation (with a clamped flag when the bounded envelope bit).  It is
rendered alongside the forensics report, never embedded in it, so
controller-off forensics digests are untouched by this package existing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ControlAction:
    """One applied actuation: ``actuator`` moved from ``old`` to ``new``."""

    actuator: str
    old: object
    new: object
    #: True when the bounded-actuation envelope clamped the rule's value.
    clamped: bool = False

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return {
            "actuator": self.actuator,
            "old": self.old,
            "new": self.new,
            "clamped": self.clamped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControlAction":
        """Inverse of :meth:`to_dict`."""
        return cls(
            actuator=str(data["actuator"]),
            old=data["old"],
            new=data["new"],
            clamped=bool(data["clamped"]),
        )


@dataclass(frozen=True)
class ControlDecision:
    """One controller tick that actuated: rule, trigger window, actions."""

    time: float
    rule: str
    #: The :meth:`~repro.control.monitor.WindowObservables.to_dict`
    #: snapshot of the window that triggered the rule.
    observables: dict
    actions: tuple[ControlAction, ...] = ()

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return {
            "time": round(self.time, 6),
            "rule": self.rule,
            "observables": self.observables,
            "actions": [action.to_dict() for action in self.actions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControlDecision":
        """Inverse of :meth:`to_dict`."""
        return cls(
            time=float(data["time"]),
            rule=str(data["rule"]),
            observables=dict(data["observables"]),
            actions=tuple(
                ControlAction.from_dict(action) for action in data["actions"]
            ),
        )


@dataclass
class ControlTimeline:
    """Ordered decisions of one controller run, with a content digest."""

    policy: str
    decisions: list[ControlDecision] = field(default_factory=list)
    #: Controller ticks that fired (decisions are the subset that acted).
    ticks: int = 0

    def record(self, decision: ControlDecision) -> None:
        """Append one decision (kernel order = time order)."""
        self.decisions.append(decision)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return {
            "policy": self.policy,
            "ticks": self.ticks,
            "decisions": [decision.to_dict() for decision in self.decisions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControlTimeline":
        """Inverse of :meth:`to_dict`."""
        timeline = cls(policy=str(data["policy"]), ticks=int(data["ticks"]))
        for decision in data["decisions"]:
            timeline.record(ControlDecision.from_dict(decision))
        return timeline

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, stable separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """sha256 over the canonical JSON — the timeline's fingerprint."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def render_control_timeline(timeline: ControlTimeline) -> str:
    """Human-readable timeline block, printed alongside the forensics report."""
    lines = [
        f"control timeline — policy {timeline.policy}, "
        f"{timeline.ticks} ticks, {len(timeline.decisions)} decisions "
        f"[digest {timeline.digest()[:12]}]"
    ]
    if not timeline.decisions:
        lines.append("  (no actuations)")
        return "\n".join(lines)
    for decision in timeline.decisions:
        observed = decision.observables
        lines.append(
            f"  {decision.time:8.3f}s  {decision.rule:<22} "
            f"abort {observed.get('abort_rate', 0.0):.1%} "
            f"p95 {observed.get('p95_latency', 0.0):.2f}s"
        )
        for action in decision.actions:
            flag = " (clamped)" if action.clamped else ""
            lines.append(
                f"             {action.actuator}: {action.old} -> {action.new}{flag}"
            )
    return "\n".join(lines)
