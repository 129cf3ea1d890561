"""The scenario DSL: timed interventions against a running network.

A :class:`ScenarioSpec` is a named, ordered list of :class:`Intervention`
records.  Both are frozen, declarative (plain strings and numbers), and
JSON round-trippable, so scenarios can live in the bench registry, in the
result cache's identity payload, and in ``--spec`` files authored by hand.

Intervention kinds
==================

``peer_crash``
    The target endorsing peer(s) stop accepting endorsement requests at
    ``at``; queued work drains.  With ``duration``, the peers recover
    automatically at ``at + duration``; otherwise pair with an explicit
    ``peer_recover``.
``peer_recover``
    The target peer(s) accept work again.
``endorser_slowdown``
    The target peers' chaincode execution runs ``factor`` times slower
    from ``at`` (restored to nominal after ``duration``, if given).
``latency_spike``
    Every one-way network delay scheduled in the window is multiplied by
    ``factor``.
``orderer_degradation``
    The ordering service serves blocks ``factor`` times slower in the
    window (a struggling Raft leader).
``region_lag``
    Multi-region latency asymmetry: clients of the target *organization*
    see their one-way network delays multiplied by ``factor`` in the
    window (a region behind a congested WAN link), while other orgs are
    unaffected.
``burst_arrivals``
    Workload transform: requests submitted inside ``[at, at+duration)``
    arrive ``factor`` times faster, compressed toward ``at``.
``conflict_storm``
    Workload transform: ``fraction`` of the window's ``activity``
    requests are retargeted onto ``hot_keys`` hot keys, manufacturing
    MVCC-conflict contention.
``rate_curve``
    Workload transform: requests from ``at`` onward are re-timed onto a
    piecewise rate ``profile`` — ``(offset_seconds, rate_tps)``
    breakpoints relative to ``at``, the last rate extending indefinitely
    — expressing diurnal curves and flash crowds on any base workload.
``hot_key_drift``
    Workload transform: the window is split into ``phases`` equal
    sub-windows and each retargets ``fraction`` of its ``activity``
    requests onto a *rotated* ``hot_keys``-sized slice of the key
    space, so the contended set drifts over time instead of sitting
    still.
``mix_shift``
    Workload transform: ``fraction`` of the window's ``from_activity``
    requests are rewritten to ``to_activity`` (key-only arguments), a
    mid-run contract-mix shift such as reads turning into updates.

Targets: ``None`` (all endorsing peers), an organization name (``Org1``)
or a full peer name (``Org1-peer0``).  ``region_lag`` requires an
organization target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

#: Kinds applied as kernel-scheduled interventions on the live network.
NETWORK_KINDS = frozenset(
    {
        "peer_crash",
        "peer_recover",
        "endorser_slowdown",
        "latency_spike",
        "orderer_degradation",
        "region_lag",
    }
)

#: Kinds applied as deterministic request-list transforms before the run.
WORKLOAD_KINDS = frozenset(
    {"burst_arrivals", "conflict_storm", "rate_curve", "hot_key_drift", "mix_shift"}
)

KINDS = NETWORK_KINDS | WORKLOAD_KINDS

#: Kinds whose effect is multiplicative and restorable.
_FACTOR_KINDS = frozenset(
    {
        "endorser_slowdown",
        "latency_spike",
        "orderer_degradation",
        "burst_arrivals",
        "region_lag",
    }
)

#: Kinds that require a window.
_WINDOWED_KINDS = frozenset(
    {"burst_arrivals", "conflict_storm", "hot_key_drift", "mix_shift"}
)

#: Kinds that retarget a share of an activity's requests onto hot keys.
_STORM_KINDS = frozenset({"conflict_storm", "hot_key_drift"})

#: Hard ceiling on any multiplier — factors beyond this are authoring
#: mistakes (a fat-fingered exponent), not scenarios worth simulating.
MAX_FACTOR = 1000.0

#: Hard ceiling on a rate_curve segment rate (transactions per second).
MAX_RATE = 1_000_000.0

#: Activities a ``mix_shift`` may rewrite *from* (key-first arguments).
MIX_FROM_ACTIVITIES = frozenset({"read", "write", "update", "delete"})

#: Activities a ``mix_shift`` may rewrite *to*: invocable with the key
#: alone (``write`` needs an explicit value, so it is not a valid target).
MIX_TO_ACTIVITIES = frozenset({"read", "update", "delete"})


def _finite(value: float, label: str) -> None:
    """Reject NaN/inf early — they otherwise fail deep inside the kernel."""
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")


@dataclass(frozen=True)
class Intervention:
    """One timed intervention of a scenario."""

    kind: str
    #: Simulated time (seconds) the intervention takes effect.
    at: float
    #: Window length; optional for the restorable network kinds (omitted
    #: means permanent), required for the workload transforms.
    duration: float | None = None
    #: Peer/org target for the endorser kinds (``None`` = every peer).
    target: str | None = None
    #: Multiplier for the ``*_slowdown`` / spike / degradation / burst kinds.
    factor: float = 2.0
    #: Share of the window's matching requests a conflict storm retargets.
    fraction: float = 0.5
    #: Size of the conflict storm's hot-key set.
    hot_keys: int = 4
    #: Activity a conflict storm retargets (key-first args assumed).
    activity: str = "update"
    #: ``rate_curve`` breakpoints: ``(offset_seconds, rate_tps)`` pairs
    #: relative to ``at``; the first offset must be 0.0 and offsets must
    #: strictly increase.  ``None`` for every other kind.
    profile: tuple[tuple[float, float], ...] | None = None
    #: Number of equal sub-windows a ``hot_key_drift`` rotates through.
    phases: int = 2
    #: Activity a ``mix_shift`` rewrites from.
    from_activity: str = "read"
    #: Activity a ``mix_shift`` rewrites to (key-only invocation).
    to_activity: str = "update"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown intervention kind {self.kind!r}; known: {sorted(KINDS)}"
            )
        _finite(self.at, "intervention time")
        if self.at < 0:
            raise ValueError(f"intervention time must be >= 0, got {self.at}")
        if self.duration is not None:
            _finite(self.duration, "duration")
            if self.duration <= 0:
                raise ValueError(f"duration must be positive, got {self.duration}")
        if self.kind in _WINDOWED_KINDS and self.duration is None:
            raise ValueError(f"{self.kind} requires a duration")
        if self.kind in _FACTOR_KINDS:
            _finite(self.factor, f"{self.kind} factor")
            if self.factor <= 0:
                raise ValueError(
                    f"{self.kind} factor must be positive, got {self.factor}"
                )
            if self.factor > MAX_FACTOR:
                raise ValueError(
                    f"{self.kind} factor must be <= {MAX_FACTOR:g}, got {self.factor}"
                )
        if self.kind == "burst_arrivals" and self.factor <= 1.0:
            raise ValueError(
                f"burst_arrivals factor must exceed 1, got {self.factor}"
            )
        if self.kind == "region_lag" and self.target is None:
            raise ValueError("region_lag requires an organization target")
        if self.kind in _STORM_KINDS or self.kind == "mix_shift":
            _finite(self.fraction, f"{self.kind} fraction")
            if not 0.0 < self.fraction <= 1.0:
                raise ValueError(
                    f"{self.kind} fraction must be in (0, 1], got {self.fraction}"
                )
        if self.kind in _STORM_KINDS and self.hot_keys < 1:
            raise ValueError(f"{self.kind} needs >= 1 hot key, got {self.hot_keys}")
        if self.kind == "hot_key_drift" and self.phases < 2:
            raise ValueError(
                f"hot_key_drift needs >= 2 phases to drift, got {self.phases}"
            )
        if self.kind == "mix_shift":
            if self.from_activity not in MIX_FROM_ACTIVITIES:
                raise ValueError(
                    f"mix_shift from_activity must be one of "
                    f"{sorted(MIX_FROM_ACTIVITIES)}, got {self.from_activity!r}"
                )
            if self.to_activity not in MIX_TO_ACTIVITIES:
                raise ValueError(
                    f"mix_shift to_activity must be one of "
                    f"{sorted(MIX_TO_ACTIVITIES)}, got {self.to_activity!r}"
                )
            if self.from_activity == self.to_activity:
                raise ValueError(
                    f"mix_shift must change the activity, got "
                    f"{self.from_activity!r} -> {self.to_activity!r}"
                )
        if self.kind == "rate_curve":
            self._validate_profile()
        elif self.profile is not None:
            raise ValueError(f"{self.kind} does not take a rate profile")

    def _validate_profile(self) -> None:
        """Normalize and hard-validate a ``rate_curve`` breakpoint profile."""
        if not self.profile:
            raise ValueError("rate_curve requires a non-empty profile")
        # Normalize JSON-decoded lists into tuples, keeping the dataclass
        # hashable and the field usable as a cache-identity component.
        profile = tuple(
            (float(offset), float(rate)) for offset, rate in self.profile
        )
        object.__setattr__(self, "profile", profile)
        previous = None
        for position, (offset, rate) in enumerate(profile):
            _finite(offset, f"profile offset #{position}")
            _finite(rate, f"profile rate #{position}")
            if position == 0 and offset != 0.0:
                raise ValueError(
                    f"rate_curve profile must start at offset 0.0, got {offset}"
                )
            if previous is not None and offset <= previous:
                raise ValueError(
                    "rate_curve profile offsets must strictly increase, got "
                    f"{offset} after {previous}"
                )
            if rate <= 0:
                raise ValueError(f"profile rate must be positive, got {rate}")
            if rate > MAX_RATE:
                raise ValueError(
                    f"profile rate must be <= {MAX_RATE:g}, got {rate}"
                )
            previous = offset

    @property
    def end(self) -> float | None:
        """End of the window, or ``None`` for permanent interventions."""
        return None if self.duration is None else self.at + self.duration

    def to_dict(self) -> dict:
        """Only the fields that matter for this kind — dumps double as
        authoring templates, so irrelevant defaults must not leak in."""
        data: dict = {"kind": self.kind, "at": self.at}
        if self.duration is not None:
            data["duration"] = self.duration
        if self.target is not None:
            data["target"] = self.target
        if self.kind in _FACTOR_KINDS:
            data["factor"] = self.factor
        if self.kind in _STORM_KINDS:
            data["fraction"] = self.fraction
            data["hot_keys"] = self.hot_keys
            data["activity"] = self.activity
        if self.kind == "hot_key_drift":
            data["phases"] = self.phases
        if self.kind == "mix_shift":
            data["fraction"] = self.fraction
            data["from_activity"] = self.from_activity
            data["to_activity"] = self.to_activity
        if self.kind == "rate_curve":
            data["profile"] = [list(point) for point in self.profile or ()]
        return data

    def describe(self) -> str:
        """One-line human summary, used by the CLI timeline."""
        parts = [f"{self.kind} @ {self.at:g}s"]
        if self.duration is not None:
            parts.append(f"for {self.duration:g}s")
        if self.target is not None:
            parts.append(f"target={self.target}")
        if self.kind in _FACTOR_KINDS:
            parts.append(f"x{self.factor:g}")
        if self.kind == "conflict_storm":
            parts.append(
                f"{self.fraction:.0%} of {self.activity!r} onto {self.hot_keys} keys"
            )
        if self.kind == "hot_key_drift":
            parts.append(
                f"{self.fraction:.0%} of {self.activity!r} onto {self.hot_keys} "
                f"drifting keys over {self.phases} phases"
            )
        if self.kind == "mix_shift":
            parts.append(
                f"{self.fraction:.0%} {self.from_activity!r} -> {self.to_activity!r}"
            )
        if self.kind == "rate_curve":
            curve = ", ".join(
                f"+{offset:g}s@{rate:g}tps" for offset, rate in self.profile or ()
            )
            parts.append(f"[{curve}]")
        return " ".join(parts)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named scenario: an ordered list of timed interventions."""

    name: str
    interventions: tuple[Intervention, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if not self.interventions:
            raise ValueError(f"scenario {self.name!r} has no interventions")
        # Make list inputs ergonomic while keeping the dataclass hashable.
        object.__setattr__(self, "interventions", tuple(self.interventions))

    def network_interventions(self) -> list[Intervention]:
        """The kernel-scheduled interventions, in spec order."""
        return [iv for iv in self.interventions if iv.kind in NETWORK_KINDS]

    def workload_interventions(self) -> list[Intervention]:
        """The request-transform interventions, in spec order."""
        return [iv for iv in self.interventions if iv.kind in WORKLOAD_KINDS]

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return {
            "name": self.name,
            "description": self.description,
            "interventions": [iv.to_dict() for iv in self.interventions],
        }

    @staticmethod
    def from_dict(data: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; a malformed record raises ``ValueError``."""
        try:
            interventions = tuple(
                Intervention(**record) for record in data["interventions"]
            )
            return ScenarioSpec(
                name=data["name"],
                interventions=interventions,
                description=data.get("description", ""),
            )
        except TypeError as exc:
            raise ValueError(f"malformed scenario spec: {exc}") from exc
        except KeyError as exc:
            raise ValueError(f"scenario spec missing field {exc.args[0]!r}") from exc

    def to_json(self, indent: int = 1) -> str:
        """:meth:`to_dict` as sorted-key JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`."""
        return ScenarioSpec.from_dict(json.loads(text))
