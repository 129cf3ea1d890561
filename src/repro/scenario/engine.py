"""Applies a :class:`ScenarioSpec` to a running :class:`FabricNetwork`.

Two application surfaces, both fully deterministic:

* **network interventions** are scheduled on the kernel's intervention
  priority lane (:meth:`Kernel.schedule_intervention`), so a fault at
  ``t`` is in effect before any workload event at ``t``;
* **workload interventions** are pure request-list transforms applied by
  :meth:`FabricNetwork.run` before submission (no RNG involved), so the
  same spec and seed always yield the same trace.

The engine records every intervention as it fires in :attr:`timeline`
(``(time, kind, detail)``), which the CLI prints and the determinism
tests compare across runs.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING

from repro.fabric.transaction import TxRequest
from repro.scenario.spec import Intervention, ScenarioSpec
from repro.workloads.schedule import compress_window, piecewise_rate_times

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.network import FabricNetwork


class ScenarioEngine:
    """Installs one scenario's interventions and transforms its workload."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        #: ``(simulated time, kind, detail)`` of every applied intervention,
        #: in firing order — the scenario's own event log.
        self.timeline: list[tuple[float, str, str]] = []

    # -- kernel-scheduled interventions --------------------------------------------

    def install(self, network: "FabricNetwork") -> None:
        """Schedule every network intervention on the network's kernel."""
        for iv in self.spec.network_interventions():
            apply, restore = self._actions(network, iv)
            network.kernel.schedule_intervention(iv.at, apply)
            if restore is not None and iv.end is not None:
                network.kernel.schedule_intervention(iv.end, restore)

    def _actions(self, network: "FabricNetwork", iv: Intervention):
        """(apply, restore) callbacks for one network intervention."""
        kernel = network.kernel

        def log(kind: str, detail: str) -> None:
            self.timeline.append((kernel.now, kind, detail))

        if iv.kind in ("peer_crash", "peer_recover"):
            peers = network.endorsers.peers(iv.target)
            up = iv.kind == "peer_recover"

            def set_enabled(enabled: bool, kind: str) -> None:
                for peer in peers:
                    peer.enabled = enabled
                log(kind, ",".join(peer.name for peer in peers))

            apply = lambda: set_enabled(up, iv.kind)
            restore = None
            if iv.kind == "peer_crash" and iv.duration is not None:
                restore = lambda: set_enabled(True, "peer_recover")
            return apply, restore

        if iv.kind == "endorser_slowdown":
            peers = network.endorsers.peers(iv.target)

            def set_factor(factor: float, kind: str) -> None:
                for peer in peers:
                    peer.set_service_multiplier(factor)
                log(kind, f"{','.join(p.name for p in peers)} x{factor:g}")

            return (
                lambda: set_factor(iv.factor, iv.kind),
                lambda: set_factor(1.0, "endorser_slowdown_end"),
            )

        if iv.kind == "latency_spike":
            conditions = network.conditions

            def set_delay(factor: float, kind: str) -> None:
                conditions.set_delay_multiplier(factor, source="scenario")
                log(kind, f"x{factor:g}")

            return (
                lambda: set_delay(iv.factor, iv.kind),
                lambda: set_delay(1.0, "latency_spike_end"),
            )

        if iv.kind == "orderer_degradation":
            orderer = network.orderer.server

            def set_orderer(factor: float, kind: str) -> None:
                orderer.set_service_multiplier(factor)
                log(kind, f"x{factor:g}")

            return (
                lambda: set_orderer(iv.factor, iv.kind),
                lambda: set_orderer(1.0, "orderer_degradation_end"),
            )

        if iv.kind == "region_lag":
            conditions = network.conditions
            org = iv.target
            if org not in network.config.org_names():
                raise KeyError(
                    f"region_lag target {org!r} is not an organization; "
                    f"known: {sorted(network.config.org_names())}"
                )

            def set_region(factor: float, kind: str) -> None:
                conditions.set_org_delay_multiplier(org, factor, source="scenario")
                log(kind, f"{org} x{factor:g}")

            return (
                lambda: set_region(iv.factor, iv.kind),
                lambda: set_region(1.0, "region_lag_end"),
            )

        raise ValueError(f"{iv.kind!r} is not a network intervention")

    # -- workload transforms ---------------------------------------------------------

    def transform_requests(self, requests: list[TxRequest]) -> list[TxRequest]:
        """Apply the workload interventions, in spec order.

        Pure and deterministic: the output depends only on the input
        request list and the spec.  Later interventions see the timeline
        produced by earlier ones (a conflict storm after a burst targets
        the compressed window).
        """
        out = list(requests)
        for iv in self.spec.workload_interventions():
            if iv.kind == "burst_arrivals":
                out = compress_window(out, iv.at, iv.duration, iv.factor)
                self.timeline.append(
                    (iv.at, iv.kind, f"{iv.duration:g}s window x{iv.factor:g}")
                )
            elif iv.kind == "conflict_storm":
                out, hit = _conflict_storm(out, iv)
                self.timeline.append(
                    (iv.at, iv.kind, f"{hit} {iv.activity!r} txs onto {iv.hot_keys} keys")
                )
            elif iv.kind == "rate_curve":
                out, moved = _rate_curve(out, iv)
                self.timeline.append(
                    (iv.at, iv.kind, f"{moved} txs onto a {len(iv.profile or ())}-point curve")
                )
            elif iv.kind == "hot_key_drift":
                out, hit = _hot_key_drift(out, iv)
                self.timeline.append(
                    (
                        iv.at,
                        iv.kind,
                        f"{hit} {iv.activity!r} txs over {iv.phases} drifting phases",
                    )
                )
            elif iv.kind == "mix_shift":
                out, shifted = _mix_shift(out, iv)
                self.timeline.append(
                    (
                        iv.at,
                        iv.kind,
                        f"{shifted} {iv.from_activity!r} txs -> {iv.to_activity!r}",
                    )
                )
        return out


def _candidate_keys(requests: list[TxRequest], activity: str) -> list[str]:
    """Sorted distinct first-argument keys of the activity's requests."""
    return sorted(
        {
            str(request.args[0])
            for request in requests
            if request.activity == activity and request.args
        }
    )


def _retarget_window(
    requests: list[TxRequest],
    start: float,
    end: float,
    activity: str,
    fraction: float,
    hot: list[str],
) -> tuple[list[TxRequest], int]:
    """Retarget ``fraction`` of the window's ``activity`` requests onto the
    ``hot`` key list (key-first argument convention).

    Selection spreads evenly over the window (request ``j`` is picked when
    ``floor((j+1)·fraction)`` increments) and hot keys are assigned
    round-robin — deterministic without touching any RNG stream.
    """
    if not hot:
        return list(requests), 0
    out: list[TxRequest] = []
    in_window = 0
    retargeted = 0
    for request in requests:
        if (
            request.activity == activity
            and request.args
            and start <= request.submit_time < end
        ):
            j = in_window
            in_window += 1
            if math.floor((j + 1) * fraction) > math.floor(j * fraction):
                out.append(
                    TxRequest(
                        submit_time=request.submit_time,
                        activity=request.activity,
                        args=(hot[retargeted % len(hot)],) + tuple(request.args[1:]),
                        contract=request.contract,
                        invoker_org=request.invoker_org,
                    )
                )
                retargeted += 1
                continue
        out.append(request)
    return out, retargeted


def _conflict_storm(
    requests: list[TxRequest], iv: Intervention
) -> tuple[list[TxRequest], int]:
    """A static contention storm: one hot-key set for the whole window."""
    hot = _candidate_keys(requests, iv.activity)[: iv.hot_keys]
    return _retarget_window(
        requests, iv.at, iv.at + iv.duration, iv.activity, iv.fraction, hot
    )


def _hot_key_drift(
    requests: list[TxRequest], iv: Intervention
) -> tuple[list[TxRequest], int]:
    """A drifting contention storm: the hot-key set rotates each phase.

    The window splits into ``iv.phases`` equal sub-windows; phase ``p``
    retargets onto the ``iv.hot_keys``-sized slice of the (sorted)
    candidate key list starting at ``p * hot_keys``, wrapping around — so
    contention moves across the key space the way a trending-item front
    page moves, instead of hammering one fixed set.
    """
    candidates = _candidate_keys(requests, iv.activity)
    if not candidates:
        return list(requests), 0
    span = iv.duration / iv.phases
    out = list(requests)
    total = 0
    for phase in range(iv.phases):
        start = iv.at + phase * span
        end = iv.at + iv.duration if phase == iv.phases - 1 else start + span
        offset = (phase * iv.hot_keys) % len(candidates)
        hot = [
            candidates[(offset + index) % len(candidates)]
            for index in range(min(iv.hot_keys, len(candidates)))
        ]
        out, hit = _retarget_window(out, start, end, iv.activity, iv.fraction, hot)
        total += hit
    return out, total


def _mix_shift(
    requests: list[TxRequest], iv: Intervention
) -> tuple[list[TxRequest], int]:
    """Rewrite a share of the window's ``from_activity`` requests to
    ``to_activity``, keeping only the key argument (the target activities
    are all invocable with the key alone), with the same even-spread
    selection as :func:`_retarget_window`.
    """
    end = iv.at + iv.duration
    out: list[TxRequest] = []
    in_window = 0
    shifted = 0
    for request in requests:
        if (
            request.activity == iv.from_activity
            and request.args
            and iv.at <= request.submit_time < end
        ):
            j = in_window
            in_window += 1
            if math.floor((j + 1) * iv.fraction) > math.floor(j * iv.fraction):
                out.append(
                    TxRequest(
                        submit_time=request.submit_time,
                        activity=iv.to_activity,
                        args=(request.args[0],),
                        contract=request.contract,
                        invoker_org=request.invoker_org,
                    )
                )
                shifted += 1
                continue
        out.append(request)
    return out, shifted


def _rate_curve(
    requests: list[TxRequest], iv: Intervention
) -> tuple[list[TxRequest], int]:
    """Re-time every request from ``iv.at`` onward onto the breakpoint
    profile — the k-th earliest affected request gets the k-th time of
    :func:`~repro.workloads.schedule.piecewise_rate_times`, so relative
    order is preserved while the arrival rate follows the curve.
    """
    affected = [
        index for index, request in enumerate(requests) if request.submit_time >= iv.at
    ]
    if not affected or not iv.profile:
        return list(requests), 0
    ranked = sorted(affected, key=lambda index: (requests[index].submit_time, index))
    profile = list(iv.profile)
    segments = [
        (profile[position + 1][0] - offset, rate)
        for position, (offset, rate) in enumerate(profile[:-1])
    ]
    # The last breakpoint's rate extends indefinitely; piecewise_rate_times
    # only needs a positive placeholder duration for its final segment.
    segments.append((1.0, profile[-1][1]))
    times = piecewise_rate_times(len(ranked), segments, start=iv.at)
    out = list(requests)
    for new_time, index in zip(times, ranked):
        request = requests[index]
        out[index] = TxRequest(
            submit_time=new_time,
            activity=request.activity,
            args=request.args,
            contract=request.contract,
            invoker_org=request.invoker_org,
        )
    return out, len(ranked)


def run_digest(network: "FabricNetwork") -> str:
    """SHA-256 fingerprint of a finished run's observable outcome.

    Covers the hash chain plus every transaction's status, block and
    commit time (which the block hash does not), and the aborted set —
    two runs are behaviourally identical iff their digests match.
    """
    digest = hashlib.sha256()
    digest.update(network.ledger.tip_hash.encode())
    for tx in network.ledger.transactions():
        status = tx.status.value if tx.status is not None else "?"
        digest.update(
            f"{tx.tx_id}|{status}|{tx.block_number}|{tx.commit_time!r}\n".encode()
        )
    for tx in network.aborted:
        digest.update(f"abort:{tx.tx_id}|{tx.abort_stage}|{tx.commit_time!r}\n".encode())
    return digest.hexdigest()
