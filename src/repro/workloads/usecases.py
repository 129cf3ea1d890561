"""Use-case workload generators: SCM, DRM, EHR, DV (Section 5.1.2).

Each generator reproduces the paper's stated construction:

* **SCM** — per product, ``pushASN -> ship -> queryASN -> unload`` in
  order, with ``queryProducts`` and ``updateAuditInfo`` sent at random
  times; a small anomaly fraction of products skips a prerequisite step
  (the manual errors behind Figure 2's illogical branches).
* **DRM** — 10,000 random transactions, 70% ``play``; the rest uniform
  over the other functions.
* **EHR** — 70% update-heavy (grant/revoke) over a patient population.
* **DV** — phased: 1,000 ``queryParties`` at 100 TPS, 5,000 ``vote`` at
  300 TPS, then one ``seeResults`` and one ``endElection``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.contracts.registry import (
    ContractFamily,
    drm_family,
    ehr_family,
    scm_family,
    voting_family,
)
from repro.fabric.config import NetworkConfig, TimingConfig, default_orgs
from repro.fabric.transaction import TxRequest
from repro.sim.rng import SimRng, WeightedSampler, zipf_weights
from repro.workloads.schedule import constant_rate_times, phased_times


@dataclass
class UseCaseSpec:
    """Shared knobs for the use-case generators."""

    total_transactions: int = 10_000
    send_rate: float = 300.0
    num_orgs: int = 2
    clients_per_org: int = 2
    endorsers_per_org: int = 1
    block_count: int = 300
    block_timeout: float = 1.0
    scheduler: str = "fifo"
    timing: TimingConfig = field(default_factory=TimingConfig)
    seed: int = 7

    def to_network_config(self) -> NetworkConfig:
        orgs = default_orgs(
            self.num_orgs,
            num_clients=self.clients_per_org,
            endorsers_per_org=self.endorsers_per_org,
        )
        names = ",".join(org.name for org in orgs)
        return NetworkConfig(
            orgs=orgs,
            endorsement_policy=f"Majority({names})",
            block_count=self.block_count,
            block_timeout=self.block_timeout,
            scheduler=self.scheduler,
            timing=self.timing,
            seed=self.seed,
        )


WorkloadBundle = tuple[NetworkConfig, ContractFamily, list[TxRequest]]


# -- Supply chain management ----------------------------------------------------

#: Side activities that may fire at any time in the SCM flow.
SCM_SIDE_ACTIVITIES = ("queryProducts", "updateAuditInfo")
#: Main product lifecycle, in mandatory order.
SCM_MAIN_FLOW = ("pushASN", "ship", "queryASN", "unload")


def scm_workload(
    spec: UseCaseSpec | None = None,
    anomaly_fraction: float = 0.3,
    side_fraction: float = 0.3,
    jitter_fraction: float = 0.05,
) -> WorkloadBundle:
    """Supply-chain workload over fresh products.

    ``anomaly_fraction`` of products deviate from the expected model —
    their ship is sent *before* the ASN, or the unload before the ship
    (the paper prunes exactly these "Ship activities that occur without
    or before the PushASN activity").  ``side_fraction`` of the transaction budget goes to
    the randomly-timed side activities.  ``jitter_fraction`` locally
    shuffles the send order (clients do not submit in perfect lockstep),
    which makes some steps race their predecessor's commit — the "Ship
    before PushASN" deviations the paper prunes.
    """
    spec = spec or UseCaseSpec()
    rng = SimRng(spec.seed)
    family = scm_family()
    contract_name = family.deploy().contracts[0].name

    total = spec.total_transactions
    side_budget = int(total * side_fraction)
    main_budget = total - side_budget
    num_products = max(1, main_budget // len(SCM_MAIN_FLOW))

    anomaly_stream = rng.stream("scm-anomaly")
    anomalies: dict[str, str] = {}
    for product_index in range(num_products):
        product_id = f"P{product_index:05d}"
        if anomaly_stream.random() < anomaly_fraction:
            anomalies[product_id] = "ship" if anomaly_stream.random() < 0.5 else "unload"

    # Phase-wise sending, as the paper describes ("sending in order the
    # transactions pushASN, ship, queryASN and unload"): every product's
    # pushASN goes out before any ship, and so on.  Each step of a product
    # therefore trails its predecessor by a whole phase — far beyond the
    # commit latency — so only anomalies and phase boundaries conflict.
    main_txs: list[tuple[str, tuple]] = []
    step_position: dict[tuple[str, str], int] = {}
    deferred: list[tuple[str, str]] = []
    prerequisite_of = {"ship": "pushASN", "unload": "ship"}
    for activity in SCM_MAIN_FLOW:
        for product_index in range(num_products):
            product_id = f"P{product_index:05d}"
            if anomalies.get(product_id) == activity:
                deferred.append((activity, product_id))
                continue
            main_txs.append((activity, (product_id,)))
            step_position[(activity, product_id)] = len(main_txs) - 1

    # Anomalous steps are issued a few dozen positions after their
    # prerequisite was *sent* — well inside the commit latency — so the
    # baseline contract endorses against a stale state (MVCC failure at
    # validation) while the pruned contract aborts them at endorsement.
    offset_stream = rng.stream("scm-anomaly-offset")
    insertions = []
    for activity, product_id in deferred:
        anchor = step_position.get((prerequisite_of[activity], product_id), 0)
        offset = int(offset_stream.integers(1, 400))
        insertions.append((anchor + offset, (activity, (product_id,))))
    for position, item in sorted(insertions, reverse=True):
        main_txs.insert(min(position, len(main_txs)), item)

    side_stream = rng.stream("scm-side")
    side_txs: list[tuple[str, tuple]] = []
    for _ in range(side_budget):
        if side_stream.random() < 0.3:
            start = int(side_stream.integers(0, max(1, num_products - 20)))
            side_txs.append(("queryProducts", (f"P{start:05d}", f"P{start + 20:05d}")))
        else:
            product = int(side_stream.integers(0, num_products))
            side_txs.append(("updateAuditInfo", (f"P{product:05d}",)))

    # Merge: main flow keeps its order; side activities land at random
    # positions ("sent randomly", Section 5.1.2).
    merged: list[tuple[str, tuple]] = list(main_txs)
    position_stream = rng.stream("scm-positions")
    for item in side_txs:
        position = int(position_stream.integers(0, len(merged) + 1))
        merged.insert(position, item)

    jitter_stream = rng.stream("scm-jitter")
    window = max(1, int(len(merged) * jitter_fraction))
    for index in range(len(merged)):
        swap = min(len(merged) - 1, index + int(jitter_stream.integers(0, window)))
        merged[index], merged[swap] = merged[swap], merged[index]

    times = constant_rate_times(len(merged), spec.send_rate)
    requests = [
        TxRequest(submit_time=time, activity=activity, args=args, contract=contract_name)
        for time, (activity, args) in zip(times, merged)
    ]
    return spec.to_network_config(), family, requests


# -- Digital rights management ----------------------------------------------------

DRM_OTHER_ACTIVITIES = ("create", "queryRightHolders", "viewMetaData", "calcRevenue")


def drm_workload(
    spec: UseCaseSpec | None = None,
    play_fraction: float = 0.7,
    num_tracks: int = 100,
    track_skew: float = 1.0,
) -> WorkloadBundle:
    """Play-heavy DRM workload (70% ``play`` by default)."""
    spec = spec or UseCaseSpec()
    rng = SimRng(spec.seed)
    family = drm_family(num_tracks=num_tracks)
    contract_name = family.deploy().contracts[0].name

    mix_stream = rng.stream("drm-mix")
    tracks = WeightedSampler(rng.stream("drm-track"), zipf_weights(num_tracks, track_skew))
    times = constant_rate_times(spec.total_transactions, spec.send_rate)
    requests: list[TxRequest] = []
    created = 0
    for index in range(spec.total_transactions):
        if mix_stream.random() < play_fraction:
            activity = "play"
        else:
            activity = DRM_OTHER_ACTIVITIES[
                int(mix_stream.integers(0, len(DRM_OTHER_ACTIVITIES)))
            ]
        if activity == "create":
            args: tuple = (f"M9{created:04d}",)
            created += 1
        else:
            args = (f"M{tracks.draw():05d}",)
        requests.append(
            TxRequest(
                submit_time=times[index],
                activity=activity,
                args=args,
                contract=contract_name,
            )
        )
    return spec.to_network_config(), family, requests


# -- Electronic health records -----------------------------------------------------

EHR_INSTITUTES = tuple(f"INST{i:02d}" for i in range(8))


def ehr_workload(
    spec: UseCaseSpec | None = None,
    update_fraction: float = 0.7,
    num_patients: int = 50,
    patient_skew: float = 0.0,
) -> WorkloadBundle:
    """Update-heavy EHR workload: 70% grant/revoke on skewed patients.

    Grants and revokes are drawn independently, so some revokes hit
    institutes that were never granted — the illogical path the pruned
    contract aborts.
    """
    spec = spec or UseCaseSpec()
    rng = SimRng(spec.seed)
    family = ehr_family(num_patients=num_patients)
    contract_name = family.deploy().contracts[0].name

    mix_stream = rng.stream("ehr-mix")
    patients = WeightedSampler(
        rng.stream("ehr-patient"), zipf_weights(num_patients, patient_skew)
    )
    times = constant_rate_times(spec.total_transactions, spec.send_rate)
    requests: list[TxRequest] = []
    for index in range(spec.total_transactions):
        patient = f"PT{patients.draw():05d}"
        institute = EHR_INSTITUTES[int(mix_stream.integers(0, len(EHR_INSTITUTES)))]
        roll = mix_stream.random()
        if roll < update_fraction:
            activity = "grantAccess" if mix_stream.random() < 0.5 else "revokeAccess"
            args: tuple = (patient, institute)
        elif roll < update_fraction + (1.0 - update_fraction) / 2.0:
            activity = "queryRecord"
            args = (patient, institute)
        else:
            activity = "addRecord"
            args = (patient, f"entry-{index}")
        requests.append(
            TxRequest(
                submit_time=times[index],
                activity=activity,
                args=args,
                contract=contract_name,
            )
        )
    return spec.to_network_config(), family, requests


# -- Digital voting -------------------------------------------------------------------

def voting_workload(
    spec: UseCaseSpec | None = None,
    num_parties: int = 5,
    query_count: int = 1000,
    query_rate: float = 100.0,
    vote_count: int = 5000,
    vote_rate: float = 300.0,
) -> WorkloadBundle:
    """The paper's phased election: queries, then a voting burst, then close."""
    spec = spec or UseCaseSpec()
    rng = SimRng(spec.seed)
    family = voting_family(num_parties=num_parties)
    contract_name = family.deploy().contracts[0].name

    times = phased_times(
        [(query_count, query_rate), (vote_count, vote_rate), (2, 10.0)]
    )
    party_stream = rng.stream("dv-party")
    requests: list[TxRequest] = []
    for index in range(query_count):
        requests.append(
            TxRequest(submit_time=times[index], activity="queryParties", contract=contract_name)
        )
    for voter in range(vote_count):
        party = f"PARTY{int(party_stream.integers(0, num_parties)):02d}"
        requests.append(
            TxRequest(
                submit_time=times[query_count + voter],
                activity="vote",
                args=(party, f"VOTER{voter:06d}"),
                contract=contract_name,
            )
        )
    requests.append(
        TxRequest(submit_time=times[-2], activity="seeResults", contract=contract_name)
    )
    requests.append(
        TxRequest(submit_time=times[-1], activity="endElection", contract=contract_name)
    )
    return spec.to_network_config(), family, requests
