"""Simulated Hyperledger Fabric substrate.

A deterministic discrete-event model of Fabric 2.2's execute-order-validate
(EOV) pipeline, faithful in the dimensions BlockOptR observes and optimizes:

* **Execute** — clients pick endorsers per the endorsement policy; endorsing
  peers run chaincode against the *committed* world state, producing
  read-write sets with per-key read versions.
* **Order** — a Raft-style ordering service cuts blocks on transaction
  count, timeout, or byte size, with per-block and per-transaction service
  cost (pluggable reordering schedulers model Fabric++ / FabricSharp).
* **Validate** — peers check endorsement signatures against the policy and
  the read set against current state versions (MVCC read conflicts, phantom
  read conflicts); *every* transaction, failed or not, is appended to the
  ledger — the data source BlockOptR mines.
"""

from repro.fabric.chaincode import ChaincodeContext, Contract, contract_function
from repro.fabric.config import NetworkConfig, OrgConfig, TimingConfig
from repro.fabric.ledger import Block, Ledger
from repro.fabric.network import FabricNetwork, run_workload
from repro.fabric.policy import EndorsementPolicy, parse_policy
from repro.fabric.results import RunResult
from repro.fabric.state import VersionedValue, WorldState
from repro.fabric.verify import SerializabilityReport, verify_serializability
from repro.fabric.transaction import (
    RangeQueryInfo,
    ReadWriteSet,
    Transaction,
    TxStatus,
    TxType,
    Version,
)

__all__ = [
    "Block",
    "ChaincodeContext",
    "Contract",
    "EndorsementPolicy",
    "FabricNetwork",
    "Ledger",
    "NetworkConfig",
    "OrgConfig",
    "RangeQueryInfo",
    "ReadWriteSet",
    "RunResult",
    "SerializabilityReport",
    "TimingConfig",
    "Transaction",
    "TxStatus",
    "TxType",
    "Version",
    "VersionedValue",
    "WorldState",
    "contract_function",
    "parse_policy",
    "run_workload",
    "verify_serializability",
]
