"""Content-addressed, on-disk cache of experiment results.

One JSON file per experiment under ``.repro_cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable or ``--cache-dir``).  The file
name is a SHA-256 over

* the experiment's declarative identity (:meth:`ExperimentSpec.payload`:
  bundle factory + its keyword arguments, seed, resolved transaction
  budget, optimization plans), and
* a *code version* — a hash over every ``repro`` source file, this
  module included — so any change to the simulator, workloads,
  recommender or cache layout invalidates every cached result
  automatically.

A warm suite re-run therefore performs zero simulation runs; nothing ever
needs manual invalidation beyond deleting the directory (or ``--no-cache``).
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from repro.bench.harness import ExperimentOutcome, RunRow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.bench.registry import ExperimentSpec

DEFAULT_CACHE_DIR = ".repro_cache"


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of every ``repro`` source file (path + contents)."""
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def outcome_to_dict(outcome: ExperimentOutcome) -> dict:
    """JSON-able form of an outcome.

    The per-row forensics reports ride along when present (the ``rows``
    shape itself is unchanged, so golden files keyed on rows stay stable).
    """
    data = {
        "name": outcome.name,
        "rows": [
            {
                "label": row.label,
                "throughput": row.throughput,
                "latency": row.latency,
                "success_pct": row.success_pct,
                "applied": list(row.applied),
                "forced": row.forced,
            }
            for row in outcome.rows
        ],
        "recommendations": list(outcome.recommendations),
        "paper": {label: list(values) for label, values in outcome.paper.items()},
    }
    if outcome.forensics is not None:
        data["forensics"] = list(outcome.forensics)
    if outcome.control is not None:
        data["control"] = list(outcome.control)
    return data


def outcome_from_dict(data: dict) -> ExperimentOutcome:
    """Inverse of :func:`outcome_to_dict`."""
    return ExperimentOutcome(
        name=data["name"],
        rows=[
            RunRow(
                label=row["label"],
                throughput=row["throughput"],
                latency=row["latency"],
                success_pct=row["success_pct"],
                applied=tuple(row["applied"]),
                forced=row["forced"],
            )
            for row in data["rows"]
        ],
        recommendations=list(data["recommendations"]),
        paper={label: tuple(values) for label, values in data["paper"].items()},
        forensics=data.get("forensics"),
        control=data.get("control"),
    )


class ResultCache:
    """Maps an :class:`ExperimentSpec` to a cached :class:`ExperimentOutcome`."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(
            root
            if root is not None
            else os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        )

    def key(self, spec: "ExperimentSpec") -> str:
        """SHA-256 over ``spec``'s payload and the code version."""
        identity = {"code": code_version(), "spec": spec.payload()}
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def path(self, spec: "ExperimentSpec") -> Path:
        """Where ``spec``'s entry lives: ``<root>/<key>.json``."""
        return self.root / f"{self.key(spec)}.json"

    def get(self, spec: "ExperimentSpec") -> ExperimentOutcome | None:
        """The cached outcome, or ``None`` on miss or a corrupt entry.

        A truncated, garbled or non-UTF-8 entry (interrupted write, disk
        trouble, manual editing) is a cache *miss*, never a traceback:
        the entry is deleted so the re-execution writes it fresh instead
        of tripping over the same bytes on every warm run.
        """
        path = self.path(spec)
        try:
            data = json.loads(path.read_bytes())
            return outcome_from_dict(data["outcome"])
        except FileNotFoundError:
            return None
        except (KeyError, TypeError, ValueError, AttributeError, OSError):
            self._discard(path)
            return None

    @staticmethod
    def _discard(path: Path) -> None:
        """Best-effort removal of a corrupt entry (failures stay a miss)."""
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - e.g. permission trouble
            pass

    def put(self, spec: "ExperimentSpec", outcome: ExperimentOutcome) -> Path:
        """Write ``outcome`` as ``spec``'s entry (atomically); returns its path.

        Compact separators keep ``json`` on its C encoder, which an
        ``indent`` would switch off.
        """
        path = self.path(spec)
        self.root.mkdir(parents=True, exist_ok=True)
        record = {
            "exp_id": spec.exp_id,
            "spec": spec.payload(),
            "outcome": outcome_to_dict(outcome),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, separators=(",", ":"), sort_keys=True))
        os.replace(tmp, path)
        return path

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
