"""Digest goldens for the large-scale sharded runs (repro.shard).

Unlike the figure goldens (``test_golden_figures.py``), which pin full
outcome dumps, these pin only a sha256 digest over the canonical JSON of
the stitched :class:`~repro.shard.summary.StitchedSummary` — the summary
itself is bounded, so the digest captures the entire observable result
of a run without storing megabytes of per-transaction data.

Each golden file records its run's plan parameters next to the digest,
and every check builds its plan from the file, exactly as
``repro shard --check-digest FILE`` does.  Tier-1 re-runs only
``multichannel_5k`` (a few seconds).  The 50k and 1M variants are gated
behind ``REPRO_LARGE_SCALE=1``; the CI smoke step checks the 50k golden
through ``repro shard --check-digest`` instead, which also asserts the
peak-RSS ceiling.

Regenerate after an intentional behaviour change::

    PYTHONPATH=src python tests/test_largescale_golden.py --regenerate

(regenerates 5k and 50k; add ``--all`` to also re-run the 1M variant,
which takes a couple of minutes).
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.shard import plan_shards, run_sharded

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The ``exp_id`` of each digest golden, smallest first.
GOLDEN_IDS = (
    "large_scale/multichannel_5k",
    "large_scale/multichannel_50k",
    "large_scale/multichannel_1m",
)


def _golden_path(exp_id: str) -> Path:
    return GOLDEN_DIR / (exp_id.replace("/", "__") + ".json")


def _load(exp_id: str) -> dict:
    return json.loads(_golden_path(exp_id).read_text())


def _plan_from_golden(golden: dict):
    return plan_shards(
        base=golden["base"],
        channels=int(golden["channels"]),
        total_transactions=int(golden["total_transactions"]),
        seed=int(golden["seed"]),
        interval_seconds=float(golden["interval_seconds"]),
    )


class TestLargeScaleGoldens(unittest.TestCase):
    def _check(self, exp_id: str) -> None:
        path = _golden_path(exp_id)
        self.assertTrue(path.exists(), f"missing digest golden {path}")
        golden = _load(exp_id)
        stitched = run_sharded(_plan_from_golden(golden))
        self.assertEqual(
            stitched.digest(),
            golden["digest"],
            f"{exp_id}: stitched digest diverged from {path.name}; if the "
            "change is intentional, regenerate with "
            "`python tests/test_largescale_golden.py --regenerate`",
        )

    def test_multichannel_5k_digest(self):
        self._check("large_scale/multichannel_5k")

    @unittest.skipUnless(
        os.environ.get("REPRO_LARGE_SCALE") == "1",
        "set REPRO_LARGE_SCALE=1 to run the 50k digest check",
    )
    def test_multichannel_50k_digest(self):
        self._check("large_scale/multichannel_50k")

    @unittest.skipUnless(
        os.environ.get("REPRO_LARGE_SCALE") == "1",
        "set REPRO_LARGE_SCALE=1 to run the 1M digest check",
    )
    def test_multichannel_1m_digest(self):
        self._check("large_scale/multichannel_1m")

    def test_goldens_exist_for_every_large_scale_spec(self):
        for exp_id in GOLDEN_IDS:
            self.assertTrue(_golden_path(exp_id).exists(), exp_id)


def regenerate(include_1m: bool = False) -> None:
    ids = GOLDEN_IDS if include_1m else GOLDEN_IDS[:-1]
    for exp_id in ids:
        golden = _load(exp_id)
        print(f"running {exp_id} ({golden['total_transactions']} txs)...", flush=True)
        golden["digest"] = run_sharded(_plan_from_golden(golden)).digest()
        path = _golden_path(exp_id)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate(include_1m="--all" in sys.argv)
    else:
        unittest.main()
