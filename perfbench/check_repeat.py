"""The benchmark's own test: two traced runs of one seed agree exactly.

Counters, simulated-time metrics, call counts and digests are deterministic
for a seed, so two traced runs must report identical values; only host
times (``*.self_s``, ``trace.overhead_pct``) may differ.  Each run also
checks, inside ``run.py``, that its traced and untraced processes produced
the same digests and counters.

    python3 perfbench/check_repeat.py [--workload NAME] [--seed N]
    python3 -m pytest perfbench/check_repeat.py

The file name keeps the repository's own ``pytest`` run from collecting it;
the paper_protocol case takes about a minute per run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

#: Host-time metrics: the only per-layer values allowed to differ.
HOST_TIME = (".self_s", "trace.overhead_pct")


def traced_result(workload: str, seed: int) -> dict:
    with bench.Session(seed, seconds=1.0) as session:
        return bench.run_workload(session, workload, trace=True)


def exact_part(result: dict) -> dict:
    return {
        "check": result["check"],
        "counters": result["counters"],
        "paper": result["paper"],
        "metrics": {
            name: value
            for name, value in result["metrics"].items()
            if not name.endswith(HOST_TIME)
        },
        "site_calls": result["trace_detail"]["site_calls"],
    }


def assert_repeatable(workload: str, seed: int = 7) -> None:
    first = traced_result(workload, seed)
    second = traced_result(workload, seed)
    assert first["check"]["correct"], first["check"]
    assert exact_part(first) == exact_part(second)


def test_sharded_stream_repeats() -> None:
    assert_repeatable("sharded_stream")


def test_analyze_logs_repeats() -> None:
    assert_repeatable("analyze_logs")


def test_paper_protocol_repeats() -> None:
    assert_repeatable("paper_protocol")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    for workload in (args.workload,) if args.workload else bench.WORKLOADS:
        assert_repeatable(workload, args.seed)
        print(f"{workload} seed {args.seed}: two traced runs agree exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
