"""Record the output digests of chosen seeds in perfbench/pins.json.

    python3 perfbench/pin.py --seeds 0-20 [--workload NAME]

One untraced pass per seed and workload.  A seed already pinned is checked,
not overwritten: a changed digest is printed and the command exits 1, since
the program's outputs must stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

PINS = bench.HERE / "pins.json"


def digests(workload: str, seed: int) -> dict[str, str]:
    with bench.Session(seed, seconds=0.0) as session:
        session.start_budget()
        inputs = session.work / "inputs"
        if workload == "analyze_logs":
            session.child("inputs", "--seed", str(seed), "--out", str(inputs))
        result = session.measure(workload, "plain", inputs, passes=1)
    ops = result["passes"][0]["ops"]
    failed = [name for name, _, digest, error in ops if error is not None]
    if failed:
        raise bench.BenchError(f"{workload} seed {seed}: operations raised: {failed}")
    return {name: digest for name, _, digest, _ in ops}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 3,7")
    parser.add_argument("--workload", choices=bench.WORKLOADS)
    args = parser.parse_args()
    pins = json.loads(PINS.read_text())
    changed = False
    for workload in (args.workload,) if args.workload else bench.WORKLOADS:
        table = pins.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            found = digests(workload, seed)
            old = table.get(str(seed))
            if old is not None and old != found:
                changed = True
                print(f"{workload} seed {seed}: digests differ from the pins")
                continue
            table[str(seed)] = found
            print(f"{workload} seed {seed}: {len(found)} digests pinned", flush=True)
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
