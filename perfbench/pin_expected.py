"""Regenerate ``expected_sim.json``: the pinned ``sim-fig9`` outcomes.

The benchmark's correctness check compares attempts, successes and mean
QoS level per planner against this file.  Regenerate it only when a
change is *meant* to alter planner decisions, and say so in the change::

    python3 perfbench/pin_expected.py --seeds 0-99

It runs one worker process per CPU.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import simwork  # noqa: E402


def _pin(seed: int) -> dict:
    return {
        algorithm: simwork.outcome_digest(simwork.run_planner(seed, algorithm))
        for algorithm in simwork.PLANNERS
    }


def _seed_range(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range, e.g. 0-99")
    args = parser.parse_args()
    seeds = _seed_range(args.seeds)
    with ProcessPoolExecutor(
        max_workers=common.cpus(), mp_context=get_context("spawn")
    ) as pool:
        pinned = dict(zip(seeds, pool.map(_pin, seeds)))
    path = HERE / "expected_sim.json"
    existing = json.loads(path.read_text()) if path.exists() else {}
    existing.update({str(seed): value for seed, value in pinned.items()})
    ordered = {key: existing[key] for key in sorted(existing, key=int)}
    path.write_text(json.dumps(ordered, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} seeds into {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
