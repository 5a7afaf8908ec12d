#!/usr/bin/env python3
"""Run every experiment preset and collect the artifacts under out/.

Usage: python scripts/run_all_presets.py [--seed N] [--fast] [--out DIR]

--fast trims trial counts so the full sweep finishes in well under a
minute; default counts match the documented acceptance scale.
"""

import argparse
import sys
import time
from pathlib import Path

from ddgraphs.presets import PRESETS, run_preset

FAST_TRIALS = {
    "thm1_osc": 50,
    "example2_osc": 50,
    "thm3_cutpoint": 50,
    "thm5_chain": 10_000,
    "thm6_triangle": 500,
    "lemma_copies": 50,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fast", action="store_true")
    ap.add_argument("--out", type=Path, default=Path("out"))
    args = ap.parse_args()

    worst = 0
    for name in sorted(PRESETS):
        t0 = time.time()
        trials = FAST_TRIALS.get(name) if args.fast else None
        outcome = run_preset(name, seed=args.seed, trials=trials)
        outcome.write(args.out)
        status = "PASS" if outcome.passed else "FAIL"
        print(f"{name:16s} {status}  ({time.time() - t0:5.1f}s)")
        if not outcome.passed:
            worst = 2
    return worst


if __name__ == "__main__":
    sys.exit(main())
