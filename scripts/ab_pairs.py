"""Alternating parent/change pairs of the benchmark, each side from its own git archive.

    python3 scripts/ab_pairs.py --parent f7d7450 --change HEAD --pairs 10 --workload exact_decisions
    python3 scripts/ab_pairs.py --parent HEAD~1 --pairs 3 --seconds 20 --json pairs.json

Run from the root of a git checkout.  Each commit is unpacked with ``git archive``
under ``.bench_build/<commit>/`` and ``perfbench/run.py`` runs from that copy, so
each side imports its own ``src/``.  Pair i runs both sides with seed
``--seed + i``, the parent first in even pairs and the change first in odd ones.
For every workload and end-to-end metric named in ``BENCHMARK.json`` it prints
both sides' medians and quartiles, the change's median relative to the parent's,
and in how many pairs the change was better, with failed ops per side.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

BUILD = Path(".bench_build")


def checkout(rev: str) -> Path:
    """``rev`` unpacked from ``git archive`` under ``.bench_build/<commit>``, made once."""
    commit = subprocess.run(["git", "rev-parse", "--short", rev], capture_output=True, text=True,
                            check=True).stdout.strip()
    path = BUILD / commit
    if not (path / "perfbench" / "run.py").is_file():
        archive = subprocess.run(["git", "archive", commit], capture_output=True, check=True).stdout
        path.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(path, filter="data")
    return path


def run_side(path: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run from ``path``, as JSON."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=path, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        sys.exit(f"{path} {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q1, q2, q3


def report(workload: str, pairs: list[dict], metrics: list[dict]) -> None:
    print(f"== {workload}: {len(pairs)} pairs")
    print(f"{'metric':<16}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}{'change':>9}{'better':>8}")
    for m in metrics:
        name = m["name"]
        sides = [[p[side]["metrics"][name]["value"] for p in pairs] for side in ("parent", "change")]
        (a1, a2, a3), (b1, b2, b3) = quartiles(sides[0]), quartiles(sides[1])
        lower = m["better"] == "lower"
        better = sum((b < a) if lower else (b > a) for a, b in zip(*sides))
        print(f"{name:<16}{f'{a2:.4g} [{a1:.4g}, {a3:.4g}]':>34}{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':>34}"
              f"{(b2 / a2 - 1) * 100 if a2 else 0.0:>+8.1f}%{f'{better}/{len(pairs)}':>8}")
    failed = [sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")]
    print(f"failed ops: parent {failed[0]}, change {failed[1]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="git revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="git revision of the change side")
    ap.add_argument("--workload", action="append", help="a workload (repeatable); default every one")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--json", type=Path, help="write every pair's two result lines here")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": checkout(args.parent), "change": checkout(args.change)}
    results = {}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pairs.append({side: run_side(sides[side], workload, args.seed + i, args.seconds) for side in order})
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        report(workload, pairs, spec["end_to_end"])
        results[workload] = pairs
    if args.json:
        args.json.write_text(json.dumps({"parent": str(sides["parent"].name), "change": str(sides["change"].name),
                                         "seconds": args.seconds, "first_seed": args.seed, "pairs": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
