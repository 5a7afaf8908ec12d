"""ddgraphs benchmark: one workload per process, closed loop, one op at a time.

    python3 perfbench/run.py --workload mc_line_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout.  The workload repeats whole rounds (see ``workloads.py``)
until ``--seconds`` have passed, checks every output against the pinned
references in ``refs/`` and against independent cross-checks, and prints as
its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Full results, machine
facts and (traced) the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path(".bench_out")
SETUP_PROBES = 9
REF_GAUGE_S = 0.005  # the reference speed: speed_gauge() takes 5 ms
NAMES = ("mc_line_dense", "mc_circle_sparse", "midpoint_chain", "exact_decisions")


def import_workloads():
    if not (SRC / "ddgraphs" / "__init__.py").is_file():
        sys.exit(f"benchmark: no library at {SRC / 'ddgraphs'}; run from a ddgraphs checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    return workloads


def speed_gauge() -> float:
    """Seconds a fixed pure-Python loop takes right now (about 5 ms): a gauge
    of the machine's current speed, which on shared cores swings by tens of
    percent over seconds.  It calls nothing in the library."""
    t = perf_counter()
    s, d = 0, {}
    for i in range(40_000):
        s += i * i % 7
        d[i & 255] = s
    return perf_counter() - t


def steady_start() -> float:
    """Untimed preparation before each op of a measured run: every op starts
    from the same heap state, and the speed gauge is read next to it."""
    gc.collect()
    return speed_gauge()


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Process start to inputs ready, in a fresh interpreter: (measured
    seconds, seconds at the reference speed)."""
    t0 = perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"benchmark: set-up failed:\n{proc.stderr}")
    before, after, ready = map(float, proc.stdout.split()[-3:])
    seconds = ready - t0 - before  # the first gauge is not set-up work
    return seconds, seconds * 2 * REF_GAUGE_S / (before + after)


def setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_seconds``: gauge, set up, gauge."""
    before = speed_gauge()
    import_workloads().WORKLOADS[workload](seed)
    ready = perf_counter()
    print(before, speed_gauge(), ready)


def json_value(v):
    return json.loads(json.dumps(v))


def verify(wl, refs: dict, rounds: list[list], traced: list[list] | None) -> dict[str, str]:
    """Failure reason per failed op, keyed "round/index"."""
    bad = {}
    for r, ops in enumerate(rounds):
        cross_round = wl.check_round(ops)
        for i, op in enumerate(ops):
            key = op.spec.key
            reason = op.error
            if reason is None and key not in refs:
                reason = "no pinned reference"
            elif reason is None and json_value(op.value) != refs[key]:
                reason = f"output {op.value!r} differs from pinned {refs[key]!r}"
            elif reason is None and op.spec.cross is not None:
                reason = op.spec.cross(op.value)
            reason = reason or cross_round.get(key)
            if reason is None and traced is not None:
                t = traced[r][i]
                if t.error or json_value(t.value) != json_value(op.value):
                    reason = f"traced replay gave {t.value!r} ({t.error}), untraced {op.value!r}"
            if reason:
                bad[f"{r}/{i}"] = f"{key}: {reason}"
    return bad


def scaled_seconds(rounds, end_gauges) -> list[float]:
    """Each call's time at the reference speed: measured seconds times
    REF_GAUGE_S over the mean of the speed gauges read just before and just
    after it (the next op's gauge, or the one read as its round ended)."""
    out = []
    for ops, end in zip(rounds, end_gauges):
        g = [op.gauge for op in ops] + [end]
        out += [op.seconds * 2 * REF_GAUGE_S / (g[i] + g[i + 1]) for i, op in enumerate(ops)]
    return out


def end_to_end(rounds, end_gauges, setups) -> dict[str, tuple[float, str]]:
    """Times of library calls only (no harness work), scaled to the reference
    speed; latency percentiles over ops, round time and rates over the run."""
    calls = [op for ops in rounds for op in ops]
    scaled = scaled_seconds(rounds, end_gauges)
    lat = [t * 1e3 for t, op in zip(scaled, calls) if op.spec.kind == "op"]
    total = sum(scaled)
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    return {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "wall_s": (total / len(rounds), "ref_s"),
        "trials_per_s": (sum(op.spec.graphs for op in calls) / total, "1/ref_s"),
        "decisions_per_s": (len(lat) / total, "1/ref_s"),
        "op_p50_ms": (statistics.median(lat), "ref_ms"),
        "op_p90_ms": (p90, "ref_ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, walls, traced_walls, first_counts, first_peaks) -> dict[str, tuple[float, str]]:
    s = tracer.summary()
    c = tracer.counts

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def mean(name, scale, field="total_s"):
        e = s.get(name)
        return e[field] / e["calls"] * scale if e else 0.0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    games = [n for n in ("efgame.th_k_equal", "efgame.pointed_equiv") if n in s]
    game_calls = sum(s[n]["calls"] for n in games)
    positions, hits = first_counts.get("efgame.positions", 0), first_counts.get("efgame.memo_hits", 0)
    oracle_calls = s.get("estimator.oracle", {}).get("calls", 0)
    traced_wall, plain_wall = sum(traced_walls), sum(walls)
    return {
        "probseq.support_ms": (mean("probseq.support_upto", 1e3), "ms"),
        "probseq.eval_ns": (ratio(total("probseq.eval"), c.get("probseq.evals", 0), 1e9), "ns"),
        "rng.grid_ns_per_cell": (ratio(total("rng.keyed_u64_grid"), c.get("rng.cells", 0), 1e9), "ns"),
        "rng.cells": (first_counts.get("rng.cells", 0), "count"),
        "rng.grid_mb": (first_peaks.get("rng.grid_cells_max", 0) * 8 / 1e6, "MB-computed"),
        "rng.scalar_ns_per_hash": (ratio(total("rng.pair_u64"), c.get("rng.hashes", 0), 1e9), "ns"),
        "sampler.pair_table_ms": (mean("sampler.PairBatch", 1e3), "ms"),
        "sampler.pairs": (first_counts.get("sampler.pairs", 0), "count"),
        "sampler.edge_matrix_ns_per_cell": (
            ratio(s.get("sampler.edge_matrix", {}).get("self_s", 0.0), c.get("sampler.matrix_cells", 0), 1e9), "ns"),
        "sampler.edge_yield": (ratio(c.get("sampler.edges", 0), c.get("sampler.matrix_cells", 0)), "ratio"),
        "sampler.sample_batch_us_per_graph": (
            ratio(total("sampler.sample_batch"), c.get("sampler.batch_graphs", 0), 1e6), "us"),
        "sampler.markov_step_us": (mean("sampler.markov_step", 1e6), "us"),
        "graph.from_row_us": (mean("graph.from_row", 1e6), "us"),
        "graph.has_triangle_us": (mean("graph.has_triangle", 1e6), "us"),
        "graph.count_triangles_us": (mean("graph.count_triangles", 1e6), "us"),
        "logic.holds_us": (mean("logic.holds", 1e6), "us"),
        "logic.holds_calls": (first_counts.get("logic.holds_calls", 0), "count"),
        "estimator.mc_call_ms": (mean("estimator.mc_probability", 1e3), "ms"),
        "estimator.unattributed_ms": (mean("estimator.mc_probability", 1e3, "self_s"), "ms"),
        "estimator.oracle_ms": (ratio(total("estimator.oracle"), oracle_calls, 1e3), "ms"),
        "estimator.brute_force_ms": (mean("estimator.brute_force_probability", 1e3), "ms"),
        "efgame.decision_ms": (ratio(sum(total(n) for n in games), game_calls, 1e3), "ms"),
        "efgame.positions": (positions, "count"),
        "efgame.memo_hits": (hits, "count"),
        "efgame.memo_hit_ratio": (ratio(hits, hits + positions), "ratio"),
        "efgame.positions_per_s": (ratio(c.get("efgame.positions", 0), total("efgame.th_k_equal")), "1/s"),
        "efgame.fact4_ms": (mean("efgame.fact4_search", 1e3), "ms"),
        "presets.chain_unattributed_ms": (mean("presets.midpoint_chain_tv", 1e3, "self_s"), "ms"),
        "trace.attributed_pct": (ratio(tracer.root_seconds(), traced_wall, 100), "%"),
        "trace.overhead_pct": (ratio(traced_wall - tracer.probe_seconds() - plain_wall, plain_wall, 100), "%"),
    }


def run(args) -> int:
    wmod = import_workloads()
    wl = wmod.WORKLOADS[args.workload](args.seed)
    refs = json.loads((HERE / "refs" / f"{args.workload}.json").read_text())["refs"]

    tracer = wmod.Tracer() if args.trace else None
    rounds, walls, end_gauges, traced, traced_walls = [], [], [], [], []
    first_counts = first_peaks = None
    setups = []
    start = perf_counter()
    while True:
        r = len(rounds)
        t = perf_counter()
        rounds.append(wl.run_round(r, before_op=None if tracer else steady_start))
        walls.append(perf_counter() - t)
        end_gauges.append(speed_gauge())
        if tracer is not None:
            t = perf_counter()
            traced.append(wl.run_round(r, tracer))
            traced_walls.append(perf_counter() - t)
            if first_counts is None:
                first_counts, first_peaks = dict(tracer.counts), dict(tracer.peaks)
        # set-up probes are spread over the run, so that they meet the same
        # swings of machine speed as the ops do
        while tracer is None and len(setups) < SETUP_PROBES * min(1.0, (perf_counter() - start) / args.seconds):
            setups.append(setup_seconds(args.workload, args.seed))
        if perf_counter() - start >= args.seconds:
            break

    bad = verify(wl, refs, rounds, traced if tracer else None)
    attempted = sum(len(ops) for ops in rounds)
    ops = sum(op.spec.kind == "op" for r_ops in rounds for op in r_ops)
    if tracer is None:
        metrics = end_to_end(rounds, end_gauges, setups)
    else:
        metrics = per_layer(tracer, walls, traced_walls, first_counts, first_peaks)
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__, "rounds": len(rounds), "ops": ops,
    }
    calls = [op for r_ops in rounds for op in r_ops]
    diagnostics = {
        "error_rate": len(bad) / attempted, "failures": bad,
        "unscaled_wall_s": sum(op.seconds for op in calls) / len(rounds),
        "unscaled_setup_s": statistics.median(m for m, _ in setups) if setups else None,
        "speed_gauge_median_ms": statistics.median(op.gauge for op in calls) * 1e3 if tracer is None else None,
    }
    if hasattr(wl, "coverage") and wl.coverage[1]:
        diagnostics["wilson_coverage"] = wl.coverage[0] / wl.coverage[1]
        diagnostics["wilson_estimates"] = wl.coverage[1]

    print("facts " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(f"{'error_rate':36s} {len(bad) / attempted:14.6g} ratio ({len(bad)} of {attempted} checked calls;"
          f" latency percentiles over {ops} ops in {len(rounds)} rounds)")
    if tracer is not None:
        spans = tracer.summary()
        layer_self: dict[str, float] = {}
        for name, e in spans.items():
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + e["self_s"]
        diagnostics["layer_self_s"] = layer_self
        for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"{'self time ' + layer:36s} {seconds:14.6g} s "
                  f"({seconds / sum(traced_walls):.1%} of {sum(traced_walls):.3g} s traced)")
    else:
        print(f"{'unscaled wall_s':36s} {diagnostics['unscaled_wall_s']:14.6g} s")
        print(f"{'unscaled setup_s':36s} {diagnostics['unscaled_setup_s']:14.6g} s (speed gauge median "
              f"{diagnostics['speed_gauge_median_ms']:.3f} ms; times above are scaled to a gauge of "
              f"{REF_GAUGE_S * 1e3:g} ms)")
    if "wilson_coverage" in diagnostics:
        print(f"{'wilson_coverage':36s} {diagnostics['wilson_coverage']:14.6g} ratio "
              f"(diagnostic, {diagnostics['wilson_estimates']} estimates)")
    for where, reason in list(bad.items())[:10]:
        print(f"FAILED {where} {reason}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": not bad, "attempted": attempted, "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    extra = {"facts": facts, "diagnostics": diagnostics, "setup_probes_s": setups,
             "calls": [[op.spec.key, op.seconds, op.gauge] for op in calls],
             "round_walls_s": walls, "traced_round_walls_s": traced_walls}
    if tracer is not None:
        extra["spans"] = spans
        tracer.save(f"{stem}.spans.npz")
    Path(f"{stem}.json").write_text(json.dumps({**result, **extra}, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then one table."""
    table, results = [], {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        print(f"== {name}")
        print(proc.stdout, end="")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
