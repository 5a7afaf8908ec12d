"""The benchmark's four workloads.

Each workload is a fixed list of *slots*.  A slot holds a pool of input
variants; one round of the workload runs one variant from every slot, and
the workload seed decides which.  Every variant has a key under which the
pinned reference (``refs/<workload>.json``) stores its output.

Inputs are built when a workload object is constructed; that is the set-up
the ``setup_s`` metric times.  A round runs each variant as an untraced
library call, or, when a tracer is passed, as the same public calls wrapped
in spans (``mc_probability`` and ``midpoint_chain_tv`` are replayed call by
call).
"""

from __future__ import annotations

import contextlib
import random
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from ddgraphs import sampler
from ddgraphs.efgame import SUM, fact4_search, pointed_equiv, th_k_equal_detailed
from ddgraphs.estimator import (
    brute_force_probability,
    exact_path2,
    exact_triangle_circle,
    mc_probability,
    wilson_ci,
)
from ddgraphs.graph import count_triangles, make_graph
from ddgraphs.logic import Formula, LabeledModel, Vocab, holds, library, library_sentences
from ddgraphs.presets import (
    absorbing_sum_candidate,
    all_labeled_graphs,
    has_triangle_predicate,
    midpoint_chain_tv,
    seq_ones4,
    seq_thm6_half,
)
from ddgraphs.probseq import make_constant, support_upto
from ddgraphs.rng import RngStream, derived_stream, keyed_u64
from ddgraphs.sampler import CIRCLE, LINE, PairBatch, markov_step, sample, sample_batch, sample_line

from tracing import Tracer, patched


@dataclass
class Spec:
    """One input variant and the calls that process it."""

    key: str
    call: Callable[[], object]  # the untraced top-level library call
    traced: Callable[[Tracer], object]  # the same work, as spans
    value: Callable[[object], object] = lambda raw: raw  # JSON-comparable output
    kind: str = "op"  # "op": the workload's top-level call; "ref": a reference oracle
    graphs: int = 0  # graphs a sentence or predicate is judged on
    probe: Callable[[Tracer], None] | None = None  # extra layer measurement, traced runs only
    cross: Callable[[object], str | None] | None = None  # independent check of the output


@dataclass
class Op:
    spec: Spec
    seconds: float
    value: object
    error: str | None
    gauge: float = 0.0  # the machine's speed just before the op (see run.speed_gauge)


def run_spec(spec: Spec, tracer: Tracer | None) -> Op:
    t = perf_counter()
    try:
        raw = spec.call() if tracer is None else spec.traced(tracer)
    except Exception as e:  # an op that raises is counted as failed, the run goes on
        return Op(spec, perf_counter() - t, None, f"{type(e).__name__}: {e}")
    seconds = perf_counter() - t
    if tracer is not None and spec.probe is not None:
        spec.probe(tracer)
    return Op(spec, seconds, spec.value(raw), None)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.slots: list[list[Spec]] = self.build_slots()
        rnd = random.Random(f"{self.name}:{seed}")
        self._orders = [rnd.sample(range(len(pool)), len(pool)) for pool in self.slots]

    def build_slots(self) -> list[list[Spec]]:
        raise NotImplementedError

    def specs(self, r: int) -> list[Spec]:
        """The variants of round ``r``.  Each slot walks its pool in an order
        drawn from the seed, so consecutive rounds cover the pool evenly."""
        return [pool[order[r % len(pool)]] for pool, order in zip(self.slots, self._orders)]

    def patches(self, tracer: Tracer):
        """Library references replaced by span-recording wrappers during a
        traced round: the pair hash grid and the support scan that the
        sampler calls internally."""

        def grid(fn):
            def traced(prefix, rows, v, w):
                out = tracer.call("rng.keyed_u64_grid", fn, prefix, rows, v, w)
                tracer.count("rng.cells", out.size)
                tracer.peak("rng.grid_cells_max", out.size)
                return out

            return traced

        return patched(
            sampler,
            keyed_u64_grid=grid,
            support_upto=lambda fn: tracer.wrap("probseq.support_upto", fn),
        )

    def check_round(self, ops: list[Op]) -> dict[str, str]:
        """Checks that need several ops of one round: failure reason by key."""
        return {}

    def run_round(self, r: int, tracer: Tracer | None = None,
                  before_op: Callable[[], float] | None = None) -> list[Op]:
        """Run round ``r``; ``before_op`` runs untimed before each op and
        returns the op's speed gauge."""
        ops = []
        with self.patches(tracer) if tracer is not None else contextlib.nullcontext():
            for s in self.specs(r):
                gauge = before_op() if before_op is not None else 0.0
                if tracer is not None:
                    tracer.op_id += 1
                op = run_spec(s, tracer)
                op.gauge = gauge
                ops.append(op)
        return ops


def eval_probe(tracer: Tracer, seq, distances: list[int]) -> None:
    """Time ``ProbSeq.eval`` over the distances an op evaluates."""
    with tracer.span("probseq.eval", probe=True):
        for d in distances:
            seq.eval(d)
    tracer.count("probseq.evals", len(distances))


# --- Monte Carlo workloads ---------------------------------------------------


def replay_mc(tracer: Tracer, seq, n: int, target, model_kind: str, trials: int,
              master_seed: int, chunk: int = 4096) -> int:
    """``estimator.mc_probability`` as its public calls; returns successes."""
    if isinstance(target, Formula):
        check_name = "logic.holds"
        vocab = target.vocab

        def check(g):
            return holds(LabeledModel(g, vocab), target)
    else:
        check_name = "graph." + target.target_name
        check = target
    with tracer.span("estimator.mc_probability"):
        batch = tracer.call("sampler.PairBatch", PairBatch, seq, n, model_kind)
        tracer.count("sampler.pairs", len(batch.pair_list))
        successes = edges = 0
        for start in range(0, trials, chunk):
            ids = np.array([derived_stream(n, t) for t in range(start, min(start + chunk, trials))],
                           dtype=np.uint64)
            rows = tracer.call("sampler.edge_matrix", batch.edge_matrix, master_seed, ids)
            tracer.count("sampler.matrix_cells", rows.size)
            for r in range(rows.shape[0]):
                g = tracer.call("graph.from_row", batch.graph_from_row, rows[r])
                edges += len(g.edges)
                if tracer.call(check_name, check, g):
                    successes += 1
        tracer.count("sampler.edges", edges)
        tracer.count(check_name + "_calls", trials)
        tracer.call("estimator.wilson_ci", wilson_ci, successes, trials)
    return successes


class MonteCarlo(Workload):
    """Many ``mc_probability`` estimates plus the exact oracle per n."""

    seq_factory: Callable = None
    target_factory: Callable = None
    model_kind = LINE
    ns: tuple[int, ...] = ()
    pool = 0
    oracle: Callable = None

    def trials(self, i: int) -> int:
        raise NotImplementedError

    def build_slots(self):
        self.coverage = [0, 0]  # estimates whose Wilson interval holds the oracle, estimates
        self.seq = type(self).seq_factory()
        self.target = type(self).target_factory()
        slots = []
        for n in self.ns:
            slots.append([self._estimate(n, 101 + i, self.trials(i)) for i in range(self.pool)])
        for n in self.ns:
            slots.append([self._oracle(n)])
        return slots

    def _estimate(self, n: int, master_seed: int, trials: int) -> Spec:
        seq, target, model = self.seq, self.target, self.model_kind
        if model == LINE:
            distances = support_upto(seq, n - 1)
        else:
            distances = support_upto(seq, n // 2)
        return Spec(
            key=f"mc:{n}:{master_seed}:{trials}",
            call=lambda: mc_probability(seq, n, target, model, trials, master_seed),
            traced=lambda tr: replay_mc(tr, seq, n, target, model, trials, master_seed),
            value=lambda raw: raw if isinstance(raw, int) else round(raw.estimate * raw.trials),
            graphs=trials,
            probe=lambda tr: eval_probe(tr, seq, distances),
        )

    def _oracle(self, n: int) -> Spec:
        seq, oracle = self.seq, type(self).oracle
        return Spec(
            key=f"oracle:{n}",
            call=lambda: oracle(seq, n),
            traced=lambda tr: tr.call("estimator.oracle", oracle, seq, n),
            kind="ref",
        )

    def check_round(self, ops: list[Op]) -> dict[str, str]:
        """Cross-checks against the round's oracles; also tallies Wilson
        coverage of the oracle by each estimate's interval (a diagnostic)."""
        exact = {int(o.spec.key.split(":")[1]): o.value for o in ops if o.spec.kind == "ref"}
        bad = {}
        for o in ops:
            if o.spec.kind != "op" or o.error:
                continue
            _, n, _, trials = o.spec.key.split(":")
            p = exact.get(int(n))
            if p is None:
                continue
            low, high = wilson_ci(o.value, int(trials))
            self.coverage[0] += low <= p <= high
            self.coverage[1] += 1
            if p == 0.0 and o.value != 0:
                bad[o.spec.key] = f"{o.value} successes where the exact probability is 0"
        return bad


class McLineDense(MonteCarlo):
    """Line model, constant p = 0.1: every pair is a candidate."""

    name = "mc_line_dense"
    seq_factory = staticmethod(lambda: make_constant(0.1))
    target_factory = staticmethod(lambda: library("path2"))
    ns = (100, 150, 200)
    pool = 16
    oracle = staticmethod(exact_path2)

    def trials(self, i):
        return 1000


class McCircleSparse(MonteCarlo):
    """Circle model, ``thm6_half`` (5 support distances), native triangle test."""

    name = "mc_circle_sparse"
    model_kind = CIRCLE
    seq_factory = staticmethod(seq_thm6_half)
    target_factory = staticmethod(has_triangle_predicate)
    ns = (17, 18, 53, 54, 161, 162)
    pool = 24
    oracle = staticmethod(exact_triangle_circle)

    def trials(self, i):
        # spread over 500..1420 so that op latencies overlap across n
        return 500 + 40 * i


# --- midpoint chain ------------------------------------------------------------


def replay_chain(tracer: Tracer, seq, n: int, trials: int, seed: int) -> tuple[float, str]:
    """``presets.midpoint_chain_tv`` as its public calls."""
    with tracer.span("presets.midpoint_chain_tv"):
        start_streams = [keyed_u64(1, t) for t in range(trials)]
        direct_streams = [keyed_u64(2, t) for t in range(trials)]
        chain_counts: Counter[int] = Counter()
        start = tracer.call("sampler.sample_batch", sample_batch, seq, n, seed, start_streams, LINE)
        for t, g in enumerate(start):
            stepped = tracer.call("sampler.markov_step", markov_step, g, seq,
                                  RngStream(seed, keyed_u64(3, t)))
            chain_counts[tracer.call("graph.count_triangles", count_triangles, stepped)] += 1
        direct_counts: Counter[int] = Counter()
        direct = tracer.call("sampler.sample_batch", sample_batch, seq, n + 1, seed,
                             direct_streams, LINE)
        for g in direct:
            direct_counts[tracer.call("graph.count_triangles", count_triangles, g)] += 1
        tracer.count("sampler.batch_graphs", 2 * trials)
        keys = sorted(set(chain_counts) | set(direct_counts))
        tv = 0.5 * sum(abs(chain_counts[k] - direct_counts[k]) / trials for k in keys)
        table = "triangles,freq_chain,freq_direct\n" + "".join(
            f"{k},{chain_counts[k] / trials:.12g},{direct_counts[k] / trials:.12g}\n" for k in keys
        )
    return tv, table


def straddling_pairs(n: int, seq) -> list[tuple[int, int]]:
    """The pairs ``markov_step`` resamples on a graph with n vertices."""
    mid = n // 2
    return [(v, v + d) for d in support_upto(seq, n)
            for v in range(max(1, mid - d), min(mid, n + 1 - d) + 1)]


def scalar_hash_probe(tracer: Tracer, seed: int, pairs: list[tuple[int, int]], steps: int) -> None:
    """Time the per-pair scalar hash on the chain's own step streams."""
    streams = [RngStream(seed, keyed_u64(3, t)) for t in range(steps)]
    with tracer.span("rng.pair_u64", probe=True):
        for s in streams:
            for v, w in pairs:
                s.pair_u64(v, w)
    tracer.count("rng.hashes", steps * len(pairs))


def chain_probes(tracer: Tracer, seq, n: int, seed: int, pairs) -> None:
    scalar_hash_probe(tracer, seed, pairs, 1000)
    eval_probe(tracer, seq, support_upto(seq, n))


class MidpointChain(Workload):
    """``midpoint_chain_tv`` with constant 1/2 at n = 5, as in ``thm5_chain``."""

    name = "midpoint_chain"
    n = 5
    trials = 10_000
    pool = 16

    def build_slots(self):
        self.seq = make_constant(0.5)
        return [[self._chain(301 + i) for i in range(self.pool)]]

    def _chain(self, seed: int) -> Spec:
        seq, n, trials = self.seq, self.n, self.trials
        pairs = straddling_pairs(n, seq)
        return Spec(
            key=f"chain:{n}:{seed}:{trials}",
            call=lambda: midpoint_chain_tv(seq, n, trials, seed),
            traced=lambda tr: replay_chain(tr, seq, n, trials, seed),
            value=lambda raw: {"tv": raw[0], "csv": raw[1]},
            graphs=2 * trials,
            probe=lambda tr: chain_probes(tr, seq, n, seed, pairs),
            cross=lambda v: None if v["tv"] <= 0.05 else f"TV {v['tv']} > 0.05",
        )


# --- exact decisions -------------------------------------------------------------


def permuted(g, rnd: random.Random):
    perm = list(range(1, g.n + 1))
    rnd.shuffle(perm)
    return make_graph(g.n, [(perm[v - 1], perm[w - 1]) for v, w in g.edges])


def sentences_agree(m1: LabeledModel, m2: LabeledModel, k: int) -> str | None:
    """On an EQUAL verdict, every library sentence of depth <= k in the
    models' vocabulary must have the same truth value on both."""
    for f in library_sentences(max_depth=k, vocab=m1.vocab):
        if holds(m1, f) != holds(m2, f):
            return f"EQUAL at depth {k} but {f.name} differs"
    return None


class ExactDecisions(Workload):
    """Games, pointed games, absorbing-graph search, sentence values and
    brute-force probabilities, all deterministic."""

    name = "exact_decisions"
    pool = 8

    def build_slots(self):
        half = make_constant(0.5)
        slots = []
        for n in (8, 10, 12, 14, 16):
            slots.append([self._perm_game(f"lperm:{n}:{i}",
                                          sample_line(half, n, RngStream(401 + i, n)),
                                          random.Random(f"perm:{n}:{i}"))
                          for i in range(self.pool)])
        # the ROADMAP baseline pair: a full k = 3 search past the default budget
        slots.append([self._perm_game("lperm:40", sample_line(half, 40, RngStream(2, 40)),
                                      random.Random(2), node_budget=5 * 10**9)])
        for vocab in Vocab:
            model = CIRCLE if vocab.circular else LINE
            for k in (2, 3):
                slots.append([
                    self._game(f"adj:{vocab.value}:{k}:{i}",
                               LabeledModel(sample(half, 8 + i, RngStream(500 + i, 1), model), vocab),
                               LabeledModel(sample(half, 9 + i, RngStream(500 + i, 2), model), vocab),
                               k)
                    for i in range(self.pool)
                ])
        sparse = make_constant(0.3)
        pointed = [self._pointed(f"pointed:{i}",
                                 LabeledModel(sample_line(sparse, 12, RngStream(700 + i, 1)), Vocab.L),
                                 1 + 5 * i % 12,
                                 LabeledModel(sample_line(sparse, 12, RngStream(700 + i, 2)), Vocab.L),
                                 12 - 7 * i % 12)
                   for i in range(2 * self.pool)]
        slots += [pointed] * 4
        slots.append([self._fact4(2, all_labeled_graphs(3))])
        slots.append([self._fact4(3, all_labeled_graphs(2))])
        ones4, c4 = seq_ones4(), library("edge_in_c4")
        for n in range(4, 65):
            slots.append([self._holds(f"c4:{n}", LabeledModel(sample_line(ones4, n, RngStream(0, 0)), Vocab.L), c4)])
        for n in (5, 6):
            slots.append([self._brute(n, half)])
        return slots

    def _perm_game(self, key, g, rnd, node_budget=10**9):
        m1, m2 = LabeledModel(g, Vocab.L), LabeledModel(permuted(g, rnd), Vocab.L)
        spec = self._game(key, m1, m2, 3, node_budget)
        base = spec.cross
        spec.cross = lambda v: "isomorphic pair judged NOT_EQUAL" if not v[0] else base(v)
        return spec

    def _game(self, key, m1, m2, k, node_budget=10**9):
        def traced(tr):
            value, stats = tr.call("efgame.th_k_equal", th_k_equal_detailed, m1, m2, k, node_budget)
            tr.count("efgame.positions", stats.positions)
            tr.count("efgame.memo_hits", stats.memo_hits)
            return value, stats

        return Spec(
            key=key,
            call=lambda: th_k_equal_detailed(m1, m2, k, node_budget),
            traced=traced,
            value=lambda raw: [raw[0], raw[1].positions, raw[1].memo_hits],
            cross=lambda v: sentences_agree(m1, m2, k) if v[0] else None,
        )

    def _pointed(self, key, m1, v1, m2, v2, k=2):
        return Spec(
            key=key,
            call=lambda: pointed_equiv(m1, v1, m2, v2, k),
            traced=lambda tr: tr.call("efgame.pointed_equiv", pointed_equiv, m1, v1, m2, v2, k),
        )

    def _fact4(self, k, h_set):
        candidate = absorbing_sum_candidate(k)
        return Spec(
            key=f"fact4:{k}",
            call=lambda: fact4_search([candidate], h_set, k, SUM),
            traced=lambda tr: tr.call("efgame.fact4_search", fact4_search, [candidate], h_set, k, SUM),
            value=lambda g: None if g is None else [g.n, sorted(g.edges)],
        )

    def _holds(self, key, m, f):
        def traced(tr):
            tr.count("logic.holds_calls")
            return tr.call("logic.holds", holds, m, f)

        return Spec(key=key, call=lambda: holds(m, f), traced=traced, graphs=1)

    def _brute(self, n, seq):
        target = library("path2")
        distances = [w - v for v in range(1, n + 1) for w in range(v + 1, n + 1)]
        free = sum(1 for d in distances if 0.0 < seq.eval(d) < 1.0)
        cross = None
        if n == 5:
            want = exact_path2(seq, n)
            cross = lambda v: None if v == want == 37 / 64 else f"brute {v} vs exact_path2 {want}"
        return Spec(
            key=f"bf:{n}",
            call=lambda: brute_force_probability(seq, n, target, LINE),
            traced=lambda tr: tr.call("estimator.brute_force_probability",
                                      brute_force_probability, seq, n, target, LINE),
            graphs=2**free,
            probe=lambda tr: eval_probe(tr, seq, distances),
            cross=cross,
        )

WORKLOADS = {w.name: w for w in (McLineDense, McCircleSparse, MidpointChain, ExactDecisions)}
