"""Probability estimation for sentence/predicate events on sampled graphs.

Three routes:

* ``mc_probability`` - seeded Monte Carlo with Wilson score intervals,
* ``exact_path2`` / ``exact_triangle_circle`` - closed forms valid under
  verified structural conditions,
* ``brute_force_probability`` - exhaustive enumeration over the free edge
  set for tiny instances (the oracle the other two are checked against).

Monte Carlo and brute force share one ``row_decision`` on blocks of boolean
pair-table rows: seeded draws, or the subsets of the free pairs.  The
``path2`` sentence and the triangle (the ``triangle`` sentence in any
vocabulary, or ``presets.has_triangle_predicate``) compile to column
kernels that read only their clauses' pair columns, the only ones Monte
Carlo hashes, and decide a block with one ``clause_hits`` reduction.  On
tables with more than 16 triangles per pair the triangle is not compiled.
Other sentences run, compiled once into an array plan, on each row
scattered into an adjacency matrix; other predicates build each row's
graph.  Blocks are bounded by ``CELL_BUDGET``, not by a trial or subset
count.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .graph import Graph
from .logic import Formula, compile_sentence, library
from .probseq import ProbSeq, ordered_sum, support_table
from .rng import derived_streams
from .sampler import CELL_BUDGET, CIRCLE, LINE, PairBatch

Target = Formula | Callable[[Graph], bool]


class EstimatorError(ValueError):
    pass


class BruteForceGuardError(EstimatorError):
    """Enumerated edge set too large for exhaustive summation."""


class OracleValidityError(EstimatorError):
    """Closed form not applicable; fall back to brute force or Monte Carlo."""


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with confidence interval and reproducibility data.

    Exact-oracle results carry trials = 0 and a degenerate interval.
    """

    estimate: float
    ci_low: float
    ci_high: float
    trials: int
    master_seed: int
    target: str
    n: int
    model_kind: str = LINE

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.estimate <= self.ci_high <= 1.0:
            raise EstimatorError(
                f"interval violation: {self.ci_low} <= {self.estimate} <= {self.ci_high}"
            )


def wilson_ci(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval; exact at the 0/1 boundaries, unlike Wald."""
    if trials <= 0:
        raise EstimatorError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise EstimatorError("successes must lie in [0, trials]")
    if not 0.0 < level < 1.0:
        raise EstimatorError(f"level must lie in (0, 1), got {level}")
    z = NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = phat + z * z / (2.0 * trials)
    margin = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    low = max(0.0, (center - margin) / denom)
    high = min(1.0, (center + margin) / denom)
    return min(low, phat), max(high, phat)


def _target_name(target: Target) -> str:
    if isinstance(target, Formula):
        return target.name
    return getattr(target, "target_name", getattr(target, "__name__", "predicate"))


# Past this many positive-probability triangles per pair the triangle kernel's
# reduction costs more than building the row graphs (on the dense line the
# two break even near n = 50-60, i.e. 16-19 triangles per pair).
_TRIANGLES_PER_PAIR = 16

_PATH2 = library("path2").root
_TRIANGLE = library("triangle").root


def _midpoint_pairs(batch: PairBatch) -> np.ndarray:
    """Column pairs ((1, m), (m, n)) of every midpoint m both of whose pairs
    are in the table, shape (k, 2)."""
    n = batch.n
    left = np.full(n + 1, -1, dtype=np.int64)
    right = np.full(n + 1, -1, dtype=np.int64)
    at_first, at_last = np.flatnonzero(batch.v == 1), np.flatnonzero(batch.w == n)
    left[batch.w[at_first]] = at_first
    right[batch.v[at_last]] = at_last
    mids = (left >= 0) & (right >= 0)
    return np.stack([left[mids], right[mids]], axis=1)


def _clauses(target: Target, batch: PairBatch) -> np.ndarray | None:
    """``target`` compiled to a disjunction of edge conjunctions: a (k, r)
    array of pair-table columns, one clause per row, such that the target
    holds on a draw iff some clause has all r of its columns as edges.
    None for targets that are not compiled.

    Compiled: the ``path2`` sentence (midpoint column pairs) and the
    ``triangle`` sentence in any vocabulary, or a predicate whose
    ``sentence`` attribute is one (column triples of ``batch.triangles``).
    """
    sentence = target if isinstance(target, Formula) else getattr(target, "sentence", None)
    if sentence is None:
        return None
    if sentence.root == _PATH2:
        return _midpoint_pairs(batch)
    if sentence.root == _TRIANGLE:
        # stop enumerating once the dense rule is decided
        limit, blocks = _TRIANGLES_PER_PAIR * len(batch.v), []
        for block in batch.triangle_blocks():
            limit -= len(block)
            if limit < 0:
                return None
            blocks.append(block)
        return np.concatenate([np.zeros((0, 3), dtype=np.int64), *blocks])
    return None


def clause_hits(rows: np.ndarray, clauses: np.ndarray) -> np.ndarray:
    """Boolean (k, T): clause i holds on row t iff every column of
    ``clauses[i]`` is an edge of ``rows[t]``.  Reduced by column, on the
    transpose of the (T, columns) rows."""
    by_column = np.ascontiguousarray(rows.T)
    hit = by_column[clauses[:, 0]]
    for j in clauses.T[1:]:
        hit &= by_column[j]
    return hit


def row_decision(target: Target, batch: PairBatch) -> tuple[np.ndarray, int, Callable]:
    """How ``target`` is decided on boolean rows of ``batch``.

    Returns (columns, cells, decide): the table columns the target reads,
    the cells per row a block must hold, and ``decide(rows)``, one bool per
    row of ``rows[:, columns]``.  Compiled targets (see ``_clauses``) read
    their clauses' columns and decide a block with one ``clause_hits``
    reduction.  Every other target reads every column: a sentence, compiled
    once, runs on each row scattered into an adjacency matrix, and a
    predicate on each row's graph.
    """
    clauses = _clauses(target, batch)
    if clauses is None and isinstance(target, Formula):
        run, adj = compile_sentence(target), np.zeros((batch.n, batch.n), dtype=bool)
        v, w = batch.v.astype(np.intp) - 1, batch.w.astype(np.intp) - 1

        def decide(rows: np.ndarray) -> np.ndarray:
            out = np.empty(len(rows), dtype=bool)
            for t, row in enumerate(rows):
                adj[v, w] = adj[w, v] = row  # every column, so no edge of the last row stays
                out[t] = run(adj)
            return out

        return np.arange(len(batch.v)), len(batch.v), decide
    if clauses is None:
        return np.arange(len(batch.v)), len(batch.v), lambda rows: np.fromiter(
            (target(batch.graph_from_row(row)) for row in rows), bool, len(rows))
    read = np.zeros(len(batch.v), dtype=bool)
    read[clauses] = True
    # the columns read, and each clause column's position among them
    keep, local = np.flatnonzero(read), (np.cumsum(read) - 1)[clauses]
    return keep, max(len(keep), len(local)), lambda rows: clause_hits(rows, local).any(axis=0)


def mc_probability(
    seq: ProbSeq,
    n: int,
    target: Target,
    model_kind: str,
    trials: int,
    master_seed: int,
    level: float = 0.95,
) -> EstimateResult:
    """Monte Carlo estimate of P(n; target) over independent seeded samples.

    Trial t draws its graph from stream ``derived_stream(n, t)``, so results
    are independent of evaluation order and parallel scheduling.

    Only the columns ``row_decision`` says the target reads are hashed:
    compiled targets (see ``_clauses``) are decided by one ``clause_hits``
    reduction per block; every other target reads every column, and runs
    the compiled sentence on each row's adjacency or the predicate on each
    row's graph.  Both
    give the same successes, since each draw is a pure function of
    (master_seed, stream, v, w).  Blocks hold at most ``CELL_BUDGET`` cells
    (at least one trial), which bounds memory independently of ``trials``.
    """
    if trials < 1:
        raise EstimatorError("trials must be >= 1")
    if n < 1:
        raise EstimatorError("n must be >= 1")

    batch = PairBatch(seq, n, model_kind)
    columns, cells, decide = row_decision(target, batch)
    batch.restrict(columns)
    block = max(1, CELL_BUDGET // max(1, cells))
    successes = 0
    for start in range(0, trials, block):
        ids = derived_streams(n, start, min(start + block, trials))
        successes += int(np.count_nonzero(decide(batch.edge_matrix(master_seed, ids))))
    low, high = wilson_ci(successes, trials, level)
    return EstimateResult(
        estimate=successes / trials,
        ci_low=low,
        ci_high=high,
        trials=trials,
        master_seed=master_seed,
        target=_target_name(target),
        n=n,
        model_kind=model_kind,
    )


def exact_path2(seq: ProbSeq, n: int) -> float:
    """P(endpoints 1 and n joined by a two-edge path), in closed form.

    The n-2 candidate midpoints use pairwise distinct edge pairs, so the
    non-existence probabilities multiply:
    P = 1 - prod_{v=2}^{n-1} (1 - p(v-1) p(n-v)), accumulated in log space
    over the midpoints v - 1 in the support (the others add log1p(-0) = -0).
    """
    if n < 3:
        raise EstimatorError("needs n >= 3")
    idx, probs = support_table(seq, n - 2)
    p = dict(zip(idx.tolist(), probs.tolist()))
    log_miss = 0.0
    for d, p_left in p.items():  # midpoint v = d + 1
        q = p_left * p.get(n - 1 - d, 0.0)
        if q >= 1.0:
            return 1.0
        log_miss += math.log1p(-q)
    return -math.expm1(log_miss) + 0.0  # normalize -0.0


def exact_triangle_circle(seq: ProbSeq, n: int) -> float:
    """P(circle model on [n] contains a triangle), in closed form.

    Valid only when the positive-probability triangles are exactly the
    edge-disjoint family {v, v+n/3, v+2n/3}; a verifier compares the pair
    table's triangles with that family and raises OracleValidityError
    otherwise.  With no candidate triangle the probability is exactly 0.
    """
    if n < 3:
        raise EstimatorError("needs n >= 3")
    batch = PairBatch(seq, n, CIRCLE)
    triples = batch.triangles()
    if len(triples) == 0:
        return 0.0
    if n % 3 != 0:
        raise OracleValidityError(
            f"{len(triples)} candidate triangles at n={n} with 3 not dividing n"
        )
    pairs = batch.pair_list
    candidates = {(*pairs[j1], pairs[j2][1]) for j1, j2, _ in triples.tolist()}
    step = n // 3
    aligned = {(v, v + step, v + 2 * step) for v in range(1, step + 1)}
    if candidates != aligned:
        raise OracleValidityError(
            f"candidate triangles at n={n} are not the {step} aligned triples "
            f"({len(triples)} candidates)"
        )
    p = float(batch.p[triples[0, 0]])
    if p >= 1.0:
        return 1.0
    # the aligned triples partition their edges, so counts are binomial
    return -math.expm1(step * math.log1p(-(p**3)))


def brute_force_probability(seq: ProbSeq, n: int, target: Target, model_kind: str) -> float:
    """Exact probability by enumerating the free edge subsets as pair-table rows.

    The pair table's p = 1 pairs are set in every row (and pairs outside it
    absent); enumeration is over its f remaining pairs, in (v, w) order, and
    guarded at 2^21 subsets.  Leaf i holds free pair j iff bit f-1-j of i is
    0, the leaf order of a recursion that takes each pair before leaving it
    out; weights are multiplied in pair order from 1.0 and the weights that
    hold are added in leaf order, so the value is that recursion's, bit for
    bit.  Blocks of leaves go to the same ``row_decision`` as Monte Carlo:
    compiled targets share its kernels and build no graph.
    """
    if n < 1:
        raise EstimatorError("n must be >= 1")
    batch = PairBatch(seq, n, model_kind)
    by_pair = np.lexsort((batch.w, batch.v))
    free = by_pair[~batch.always[by_pair]]
    f = len(free)
    if f > 21:
        raise BruteForceGuardError(f"{f} free pairs is beyond the 2^21 subset guard")
    columns, cells, decide = row_decision(target, batch)
    # A leaf holds ~8 words (index, weight, their temporaries) and a byte per
    # cell of its row, its read columns and the decision.  Blocks of
    # CELL_BUDGET // 64 words (256 KB) add no measurable peak RSS.
    block = max(1, CELL_BUDGET // 64 // (8 + (len(batch.v) + len(columns) + cells + 7) // 8))
    total = 0.0
    for lo in range(0, 2**f, block):
        leaf = np.arange(lo, min(lo + block, 2**f), dtype=np.int64)
        rows = np.repeat(batch.always[None, :], len(leaf), axis=0)
        weight = np.ones(len(leaf))
        for j, (column, p) in enumerate(zip(free.tolist(), batch.p[free].tolist())):
            present = (leaf >> (f - 1 - j)) & 1 == 0
            rows[:, column] = present
            weight *= np.where(present, p, 1.0 - p)
        total = ordered_sum(weight[decide(rows[:, columns])], total)
    return total


def exact_result(
    estimate: float, n: int, target: str, model_kind: str, master_seed: int = 0
) -> EstimateResult:
    """Wrap an oracle value in the common result record (trials = 0)."""
    return EstimateResult(
        estimate=estimate,
        ci_low=estimate,
        ci_high=estimate,
        trials=0,
        master_seed=master_seed,
        target=target,
        n=n,
        model_kind=model_kind,
    )


def scan(
    seq: ProbSeq,
    target: Target,
    model_kind: str,
    n_list: Sequence[int],
    trials: int,
    master_seed: int,
) -> list[EstimateResult]:
    """One Monte Carlo estimate per n; streams are independent per (n, trial)."""
    if not n_list:
        raise EstimatorError("n_list must be nonempty")
    return [
        mc_probability(seq, n, target, model_kind, trials, master_seed)
        for n in n_list
    ]


CSV_HEADER = "n,estimate,ci_low,ci_high,trials,master_seed,target,model_kind"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def results_to_csv(results: Sequence[EstimateResult]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in results:
        buf.write(
            f"{r.n},{_fmt(r.estimate)},{_fmt(r.ci_low)},{_fmt(r.ci_high)},"
            f"{r.trials},{r.master_seed},{r.target},{r.model_kind}\n"
        )
    return buf.getvalue()
