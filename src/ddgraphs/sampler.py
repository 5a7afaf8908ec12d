"""Seeded sampling of distance-dependent random graphs.

Line model: pair {v, w} is an edge with probability p(|v - w|), independently
per pair.  Circle model: the distance is min(|v - w|, n - |v - w|).  The
midpoint chain grows a line sample by one vertex, keeping edges on the low
side, shifting the high side, and resampling every pair that straddles the
midpoint.

Per-pair randomness comes from a counter-based hash keyed by
(master_seed, stream_id, v, w) in canonical v < w order, so results are
independent of evaluation order and identical across platforms.  There is one
sampling path: ``PairBatch``, a read-only table of the candidate pairs with
``columns`` as its map from pairs back to columns, and ``keyed_u64_grid``,
which hashes chosen columns for many streams at once.  ``edge_matrix``
returns the draws as boolean (trials, pairs) rows laid out by column
(F-ordered), as the grid is, so each pair's column is contiguous for the
reductions and gathers that read it.  One draw is the one-row case.
``ground`` keeps what a target reads of a table in one memo bounded by
``CELL_BUDGET`` cells.
``markov_step_rows`` moves the kept columns of the [n] table into the [n+1]
table and hashes only the straddling columns, so the chain never builds a
graph; ``markov_step`` is the same step on one graph's edge list.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .graph import Graph, _graph_unchecked
from .probseq import ProbSeq, support_table, support_upto
from .rng import TWO64, RngStream, keyed_u64_grid, stream_words

LINE = "LINE"
CIRCLE = "CIRCLE"

# Cells one numpy block may hold: a Monte Carlo block's trials x hashed columns
# (and for a compiled target trials x clauses), or the int64 words of a block
# of enumerated triangle paths.  A uint64 array this size is 16 MB.  The
# grounding memo holds at most this many cells too.
CELL_BUDGET = 1 << 21
# The least the memo counts a grounding as: its fixed cost (the object, its
# arrays' headers and its memo key; 3.8 KB for one that reads no column,
# measured with tracemalloc) in 8-byte cells.
_ENTRY_CELLS = 480
# What the memo counts a read column as: its ``read`` index and its ``v``,
# ``w``, ``p`` and ``thresholds`` words plus its ``always`` byte, 41 bytes
# (tracemalloc read 821,513 bytes for 19,900 columns), in 8-byte cells.
_COLUMN_CELLS = 5


class BudgetError(RuntimeError):
    """An estimated size exceeds its budget.  The message is ``message``
    formatted with ``estimate``, ``budget`` and ``unit`` (the subclass's
    own, or the one given)."""

    message = "estimated {estimate} {unit} exceeds budget {budget}"
    unit = "cells"

    def __init__(self, estimate: int, budget: int, unit: str | None = None):
        self.estimate, self.budget, self._unit = estimate, budget, unit
        super().__init__(self.message.format(estimate=estimate, budget=budget,
                                             unit=unit or self.unit))

    def __reduce__(self):  # rebuilt from its arguments, so a worker process can raise it
        return type(self), (self.estimate, self.budget, self._unit)


class _Columns:
    """Draws over pair-table columns with ``v``, ``w``, ``thresholds``, ``always``."""

    def edge_matrix(self, master_seed: int, stream_ids: np.ndarray,
                    columns=slice(None)) -> np.ndarray:
        """Boolean (trials, pairs) edge indicators, F-ordered as the hash
        grid is; row t is the draw of stream ``stream_ids[t]`` (a uint64
        array, see ``rng.stream_words``).
        Given ``columns`` (an index array or a boolean mask), only those
        pairs are hashed, one result column each."""
        v, w, always = self.v[columns], self.w[columns], self.always[columns]
        if len(v) == 0:
            return np.zeros((len(stream_ids), 0), dtype=bool)
        grid = keyed_u64_grid((master_seed,), stream_ids, v, w)
        hits = grid < self.thresholds[columns][None, :]
        if always.any():
            hits = hits | always[None, :]
        return hits

    def graph_from_row(self, row: np.ndarray) -> Graph:
        at = np.flatnonzero(row)
        return _graph_unchecked(self.n, zip(self.v[at].tolist(), self.w[at].tolist()))


class PairBatch(_Columns):
    """Candidate-pair table for one (sequence, n, model) triple.

    This is the one place that knows which pairs of [n] can be edges: the
    line measures |v - w|, the circle min(|v - w|, n - |v - w|).  Columns
    ``v < w`` hold every pair with positive edge probability, one run per
    support distance d in increasing d, and in a run the pairs {s, s + d}
    for s = 1, 2, ... (wrapping past n on the circle, where an antipodal run
    stops at s = n / 2): the diagonal storage of the Toeplitz (line) or
    circulant (circle) edge-probability matrix, so ``columns`` finds a
    pair's column from its distance and start s.  ``p`` is each pair's edge
    probability, and ``thresholds`` and ``always`` its acceptance rule.
    Building walks support distances, not all pairs (O(n * |supp|), p read
    from the support scan); the per-pair arrays are built together on first
    read, or for chosen columns by ``column_arrays``.  They are read-only.
    """

    def __init__(self, seq: ProbSeq, n: int, model_kind: str):
        if model_kind == LINE:
            top = n - 1
            dists = support_upto(seq, top) if n >= 2 else []
            counts = [n - d for d in dists]
        elif model_kind == CIRCLE:
            top = n // 2
            dists = support_upto(seq, top) if n >= 2 else []
            counts = [n // 2 if 2 * d == n else n for d in dists]  # antipodes once
        else:
            raise ValueError(f"unknown model kind {model_kind!r}")
        self.n, self.model_kind, self.size = n, model_kind, sum(counts)
        probs = support_table(seq, top)[1]  # the memoized scan behind support_upto
        dists, counts = np.array(dists, dtype=np.int64), np.array(counts, dtype=np.int64)
        self._runs, self._starts = (dists, counts, probs), np.cumsum(counts) - counts
        # the first column of each distance's run, -1 off the support
        self.run_start = np.full(max(n, 1), -1, dtype=np.int64)
        self.run_start[dists] = self._starts
        self.run_start.flags.writeable = False

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        """(v, w, p, thresholds, always), one entry per column."""
        return self.column_arrays(np.arange(self.size))

    v, w, p, thresholds, always = (property(lambda self, i=i: self._arrays[i]) for i in range(5))

    def column_arrays(self, columns: np.ndarray) -> tuple[np.ndarray, ...]:
        """(v, w, p, thresholds, always) of each of ``columns``, read from
        the columns' runs; read-only."""
        dists, counts, probs = self._runs
        run = np.repeat(np.arange(len(dists)), counts)[columns]
        v = columns - self._starts[run] + 1
        w = v + dists[run]
        if self.model_kind == CIRCLE:
            w = (w - 1) % self.n + 1
            v, w = np.minimum(v, w), np.maximum(v, w)
        # rng.threshold_u64 where 0 < p < 1, in one cast: p * 2^64 < 2^64 is exact
        thresholds = (np.where((probs > 0.0) & (probs < 1.0), probs, 0.0) * TWO64).astype(np.uint64)
        arrays = (v.astype(np.uint64), w.astype(np.uint64), probs[run], thresholds[run],
                  (probs >= 1.0)[run])
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def pair_list(self) -> list[tuple[int, int]]:
        """The columns as (v, w) tuples of Python ints, built on first read."""
        return list(zip(self.v.tolist(), self.w.tolist()))

    def columns(self, a, b) -> np.ndarray:
        """The column of each pair {a[i], b[i]} (integers or integer arrays,
        broadcast together), or -1 where the pair is not in the table:
        a == b, a vertex outside [n], or a distance off the support."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        d, start = hi - lo, lo
        if self.model_kind == CIRCLE:
            # past n / 2 the run starting at hi reaches lo by wrapping
            wraps = 2 * d > self.n
            d, start = np.where(wraps, self.n - d, d), np.where(wraps, hi, lo)
        inside = (lo >= 1) & (hi <= self.n)
        run = self.run_start[np.where(inside, d, 0)]
        return np.where(inside & (run >= 0), run + start - 1, -1)

    def triangle_blocks(self) -> Iterator[np.ndarray]:
        """``triangles()`` in consecutive row blocks.  Each block comes from
        at most ``CELL_BUDGET // 8`` enumerated two-paths (a path holds about
        eight int64 words at once), or from the paths of one pair {a, b}, so
        memory is bounded by the pairs and the budget, not by the paths."""
        v, w = self.v.astype(np.int64), self.w.astype(np.int64)
        by_v = np.argsort(v, kind="stable")
        starts = np.searchsorted(v[by_v], np.arange(self.n + 2))
        # every path a < b < c along pair j1 = {a, b}, then pair j3 = {b, c}
        count = starts[w + 1] - starts[w]
        ends, paths = np.cumsum(count), CELL_BUDGET // 8
        lo = 0
        while lo < len(v):
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + paths, "right")))
            c = count[lo:hi]
            j1 = np.repeat(np.arange(lo, hi), c)
            first = np.repeat(starts[w[lo:hi]] - (np.cumsum(c) - c), c)
            j3 = by_v[first + np.arange(len(j1))]
            # keep the paths whose closing pair {a, c} is in the table
            j2 = self.columns(v[j1], w[j3])
            closed = j2 >= 0
            yield np.stack([j1[closed], j2[closed], j3[closed]], axis=1)
            lo = hi

    def triangles(self) -> np.ndarray:
        """Column triples (j1, j2, j3), shape (k, 3), one per vertex triple
        a < b < c whose pairs {a, b}, {a, c}, {b, c} are all in the table,
        i.e. every triangle with positive probability.  Ordered by j1, then
        by the column order of the pairs {b, c}."""
        return np.concatenate([np.zeros((0, 3), dtype=np.int64), *self.triangle_blocks()])


class Grounding(_Columns):
    """The table columns ``read`` (increasing) that a target reads, their
    ``v``, ``w``, ``p``, ``thresholds`` and ``always`` taken from the
    table's runs, and ``lineage``: the target's clauses over positions in
    ``read``, None, or the ``LineageBudgetError`` that refused them.
    ``kernel`` says the clauses alone decide a row, and a kernel's ``first``,
    None unless its builder sets it, the positions of the clauses' first
    columns where they are hashed before the rest.  The arrays are
    read-only, since ``ground`` hands one grounding to all its callers."""

    first = None

    def __init__(self, table: PairBatch, read: np.ndarray, lineage=None, kernel: bool = False):
        self.n, self.read = table.n, read
        self.v, self.w, self.p, self.thresholds, self.always = table.column_arrays(read)
        self.lineage, self.kernel = lineage, kernel
        clauses = lineage if isinstance(lineage, np.ndarray) else np.zeros(0)
        read.flags.writeable = clauses.flags.writeable = False
        # what the memo counts: the columns and the clause cells, at least its fixed cost
        self.cells = max(_ENTRY_CELLS, _COLUMN_CELLS * len(read) + clauses.size)


class _Memo(OrderedDict):
    """Groundings by (sequence, n, model, sentence), least recently used
    first, and their total ``cells``, kept as entries come and go (reading
    an OrderedDict's values hashes every key)."""

    cells = 0

    def clear(self) -> None:
        super().clear()
        self.cells = 0


_GROUNDINGS = _Memo()


def ground(seq: ProbSeq, n: int, model_kind: str, sentence=None,
           build: Callable[[PairBatch], Grounding] | None = None) -> Grounding:
    """What ``sentence`` reads of ``PairBatch(seq, n, model_kind)``:
    ``build(table)``, or every column and no lineage when ``build`` is None,
    built once per (seq, n, model_kind, sentence) and then read from one
    memo.  Sequences hash by identity (they are immutable) and sentences by
    value.  The memo holds at most ``CELL_BUDGET`` cells: it evicts the least
    recently used groundings, and keeps none larger than the budget."""
    key = (seq, n, model_kind, sentence)
    g = _GROUNDINGS.get(key)
    if g is not None:
        _GROUNDINGS.move_to_end(key)
        return g
    table = PairBatch(seq, n, model_kind)
    g = Grounding(table, np.arange(table.size)) if build is None else build(table)
    if g.cells <= CELL_BUDGET:
        _GROUNDINGS[key] = g
        _GROUNDINGS.cells += g.cells
        while _GROUNDINGS.cells > CELL_BUDGET:
            _GROUNDINGS.cells -= _GROUNDINGS.popitem(last=False)[1].cells
    return g


def is_admissible(seq: ProbSeq, h: Graph) -> bool:
    """Can ``h`` occur as a line sample on its own vertex range?  Yes iff
    every edge of h is a column of the line table (p > 0) and every
    ``always`` column (p = 1) is an edge of h."""
    table = PairBatch(seq, h.n, LINE)
    at = table.columns(*np.array(list(h.edges), dtype=np.int64).reshape(-1, 2).T)
    return bool((at >= 0).all() and np.isin(np.flatnonzero(table.always), at).all())


def sample_batch(
    seq: ProbSeq, n: int, master_seed: int, stream_ids: Sequence[int], model_kind: str = LINE
) -> list[Graph]:
    """One draw per stream id; ids are read mod 2^64."""
    if n < 1:
        raise ValueError("n must be >= 1")
    batch = ground(seq, n, model_kind)
    rows = batch.edge_matrix(master_seed, stream_words(stream_ids))
    return [batch.graph_from_row(row) for row in rows]


def sample(seq: ProbSeq, n: int, rng: RngStream, model_kind: str = LINE) -> Graph:
    """One draw of the line or circle model on [n]."""
    return sample_batch(seq, n, rng.master_seed, [rng.stream_id], model_kind)[0]


def sample_line(seq: ProbSeq, n: int, rng: RngStream) -> Graph:
    """One draw of the line model on [n]."""
    return sample(seq, n, rng, LINE)


# --- midpoint growth chain ----------------------------------------------------
#
# With mid = floor(n/2), a pair {v, w} (v < w) of the stepped graph on [n+1] is:
#   (i)   kept from {v, w}       when w < mid,
#   (ii)  kept from {v-1, w-1}   when v > mid,
#   (iii) resampled with p(|v - w|) when v <= mid <= w.
# Resampling hashes (v, w) over the step's stream, and old draws are never
# re-read, so each step needs its own stream.


def _straddling(table: _Columns, n: int) -> np.ndarray:
    """Mask of the columns of the [n+1] table that a step from [n] resamples."""
    mid = n // 2
    return (table.v <= mid) & (table.w >= mid)


def markov_step_rows(
    seq: ProbSeq, n: int, rows: np.ndarray, master_seed: int, stream_ids: np.ndarray
) -> np.ndarray:
    """One midpoint step of each draw in ``rows``, boolean rows of
    ``PairBatch(seq, n, LINE)``; returns the stepped draws as rows of
    ``PairBatch(seq, n + 1, LINE)``, F-ordered as ``edge_matrix`` draws are.  Row t resamples from stream
    ``stream_ids[t]`` (a uint64 array).

    Kept pairs keep their distance, so the kept columns of the [n+1] table
    are columns of the [n] table, found by ``columns``, and move by one index
    array; only the straddling columns are hashed.  Only rows of the [n]
    table are valid input: a graph with edges outside the support needs
    ``markov_step``.
    """
    if n < 2:
        raise ValueError("midpoint step needs n >= 2")
    old, new = PairBatch(seq, n, LINE), ground(seq, n + 1, LINE)
    if rows.shape != (len(stream_ids), old.size):
        raise ValueError(f"need rows of shape (streams, {old.size}), got {rows.shape}")
    resampled = _straddling(new, n)
    v, w = new.v[~resampled].astype(np.int64), new.w[~resampled].astype(np.int64)
    back = (v > n // 2).astype(np.int64)  # (ii): the high side moved up by one
    stepped = np.empty((len(rows), len(new.v)), dtype=bool, order="F")
    stepped[:, ~resampled] = rows[:, old.columns(v - back, w - back)]
    stepped[:, resampled] = new.edge_matrix(master_seed, stream_ids, resampled)
    return stepped


def markov_step(g: Graph, seq: ProbSeq, rng: RngStream) -> Graph:
    """Insert a vertex at the midpoint of ``g``: n -> n+1, resampling the
    straddling pairs from ``rng``.  Edges of ``g`` need not lie in the
    support of ``seq``: kept edges move as edges, not as table columns."""
    n = g.n
    if n < 2:
        raise ValueError("midpoint step needs n >= 2")
    mid = n // 2
    table = ground(seq, n + 1, LINE)
    straddling = np.flatnonzero(_straddling(table, n))
    row = table.edge_matrix(rng.master_seed, stream_words([rng.stream_id]), straddling)[0]
    drawn = straddling[row]
    # straddling old pairs are dropped; their successors fall to (iii)
    edges = [(a, b) if b < mid else (a + 1, b + 1) for a, b in g.edges if b < mid or a >= mid]
    edges.extend(zip(table.v[drawn].tolist(), table.w[drawn].tolist()))
    return _graph_unchecked(n + 1, edges)
