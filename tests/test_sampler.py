"""Seeded sampling: determinism, marginals, circle distances, midpoint chain.

The samplers draw every edge through ``PairBatch`` and ``keyed_u64_grid``.
``reference_sample`` below is the independent per-pair scalar sampler they
are checked against, draw for draw, and ``reference_chain_tv`` the
graph-per-trial midpoint chain that the row-native one is checked against.
"""

import importlib
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddgraphs import estimator, presets, probseq, rng, sampler
from ddgraphs.efgame import GameBudgetError
from ddgraphs.estimator import LineageBudgetError
from ddgraphs.graph import complete_graph, count_triangles, edgeless_graph, make_graph
from ddgraphs.logic import CheckerBudgetError, library
from ddgraphs.presets import NAMED_SEQUENCES, midpoint_chain_tv
from ddgraphs.probseq import make_constant, make_ones_powers, make_support, make_thm6
from ddgraphs.rng import (
    MASK64,
    RngStream,
    derived_stream,
    derived_streams,
    keyed_u64,
    keyed_u64_array,
    keyed_u64_grid,
    stream_words,
    threshold_u64,
)
from ddgraphs.sampler import (
    CIRCLE,
    LINE,
    PairBatch,
    markov_step,
    markov_step_rows,
    sample,
    sample_batch,
    sample_line,
)


def reference_pairs(seq, n, kind):
    """Every pair v < w with positive probability, with that probability."""
    out = []
    for v in range(1, n + 1):
        for w in range(v + 1, n + 1):
            d = w - v if kind == LINE else min(w - v, n - (w - v))
            p = seq.eval(d)
            if p > 0.0:
                out.append((v, w, p))
    return out


def reference_sample(seq, n, rng, kind):
    """Scalar sampler: one keyed hash per pair, compared with its threshold."""
    edges = [
        (v, w)
        for v, w, p in reference_pairs(seq, n, kind)
        if p >= 1.0 or rng.pair_u64(v, w) < threshold_u64(p)
    ]
    return make_graph(n, edges)


REFERENCE_SEQS = [
    make_constant(0.0),
    make_constant(1.0),
    make_constant(0.5),
    make_support({1: 0.3, 4: 0.9}),
    make_support({2: 1.0, 3: 0.5}),
    make_support({3: 0.25}),  # antipodal on the circle at n = 6
    make_ones_powers(2),
    make_thm6([0.5] * 4),
]
REFERENCE_NS = [1, 2, 3, 4, 5, 6, 9, 12, 17, 18]
# the bundled sequences, plus supports with an antipodal run at every even n
COLUMN_SEQS = [NAMED_SEQUENCES[name]() for name in sorted(NAMED_SEQUENCES)] + [
    make_constant(0.1),
    make_constant(0.5),
    make_support({1: 0.3, 2: 1.0, 3: 0.7, 6: 0.2}),
]
REFERENCE_STREAMS = [0, 1, 7, derived_stream(12, 3), keyed_u64(5, 9), MASK64]


class TestAgainstReference:
    @pytest.mark.parametrize("kind", [LINE, CIRCLE])
    @pytest.mark.parametrize("seq_index", range(len(REFERENCE_SEQS)))
    def test_sample_and_batch(self, kind, seq_index):
        seq = REFERENCE_SEQS[seq_index]
        for n in REFERENCE_NS:
            batch = sample_batch(seq, n, 11, REFERENCE_STREAMS, kind)
            for s, g in zip(REFERENCE_STREAMS, batch):
                want = reference_sample(seq, n, RngStream(11, s), kind)
                assert g == want, (n, s)
                assert sample(seq, n, RngStream(11, s), kind) == want

    @pytest.mark.parametrize("kind", [LINE, CIRCLE])
    @pytest.mark.parametrize("seq_index", range(len(REFERENCE_SEQS)))
    def test_pair_table(self, kind, seq_index):
        seq = REFERENCE_SEQS[seq_index]
        for n in REFERENCE_NS:
            ref = reference_pairs(seq, n, kind)
            batch = PairBatch(seq, n, kind)
            got = sorted(
                zip(batch.pair_list, batch.p.tolist(), batch.thresholds.tolist(), batch.always.tolist())
            )
            want = [
                ((v, w), p, threshold_u64(p) if p < 1.0 else 0, p >= 1.0) for v, w, p in ref
            ]
            assert got == want, n
            assert batch.v.tolist() == [v for v, _ in batch.pair_list]
            assert batch.w.tolist() == [w for _, w in batch.pair_list]

    @pytest.mark.parametrize("kind", [LINE, CIRCLE])
    @pytest.mark.parametrize("seq_index", range(len(REFERENCE_SEQS)))
    def test_triangles(self, kind, seq_index):
        seq = REFERENCE_SEQS[seq_index]
        for n in REFERENCE_NS:
            prob = {(v, w): p for v, w, p in reference_pairs(seq, n, kind)}
            want = [
                (a, b, c)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
                for c in range(b + 1, n + 1)
                if (a, b) in prob and (a, c) in prob and (b, c) in prob
            ]
            batch = PairBatch(seq, n, kind)
            triples = batch.triangles()
            assert triples.shape == (len(want), 3)
            assert (np.diff(triples[:, 0]) >= 0).all()  # ordered by j1
            pairs = batch.pair_list
            got = []
            for j1, j2, j3 in triples.tolist():
                (a, b), (a2, c), (b2, c2) = pairs[j1], pairs[j2], pairs[j3]
                assert (a2, b2, c2) == (a, b, c)
                got.append((a, b, c))
            assert sorted(got) == want, n

    @pytest.mark.parametrize("kind", [LINE, CIRCLE])
    @pytest.mark.parametrize("seq_index", range(len(COLUMN_SEQS)))
    def test_columns_inverts_the_table(self, kind, seq_index):
        seq = COLUMN_SEQS[seq_index]
        for n in list(range(1, 21)) + [30, 54, 162]:
            batch = PairBatch(seq, n, kind)
            at = {pair: j for j, pair in enumerate(batch.pair_list)}
            assert len(at) == len(batch.pair_list)
            # every ordered pair, with a == b and vertices outside [n]
            vertices = np.arange(-1, n + 3)
            got = batch.columns(vertices[:, None], vertices[None, :])
            want = [[at.get((min(a, b), max(a, b)), -1) for b in vertices.tolist()]
                    for a in vertices.tolist()]
            assert got.tolist() == want, n

    def test_edge_matrix_of_columns_is_those_columns(self):
        ids = np.arange(5, dtype=np.uint64)
        for kind in (LINE, CIRCLE):
            batch = PairBatch(make_support({1: 0.3, 2: 1.0, 3: 0.7}), 9, kind)
            full = batch.edge_matrix(3, ids)
            assert batch.always.any() and not batch.always.all()
            for columns in (np.flatnonzero(batch.v % 2 == 1), np.array([4, 0, 4]),
                            np.array([], dtype=np.intp)):
                got = batch.edge_matrix(3, ids, columns)
                assert got.shape == (5, len(columns))
                assert np.array_equal(got, full[:, columns])

    def test_table_is_read_only(self):
        batch = PairBatch(make_constant(0.5), 6, CIRCLE)
        for column in (batch.v, batch.w, batch.p, batch.thresholds, batch.always):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_grid_equals_scalar_chain(self):
        rows = np.array([0, 5, MASK64], dtype=np.uint64)
        v = np.array([1, 2, 7], dtype=np.uint64)
        w = np.array([2, 9, 30], dtype=np.uint64)
        grid = keyed_u64_grid((42,), rows, v, w)
        for i, r in enumerate(rows.tolist()):
            for j in range(3):
                assert int(grid[i, j]) == keyed_u64(42, r, int(v[j]), int(w[j]))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_grid_equals_scalar_chain_on_any_shape(self, data):
        # small blocks cross block edges on small grids; words repeat (small,
        # or near 2^64 - 1) or are anywhere in [0, 2^64)
        word = st.one_of(st.integers(0, 9), st.integers(MASK64 - 9, MASK64), st.integers(0, MASK64))
        rows = data.draw(st.lists(word, max_size=9))
        v = data.draw(st.lists(word, max_size=24))
        w = data.draw(st.lists(word, min_size=len(v), max_size=len(v)))
        prefix = tuple(data.draw(st.lists(word, max_size=2)))

        def array(words):
            signed = data.draw(st.booleans())  # int64 words are read mod 2^64
            a = np.array([x - (x >> 63 << 64) if signed else x for x in words],
                         dtype=np.int64 if signed else np.uint64)
            return np.repeat(a, 2)[::2] if data.draw(st.booleans()) else a  # strided view

        with mock.patch.object(rng, "_BLOCK", data.draw(st.sampled_from([1, 5, 64, 1 << 15]))):
            grid = keyed_u64_grid(prefix, array(rows), array(v), array(w))
        assert grid.dtype == np.uint64 and grid.shape == (len(rows), len(v))
        assert grid.tolist() == [[keyed_u64(*prefix, r, a, b) for a, b in zip(v, w)] for r in rows]

    @pytest.mark.parametrize("prefix", [(), (11,), (42, 7)])
    def test_cells_equal_scalar_chain(self, prefix):
        # every (row, v, w) of words on both sides of 2^63, and no cell at all
        words = np.array([0, 1, 5, 2**63 - 1, 2**63, 2**63 + 5, MASK64], dtype=np.uint64)
        rows, v, w = (a.ravel() for a in np.meshgrid(words, words, words, indexing="ij"))
        got = rng.keyed_u64_cells(prefix, rows, v, w)
        assert got.dtype == np.uint64
        cells = zip(rows.tolist(), v.tolist(), w.tolist())
        assert got.tolist() == [keyed_u64(*prefix, *cell) for cell in cells]
        empty = np.zeros(0, dtype=np.uint64)
        assert rng.keyed_u64_cells(prefix, empty, empty, empty).tolist() == []

    @pytest.mark.parametrize("columns", [7, 396])
    def test_grid_rows_cross_blocks(self, columns):
        # repeated, unsorted v; rows run past two blocks
        v = np.resize(np.array([9, 7, 8], dtype=np.uint64), columns)
        w = np.arange(columns, dtype=np.uint64) + 10
        step = rng._BLOCK // columns
        rows = np.arange(2 * step + 3, dtype=np.uint64) * 977
        grid = keyed_u64_grid((3,), rows, v, w)
        for i in (0, step - 1, step, 2 * step - 1, 2 * step, 2 * step + 2):
            r = int(rows[i])
            assert grid[i].tolist() == [keyed_u64(3, r, a, b) for a, b in zip(v.tolist(), w.tolist())]

    def test_grid_holds_the_output_and_about_a_block(self):
        # the path2 columns of the line at n = 200, {1, m} and {m, 200}, over
        # 1000 streams; mixing in place keeps no full-size temporaries, only
        # one block of scratch (82 rows x 396 columns).  The slack holds
        # numpy's ufunc buffers for the broadcast xors, 8192 words an operand
        m = np.arange(2, 200, dtype=np.uint64)
        v, w = np.concatenate([np.ones_like(m), m]), np.concatenate([m, np.full_like(m, 200)])
        rows = np.arange(1000, dtype=np.uint64)
        tracemalloc.start()
        try:
            out = keyed_u64_grid((1,), rows, v, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1000, 396)
        assert peak < out.nbytes + 8 * rng._BLOCK + 2**18, peak

    @pytest.mark.parametrize("prefix", [(), (1,), (3,), (42, 7)])
    def test_array_equals_scalar_chain(self, prefix):
        last = [0, 1, 2**32 - 1, 2**63, 2**64 - 1]
        got = keyed_u64_array(prefix, np.array(last, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [keyed_u64(*prefix, t) for t in last]

    def test_stream_words_passes_uint64_arrays_through(self):
        ids = np.array([0, 5, MASK64], dtype=np.uint64)
        assert stream_words(ids) is ids
        assert stream_words([0, 5, -1]).tolist() == ids.tolist()
        # numpy integers are read mod 2^64 too (they used to overflow)
        assert stream_words(np.array([0, 5, -1])).tolist() == ids.tolist()
        assert stream_words([np.int64(0), np.int64(5), np.int64(-1)]).tolist() == ids.tolist()
        assert sample_batch(make_constant(0.5), 6, 7, np.arange(3)) == sample_batch(
            make_constant(0.5), 6, 7, [0, 1, 2])

    @pytest.mark.parametrize("kind", [LINE, CIRCLE])
    @pytest.mark.parametrize("seq_index", range(len(REFERENCE_SEQS)))
    def test_triangle_blocks_under_a_small_budget(self, monkeypatch, kind, seq_index):
        seq = REFERENCE_SEQS[seq_index]
        for n in REFERENCE_NS + [30]:
            want = PairBatch(seq, n, kind).triangles()
            monkeypatch.setattr(sampler, "CELL_BUDGET", 8 * 5)  # five paths a block
            blocks = list(PairBatch(seq, n, kind).triangle_blocks())
            got = PairBatch(seq, n, kind).triangles()
            monkeypatch.undo()
            assert got.dtype == want.dtype and np.array_equal(got, want), n
            if len(want) > 5:
                assert len(blocks) > 1

    def test_dense_triangle_rule_is_decided_in_bounded_memory(self):
        # line n = 200 dense has 1.3M triangles; the rule refuses them after
        # one block instead of holding every two-path at once
        seq = make_constant(0.1)
        PairBatch(seq, 200, LINE)  # the support scan, outside the measurement
        tracemalloc.start()
        try:
            assert not estimator.grounding(seq, 200, library("triangle"), LINE).kernel
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, peak

    def test_build_evaluates_each_distance_once(self, monkeypatch):
        # PairBatch reads p from support_upto's scan, which is memoized
        calls = []
        real = probseq.ProbSeq.eval
        monkeypatch.setattr(probseq.ProbSeq, "eval", lambda self, i: calls.append(i) or real(self, i))
        seq = make_constant(0.1)
        batch = PairBatch(seq, 200, LINE)
        assert sorted(calls) == list(range(1, 200))
        PairBatch(seq, 200, LINE)
        assert len(calls) == 199
        assert batch.column_arrays(np.array([0, len(batch.v) - 1]))[2].tolist() == [0.1, 0.1]

    def test_pair_list_is_built_on_first_read(self):
        batch = PairBatch(make_constant(0.5), 12, LINE)
        batch.edge_matrix(0, np.array([1], dtype=np.uint64))
        batch.edge_matrix(0, np.array([1], dtype=np.uint64), np.flatnonzero(batch.v == 1))
        batch.triangles()
        assert "pair_list" not in vars(batch)
        assert batch.pair_list == list(zip(batch.v.tolist(), batch.w.tolist()))

    def test_per_pair_arrays_are_built_on_first_read(self):
        for kind in (LINE, CIRCLE):
            seqs = (make_constant(0.5), make_support({1: 0.3, 2: 1.0, 5: 0.7}), make_thm6([0.5] * 3))
            for seq in seqs:
                for n in (1, 2, 9, 30):
                    batch = PairBatch(seq, n, kind)
                    cols = np.arange(len(PairBatch(seq, n, kind).v))
                    assert batch.columns(1, 2).shape == ()
                    got = batch.column_arrays(cols)[2]
                    assert "_arrays" not in vars(batch)
                    assert got.tolist() == batch.p[cols].tolist(), (kind, n)

    def test_exact_path2_builds_no_per_pair_arrays(self, monkeypatch):
        # it reads 2(n - 2) columns of a table of up to n(n - 1)/2 pairs
        monkeypatch.setattr(PairBatch, "_arrays", property(lambda self: pytest.fail("built")))
        assert estimator.exact_path2(make_constant(0.5), 5) == 37 / 64

    @pytest.mark.parametrize("stream", [-1, 2**64 - 1, 2**64 + 3])
    def test_stream_ids_read_mod_2_64(self, stream):
        seq = make_constant(0.5)
        got = sample_batch(seq, 6, 7, [stream])[0]
        assert got == sample(seq, 6, RngStream(7, stream))
        assert got == reference_sample(seq, 6, RngStream(7, stream), LINE)
        assert got == sample(seq, 6, RngStream(7, stream & MASK64))



def table_columns(n, p=0.5):
    """The (v, w) columns of the line table of constant p on [n]."""
    table = PairBatch(make_constant(p), n, LINE)
    return table.v, table.w


def path2_columns(n):
    """The columns path2 reads on the line at n: {1, m} and {m, n}."""
    m = np.arange(2, n, dtype=np.uint64)
    return np.concatenate([np.ones_like(m), m]), np.concatenate([m, np.full_like(m, n)])


# rows x (v, w) column sets, and whether the grid mixes each distinct v's
# half once (``_shared_halves`` runs): columns of at least _BLOCK // 512
# rows and more than two blocks of cells
SHORT, BLOCKS = rng._BLOCK // 512, 2 * rng._BLOCK
GRIDS = {
    "path2": (200, path2_columns(200), True),
    "chain_5": (10_000, table_columns(5), True),
    "chain_6": (10_000, table_columns(6), True),
    "dense_all_pairs": (100, table_columns(40), True),
    "all_distinct": (3000, (np.arange(30, dtype=np.uint64), np.arange(30, dtype=np.uint64) + 1), True),
    "one_column": (BLOCKS + 1, (np.array([3], dtype=np.uint64), np.array([9], dtype=np.uint64)), True),
    "columns_past_a_block": (rng._BLOCK + 5, (np.array([4, 2, 4], dtype=np.uint64),
                                              np.array([5, 6, 7], dtype=np.uint64)), True),
    "one_row": (1, path2_columns(200), False),
    "circle_18": (1000, (np.resize(np.arange(1, 13, dtype=np.uint64), 18),
                         np.arange(18, dtype=np.uint64) + 13), False),
    "no_rows": (0, path2_columns(200), False),
    "no_columns": (100, (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64)), False),
    # both sides of the size rule, repeated v
    "rows_below_the_rule": (SHORT - 1, path2_columns(BLOCKS // (SHORT - 1) // 2 + 4), False),
    "rows_at_the_rule": (SHORT, path2_columns(BLOCKS // SHORT // 2 + 4), True),
    "cells_at_the_rule": (2 * SHORT, path2_columns(BLOCKS // (2 * SHORT) // 2 + 2), False),
    "cells_past_the_rule": (2 * SHORT, (np.resize(np.arange(1, 9, dtype=np.uint64), BLOCKS // (2 * SHORT) + 1),
                                        np.arange(BLOCKS // (2 * SHORT) + 1, dtype=np.uint64) + 9), True),
}


class TestKeyedGrid:
    """``keyed_u64_grid`` against the scalar ``keyed_u64`` chain, its
    column-major layout, and the layout its consumers keep."""

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_equals_scalar_chain(self, name):
        r, (v, w), shared = GRIDS[name]
        assert (r * len(v) > BLOCKS and r >= SHORT) == shared, "the case sits on its side of the rule"
        rows = np.arange(r, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)  # words across [0, 2^64)
        with mock.patch.object(rng, "_shared_halves", wraps=rng._shared_halves) as halves:
            grid = keyed_u64_grid((11,), rows, v, w)
        assert halves.called == shared
        assert grid.dtype == np.uint64 and grid.shape == (r, len(v)) and grid.flags.f_contiguous
        # every column at the block edges and a few rows between
        some = {0, 1, r // 2, r - 1, *np.random.default_rng(0).integers(0, max(r, 1), 5).tolist()}
        for i in sorted(i for i in some if 0 <= i < r):
            want = [keyed_u64(11, int(rows[i]), a, b) for a, b in zip(v.tolist(), w.tolist())]
            assert grid[i].tolist() == want, (name, i)

    def test_narrow_grid_holds_the_output_and_about_a_block(self):
        # the chain's [5] table over 20,000 streams: a block is one column
        # of 20,000 rows, so scratch is one column and the (row, v) halves
        # live in the output
        v, w = table_columns(5)
        rows = np.arange(20_000, dtype=np.uint64)
        tracemalloc.start()
        try:
            out = keyed_u64_grid((1,), rows, v, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (20_000, 10)
        assert peak < out.nbytes + 8 * rng._BLOCK + 2**18, peak

    def test_edge_matrix_rows_are_column_major(self):
        # F-ordered rows: clause_hits's transpose is a view, and the rows
        # the chain steps stay so
        seq = make_constant(0.5)
        ids = keyed_u64_array((1,), np.arange(3000, dtype=np.uint64))
        g = sampler.ground(seq, 12, LINE)
        for columns in (slice(None), np.arange(0, len(g.v), 3)):
            rows = g.edge_matrix(5, ids, columns)
            assert rows.flags.f_contiguous
            assert np.shares_memory(np.ascontiguousarray(rows.T), rows)
        stepped = markov_step_rows(seq, 12, g.edge_matrix(5, ids), 9, ids)
        assert stepped.flags.f_contiguous
        # p = 1 columns are or-ed in, keeping the layout
        assert sampler.ground(make_support({1: 1.0, 2: 0.5}), 12, LINE).edge_matrix(5, ids).flags.f_contiguous

    def test_clause_hits_copies_no_row(self):
        rows = sampler.ground(make_constant(0.5), 30, LINE).edge_matrix(
            5, keyed_u64_array((1,), np.arange(20_000, dtype=np.uint64)))
        clauses = np.arange(20).reshape(10, 2)
        tracemalloc.start()
        try:
            hits = estimator.clause_hits(rows, clauses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes // 10, peak  # the (10, 20,000) result, not a 435-column copy
        assert np.array_equal(hits, estimator.clause_hits(np.ascontiguousarray(rows), clauses))


class TestLineSampling:
    def test_zero_sequence_gives_edgeless(self):
        g = sample_line(make_constant(0.0), 12, RngStream(5))
        assert g.m == 0

    def test_unit_sequence_gives_complete(self):
        g = sample_line(make_constant(1.0), 6, RngStream(5))
        assert g == complete_graph(6)

    def test_deterministic(self):
        a = sample_line(make_constant(0.5), 30, RngStream(7, 3))
        b = sample_line(make_constant(0.5), 30, RngStream(7, 3))
        assert a == b

    def test_distinct_streams_differ(self):
        a = sample_line(make_constant(0.5), 30, RngStream(7, 0))
        b = sample_line(make_constant(0.5), 30, RngStream(7, 1))
        assert a != b

    def test_sparse_support_only_those_distances(self):
        g = sample_line(make_support({3: 1.0}), 10, RngStream(0))
        assert g.edges == frozenset((v, v + 3) for v in range(1, 8))

    def test_single_vertex(self):
        assert sample_line(make_constant(0.7), 1, RngStream(0)).n == 1

    def test_marginal_frequency(self):
        seq = make_constant(0.5)
        hits = sum(
            sample_line(seq, 4, RngStream(11, t)).has_edge(1, 2) for t in range(10_000)
        )
        assert abs(hits / 10_000 - 0.5) < 0.02


class TestCircleSampling:
    def test_unit_circle_complete(self):
        assert sample(make_constant(1.0), 4, RngStream(1), CIRCLE) == complete_graph(4)

    def test_distance_wraps(self):
        g = sample(make_support({1: 1.0}), 6, RngStream(0), CIRCLE)
        want = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)}
        assert g.edges == frozenset(want)

    def test_antipodal_pairs_once(self):
        assert PairBatch(make_support({2: 0.5}), 4, CIRCLE).pair_list == [(1, 3), (2, 4)]

    def test_support_above_half_is_inert(self):
        seq = make_support({10: 1.0})
        assert sample(seq, 12, RngStream(3), CIRCLE).m == 0

    def test_geometric_support_triangle_free_below_alignment(self):
        seq = make_thm6([0.5] * 3)
        for t in range(200):
            g = sample(seq, 17, RngStream(2, t), CIRCLE)
            assert all(min(w - v, 17 - (w - v)) == 6 for v, w in g.edges)
            assert count_triangles(g) == 0


class TestBatchSampling:
    @pytest.mark.parametrize("kind", [LINE, CIRCLE])
    def test_batch_matches_scalar(self, kind):
        seq = make_thm6([0.5] * 4)
        n = 20
        streams = [derived_stream(n, t) for t in range(64)]
        batch = sample_batch(seq, n, 9, streams, kind)
        for t, g in enumerate(batch):
            assert g == reference_sample(seq, n, RngStream(9, streams[t]), kind)

    def test_edge_matrix_shape_and_padding(self):
        batch = PairBatch(make_constant(0.0), 8, LINE)
        rows = batch.edge_matrix(0, np.array([1, 2, 3], dtype=np.uint64))
        assert rows.shape == (3, 0)

    def test_always_on_pairs(self):
        batch = PairBatch(make_support({2: 1.0, 3: 0.5}), 8, LINE)
        rows = batch.edge_matrix(0, np.array([0], dtype=np.uint64))
        g = batch.graph_from_row(rows[0])
        assert all(g.has_edge(v, v + 2) for v in range(1, 7))


class TestMarkovStep:
    def test_edgeless_stays_edgeless(self):
        g = markov_step(edgeless_graph(6), make_constant(0.0), RngStream(0))
        assert g.n == 7 and g.m == 0

    def test_straddling_edge_is_resampled_away(self):
        # pair {1,2} at n=4 has its right end at mid = 2, so it falls to the
        # resampling clause and vanishes under the zero sequence
        g = make_graph(4, [(1, 2)])
        out = markov_step(g, make_constant(0.0), RngStream(0))
        assert out.m == 0

    def test_low_side_kept(self):
        g = make_graph(7, [(1, 2)])  # mid = 3, pair entirely below
        out = markov_step(g, make_constant(0.0), RngStream(0))
        assert out.has_edge(1, 2)

    def test_high_side_shifted(self):
        g = make_graph(7, [(5, 7)])  # above mid = 3, shifts by one
        out = markov_step(g, make_constant(0.0), RngStream(0))
        assert out.edges == frozenset({(6, 8)})

    def test_unit_sequence_fills_straddle(self):
        g = edgeless_graph(4)
        out = markov_step(g, make_constant(1.0), RngStream(0))
        # every pair with v <= 2 <= w appears; nothing else did
        want = {(v, w) for v in range(1, 6) for w in range(v + 1, 6) if v <= 2 <= w}
        assert out.edges == frozenset(want)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            markov_step(edgeless_graph(1), make_constant(0.5), RngStream(0))

    def naive_step(self, g, seq, rng):
        # direct transcription of the three clauses over all pairs; consumes
        # the same keyed randomness, so it must agree exactly
        n, mid = g.n, g.n // 2
        edges = []
        for v in range(1, n + 2):
            for w in range(v + 1, n + 2):
                if w < mid:
                    if g.has_edge(v, w):
                        edges.append((v, w))
                elif v > mid:
                    if g.has_edge(v - 1, w - 1):
                        edges.append((v, w))
                else:
                    p = seq.eval(w - v)
                    if p >= 1.0 or (p > 0.0 and rng.pair_u64(v, w) < threshold_u64(p)):
                        edges.append((v, w))
        return make_graph(n + 1, edges)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
    def test_batch_step_matches_single_and_naive(self, n):
        streams = [keyed_u64(3, t) for t in range(30)]
        for seq in STEP_SEQS:
            old, new = PairBatch(seq, n, LINE), PairBatch(seq, n + 1, LINE)
            rows = old.edge_matrix(5, np.arange(30, dtype=np.uint64))
            stepped = markov_step_rows(seq, n, rows, 8, stream_words(streams))
            assert stepped.shape == (30, len(new.v))
            for row, s, out in zip(rows, streams, stepped):
                g = old.graph_from_row(row)
                assert new.graph_from_row(out) == markov_step(g, seq, RngStream(8, s))
                assert new.graph_from_row(out) == self.naive_step(g, seq, RngStream(8, s))

    def test_batch_step_rejects_mixed_sizes(self):
        seq = make_constant(0.5)
        rows = PairBatch(seq, 4, LINE).edge_matrix(0, np.array([1, 2], dtype=np.uint64))
        ids = np.array([1, 2], dtype=np.uint64)
        with pytest.raises(ValueError):
            markov_step_rows(seq, 5, rows, 0, ids)  # rows of the [4] table
        with pytest.raises(ValueError):
            markov_step_rows(seq, 4, rows, 0, ids[:1])
        with pytest.raises(ValueError):
            markov_step_rows(seq, 1, rows[:, :0], 0, ids)

    def test_matches_naive_reference(self):
        for seq in (make_constant(0.5), make_support({1: 0.3, 4: 0.9}), make_constant(0.0)):
            for t in range(40):
                g = sample_line(make_constant(0.4), 9, RngStream(5, t))
                rng = RngStream(8, t)
                assert markov_step(g, seq, rng) == self.naive_step(g, seq, rng)

    def test_triangle_count_distribution_close_to_direct(self):
        seq = make_constant(0.5)
        trials = 20_000
        from collections import Counter

        chain: Counter = Counter()
        for t, g in enumerate(sample_batch(seq, 5, 3, [keyed_u64(1, t) for t in range(trials)])):
            chain[count_triangles(markov_step(g, seq, RngStream(3, keyed_u64(2, t))))] += 1
        direct: Counter = Counter()
        for g in sample_batch(seq, 6, 3, [keyed_u64(4, t) for t in range(trials)]):
            direct[count_triangles(g)] += 1
        keys = set(chain) | set(direct)
        tv = 0.5 * sum(abs(chain[k] - direct[k]) / trials for k in keys)
        assert tv <= 0.05


class TestDerivedStream:
    def test_packs_n_and_trial(self):
        assert derived_stream(3, 5) == (3 << 32) | 5
        assert derived_stream(2**32 - 1, 2**32 - 1) == MASK64

    @pytest.mark.parametrize(
        "n, start, stop", [(3, 0, 5), (0, 7, 7), (2**32 - 1, 2**32 - 3, 2**32)]
    )
    def test_block_equals_per_trial(self, n, start, stop):
        got = derived_streams(n, start, stop)
        assert got.dtype == np.uint64
        assert got.tolist() == [derived_stream(n, t) for t in range(start, stop)]

    @pytest.mark.parametrize(
        "n, start, stop", [(2**32, 0, 1), (-1, 0, 1), (5, -1, 2), (5, 0, 2**32 + 1), (5, 3, 2)]
    )
    def test_block_out_of_range_rejected(self, n, start, stop):
        with pytest.raises(ValueError):
            derived_streams(n, start, stop)

    @pytest.mark.parametrize("n, trial", [(2**32 + 5, 1), (5, 2**32 + 1), (-1, 0), (0, -1)])
    def test_out_of_range_rejected(self, n, trial):
        with pytest.raises(ValueError):
            derived_stream(n, trial)


STEP_SEQS = (make_constant(0.5), make_support({1: 0.3, 4: 0.9}), make_ones_powers(2))
CHAIN_SEQS = (
    make_constant(0.0),
    make_constant(0.5),
    make_constant(1.0),
    make_support({1: 0.3, 4: 0.9}),
    make_ones_powers(2),
)


def reference_chain_tv(seq, n, trials, seed):
    """The graph-per-trial midpoint chain: ``presets.midpoint_chain_tv`` as it
    was before it stepped pair-table rows."""
    start_streams = [keyed_u64(1, t) for t in range(trials)]
    step_streams = [keyed_u64(3, t) for t in range(trials)]
    chain_counts = Counter(
        count_triangles(markov_step(g, seq, RngStream(seed, s)))
        for g, s in zip(sample_batch(seq, n, seed, start_streams, LINE), step_streams)
    )
    direct_streams = [keyed_u64(2, t) for t in range(trials)]
    direct = sample_batch(seq, n + 1, seed, direct_streams, LINE)
    direct_counts = Counter(count_triangles(g) for g in direct)
    keys = sorted(set(chain_counts) | set(direct_counts))
    gap = 0.0
    for k in keys:
        gap += abs(chain_counts[k] - direct_counts[k]) / trials
    tv = 0.5 * gap
    table = "triangles,freq_chain,freq_direct\n" + "".join(
        f"{k},{chain_counts[k] / trials:.12g},{direct_counts[k] / trials:.12g}\n" for k in keys
    )
    return tv, table


class TestRowChain:
    @pytest.mark.parametrize("seq_index", range(len(CHAIN_SEQS)))
    def test_equals_graph_per_trial_reference(self, seq_index):
        seq = CHAIN_SEQS[seq_index]
        for n in range(2, 10):
            assert midpoint_chain_tv(seq, n, 150, 17 + n) == reference_chain_tv(seq, n, 150, 17 + n)

    @pytest.mark.parametrize("budget", [1, 300, 60 * 70])
    def test_blocks_do_not_change_counts(self, monkeypatch, budget):
        # n = 5 -> 6 has 15 pairs and 20 triples: 60 cells a trial
        seq = make_constant(0.5)
        want = reference_chain_tv(seq, 5, 200, 3)
        monkeypatch.setattr(estimator, "CELL_BUDGET", budget)
        assert midpoint_chain_tv(seq, 5, 200, 3) == want

    def test_pinned_tv(self):
        tv, _ = midpoint_chain_tv(make_constant(0.5), 5, 10_000, 305)
        assert tv == 0.011199999999999998

    def test_sums_run_left_to_right(self, monkeypatch):
        """The pinned TV and C3_SUM add left to right: a compensated builtin
        ``sum`` (Python 3.12+) moves neither."""

        def neumaier(values, start=0):
            total, carry = start, 0.0
            for x in values:
                t = total + x
                carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            return total + carry

        for module in (presets, probseq):
            monkeypatch.setattr(module, "sum", neumaier, raising=False)
        assert neumaier([0.1] * 10) == 1.0
        assert midpoint_chain_tv(make_constant(0.5), 5, 10_000, 305)[0] == 0.011199999999999998
        assert probseq.condition_statistic(make_constant(0.1), 10, "C3_SUM") == 0.9999999999999999

    def test_no_trials_and_too_few_vertices(self):
        header = "triangles,freq_chain,freq_direct\n"
        assert midpoint_chain_tv(make_constant(0.5), 5, 0, 0) == (0.0, header)
        with pytest.raises(ValueError):
            midpoint_chain_tv(make_constant(0.5), 1, 10, 0)


class TestBenchmarkHooks:
    def test_traced_benchmark_reaches_its_patch_points(self, monkeypatch):
        # perfbench imports these names from the library, and its traced mode
        # times the pair hash and the support scan by replacing the module
        # globals that PairBatch calls
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        tracing = importlib.import_module("tracing")

        class Hooks(workloads.Workload):
            def build_slots(self):
                return []

        tracer = tracing.Tracer()
        with Hooks(0).patches(tracer):
            batch = PairBatch(make_constant(0.5), 6, LINE)
            batch.edge_matrix(1, np.array([0], dtype=np.uint64))
        calls = {name: s["calls"] for name, s in tracer.summary().items()}
        assert calls == {"probseq.support_upto": 1, "rng.keyed_u64_grid": 1}
        assert tracer.counts["rng.cells"] == 15
        assert sampler.keyed_u64_grid is keyed_u64_grid
        assert sampler.support_upto is probseq.support_upto


@pytest.mark.parametrize("error,message", [
    (GameBudgetError(7, 3), "estimated 7 game positions exceeds budget 3"),
    (GameBudgetError(7, 3, "type-table cells"), "estimated 7 type-table cells exceeds budget 3"),
    (CheckerBudgetError(7, 3), "estimated 7 cells in one slice exceeds budget 3"),
    (LineageBudgetError(7, 3), "estimated 7 exceeds lineage budget 3"),
])
def test_budget_errors_share_one_base(error, message):
    assert isinstance(error, sampler.BudgetError) and isinstance(error, RuntimeError)
    assert (error.estimate, error.budget, str(error)) == (7, 3, message)
