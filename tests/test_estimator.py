"""Monte Carlo estimation, lineage, exact oracles, and brute-force enumeration.

The oracles read their pairs from the sampler's pair table.  The
``reference_*`` functions below re-derive every pair and distance on their
own, one pair or one index at a time, and the oracles must equal them
exactly.
"""

import json
import math
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddgraphs import estimator, logic, sampler
from ddgraphs.estimator import (
    BruteForceGuardError,
    EstimateResult,
    EstimatorError,
    LineageBudgetError,
    OracleValidityError,
    brute_force_probability,
    exact_path2,
    exact_probability,
    exact_result,
    exact_triangle_circle,
    mc_probability,
    results_to_csv,
    scan,
    wilson_ci,
)
from ddgraphs.graph import Graph, has_triangle
from ddgraphs.logic import (Adj, And, Const, Eq, Exists, Formula, LabeledModel, Not, Or, Var,
                            Vocab, holds, library, parse)
from ddgraphs.cli import resolve_target
from ddgraphs.graph import make_graph
from ddgraphs.presets import NAMED_SEQUENCES, has_triangle_predicate, midpoint_chain_tv, seq_thm6_half
from ddgraphs.probseq import make_constant, make_ones_powers, make_support, make_thm6
from ddgraphs.rng import derived_stream, derived_streams
from ddgraphs.sampler import CIRCLE, LINE, Grounding, PairBatch


def distance(v, w, n, kind):
    d = w - v
    return d if kind == LINE else min(d, n - d)


def reference_brute_force(seq, n, check, kind):
    """Sum over every subset of the 0 < p < 1 pairs, all pairs in (v, w) order."""
    fixed, free = [], []
    for v in range(1, n + 1):
        for w in range(v + 1, n + 1):
            p = seq.eval(distance(v, w, n, kind))
            if p >= 1.0:
                fixed.append((v, w))
            elif p > 0.0:
                free.append((v, w, p))
    total = 0.0

    def recurse(idx, edges, weight):
        nonlocal total
        if idx == len(free):
            if check(make_graph(n, edges)):
                total += weight
            return
        v, w, p = free[idx]
        recurse(idx + 1, edges + [(v, w)], weight * p)
        recurse(idx + 1, edges, weight * (1.0 - p))

    recurse(0, fixed, 1.0)
    return total


def reference_circle_triangles(seq, n):
    """Vertex triples a < b < c whose three circular distances have p > 0."""
    p = {d: seq.eval(d) for d in range(1, n // 2 + 1)}
    return {
        (a, b, c)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        for c in range(b + 1, n + 1)
        if p[distance(a, b, n, CIRCLE)] > 0.0
        and p[distance(a, c, n, CIRCLE)] > 0.0
        and p[distance(b, c, n, CIRCLE)] > 0.0
    }


def reference_triangle_circle(seq, n):
    """The circle-triangle closed form on the triple-loop candidates."""
    candidates = reference_circle_triangles(seq, n)
    if not candidates:
        return 0.0
    step = n // 3
    aligned = {(v, v + step, v + 2 * step) for v in range(1, step + 1)}
    if n % 3 != 0 or candidates != aligned:
        raise OracleValidityError("not aligned")
    p = seq.eval(step)
    return 1.0 if p == 1.0 else -math.expm1(step * math.log1p(-(p**3)))


def reference_path2(seq, n):
    """P = 1 - prod_{v=2}^{n-1} (1 - p(v-1) p(n-v)), one midpoint at a time."""
    log_miss = 0.0
    for v in range(2, n):
        q = seq.eval(v - 1) * seq.eval(n - v)
        if q >= 1.0:
            return 1.0
        log_miss += math.log1p(-q)
    return -math.expm1(log_miss) + 0.0


class TestWilson:
    def test_all_successes(self):
        low, high = wilson_ci(10, 10)
        assert high == 1.0
        assert low == pytest.approx(0.722, abs=5e-4)

    def test_no_successes(self):
        low, high = wilson_ci(0, 10)
        assert low == 0.0
        assert 0 < high < 0.3

    @given(st.integers(min_value=1, max_value=500), st.data())
    @settings(max_examples=80, deadline=None)
    def test_contains_point_estimate(self, trials, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        low, high = wilson_ci(successes, trials)
        assert low <= successes / trials <= high

    def test_zero_trials_rejected(self):
        with pytest.raises(EstimatorError):
            wilson_ci(0, 0)


class TestExactPath2:
    def test_constant_half_five(self):
        assert exact_path2(make_constant(0.5), 5) == pytest.approx(37 / 64, abs=1e-15)

    def test_zero_sequence(self):
        assert exact_path2(make_constant(0.0), 10) == 0.0

    def test_unit_sequence(self):
        assert exact_path2(make_constant(1.0), 6) == 1.0

    def test_needs_three_vertices(self):
        with pytest.raises(EstimatorError):
            exact_path2(make_constant(0.5), 2)

    def test_sparse_support_cross_check(self):
        seq = make_support({1: 0.3, 3: 0.8})
        for n in (4, 5, 6):
            bf = brute_force_probability(seq, n, library("path2"), LINE)
            assert exact_path2(seq, n) == pytest.approx(bf, abs=1e-12)

    def test_monotone_in_each_term(self):
        base = {1: 0.3, 2: 0.4, 3: 0.2, 4: 0.6}
        p0 = exact_path2(make_support(base), 5)
        for i in base:
            bumped = dict(base)
            bumped[i] = min(1.0, base[i] + 0.2)
            assert exact_path2(make_support(bumped), 5) >= p0


class TestBruteForce:
    def test_agrees_with_path2_oracle(self):
        bf = brute_force_probability(make_constant(0.5), 5, library("path2"), LINE)
        assert abs(bf - exact_path2(make_constant(0.5), 5)) < 1e-12

    def test_triangle_count_constant_half(self):
        # 23 of the 64 labeled graphs on four vertices contain a triangle
        bf = brute_force_probability(make_constant(0.5), 4, library("triangle"), LINE)
        assert bf == pytest.approx(23 / 64, abs=1e-15)

    def test_single_edge_event(self):
        some_edge = parse("exists x. exists y. adj(x, y)", Vocab.L)
        for p in (0.1, 0.5, 0.9):
            assert brute_force_probability(make_constant(p), 2, some_edge, LINE) == pytest.approx(p)

    def test_fixed_edges_shrink_enumeration(self):
        seq = make_support({1: 1.0, 2: 0.5})
        val = brute_force_probability(seq, 3, library("triangle"), LINE)
        assert val == pytest.approx(0.5)  # both unit edges present, distance-2 closes

    def test_circle_distances(self):
        seq = make_thm6([0.5])
        # n = 18 circle: triangles are the six aligned distance-6 triples
        val = brute_force_probability(seq, 18, has_triangle_predicate(), CIRCLE)
        assert val == pytest.approx(1 - (7 / 8) ** 6, abs=1e-12)

    def test_guard(self):
        with pytest.raises(BruteForceGuardError):
            brute_force_probability(make_constant(0.5), 8, library("triangle"), LINE)

    @pytest.mark.parametrize("n", [0, -1])
    def test_vertices_required(self, n):
        with pytest.raises(EstimatorError):
            brute_force_probability(make_constant(0.5), n, parse("forall x. x = x", Vocab.L), LINE)

    def test_compiled_target_builds_no_graph(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("compiled target built a graph")

        monkeypatch.setattr(Grounding, "graph_from_row", refuse)
        monkeypatch.setattr(Graph, "__init__", refuse)
        assert brute_force_probability(make_constant(0.5), 5, library("path2"), LINE) == 37 / 64
        want = 1 - (7 / 8) ** 6
        got = brute_force_probability(make_thm6([0.5]), 18, library("triangle", vocab=Vocab.LC), CIRCLE)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("target", ["psi_r:2", "copies:2:1"])
    def test_row_predicate_builds_no_graph(self, monkeypatch, target):
        # the same predicate wrapped in a plain callable takes the Graph route
        seq, pred = make_support({1: 0.5, 2: 0.5}), resolve_target(target)
        plain = lambda g: pred(g)
        want_mc = mc_probability(seq, 12, plain, LINE, 300, 4).estimate
        want_brute = brute_force_probability(seq, 8, plain, LINE)  # 13 free pairs

        def refuse(self, *args):
            raise AssertionError(f"{target} built a graph")

        monkeypatch.setattr(Grounding, "graph_from_row", refuse)
        monkeypatch.setattr(Graph, "__init__", refuse)
        assert mc_probability(seq, 12, pred, LINE, 300, 4).estimate == want_mc
        assert brute_force_probability(seq, 8, pred, LINE) == want_brute
        assert 0 < want_mc < 1 and 0 < want_brute < 1

    def test_plain_predicate_takes_the_row_path(self, row_graphs):
        # constant 1/2 on the line at n = 5: ten free pairs, one graph per subset
        got = brute_force_probability(make_constant(0.5), 5, lambda g: has_triangle(g), LINE)
        assert len(row_graphs) == 2**10
        assert got == brute_force_probability(make_constant(0.5), 5, has_triangle_predicate(), LINE)


BRUTE_SEQS = [
    make_constant(0.3),
    make_constant(1.0),
    make_support({1: 0.3, 2: 1.0, 3: 0.7}),
    make_support({1: 1.0, 3: 0.35}),  # antipodal on the circle at n = 6
    make_support({2: 0.1, 3: 0.6}),  # antipodal on the circle at n = 4 and 6
    make_ones_powers(2),
]


class TestAgainstReference:
    @pytest.mark.parametrize("kind", [LINE, CIRCLE])
    @pytest.mark.parametrize("seq_index", range(len(BRUTE_SEQS)))
    def test_brute_force(self, kind, seq_index):
        seq = BRUTE_SEQS[seq_index]
        # the triangle predicate and sentences take the kernel, judged against
        # the reference of the same event
        triangle = [has_triangle_predicate(), library("triangle"),
                    library("triangle", vocab=Vocab.LC)]
        odd = lambda g: g.m % 2 == 1
        for n in range(1, 7):
            want = reference_brute_force(seq, n, has_triangle, kind)
            for target in triangle:
                assert brute_force_probability(seq, n, target, kind) == want, (n, target)
            want = reference_brute_force(seq, n, odd, kind)
            assert brute_force_probability(seq, n, odd, kind) == want, n
            if n <= 5:
                f = library("path2")
                want = reference_brute_force(seq, n, lambda g: holds(LabeledModel(g, f.vocab), f), kind)
                assert brute_force_probability(seq, n, f, kind) == want, n

    @pytest.mark.parametrize(
        "seq",
        [
            make_thm6([0.5] * 5),
            make_constant(0.4),
            make_support({6: 0.3}),
            make_support({1: 0.5, 2: 0.5, 3: 0.5}),
            make_support({4: 0.3, 8: 0.7, 12: 1.0}),
            make_support({5: 0.6, 10: 0.2, 15: 0.9, 20: 0.4}),
            make_ones_powers(2),
        ],
        ids=["thm6_half", "constant", "one_distance", "multi_near", "multi_aligned", "multi_far",
             "ones_powers_2"],
    )
    def test_circle_triangles(self, seq):
        for n in range(1, 61):
            want = reference_circle_triangles(seq, n)
            batch = PairBatch(seq, n, CIRCLE)
            pairs = batch.pair_list
            got = {(pairs[j1][0], *pairs[j3]) for j1, _, j3 in batch.triangles().tolist()}
            assert got == want, n
            if n < 3:
                with pytest.raises(EstimatorError):
                    exact_triangle_circle(seq, n)
                continue
            try:
                value = reference_triangle_circle(seq, n)
            except OracleValidityError:
                with pytest.raises(OracleValidityError):
                    exact_triangle_circle(seq, n)
            else:
                assert exact_triangle_circle(seq, n) == value, n

    @pytest.mark.parametrize("name", sorted(NAMED_SEQUENCES))
    def test_path2(self, name):
        seq = NAMED_SEQUENCES[name]()
        for n in list(range(3, 40)) + [100, 212, 276, 341, 670, 795, 1000]:
            assert exact_path2(seq, n) == reference_path2(seq, n), n


class TestExactTriangleCircle:
    def test_geometric_support_values(self):
        seq = make_thm6([0.5] * 5)
        assert exact_triangle_circle(seq, 17) == 0.0
        assert exact_triangle_circle(seq, 53) == 0.0
        assert exact_triangle_circle(seq, 161) == 0.0
        assert exact_triangle_circle(seq, 18) == pytest.approx(1 - (7 / 8) ** 6, abs=1e-12)
        assert exact_triangle_circle(seq, 54) == pytest.approx(1 - (7 / 8) ** 18, abs=1e-12)
        assert exact_triangle_circle(seq, 162) == pytest.approx(1 - (7 / 8) ** 54, abs=1e-12)

    def test_rejects_dense_sequence(self):
        with pytest.raises(OracleValidityError):
            exact_triangle_circle(make_constant(0.5), 6)

    def test_dense_refusal_holds_one_block(self):
        # constant 1/2 on the circle at n = 300: 44,850 pairs and 4,455,100
        # candidate triangles, refused in the first block, which holds (1, 2, 3)
        seq = make_constant(0.5)
        PairBatch(seq, 300, CIRCLE)  # the support scan, outside the measurement
        tracemalloc.start()
        try:
            with pytest.raises(OracleValidityError, match="n=300 is not one of the aligned"):
                exact_triangle_circle(seq, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, peak

    def test_rejects_unaligned_candidates(self):
        # distances 2 and 3 close triangles at n = 7, which is not 3-aligned
        with pytest.raises(OracleValidityError):
            exact_triangle_circle(make_support({1: 0.5, 2: 0.5, 3: 0.5}), 7)

    def test_sure_aligned_triangle(self):
        assert exact_triangle_circle(make_support({2: 1.0}), 6) == 1.0
        assert exact_triangle_circle(make_ones_powers(2), 3) == 1.0

    def test_brute_force_cross_check(self):
        seq = make_thm6([0.5])
        want = brute_force_probability(seq, 18, has_triangle_predicate(), CIRCLE)
        assert exact_triangle_circle(seq, 18) == pytest.approx(want, abs=1e-12)


class TestMonteCarloEstimates:
    def test_certain_event(self):
        r = mc_probability(make_constant(1.0), 3, library("triangle"), LINE, 50, 0)
        assert r.estimate == 1.0 and r.ci_high == 1.0

    def test_impossible_event(self):
        r = mc_probability(make_constant(0.0), 3, library("triangle"), LINE, 50, 0)
        assert r.estimate == 0.0 and r.ci_low == 0.0

    def test_estimate_near_exact_value(self):
        seq = make_thm6([0.5] * 3)
        r = mc_probability(seq, 18, has_triangle_predicate(), CIRCLE, 4000, 17)
        assert abs(r.estimate - 0.55120468) < 0.05

    def test_formula_and_predicate_agree_in_distribution(self):
        seq = make_constant(0.5)
        by_formula = mc_probability(seq, 5, library("triangle"), LINE, 500, 3)
        by_predicate = mc_probability(seq, 5, lambda g: has_triangle(g), LINE, 500, 3)
        assert by_formula.estimate == by_predicate.estimate  # same samples, same event

    def test_deterministic_across_calls(self):
        seq = make_constant(0.5)
        a = mc_probability(seq, 6, library("triangle"), LINE, 300, 9)
        b = mc_probability(seq, 6, library("triangle"), LINE, 300, 9)
        assert a == b

    def test_result_fields(self):
        r = mc_probability(make_constant(0.3), 4, library("triangle"), LINE, 100, 5)
        assert r.trials == 100 and r.master_seed == 5 and r.n == 4
        assert r.target == "triangle" and r.model_kind == LINE
        assert r.ci_low <= r.estimate <= r.ci_high

    def test_trials_required(self):
        with pytest.raises(EstimatorError):
            mc_probability(make_constant(0.5), 4, library("triangle"), LINE, 0, 0)

    @pytest.mark.parametrize("n", [0, -3])
    def test_vertices_required(self, n):
        with pytest.raises(EstimatorError, match="n must be >= 1"):
            mc_probability(make_constant(1.0), n, library("path2"), LINE, 5, 0)


def row_path_successes(seq, n, target, kind, trials, seed):
    """Successes of ``target`` judged on the graph of every row of the full
    pair table, one row at a time, trial t on stream ``derived_stream(n, t)``."""
    batch = PairBatch(seq, n, kind)
    ids = np.array([derived_stream(n, t) for t in range(trials)], dtype=np.uint64)

    def check(g):
        if isinstance(target, Formula):
            return holds(LabeledModel(g, target.vocab), target)
        return target(g)

    return sum(bool(check(batch.graph_from_row(row))) for row in batch.edge_matrix(seed, ids))


KERNEL_SEQS = [
    make_constant(0.0),
    make_constant(0.1),
    make_constant(0.5),
    make_constant(1.0),
    seq_thm6_half(),
    make_ones_powers(2),
    make_support({1: 0.4, 2: 1.0, 3: 0.3}),
]
KERNEL_SEQ_IDS = ["const0", "const0.1", "const0.5", "const1", "thm6_half", "ones_powers_2",
                  "support_p1"]
# path2 with its conjuncts swapped and its variable and name changed
PATH2_REORDERED = replace(parse("exists v. adj(v, last) & adj(first, v)", Vocab.L_PLUS),
                          name="path2_reordered")
KERNEL_TARGETS = [
    (library("path2"), LINE),
    (library("path2"), CIRCLE),
    (library("adj_first_last"), LINE),
    (library("adj_first_last"), CIRCLE),
    (PATH2_REORDERED, LINE),
    (PATH2_REORDERED, CIRCLE),
    (library("triangle"), LINE),
    (library("triangle", vocab=Vocab.LC), CIRCLE),
    (has_triangle_predicate(), LINE),
    (has_triangle_predicate(), CIRCLE),
]
KERNEL_TARGET_IDS = ["path2-line", "path2-circle", "adj_first_last-line", "adj_first_last-circle",
                     "path2_reordered-line", "path2_reordered-circle", "triangle_L-line",
                     "triangle_LC-circle", "has_triangle-line", "has_triangle-circle"]
# one clause of no column; clauses of one column padded to two (the last repeats)
WIDTH0 = replace(parse("exists x. x = first", Vocab.L_PLUS), name="width0")
MIXED = replace(parse("adj(first, last) | (exists v. adj(first, v) & adj(v, last))", Vocab.L_PLUS),
                name="mixed_width")


@pytest.fixture
def row_graphs(monkeypatch):
    """Counts the row graphs ``mc_probability`` builds."""
    built = []
    real = Grounding.graph_from_row

    def spy(self, row):
        built.append(1)
        return real(self, row)

    monkeypatch.setattr(Grounding, "graph_from_row", spy)
    return built


@pytest.fixture
def grids(monkeypatch):
    """Records the (trials, columns) shape of every hash grid."""
    shapes = []
    real = sampler.keyed_u64_grid

    def spy(prefix, rows, v, w):
        shapes.append((len(rows), len(v)))
        return real(prefix, rows, v, w)

    monkeypatch.setattr(sampler, "keyed_u64_grid", spy)
    return shapes


@pytest.fixture
def grid_calls(monkeypatch):
    """Records the stream ids, v and w of every hash grid."""
    calls = []
    real = sampler.keyed_u64_grid

    def spy(prefix, rows, v, w):
        calls.append((rows.copy(), v.copy(), w.copy()))
        return real(prefix, rows, v, w)

    monkeypatch.setattr(sampler, "keyed_u64_grid", spy)
    return calls


def assert_block_contract(calls, g, seed, n, trials):
    """The grids of one estimate of ``trials`` trials on ``g``, in order:
    each block of trials is hashed whole by its first grid, the first grids
    together cover every trial once, and each later grid of a trial block
    (a later clause block of a kernel) holds exactly the trials that no
    earlier clause block hit."""
    calls, start = iter([rows for rows, _, _ in calls]), 0
    ids = derived_streams(n, 0, trials)
    sizes = [len(clauses) for _, clauses in g.blocks] if g.kernel else [0]
    hit = estimator.clause_hits(g.edge_matrix(seed, ids), g.lineage) if g.kernel else None
    while start < trials:
        first = next(calls)
        assert len(first) and (first == ids[start:start + len(first)]).all(), start
        live, lo = np.arange(start, start + len(first)), 0
        for size in sizes[:-1]:
            live, lo = live[~hit[lo:lo + size][:, live].any(axis=0)], lo + size
            if not len(live):
                break
            assert (next(calls) == ids[live]).all(), (start, lo)
        start += len(first)
    assert next(calls, None) is None


class TestColumnKernels:
    """Compiled targets must count exactly the successes of the row path on
    the same streams."""

    @pytest.mark.parametrize("seq", KERNEL_SEQS, ids=KERNEL_SEQ_IDS)
    @pytest.mark.parametrize("target,kind", KERNEL_TARGETS, ids=KERNEL_TARGET_IDS)
    def test_kernel_equals_row_path(self, monkeypatch, row_graphs, seq, target, kind):
        rule, trials, seed = estimator._CLAUSES_PER_PAIR, 12, 5
        for n in list(range(1, 31)) + [53, 54, 161, 162]:
            # up to n = 54 the kernel runs even where the dense-triangle rule
            # would pick the row path; at n = 161, 162 the rule decides
            monkeypatch.setattr(estimator, "_CLAUSES_PER_PAIR", 10**9 if n <= 54 else rule)
            # holds on a triangle-free graph costs O(n^3); beyond n = 30 the
            # triangle sentence is judged by has_triangle, the same event
            triangle = "triangle" in estimator._target_name(target)
            reference = has_triangle if n > 30 and triangle else target
            built = len(row_graphs)
            got = mc_probability(seq, n, target, kind, trials, seed)
            assert n > 54 or len(row_graphs) == built  # compiled: no row graph
            want = row_path_successes(seq, n, reference, kind, trials, seed)
            assert round(got.estimate * trials) == want, n

    @pytest.mark.parametrize("cost", [0, 10**9], ids=["first-columns", "every-column"])
    @pytest.mark.parametrize("mass,budget", [(0.0, 5000), (1e-6, estimator.CELL_BUDGET),
                                             (math.inf, estimator.CELL_BUDGET)],
                             ids=["blocks-forced", "blocks-doubling", "one-block"])
    @pytest.mark.parametrize("seq", KERNEL_SEQS, ids=KERNEL_SEQ_IDS)
    @pytest.mark.parametrize(
        "target,kind",
        KERNEL_TARGETS + [(WIDTH0, LINE), (WIDTH0, CIRCLE), (MIXED, LINE), (MIXED, CIRCLE)],
        ids=KERNEL_TARGET_IDS + ["width0-line", "width0-circle", "mixed-line", "mixed-circle"])
    def test_block_route_equals_clause_hits(self, monkeypatch, cost, mass, budget, seq, target, kind):
        # cost 0 hashes the first columns first wherever another column is
        # read, cost 10^9 every column as one grid.  Mass 0 splits every
        # lineage of two or more clauses after its first clause, and its
        # budget of 5000 cells splits the 12 trials into blocks wherever a
        # kernel reads more than 416 columns or clauses; mass 10^-6 ends
        # blocks at every doubling of the running mass; mass inf keeps every
        # lineage one block
        monkeypatch.setattr(estimator, "_CELL_COST", cost)
        monkeypatch.setattr(estimator, "_BLOCK_MASS", mass)
        monkeypatch.setattr(estimator, "CELL_BUDGET", budget)
        rule, trials, seed = estimator._CLAUSES_PER_PAIR, 12, 5
        for n in list(range(1, 31)) + [53, 54, 161, 162]:
            monkeypatch.setattr(estimator, "_CLAUSES_PER_PAIR", 10**9 if n <= 54 else rule)
            got = mc_probability(seq, n, target, kind, trials, seed)
            g = estimator.grounding(seq, n, target, kind)
            if not g.kernel:
                continue
            clauses = g.lineage
            later = clauses.shape[1] > 1 and len(g.read) > len(np.unique(clauses[:, 0]))
            assert (g.first is not None) == (cost == 0 and later), n
            if mass in (0.0, math.inf):
                assert len(g.blocks) == (2 if mass == 0.0 and len(clauses) > 1 else 1), n
            assert sum(len(block) for _, block in g.blocks) == len(clauses), n
            rows = g.edge_matrix(seed, derived_streams(n, 0, trials))
            want = int(estimator.clause_hits(rows, clauses).any(axis=0).sum())
            assert round(got.estimate * trials) == want, n

    def test_rule_picks_first_columns_of_sparse_path2(self):
        # 198 clauses {1, m}, {m, 200} at p = 0.1: 19.8 expected live cells a
        # trial, at 3 each, against the 198 columns {m, 200}
        g = estimator.grounding(make_constant(0.1), 200, library("path2"), LINE)
        assert g.first is not None and len(g.read) == 396
        assert g.v[g.first].tolist() == [1] * 198 and g.w[g.first].tolist() == list(range(2, 200))

    @pytest.mark.parametrize("n", [18, 54, 162])
    def test_rule_keeps_circle_triangles_dense(self, n):
        # n / 3 disjoint triangles at p = 1/2: 0.75 live cells a triangle, at
        # 3 each, against its two later columns
        g = estimator.grounding(seq_thm6_half(), n, has_triangle_predicate(), CIRCLE)
        assert g.kernel and g.lineage.shape == (n // 3, 3) and g.first is None

    @pytest.mark.parametrize("seq,n,target,kind,sizes", [
        (make_constant(0.1), 100, library("path2"), LINE, [98]),
        (make_constant(0.1), 200, library("path2"), LINE, [69, 129]),
        (seq_thm6_half(), 18, has_triangle_predicate(), CIRCLE, [6]),
        (seq_thm6_half(), 162, has_triangle_predicate(), CIRCLE, [6, 10, 21, 17]),
    ], ids=["path2-line-100", "path2-line-200", "triangle-circle-18", "triangle-circle-162"])
    def test_rule_splits_heavy_lineages(self, grids, seq, n, target, kind, sizes):
        # a path2 clause at p = 0.1 has q = 0.01 and mass -log(0.99) = 0.01005:
        # 98 of them (0.985) stay under 2 ln 2 = 1.386; of 198 (1.99) the first
        # 69 reach ln 2 and the rest stay under 3 ln 2.  A circle triangle at
        # p = 1/2 has q = 1/8 and mass 0.1335: 6 (0.80) stay one block; of 54
        # the running mass reaches ln 2, 3 ln 2 and 7 ln 2 at clauses 6, 16, 37
        g = estimator.grounding(seq, n, target, kind)
        assert [len(block) for _, block in g.blocks] == sizes
        if len(sizes) == 1:  # hashed unsplit: every read column, or the first ones, as one grid
            columns, clauses = g.blocks[0]
            assert clauses is g.lineage
            assert (columns is g.first) if g.first is not None else (columns == slice(None))
            mc_probability(seq, n, target, kind, 500, 3)
            assert grids == [(500, len(g.read) if g.first is None else len(g.first))]

    @pytest.mark.parametrize(
        "target",
        [library("edge_in_c4"), lambda g: has_triangle(g)],
        ids=["edge_in_c4", "lambda"],
    )
    def test_other_targets_take_the_row_path(self, row_graphs, grids, target):
        seq = make_constant(0.5)
        got = mc_probability(seq, 9, target, LINE, 40, 3)
        # every column is hashed; a sentence runs on each row's adjacency
        # matrix and builds no graph, a predicate runs on each row's graph
        assert grids == [(40, 36)]
        assert len(row_graphs) == (0 if isinstance(target, Formula) else 40)
        want = row_path_successes(seq, 9, target, LINE, 40, 3)
        assert round(got.estimate * 40) == want

    def test_sentence_plan_is_compiled_once(self, monkeypatch):
        f, seq = library("edge_in_c4"), make_constant(0.5)
        compiled = []
        real = logic._plan

        def spy(node, *context):
            if node is f.root:  # planning starts from the root once per compile
                compiled.append(node)
            return real(node, *context)

        monkeypatch.setattr(logic, "_plan", spy)
        holds(LabeledModel(make_graph(4, [(1, 2)]), f.vocab), f)
        mc_probability(seq, 9, f, LINE, 20, 3)
        mc_probability(seq, 9, f, LINE, 20, 4)
        brute_force_probability(seq, 5, f, LINE)
        assert len(compiled) == 1

    def test_dense_triangles_take_the_row_path(self, row_graphs):
        # constant p: n(n-1)/2 pairs, C(n, 3) triangles, (n - 2) / 3 per pair;
        # past the kernel's 16 a pair the compiled checker decides each row
        # of has_triangle, a named sentence, and builds no graph
        seq = make_constant(0.5)
        for n in (50, 51):  # 16 and 16.33 triangles per pair
            target, checked = has_triangle_predicate(), []
            run = target._checker
            target.__dict__["_checker"] = lambda adj: checked.append(1) or run(adj)
            got = mc_probability(seq, n, target, LINE, 10, 0)
            assert estimator.grounding(seq, n, target, LINE).kernel == (n == 50)
            assert len(checked) == (0 if n == 50 else 10)
            assert round(got.estimate * 10) == row_path_successes(seq, n, has_triangle, LINE, 10, 0)
        assert row_graphs == []

    def test_path2_hashes_only_midpoint_columns(self, grid_calls):
        # the grids hold the columns {1, m}, those of the first 69 clauses for
        # every trial, the other 129 for the trials no earlier clause hit; a
        # column {m, n} is hashed only for the trials where {1, m} is an edge
        n, trials, seq = 200, 1000, make_constant(0.1)
        got = mc_probability(seq, n, library("path2"), LINE, trials, 101)
        assert [(v.tolist(), w.tolist()) for _, v, w in grid_calls] == [
            ([1] * 69, list(range(2, 71))), ([1] * 129, list(range(71, n)))]
        g = estimator.grounding(seq, n, library("path2"), LINE)
        assert_block_contract(grid_calls, g, 101, n, trials)
        rows = g.edge_matrix(101, derived_streams(n, 0, trials))
        assert round(got.estimate * trials) == estimator.clause_hits(rows, g.lineage).any(axis=0).sum()

    def test_no_triangle_hashes_nothing(self, grids):
        r = mc_probability(seq_thm6_half(), 53, has_triangle_predicate(), CIRCLE, 100, 0)
        assert r.estimate == 0.0 and grids == []

    def test_adj_first_last_hashes_one_column(self, grids):
        r = mc_probability(make_constant(0.1), 200, library("adj_first_last"), LINE, 1000, 1)
        assert grids == [(1000, 1)]
        assert round(r.estimate * 1000) == row_path_successes(
            make_constant(0.1), 200, library("adj_first_last"), LINE, 1000, 1)

    @pytest.mark.parametrize("budget", [estimator.CELL_BUDGET, 5000])
    def test_blocks_stay_within_cell_budget(self, monkeypatch, grids, grid_calls, budget):
        monkeypatch.setattr(estimator, "CELL_BUDGET", budget)
        seq, n = make_constant(0.5), 30
        pairs, triangles = 435, len(PairBatch(seq, n, LINE).triangles())
        assert triangles == 4060
        # the kernel's widest array is trials x triangles, the row path's the grid
        for target, trials, width in [(library("triangle"), 300, triangles),
                                      (library("edge_in_c4"), 40, pairs)]:
            grids.clear()
            grid_calls.clear()
            got = mc_probability(seq, n, target, LINE, trials, 0)
            assert all(rows * width <= budget for rows, _ in grids), grids
            assert_block_contract(grid_calls, estimator.grounding(seq, n, target, LINE), 0, n, trials)
            want = row_path_successes(seq, n, target, LINE, trials, 0)
            assert round(got.estimate * trials) == want

    def test_dense_row_path_blocks(self, grids):
        r = mc_probability(make_constant(0.1), 200, lambda g: g.m > 0, LINE, 250, 0)
        assert r.estimate == 1.0
        assert len(grids) > 1 and sum(rows for rows, _ in grids) == 250
        assert all(rows * cols <= estimator.CELL_BUDGET for rows, cols in grids)


def random_positive_sentence(rng: random.Random, vocab: Vocab, depth: int) -> Formula:
    """A random sentence built from exists, & and | over adj atoms and
    (negated) equalities, with ``first``/``last`` where the vocabulary has
    them.  Binders are drawn from three names, mostly ones not in scope, so
    siblings and shadowing both occur; atoms mostly join two terms, and
    each guard is conjoined to an edge."""
    consts = [Const("first"), Const("last")] if vocab.has_constants else []

    def gen(depth, scope):
        kind = rng.choice(["atom"] + (["and", "or", "exists", "exists"] if depth > 0 else []))
        terms = [Var(v) for v in dict.fromkeys(scope)] + consts
        if kind == "atom" and terms and (len(terms) > 1 or rng.random() < 0.2):
            a, b = rng.sample(terms, 2) if len(terms) > 1 and rng.random() < 0.9 else [terms[0]] * 2
            if rng.random() < 0.7:
                return Adj(a, b)
            # a guard, joined to an edge so that it is seldom true alone
            c, d = rng.choice(terms), rng.choice(terms)
            return And(Adj(a, b), rng.choice([Eq(c, d), Not(Eq(c, d))]))
        if kind == "and":
            return And(gen(depth - 1, scope), gen(depth - 1, scope))
        if kind == "or":
            return Or(gen(depth - 1, scope), gen(depth - 1, scope))
        fresh = [v for v in "xyz" if v not in scope]
        v = rng.choice(fresh if fresh and rng.random() < 0.8 else "xyz")
        return Exists(v, gen(max(depth - 1, 0), scope + [v]))

    return Formula(gen(depth, []), vocab)


def all_rows(batch):
    """Every row brute force enumerates: each subset of the free (p < 1)
    columns, with the p = 1 columns set."""
    free = np.flatnonzero(~batch.always)
    bits = (np.arange(2 ** len(free))[:, None] >> np.arange(len(free))) & 1
    rows = np.repeat(batch.always[None, :], len(bits), axis=0)
    rows[:, free] = bits.astype(bool)
    return rows


# few free pairs at n <= 6, so every row can be checked with holds
LINEAGE_SEQS = [
    (make_constant(0.5), LINE, 4),
    (make_constant(0.3), CIRCLE, 4),
    (make_support({1: 0.3, 2: 1.0, 3: 0.6}), LINE, 6),
    (make_support({1: 0.45, 3: 0.7}), CIRCLE, 6),
    (make_support({2: 0.35, 4: 1.0}), LINE, 6),
    (make_support({1: 1.0, 2: 0.2}), CIRCLE, 5),
]


class TestLineage:
    @pytest.mark.parametrize("vocab", [Vocab.L, Vocab.L_PLUS])
    @pytest.mark.parametrize("index", range(len(LINEAGE_SEQS)))
    def test_generated_sentences(self, vocab, index):
        seq, kind, top = LINEAGE_SEQS[index]
        rng, refused = random.Random(f"{vocab.value}-{index}"), 0
        for _ in range(40):
            f = random_positive_sentence(rng, vocab, rng.randint(2, 3))
            n = rng.randint(1, top) if rng.random() < 0.2 else top
            batch = PairBatch(seq, n, kind)
            try:
                clauses = estimator.lineage(f, batch)
            except LineageBudgetError:
                # independent conjuncts multiply their clause counts; such a
                # sentence has no exact answer and its rows take the row path
                with pytest.raises(LineageBudgetError):
                    exact_probability(seq, n, f, kind)
                assert not estimator.grounding(seq, n, f, kind).kernel
                refused += 1
                continue
            rows = all_rows(batch)
            hits = estimator.clause_hits(rows, clauses).any(axis=0)
            want = [holds(LabeledModel(batch.graph_from_row(row), vocab), f) for row in rows]
            assert hits.tolist() == want, (str(f), n)
            exact = exact_probability(seq, n, f, kind)
            brute = brute_force_probability(seq, n, f, kind)
            assert math.isclose(exact, brute, rel_tol=1e-12, abs_tol=0.0), (str(f), n, exact, brute)
        assert refused <= 2

    def test_sibling_binders_stay_apart(self):
        seq = make_constant(0.5)
        f = parse("(exists x. adj(first, x)) & (exists x. adj(x, last))", Vocab.L_PLUS)
        assert estimator.lineage(f, PairBatch(seq, 4, LINE)).shape == (9, 2)
        assert exact_probability(seq, 4, f, LINE) == brute_force_probability(seq, 4, f, LINE)
        assert exact_probability(seq, 4, f, LINE) != exact_path2(seq, 4)

    def test_triangle_is_recognised_by_shape(self, monkeypatch):
        f = parse("exists c. exists a. exists b. adj(c, a) & (adj(b, c) & adj(a, b))", Vocab.L)
        guarded = parse("exists a. exists b. exists c. adj(a, b) & adj(b, c) & adj(c, a) & !(a = c)",
                        Vocab.L)
        batch = PairBatch(make_constant(0.5), 6, LINE)
        called = []
        real = PairBatch.triangle_blocks

        def spy(self):
            called.append(1)
            return real(self)

        monkeypatch.setattr(PairBatch, "triangle_blocks", spy)
        assert np.array_equal(estimator.lineage(f, batch), batch.triangles())
        assert len(called) == 2  # the lineage, then the reference
        ground = estimator.lineage(guarded, batch)  # a guard: grounded, each triangle 6 times
        assert len(called) == 2 and len(ground) == 6 * len(batch.triangles())

    def test_no_lineage(self):
        batch = PairBatch(make_constant(0.5), 5, LINE)
        for f in [library("edge_in_c4"), library("ex2_path4"), parse("exists x. !adj(x, x)", Vocab.L),
                  parse("forall x. exists y. adj(x, y)", Vocab.L)]:
            assert estimator.lineage(f, batch) is None
            with pytest.raises(OracleValidityError, match="no exact oracle"):
                exact_probability(make_constant(0.5), 5, f, LINE)
        assert estimator.lineage(lambda g: True, batch) is None

    def test_refused_inside_a_conjunction(self):
        # !adj has no clause, so the & above it has none either
        f = parse("exists x. adj(first, x) & !adj(x, last)", Vocab.L_PLUS)
        seq = make_constant(0.5)
        assert estimator.lineage(f, PairBatch(seq, 5, LINE)) is None
        with pytest.raises(OracleValidityError, match="no exact oracle"):
            exact_probability(seq, 5, f, LINE)
        # x = 5 needs only adj(1, 5); each x in 2..4 needs adj(1, x) and not
        # adj(x, 5), on pairs no other x reads
        assert brute_force_probability(seq, 5, f, LINE) == 1 - 0.5 * 0.75**3 == 0.7890625

    def test_triangle_fallback_past_the_lineage_budget(self, monkeypatch):
        # below the chain's 60 triangle cells at n = 6 and the circle's 18 at
        # n = 18, so both read every column with PairBatch.triangles()
        half, circle = make_constant(0.5), seq_thm6_half()
        want = (midpoint_chain_tv(half, 5, 2000, 305),
                [exact_triangle_circle(circle, n) for n in (17, 18)])
        monkeypatch.setattr(estimator, "_LINEAGE_CELLS", 17)
        sampler._GROUNDINGS.clear()
        for seq, n, kind in ((half, 6, LINE), (circle, 18, CIRCLE)):
            assert isinstance(estimator.grounding(seq, n, library("triangle"), kind).lineage,
                              LineageBudgetError)
        assert (midpoint_chain_tv(half, 5, 2000, 305),
                [exact_triangle_circle(circle, n) for n in (17, 18)]) == want

    def test_constant_clauses(self):
        seq = make_constant(0.5)
        true = parse("exists x. x = x", Vocab.L)
        assert estimator.lineage(true, PairBatch(seq, 3, LINE)).shape == (3, 0)
        assert exact_probability(seq, 3, true, LINE) == 1.0
        assert mc_probability(seq, 3, true, LINE, 10, 0).estimate == 1.0
        either = parse("first = last | adj(first, last)", Vocab.L_PLUS)
        assert exact_probability(seq, 1, either, LINE) == 1.0
        assert exact_probability(seq, 3, either, LINE) == 0.5
        assert exact_probability(seq, 3, parse("first = last", Vocab.L_PLUS), LINE) == 0.0

    def test_dense_triangle_passes_the_budget(self):
        start = time.perf_counter()
        with pytest.raises(LineageBudgetError) as err:
            exact_probability(make_constant(0.1), 9, library("triangle"), LINE)
        assert time.perf_counter() - start <= 1.0
        assert err.value.budget == estimator.LINEAGE_BUDGET < err.value.estimate

    def test_sparse_line_triangle(self):
        # the triangles {v, v+1, v+2} overlap in a chain of shared pairs
        seq = make_support({1: 0.5, 2: 0.5})
        start = time.perf_counter()
        value = exact_probability(seq, 100, library("triangle"), LINE)
        assert time.perf_counter() - start <= 1.0
        # triangle v needs {v, v+1}, {v+1, v+2} and its own {v, v+2}: a
        # two-state transfer over the distance-1 pairs
        free = {True: 0.5, False: 0.5}  # P(no triangle so far, {v, v+1} present or not)
        for _ in range(98):
            free = {s: sum(free[t] * 0.5 * (0.5 if s and t else 1.0) for t in (True, False))
                    for s in (True, False)}
        assert math.isclose(value, 1 - free[True] - free[False], rel_tol=1e-12)
        for n in range(3, 11):
            assert math.isclose(exact_probability(seq, n, library("triangle"), LINE),
                                brute_force_probability(seq, n, library("triangle"), LINE),
                                rel_tol=1e-12)

    def test_line_triangle_on_three_distances(self):
        p = {1: 0.3, 2: 0.2, 3: 0.1}
        seq = make_support(p)
        value = exact_probability(seq, 60, library("triangle"), LINE)
        # a new vertex d closes a triangle only with two of the last three
        # vertices a < b < c, so the state is which of {a, b}, {a, c} and
        # {b, c} are edges (no triangle so far); d adds {c, d}, {b, d}, {a, d}
        weight = lambda edge, d: p[d] if edge else 1.0 - p[d]
        free = {(ab, ac, bc): weight(ab, 1) * weight(ac, 2) * weight(bc, 1)
                for ab, ac, bc in product((True, False), repeat=3) if not (ab and ac and bc)}
        for _ in range(4, 61):
            after = {}
            for (ab, ac, bc), mass in free.items():
                for cd, bd, ad in product((True, False), repeat=3):
                    if not (bc and cd and bd or ab and bd and ad or ac and cd and ad):
                        w = mass * weight(cd, 1) * weight(bd, 2) * weight(ad, 3)
                        after[bc, bd, cd] = after.get((bc, bd, cd), 0.0) + w
            free = after
        assert math.isclose(value, 1.0 - sum(free.values()), rel_tol=1e-12)
        for kind, top in ((LINE, 8), (CIRCLE, 6)):
            for n in range(3, top + 1):
                assert math.isclose(exact_probability(seq, n, library("triangle"), kind),
                                    brute_force_probability(seq, n, library("triangle"), kind),
                                    rel_tol=1e-12), (kind, n)

    def test_p_one_columns_branch_once(self, monkeypatch):
        # p(1) = 1 makes every {v, v+1} an edge, so the line has a triangle
        # iff some {v, v+2} is an edge: P = 1 - 2^-(n-2).  A p = 1 column
        # has no absent branch, so two live states suffice
        seq = make_support({1: 1.0, 2: 0.5, 3: 0.5})
        monkeypatch.setattr(estimator, "LINEAGE_BUDGET", 2)
        for n, want in ((10, 0.99609375), (20, 0.9999961853027344), (60, 1.0)):
            assert exact_probability(seq, n, library("triangle"), LINE) == want == 1 - 0.5 ** (n - 2)
        # after column {1, 3}: one state waits for {2, 3} and {1, 4}, one for nothing
        monkeypatch.setattr(estimator, "LINEAGE_BUDGET", 1)
        with pytest.raises(LineageBudgetError) as err:
            exact_probability(seq, 10, library("triangle"), LINE)
        assert err.value.estimate == 2

    def test_circle_path2_equals_brute_force(self):
        for seq in (make_constant(0.5), make_support({1: 0.3, 2: 1.0, 3: 0.7})):
            for n in range(1, 7):
                assert math.isclose(exact_probability(seq, n, library("path2"), CIRCLE),
                                    brute_force_probability(seq, n, library("path2"), CIRCLE),
                                    rel_tol=1e-12, abs_tol=0.0), n
        assert exact_probability(make_constant(0.5), 5, library("path2"), CIRCLE) == 0.578125


class TestGroundingMemo:
    """Each (sequence, n, model, sentence) is grounded once, for every route,
    in a memo of at most ``sampler.CELL_BUDGET`` cells."""

    @pytest.mark.parametrize("target,n", [(library("triangle"), 6), (library("edge_in_c4"), 5),
                                          (lambda g: has_triangle(g), 5)],
                             ids=["lineage", "no_lineage", "no_sentence"])
    def test_memo_hit_equals_cold(self, target, n):
        seq = make_constant(0.5)

        def routes():
            try:
                exact = exact_probability(seq, n, target, LINE)
            except OracleValidityError:
                exact = None
            return (mc_probability(seq, n, target, LINE, 300, 7), exact,
                    brute_force_probability(seq, n, target, LINE))

        cold = routes()
        assert len(sampler._GROUNDINGS) == 1
        assert routes() == cold
        sampler._GROUNDINGS.clear()
        assert routes() == cold
        assert (cold[1] is None) == (n == 5)

    def test_fresh_predicates_and_the_oracle_ground_once(self, monkeypatch):
        seq, n = seq_thm6_half(), 18
        called = []
        real = PairBatch.triangle_blocks
        monkeypatch.setattr(PairBatch, "triangle_blocks", lambda self: called.append(1) or real(self))
        first = mc_probability(seq, n, has_triangle_predicate(), CIRCLE, 500, 1)
        assert mc_probability(seq, n, has_triangle_predicate(), CIRCLE, 500, 1) == first
        assert len(called) == 1 and len(sampler._GROUNDINGS) == 1
        # the oracle checks the table's triangles under its own memo entry
        for _ in range(2):
            assert exact_triangle_circle(seq, n) == pytest.approx(-math.expm1(6 * math.log1p(-0.125)))
        assert len(called) == 2 and len(sampler._GROUNDINGS) == 2

    def test_cells_stay_within_the_budget(self, monkeypatch):
        # path2 on the line reads 2(n - 2) columns, 5 cells each, in n - 2
        # two-column clauses, split into clause blocks (at p = 1/2 the mass
        # passes 2 ln 2 by the fifth clause) that keep each clause's columns
        # once more and its clause over them: 16(n - 2) cells, so 928, 1728,
        # 2528, 3328 and 4128 at n = 60, 110, 160, 210 and 260, and n = 260
        # alone is past a budget of 3500
        assert sampler._ENTRY_CELLS == 480 and sampler._COLUMN_CELLS == 5
        seq, path2 = make_constant(0.5), library("path2")
        want = {n: mc_probability(seq, n, path2, LINE, 50, 0) for n in (60, 110, 160, 210, 260)}
        assert [sampler._GROUNDINGS[seq, n, LINE, path2].cells for n in want] == [928, 1728, 2528, 3328, 4128]
        sampler._GROUNDINGS.clear()
        monkeypatch.setattr(sampler, "CELL_BUDGET", 3500)
        for n, kept in [(60, [60]), (110, [60, 110]), (60, [110, 60]), (160, [60, 160]),
                        (260, [60, 160]), (210, [210])]:
            assert mc_probability(seq, n, path2, LINE, 50, 0) == want[n]
            assert [key[1] for key in sampler._GROUNDINGS] == kept, n
            assert sampler._GROUNDINGS.cells == sum(g.cells for g in sampler._GROUNDINGS.values())
            assert sampler._GROUNDINGS.cells <= 3500

    def test_cells_price_the_bytes_held(self, monkeypatch):
        # groundings that read every column of the line table of constant
        # 1/2 at n = 40..79 (780 to 3,081 columns); the entries the memo
        # keeps hold about 8 bytes per counted cell, not 5 times that
        seq, budget = make_constant(0.5), 1 << 17
        for n in range(40, 80):
            PairBatch(seq, n, LINE)  # the support scans, outside the measurement
        sampler._GROUNDINGS.clear()
        monkeypatch.setattr(sampler, "CELL_BUDGET", budget)
        tracemalloc.start()
        try:
            for n in range(40, 80):
                sampler.ground(seq, n, LINE)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0.8 * budget <= sampler._GROUNDINGS.cells <= budget
        assert 0.75 * 8 * budget < held < 1.1 * 8 * budget, held

    def test_entries_count_their_fixed_cost(self, monkeypatch):
        # has_triangle on the thm6_half circle has no candidate triangle where
        # 3 does not divide n, so each grounding reads no column
        seq, budget = seq_thm6_half(), 10 * sampler._ENTRY_CELLS
        sampler._GROUNDINGS.clear()
        monkeypatch.setattr(sampler, "CELL_BUDGET", budget)
        for n in range(1000, 1100):
            if n % 3:
                assert not len(estimator.grounding(seq, n, has_triangle_predicate(), CIRCLE).read)
        assert len(sampler._GROUNDINGS) == budget // sampler._ENTRY_CELLS
        assert sampler._GROUNDINGS.cells == sum(g.cells for g in sampler._GROUNDINGS.values()) <= budget

    def test_sequences_are_keyed_by_identity(self):
        twins = make_constant(0.5), make_constant(0.5)
        assert len({mc_probability(seq, 9, library("path2"), LINE, 100, 0) for seq in twins}) == 1
        assert len(sampler._GROUNDINGS) == 2


class TestBruteForceBound:
    def test_target_without_lineage_is_refused_past_the_bound(self):
        assert estimator._ROW_PATH_LEAVES == 2**15
        start = time.perf_counter()
        with pytest.raises(BruteForceGuardError, match=r"2097152 leaves .* 32768 leaves"):
            brute_force_probability(make_constant(0.5), 7, library("edge_in_c4"), LINE)
        with pytest.raises(BruteForceGuardError, match=r"2097152 leaves .* 32768 leaves"):
            brute_force_probability(make_constant(0.5), 7, lambda g: True, LINE)
        assert time.perf_counter() - start < 1.0
        # with a lineage the same table is enumerated
        assert brute_force_probability(make_constant(1.0), 7, library("path2"), LINE) == 1.0

    def test_the_bound_itself_is_admitted(self, monkeypatch):
        # constant 1/2 on the line at n = 5: ten free pairs, 1024 leaves
        monkeypatch.setattr(estimator, "_ROW_PATH_LEAVES", 2**10)
        want = brute_force_probability(make_constant(0.5), 5, library("edge_in_c4"), LINE)
        monkeypatch.setattr(estimator, "_ROW_PATH_LEAVES", 2**10 - 1)
        with pytest.raises(BruteForceGuardError):
            brute_force_probability(make_constant(0.5), 5, library("edge_in_c4"), LINE)
        monkeypatch.undo()
        assert want == brute_force_probability(make_constant(0.5), 5, library("edge_in_c4"), LINE)

    @pytest.mark.parametrize("target", ["psi_r:1", "copies:2:1"])
    def test_rows_predicate_is_bounded_as_a_kernel(self, monkeypatch, target):
        # support {1, 2} on the line: 2n - 3 free pairs.  With the bound at
        # 2^9 leaves both routes fit at n = 6; at n = 7 only rows does
        seq, pred = make_support({1: 0.5, 2: 0.5}), resolve_target(target)
        plain = lambda g: pred(g)
        monkeypatch.setattr(estimator, "_ROW_PATH_LEAVES", 2**9)
        want = brute_force_probability(seq, 6, plain, LINE)
        assert brute_force_probability(seq, 6, pred, LINE) == want and 0 < want < 1
        with pytest.raises(BruteForceGuardError, match=r"2048 leaves .* 512 leaves .* no rows"):
            brute_force_probability(seq, 7, plain, LINE)
        assert 0 < brute_force_probability(seq, 7, pred, LINE) < 1

    def test_psi_r_at_twelve_vertices(self):
        # 21 free pairs.  A cutpoint of [4, 8] is an x crossed by no edge
        # {a, b}, a <= x < b; only the 11 pairs {a, a + 1}, 4 <= a <= 8, and
        # {a, a + 2}, 3 <= a <= 8, cross one, each present with p = 1/2
        crossing = [(a, a + 1) for a in range(4, 9)] + [(a, a + 2) for a in range(3, 9)]
        cut = sum(any(not any(a <= x < b for (a, b), e in zip(crossing, edges) if e)
                      for x in range(4, 9))
                  for edges in product([False, True], repeat=len(crossing)))
        got = brute_force_probability(make_support({1: 0.5, 2: 0.5}), 12, resolve_target("psi_r:2"), LINE)
        assert got == cut / 2**11 == 0.44873046875

    def test_edge_in_c4_at_six_vertices(self):
        # 15 free pairs, 2^15 leaves: the largest line table admitted
        assert brute_force_probability(make_constant(0.5), 6, library("edge_in_c4"), LINE) == \
            0.253753662109375


class TestBenchmarkPins:
    """The exact oracles reproduce the ``oracle:*`` values the benchmark
    pins, read from its reference files (nothing is run from perfbench)."""

    REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"

    def pins(self, workload):
        refs = json.loads((self.REFS / f"{workload}.json").read_text())["refs"]
        return {int(key.split(":")[1]): value for key, value in refs.items()
                if key.startswith("oracle:")}

    def test_line_dense_path2(self):
        pins, seq = self.pins("mc_line_dense"), make_constant(0.1)  # its sequence
        assert sorted(pins) == [100, 150, 200]
        for n, value in pins.items():
            assert exact_path2(seq, n) == value, n
            assert exact_probability(seq, n, library("path2"), LINE) == value, n

    def test_circle_sparse_triangle(self):
        pins, seq = self.pins("mc_circle_sparse"), seq_thm6_half()  # its sequence
        assert sorted(pins) == [17, 18, 53, 54, 161, 162]
        for n, value in pins.items():
            assert exact_triangle_circle(seq, n) == value, n
            assert exact_probability(seq, n, has_triangle_predicate(), CIRCLE) == value, n


class TestScan:
    def test_row_per_n(self):
        rows = scan(make_constant(0.0), library("triangle"), LINE, [3, 4, 5], 20, 0)
        assert [r.n for r in rows] == [3, 4, 5]
        assert all(r.estimate == 0.0 for r in rows)

    def test_rows_independent_of_grid_order(self):
        seq = make_constant(0.5)
        fwd = scan(seq, library("triangle"), LINE, [4, 5], 200, 1)
        rev = scan(seq, library("triangle"), LINE, [5, 4], 200, 1)
        assert fwd[0] == rev[1] and fwd[1] == rev[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(EstimatorError):
            scan(make_constant(0.5), library("triangle"), LINE, [], 10, 0)

    def test_csv_shape(self):
        rows = scan(make_constant(0.0), library("triangle"), LINE, [3, 4], 10, 0)
        text = results_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "n,estimate,ci_low,ci_high,trials,master_seed,target,model_kind"
        assert len(lines) == 3

    def test_exact_rows_written_with_zero_trials(self):
        row = exact_result(0.25, 9, "path2_exact", LINE)
        text = results_to_csv([row])
        assert "9,0.25,0.25,0.25,0,0,path2_exact,LINE" in text


class TestEstimateResult:
    def test_interval_invariant_enforced(self):
        with pytest.raises(EstimatorError):
            EstimateResult(0.5, 0.6, 0.7, 10, 0, "t", 5)

    def test_coverage_of_exact_value(self):
        # the 95% interval should cover the known probability almost always
        seq = make_thm6([0.5])
        want = exact_triangle_circle(seq, 18)
        covered = 0
        for rep in range(25):
            r = mc_probability(seq, 18, has_triangle_predicate(), CIRCLE, 1500, 1000 + rep)
            covered += r.ci_low <= want <= r.ci_high
        assert covered >= 22
