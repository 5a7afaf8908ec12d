"""Game engine: examples, invariants, oracle cross-checks."""

import random
import tracemalloc
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddgraphs import efgame
from ddgraphs.efgame import (
    CONCAT_BOTH_ENDS,
    GameBudgetError,
    GameStats,
    SUM,
    fact4_search,
    partial_iso,
    pointed_equiv,
    th_k_equal,
    th_k_equal_detailed,
    type_id,
)
from ddgraphs.graph import (
    Graph,
    complete_graph,
    cw_holds,
    disjoint_sum,
    edgeless_graph,
    make_graph,
)
from ddgraphs.logic import (
    Adj,
    And,
    Eq,
    Exists,
    Formula,
    LabeledModel,
    Not,
    Succ,
    Var,
    Vocab,
    holds,
    library_sentences,
)
from ddgraphs.presets import all_labeled_graphs, thk_class_representatives
from ddgraphs.probseq import make_constant
from ddgraphs.rng import RngStream
from ddgraphs.sampler import CELL_BUDGET, CIRCLE, LINE, sample, sample_line


def M(g, vocab=Vocab.L):
    return LabeledModel(g, vocab)


def random_graph(rng, n):
    pairs = list(combinations(range(1, n + 1), 2))
    return make_graph(n, [p for p in pairs if rng.random() < 0.5])


# --- reference solver ---------------------------------------------------------
#
# The atom-by-atom game search: each candidate answer is checked against
# every placed pair with ``has_edge`` and ``succ`` calls, and positions with
# one round left recurse into their rounds = 0 children.  The table-driven
# solver must reproduce its values and its statistics exactly.


def reference_partial_iso(m1, m2, picks1, picks2):
    vocab = m1.vocab
    xs, ys = tuple(picks1), tuple(picks2)
    if vocab.has_constants:
        xs, ys = xs + (1, m1.n), ys + (1, m2.n)
    t = len(xs)
    for i in range(t):
        if vocab.has_succ and m1.succ(xs[i], xs[i]) != m2.succ(ys[i], ys[i]):
            return False
        for j in range(i + 1, t):
            if (xs[i] == xs[j]) != (ys[i] == ys[j]):
                return False
            if m1.graph.has_edge(xs[i], xs[j]) != m2.graph.has_edge(ys[i], ys[j]):
                return False
            if vocab.has_succ:
                if m1.succ(xs[i], xs[j]) != m2.succ(ys[i], ys[j]):
                    return False
                if m1.succ(xs[j], xs[i]) != m2.succ(ys[j], ys[i]):
                    return False
            if vocab.has_le:
                if (xs[i] <= xs[j]) != (ys[i] <= ys[j]):
                    return False
    if vocab.has_cw:
        for i, j, k in combinations(range(t), 3):
            for tri in ((i, j, k), (i, k, j)):
                a = cw_holds(xs[tri[0]], xs[tri[1]], xs[tri[2]])
                b = cw_holds(ys[tri[0]], ys[tri[1]], ys[tri[2]])
                if a != b:
                    return False
    return True


def reference_pair_consistent(m1, m2, pairs, new):
    vocab = m1.vocab
    if vocab.has_cw:
        all_pairs = pairs | {new}
        return reference_partial_iso(
            m1, m2, tuple(p[0] for p in all_pairs), tuple(p[1] for p in all_pairs)
        )
    a, b = new
    if vocab.has_succ and m1.succ(a, a) != m2.succ(b, b):
        return False
    against = list(pairs)
    if vocab.has_constants:
        against += [(1, 1), (m1.n, m2.n)]
    for x, y in against:
        if (a == x) != (b == y):
            return False
        if m1.graph.has_edge(a, x) != m2.graph.has_edge(b, y):
            return False
        if vocab.has_succ:
            if m1.succ(a, x) != m2.succ(b, y) or m1.succ(x, a) != m2.succ(y, b):
                return False
        if vocab.has_le and (a <= x) != (b <= y):
            return False
    return True


def reference_metric_graph(m):
    if not m.vocab.has_succ:
        return m.graph
    edges = set(m.graph.edges)
    for v in range(1, m.n):
        edges.add((v, v + 1))
    if m.vocab.circular and m.n >= 2:
        edges.add((1, m.n))
    return Graph(m.n, frozenset(edges))


def reference_restricted_options(g, picks, radius):
    """The vertices within ``radius`` of some pick, by breadth-first search."""
    out, frontier = set(picks), set(picks)
    for _ in range(radius):
        frontier = {x for u in frontier for x in g.neighbor_sets[u]} - out
        out |= frontier
    return sorted(out)


def reference_solve(m1, m2, pairs, rounds, memo, stats, restricted=None):
    if rounds == 0:
        return True
    key = (pairs, rounds)
    if memo is not None and key in memo:
        stats.memo_hits += 1
        return memo[key]
    stats.positions += 1
    picks1 = tuple(p[0] for p in pairs)
    picks2 = tuple(p[1] for p in pairs)
    if restricted is not None:
        g1, g2, k_total = restricted
        i = k_total - rounds + 1
        radius = 3 ** (k_total - i)
        opts1 = reference_restricted_options(g1, picks1, radius)
        opts2 = reference_restricted_options(g2, picks2, radius)
    else:
        opts1 = list(range(1, m1.n + 1))
        opts2 = list(range(1, m2.n + 1))
    value = True
    for spoiler_opts, dup_opts, order in ((opts1, opts2, 0), (opts2, opts1, 1)):
        for a in spoiler_opts:
            found = False
            ordered = [a] if a in dup_opts else []
            ordered += [b for b in dup_opts if b != a]
            for b in ordered:
                pair = (a, b) if order == 0 else (b, a)
                if not reference_pair_consistent(m1, m2, pairs, pair):
                    continue
                if reference_solve(m1, m2, pairs | {pair}, rounds - 1, memo, stats, restricted):
                    found = True
                    break
            if not found:
                value = False
                break
        if not value:
            break
    if memo is not None:
        memo[key] = value
    return value


def reference_th_k_equal_detailed(m1, m2, k, use_memo=True):
    stats = GameStats()
    if not reference_partial_iso(m1, m2, (), ()):
        return False, stats
    return reference_solve(m1, m2, frozenset(), k, {} if use_memo else None, stats), stats


def reference_pointed_equiv_detailed(m1, v1, m2, v2, k):
    stats = GameStats()
    if not reference_partial_iso(m1, m2, (v1,), (v2,)):
        return False, stats
    restricted = (reference_metric_graph(m1), reference_metric_graph(m2), k)
    return reference_solve(m1, m2, frozenset({(v1, v2)}), k, {}, stats, restricted), stats


class TestPartialIso:
    def test_empty_plain(self):
        assert partial_iso(M(edgeless_graph(2)), M(edgeless_graph(3)), (), ())

    def test_adjacency_disagrees(self):
        assert not partial_iso(M(complete_graph(2)), M(edgeless_graph(2)), (1, 2), (1, 2))

    def test_constants_checked_with_no_picks(self):
        m1 = M(edgeless_graph(1), Vocab.L_PLUS)
        m2 = M(edgeless_graph(2), Vocab.L_PLUS)
        assert not partial_iso(m1, m2, (), ())  # first = last only on one side

    def test_equality_pattern(self):
        m = M(edgeless_graph(3))
        assert not partial_iso(m, m, (1, 1), (1, 2))

    def test_vocabulary_mismatch(self):
        with pytest.raises(ValueError):
            partial_iso(M(edgeless_graph(2)), M(edgeless_graph(2), Vocab.L_LE), (), ())

    def test_picks_out_of_range(self):
        # the atom tables would read row 0 or wrap a negative index
        m = M(edgeless_graph(3))
        for bad in (0, -1, 4):
            with pytest.raises(ValueError):
                partial_iso(m, m, (1, bad), (1, 2))
            with pytest.raises(ValueError):
                partial_iso(m, m, (1, 2), (bad, 1))

    def test_order_atoms(self):
        m = M(make_graph(3, []), Vocab.L_LE)
        assert partial_iso(m, m, (1, 2), (1, 3))
        assert not partial_iso(m, m, (1, 2), (3, 1))


class TestThkEqual:
    def test_large_edgeless_pairs(self):
        assert th_k_equal(M(edgeless_graph(3)), M(edgeless_graph(5)), 2)

    def test_three_picks_expose_size(self):
        assert not th_k_equal(M(edgeless_graph(2)), M(edgeless_graph(3)), 3)

    def test_one_pick_hides_an_edge(self):
        assert th_k_equal(M(complete_graph(2)), M(edgeless_graph(2)), 1)
        assert not th_k_equal(M(complete_graph(2)), M(edgeless_graph(2)), 2)

    def test_k0_over_plain_graphs_is_trivial(self):
        assert th_k_equal(M(complete_graph(4)), M(edgeless_graph(2)), 0)

    def test_k0_constants(self):
        m1 = M(edgeless_graph(1), Vocab.L_PLUS)
        m2 = M(edgeless_graph(2), Vocab.L_PLUS)
        assert not th_k_equal(m1, m2, 0)

    def test_budget_error_is_structured(self):
        with pytest.raises(GameBudgetError) as err:
            th_k_equal(M(edgeless_graph(40)), M(edgeless_graph(40)), 5)
        assert err.value.estimate > err.value.budget

    def test_budget_configurable(self):
        # the position budget bounds only the count of the statistics
        m = M(edgeless_graph(3))
        assert th_k_equal_detailed(m, m, 2, node_budget=10**5)[0]
        with pytest.raises(GameBudgetError) as err:
            th_k_equal_detailed(m, m, 2, node_budget=80)
        assert (err.value.estimate, err.value.budget) == (81, 80)

    def test_constants_that_differ_answer_after_the_guards(self, monkeypatch):
        # one vertex is first and last; of 1000 they differ, so no round is needed
        one, many = M(edgeless_graph(1), Vocab.L_PLUS), M(edgeless_graph(1000), Vocab.L_PLUS)
        with pytest.raises(GameBudgetError) as err:
            th_k_equal_detailed(one, many, 3)
        assert err.value.estimate > err.value.budget == CELL_BUDGET
        with pytest.raises(ValueError):
            th_k_equal_detailed(one, many, -1)
        built = []
        real = efgame._type_tables
        monkeypatch.setattr(efgame, "_type_tables",
                            lambda m, picks, k, ids: built.append(k) or real(m, picks, k, ids))
        assert th_k_equal_detailed(one, many, 2) == (False, GameStats())
        assert built == [0, 0]  # the rank-0 ids of the constants only

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_reflexive_and_symmetric(self, seed):
        rng = random.Random(seed)
        g1, g2 = random_graph(rng, rng.randint(1, 4)), random_graph(rng, rng.randint(1, 4))
        k = rng.randint(0, 2)
        assert th_k_equal(M(g1), M(g1), k)
        assert th_k_equal(M(g1), M(g2), k) == th_k_equal(M(g2), M(g1), k)

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_deeper_equivalence_refines(self, seed):
        rng = random.Random(seed)
        g1, g2 = random_graph(rng, rng.randint(1, 4)), random_graph(rng, rng.randint(1, 4))
        k = rng.randint(0, 2)
        if th_k_equal(M(g1), M(g2), k + 1):
            assert th_k_equal(M(g1), M(g2), k)

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_transitive(self, seed):
        rng = random.Random(seed)
        gs = [random_graph(rng, rng.randint(1, 4)) for _ in range(3)]
        k = rng.randint(0, 2)
        if th_k_equal(M(gs[0]), M(gs[1]), k) and th_k_equal(M(gs[1]), M(gs[2]), k):
            assert th_k_equal(M(gs[0]), M(gs[2]), k)

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_memo_agrees_with_plain_recursion(self, seed):
        rng = random.Random(seed)
        g1, g2 = random_graph(rng, rng.randint(1, 4)), random_graph(rng, rng.randint(1, 4))
        k = rng.randint(0, 3)
        with_memo, _ = th_k_equal_detailed(M(g1), M(g2), k)
        without, _ = reference_th_k_equal_detailed(M(g1), M(g2), k, use_memo=False)
        assert with_memo == without


class TestSoundnessAndCompleteness:
    def test_equivalence_transfers_library_sentences(self):
        rng = random.Random(11)
        for _ in range(40):
            g1, g2 = random_graph(rng, rng.randint(1, 4)), random_graph(rng, rng.randint(1, 4))
            for vocab in (Vocab.L, Vocab.L_PLUS):
                k = rng.randint(0, 3)
                if th_k_equal(M(g1, vocab), M(g2, vocab), k):
                    for f in library_sentences(max_depth=k, vocab=vocab):
                        assert holds(M(g1, vocab), f) == holds(M(g2, vocab), f)

    def test_loop_atom_separates_one_vertex_circle(self):
        # succ(x, x) holds only on the one-vertex circle
        m1 = M(edgeless_graph(1), Vocab.LC_PLUS)
        m2 = M(edgeless_graph(2), Vocab.LC_PLUS)
        assert not partial_iso(m1, m2, (1,), (1,))
        assert not th_k_equal(m1, m2, 1)
        assert th_k_equal(m1, m2, 0)

    @pytest.mark.parametrize("vocab", list(Vocab))
    def test_equal_verdicts_agree_with_checker(self, vocab):
        graphs = all_labeled_graphs(3)
        loop = [Formula(Exists("x", Succ(Var("x"), Var("x"))), vocab)] if vocab.has_succ else []
        for k in range(3):
            sentences = library_sentences(max_depth=k, vocab=vocab) + (loop if k else [])
            for g1, g2 in product(graphs, repeat=2):
                m1, m2 = M(g1, vocab), M(g2, vocab)
                if th_k_equal(m1, m2, k):
                    for f in sentences:
                        assert holds(m1, f) == holds(m2, f), (g1, g2, k, f.name)

    def test_separation_witnessed_by_type_sentence(self):
        # depth-2 inequivalence over plain graphs is always explained by a
        # realized (has-neighbor, has-distinct-non-neighbor) profile
        def type_sentences():
            x, y = Var("x"), Var("y")
            b1 = Exists("y", Adj(x, y))
            b2 = Exists("y", And(Not(Eq(y, x)), Not(Adj(x, y))))
            for s1 in (b1, Not(b1)):
                for s2 in (b2, Not(b2)):
                    yield Formula(Exists("x", And(s1, s2)), Vocab.L)

        rng = random.Random(23)
        checked_separations = 0
        for _ in range(60):
            g1, g2 = random_graph(rng, rng.randint(1, 4)), random_graph(rng, rng.randint(1, 4))
            if not th_k_equal(M(g1), M(g2), 2):
                witnesses = [
                    f for f in type_sentences() if holds(M(g1), f) != holds(M(g2), f)
                ]
                assert witnesses, (g1.edges, g2.edges)
                checked_separations += 1
        assert checked_separations > 0


class TestPointedGame:
    def test_isolated_points_equivalent(self):
        for k in range(4):
            assert pointed_equiv(M(edgeless_graph(3)), 1, M(edgeless_graph(5)), 4, k)

    def test_degree_visible_at_two_moves(self):
        p3 = make_graph(3, [(1, 2), (2, 3)])
        # one radius-1 move cannot separate degree 2 from degree 1: the
        # duplicator answers a neighbor with a neighbor
        assert pointed_equiv(M(p3), 2, M(p3), 1, 1)
        assert not pointed_equiv(M(p3), 2, M(p3), 1, 2)

    def test_identity_point(self):
        p3 = make_graph(3, [(1, 2), (2, 3)])
        for k in range(3):
            assert pointed_equiv(M(p3), 2, M(p3), 2, k)

    def test_radius_restriction_hides_remote_structure(self):
        # a triangle far from the pointed vertex is invisible to a
        # radius-limited game but not to the unrestricted one
        far_triangle = make_graph(10, [(8, 9), (9, 10), (8, 10)])
        plain = edgeless_graph(10)
        assert pointed_equiv(M(far_triangle), 1, M(plain), 1, 2)
        assert not th_k_equal(M(far_triangle), M(plain), 3)

    def test_successor_vocab_uses_augmented_metric(self):
        # under a successor vocabulary every vertex pair is path-connected,
        # so the restricted sets grow along the line
        g1 = make_graph(4, [(1, 3)])
        g2 = edgeless_graph(4)
        assert not pointed_equiv(M(g1, Vocab.L_PLUS), 1, M(g2, Vocab.L_PLUS), 1, 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            pointed_equiv(M(edgeless_graph(3)), 4, M(edgeless_graph(3)), 1, 1)


class TestFact4Search:
    def test_depth1_absorber(self):
        cand = disjoint_sum(edgeless_graph(1), complete_graph(2))
        hs = [edgeless_graph(1), edgeless_graph(2), complete_graph(2)]
        assert fact4_search([cand], hs, 1, SUM) is cand

    def test_empty_h_set_vacuous(self):
        cand = edgeless_graph(1)
        assert fact4_search([cand], [], 4, SUM) is cand

    def test_k0_plain_vocabulary(self):
        cand = edgeless_graph(1)
        assert fact4_search([cand], [complete_graph(3)], 0, SUM) is cand

    def test_failing_candidate_returns_none(self):
        # a single vertex cannot absorb an edge at depth 2
        assert fact4_search([edgeless_graph(1)], [complete_graph(2)], 2, SUM) is None

    def test_candidate_list_order(self):
        good = disjoint_sum(edgeless_graph(1), complete_graph(2))
        found = fact4_search([edgeless_graph(1), good], [complete_graph(2)], 2, SUM)
        assert found is good

    def test_concat_mode_uses_order_vocab(self):
        cand = make_graph(2, [(1, 2)])
        with pytest.raises(ValueError):
            fact4_search([cand], [], 1, CONCAT_BOTH_ENDS, vocab=Vocab.L)

    def test_concat_both_ends_constants_decide_depth_zero(self):
        # with endpoint constants, even the empty game inspects succ(first,last):
        # true on two vertices, false once a middle block is inserted
        e2, e3 = edgeless_graph(2), edgeless_graph(3)
        assert fact4_search([e2], [edgeless_graph(1)], 0, CONCAT_BOTH_ENDS) is None
        assert fact4_search([e3], [edgeless_graph(1), e2], 0, CONCAT_BOTH_ENDS) is e3

    def test_concat_right_small_depth(self):
        # betweenness atoms are vacuous on two picks, so edgeless blocks of
        # different sizes stay equivalent at depth 2 under right-concatenation
        e3 = edgeless_graph(3)
        from ddgraphs.efgame import CONCAT_RIGHT

        assert fact4_search([e3], [edgeless_graph(1), edgeless_graph(2)], 2, CONCAT_RIGHT) is e3
        bad = make_graph(2, [(1, 2)])
        assert fact4_search([edgeless_graph(2)], [bad], 2, CONCAT_RIGHT) is None

    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            fact4_search([], [], 1, SUM)


# --- table-driven solver against the reference search ----------------------------


def model_pair(seed, vocab, k):
    """Two models of up to 10 vertices (6 at k = 3, 4 at k = 4): the same
    graph, a relabelled copy, or an independent draw, at densities 0.2-0.8."""
    rng = random.Random(seed)
    top = {3: 6, 4: 4}.get(k, 10)

    def draw(n):
        p = rng.choice((0.2, 0.5, 0.8))
        return make_graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])

    g1 = draw(rng.randint(1, top))
    shape = rng.randrange(3)
    if shape == 0:
        g2 = g1
    elif shape == 1:
        perm = list(range(1, g1.n + 1))
        rng.shuffle(perm)
        g2 = make_graph(g1.n, [(perm[v - 1], perm[w - 1]) for v, w in g1.edges])
    else:
        g2 = draw(rng.randint(1, top))
    return M(g1, vocab), M(g2, vocab), rng


class TestAgainstReferenceSolver:
    # from k = 4 on, the count expands positions of two or more pairs
    @given(st.integers(0, 2**32), st.sampled_from(list(Vocab)), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_game_values_and_statistics(self, seed, vocab, k):
        m1, m2, _ = model_pair(seed, vocab, k)
        assert th_k_equal_detailed(m1, m2, k) == reference_th_k_equal_detailed(m1, m2, k)

    @given(st.integers(0, 2**32), st.sampled_from(list(Vocab)), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_pointed_values(self, seed, vocab, k):
        m1, m2, rng = model_pair(seed, vocab, k)
        v1, v2 = rng.randint(1, m1.n), rng.randint(1, m2.n)
        got = pointed_equiv(m1, v1, m2, v2, k)
        assert got == reference_pointed_equiv_detailed(m1, v1, m2, v2, k)[0]

    @given(st.integers(0, 2**32), st.sampled_from(list(Vocab)))
    @settings(max_examples=60, deadline=None)
    def test_partial_iso(self, seed, vocab):
        m1, m2, rng = model_pair(seed, vocab, 0)
        for t in range(5):
            xs = tuple(rng.randint(1, m1.n) for _ in range(t))
            ys = tuple(rng.randint(1, m2.n) for _ in range(t))
            assert partial_iso(m1, m2, xs, ys) == reference_partial_iso(m1, m2, xs, ys)

    def test_roadmap_baseline_pair(self):
        # the sparse n = 40 permuted pair, relabelled as perfbench's
        # ``permuted`` does; a full k = 3 search past the default budget
        g = sample_line(make_constant(0.1), 40, RngStream(1, 40))
        perm = list(range(1, 41))
        random.Random(1).shuffle(perm)
        h = make_graph(40, [(perm[v - 1], perm[w - 1]) for v, w in g.edges])
        got = th_k_equal_detailed(M(g), M(h), 3, node_budget=10**10)
        assert got == (True, GameStats(positions=43948, memo_hits=7991))

    def test_baseline_pair_memory_is_one_grid_block_plus_the_keys(self):
        # the count holds one block of agreement grids (two bool arrays of at
        # most CELL_BUDGET cells) and a few int64 arrays over the tried children
        g = sample_line(make_constant(0.1), 40, RngStream(1, 40))
        perm = list(range(1, 41))
        random.Random(1).shuffle(perm)
        h = make_graph(40, [(perm[v - 1], perm[w - 1]) for v, w in g.edges])
        m1, m2 = M(g), M(h)
        th_k_equal_detailed(m1, m2, 3, node_budget=10**10)  # caches the models' atoms
        tracemalloc.start()
        try:
            _, stats = th_k_equal_detailed(m1, m2, 3, node_budget=10**10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tried = stats.positions + stats.memo_hits
        assert peak < 2 * CELL_BUDGET + 128 * tried, (peak, tried)

    def test_default_arguments_answer_the_n40_pair(self):
        # (40 * 40)^3 positions pass the count's default budget, but
        # th_k_equal only compares type ids, reading 40^3 cells per model
        g = sample_line(make_constant(0.5), 40, RngStream(2, 40))
        perm = list(range(1, 41))
        random.Random(2).shuffle(perm)
        h = make_graph(40, [(perm[v - 1], perm[w - 1]) for v, w in g.edges])
        assert th_k_equal(M(g), M(h), 3)
        assert not th_k_equal(M(g), M(disjoint_sum(h, edgeless_graph(1))), 3)


def relabelled(g, vocab, rng):
    """An isomorphic copy of ``g`` in ``vocab``: any relabelling without
    order or successor, a rotation on LC_PLUS and LC_LE, and ``g`` itself on
    L_PLUS and L_LE, whose labels are fixed by the atoms."""
    n = g.n
    if vocab in (Vocab.L, Vocab.LC):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
    elif vocab.circular:
        shift = rng.randrange(1, n)
        perm = [(v - 1 + shift) % n + 1 for v in range(1, n + 1)]
    else:
        perm = list(range(1, n + 1))
    return make_graph(n, [(perm[v - 1], perm[w - 1]) for v, w in g.edges]), perm


class TestTypeTables:
    @pytest.mark.parametrize("vocab", list(Vocab))
    def test_isomorphic_pairs_match_the_reference(self, vocab):
        # full k = 3 searches: every pair is EQUAL, so no short-circuit hides
        # a wrong type id
        rng = random.Random(f"iso:{vocab.value}")
        model = CIRCLE if vocab.circular else LINE
        for n in (7, 8, 9):
            g = sample(make_constant(0.5), n, RngStream(900 + n, 1), model)
            h, _ = relabelled(g, vocab, rng)
            got = th_k_equal_detailed(M(g, vocab), M(h, vocab), 3)
            assert got == reference_th_k_equal_detailed(M(g, vocab), M(h, vocab), 3)
            assert got[0], n
        g = sample(make_constant(0.3), 9, RngStream(950, 1), model)
        h, perm = relabelled(g, vocab, rng)
        v = rng.randint(1, 9)
        assert reference_pointed_equiv_detailed(M(g, vocab), v, M(h, vocab), perm[v - 1], 3)[0]
        assert pointed_equiv(M(g, vocab), v, M(h, vocab), perm[v - 1], 3)

    @pytest.mark.parametrize("n, want", [
        (8, (True, GameStats(positions=315, memo_hits=154))),
        (12, (True, GameStats(positions=894, memo_hits=404))),
    ])
    def test_statistics_pinned_from_the_search(self, n, want):
        # values recorded from the game search that searched every answer
        # with a consistency matrix, before the type tables
        g = sample_line(make_constant(0.5), n, RngStream(31, n))
        perm = list(range(1, n + 1))
        random.Random(f"pin:{n}").shuffle(perm)
        h = make_graph(n, [(perm[v - 1], perm[w - 1]) for v, w in g.edges])
        assert th_k_equal_detailed(M(g), M(h), 3) == want

    @pytest.mark.parametrize("vocab, k", [(Vocab.LC_LE, 7), (Vocab.L_PLUS, 11)])
    def test_deep_games_renumber_wide_codes(self, vocab, k):
        # past 62 bits of atoms per new entry the codes are renumbered
        graphs = [edgeless_graph(1), edgeless_graph(2), complete_graph(2)]
        for g1, g2 in product(graphs, repeat=2):
            m1, m2 = M(g1, vocab), M(g2, vocab)
            assert th_k_equal_detailed(m1, m2, k) == reference_th_k_equal_detailed(m1, m2, k)
            got = pointed_equiv(m1, 1, m2, g2.n, k - 1)
            assert got == reference_pointed_equiv_detailed(m1, 1, m2, g2.n, k - 1)[0]

    @pytest.mark.parametrize("collide", [False, True])
    def test_hashed_interning_matches_the_reference(self, monkeypatch, collide):
        # every level's rows interned through the row hash; with a hash under
        # which distinct rows collide, through the per-row fallback
        monkeypatch.setattr(efgame, "_HASHED_ROWS", 1)
        if collide:  # each row's hash is its head plus its entries' sum
            monkeypatch.setattr(efgame, "keyed_u64_array", lambda prefix, words: np.ones(len(words), np.uint64))
        for seed in range(24):
            m1, m2, _ = model_pair(seed, list(Vocab)[seed % 6], 3)
            assert th_k_equal_detailed(m1, m2, 3) == reference_th_k_equal_detailed(m1, m2, 3)
            v1, v2 = 1 + seed % m1.n, 1 + seed % m2.n
            assert pointed_equiv(m1, v1, m2, v2, 2) == reference_pointed_equiv_detailed(m1, v1, m2, v2, 2)[0]

    def test_frontier_that_empties_above_the_last_level(self):
        # the root has no children, so the count's later levels start from
        # no positions at all
        m1, m2 = M(edgeless_graph(1), Vocab.LC_PLUS), M(edgeless_graph(3), Vocab.LC_PLUS)
        assert th_k_equal_detailed(m1, m2, 4) == reference_th_k_equal_detailed(m1, m2, 4)

    def test_one_vertex_game_past_64_rounds(self):
        # a key holds at most n1 n2 pair ids, so its digit places stop there
        # instead of wrapping base ** j past 2^63
        m = M(edgeless_graph(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = th_k_equal_detailed(m, m, 70)
        assert got == reference_th_k_equal_detailed(m, m, 70)

    def test_lopsided_game_is_refused_by_the_table_budget(self):
        # (1 * 1000)^3 positions pass the node budget, but the tables would
        # read 1000^3 extensions
        with pytest.raises(GameBudgetError) as err:
            th_k_equal(M(edgeless_graph(1)), M(edgeless_graph(1000)), 3)
        assert err.value.estimate > err.value.budget == CELL_BUDGET
        assert th_k_equal(M(edgeless_graph(1)), M(edgeless_graph(1000)), 2) is False


class TestClassRepresentatives:
    @pytest.mark.parametrize("max_n, k", list(product(range(1, 4), range(3))))
    def test_bucketing_matches_a_pairwise_search(self, max_n, k):
        # the first graph of each class, in enumeration order, as a search
        # that plays the reference game against every representative so far
        reps = []
        for g in all_labeled_graphs(max_n):
            if not any(reference_th_k_equal_detailed(M(g), M(r), k)[0] for r in reps):
                reps.append(g)
        assert thk_class_representatives(max_n, k) == reps

    @pytest.mark.parametrize("k, count", [(2, 6), (3, 16)])
    def test_class_counts_on_four_vertices(self, k, count):
        # counts recorded from the pairwise game search
        assert len(thk_class_representatives(4, k)) == count

    @pytest.mark.parametrize("vocab", [Vocab.L, Vocab.L_PLUS])
    def test_type_ids_shared_across_models(self, vocab):
        # one ids dict for every model: equal ids exactly when the reference
        # game is a win, at each depth
        graphs = all_labeled_graphs(3)
        for k in range(3):
            ids = {}
            got = [type_id(M(g, vocab), k, ids) for g in graphs]
            for (g1, t1), (g2, t2) in combinations(zip(graphs, got), 2):
                want = reference_th_k_equal_detailed(M(g1, vocab), M(g2, vocab), k)[0]
                assert (t1 == t2) == want, (g1, g2, k)
