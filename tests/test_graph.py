"""Graph predicates against small brute-force oracles."""

import random
import time
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddgraphs.graph import (
    FlatnessGuardError,
    GraphError,
    Subgraph,
    complete_graph,
    copy_counts,
    count_triangles,
    cut_in_window,
    disjoint_sum,
    edgeless_graph,
    from_edgelist_text,
    is_flat,
    make_graph,
    to_edgelist_text,
)
from ddgraphs.presets import NAMED_SEQUENCES, kcopies_predicate, margin_window, psi_r_predicate
from ddgraphs.probseq import make_constant, make_support
from ddgraphs.rng import stream_words
from ddgraphs.sampler import CIRCLE, LINE, ground


def neighborhood(g, v, r):
    """Ball of radius r around v in g, by breadth-first search; N_0(v) = {v}."""
    seen, frontier = {v}, [v]
    for _ in range(r):
        frontier = [x for u in frontier for x in g.neighbor_sets[u] if x not in seen]
        seen.update(frontier)
    return frozenset(seen)


def is_cutpoint(g, v):
    """No edge {a, b} with a <= v < b; v = n holds vacuously."""
    return not any(a <= v < b for a, b in g.edges)


def is_exact_copy(g, l, i):
    """The block {i+1..i+l} induces K_l and no edge has one end in it."""
    block = range(i + 1, i + l + 1)
    return all(g.has_edge(a, b) for a, b in combinations(block, 2)) and not any(
        (a in block) != (b in block) for a, b in g.edges)


def greedy_copies(g, l, lo, hi):
    """Disjoint exact copies inside [lo, hi], each taken if it starts after
    the last one taken ends."""
    count, last = 0, lo - 1
    for i in range(lo - 1, hi - l + 1):
        if is_exact_copy(g, l, i) and i + 1 > last:
            count, last = count + 1, i + l
    return count


def edge_rows(g):
    """g's edge list as one all-true row and its (v, w) arrays."""
    v, w = np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2).T
    return np.ones((1, g.m), dtype=bool), v, w


def cut(g, lo, hi):
    return bool(cut_in_window(*edge_rows(g), lo, hi)[0])


def copies(g, l, lo, hi):
    rows, v, w = edge_rows(g)
    return int(copy_counts(rows, v, w, g.n, l, lo, hi)[0])


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.integers(min_value=0, max_value=2 ** len(pairs) - 1))
    return make_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


class TestConstruction:
    def test_complete_graph_edge_count(self):
        assert complete_graph(3).m == 3
        assert complete_graph(12).m == 66

    def test_edgeless_pair(self):
        g = make_graph(2, [])
        assert g.n == 2 and g.m == 0

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(GraphError):
            make_graph(3, [(2, 2)])
        with pytest.raises(GraphError):
            make_graph(3, [(1, 4)])

    def test_normalizes_orientation(self):
        g = make_graph(3, [(3, 1)])
        assert g.has_edge(1, 3) and g.has_edge(3, 1)
        assert (1, 3) in g.edges


class TestNeighborhood:
    def test_isolated_plain(self):
        g = edgeless_graph(5)
        assert neighborhood(g, 3, 4) == {3}

    def test_radius_zero(self):
        g = complete_graph(4)
        assert neighborhood(g, 2, 0) == {2}

    def test_bfs_matches_distance_definition(self):
        g = make_graph(6, [(1, 4), (4, 6)])
        assert neighborhood(g, 1, 2) == {1, 4, 6}


class TestExactCopies:
    def test_isolated_block(self):
        g = make_graph(4, [(2, 3)])
        assert copies(g, 2, 2, 3) == 1

    def test_block_missing_edge(self):
        g = make_graph(4, [(2, 3)])
        assert copies(g, 2, 1, 2) == 0

    def test_boundary_edge_breaks_copy(self):
        g = make_graph(4, [(2, 3), (3, 4)])
        assert copies(g, 2, 2, 3) == 0

    def test_offset_out_of_range(self):
        with pytest.raises(GraphError):
            copies(complete_graph(3), 2, 2, 4)
        with pytest.raises(GraphError):
            copies(complete_graph(3), 0, 1, 3)

    def test_two_isolated_blocks(self):
        g = make_graph(6, [(1, 2), (4, 5)])
        assert copies(g, 2, 1, 6) == 2

    def test_block_larger_than_window(self):
        g = make_graph(6, [(1, 2)])
        assert copies(g, 4, 2, 4) == 0

    def test_dense_graph_has_no_isolated_blocks(self):
        assert copies(complete_graph(4), 2, 1, 4) == 0

    def test_copies_touching_both_window_ends(self):
        g = make_graph(10, [(3, 4), (7, 8)])
        assert copies(g, 2, 3, 8) == 2
        assert copies(g, 2, 4, 8) == copies(g, 2, 3, 7) == 1
        assert copies(g, 2, 4, 7) == 0
        # isolated vertices 1 and 10 at the ends of the whole range
        assert copies(make_graph(10, [(2, 9)]), 1, 1, 10) == 8

    def test_single_vertex_and_empty_window(self):
        assert copies(edgeless_graph(1), 1, 1, 1) == 1
        assert copies(edgeless_graph(1), 2, 1, 1) == 0
        assert copies(make_graph(6, [(1, 2)]), 2, 4, 3) == 0

    @given(graphs(max_n=10), st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_copy_blocks_are_shift_isomorphic(self, g, l, i):
        if i > g.n - l:
            return
        # the one-offset window [i + 1, i + l] holds a copy iff the block is one
        assert copies(g, l, i + 1, i + l) == is_exact_copy(g, l, i)
        if copies(g, l, i + 1, i + l):
            for a in range(1, l + 1):
                for b in range(a + 1, l + 1):
                    assert g.has_edge(i + a, i + b)

    @given(graphs(max_n=12), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_greedy_equals_exhaustive(self, g, l):
        if l > g.n:
            return
        offsets = [i for i in range(g.n - l + 1) if is_exact_copy(g, l, i)]
        # exhaustive maximum set of pairwise-disjoint blocks
        best = 0
        for r in range(len(offsets), 0, -1):
            for combo in combinations(offsets, r):
                ivs = sorted((i + 1, i + l) for i in combo)
                if all(ivs[j][1] < ivs[j + 1][0] for j in range(len(ivs) - 1)):
                    best = r
                    break
            if best:
                break
        assert copies(g, l, 1, g.n) == best


class TestCutpoints:
    def test_split_graph(self):
        g = make_graph(4, [(1, 2), (3, 4)])
        assert is_cutpoint(g, 2) and cut(g, 2, 2)
        assert not is_cutpoint(g, 3) and not cut(g, 3, 3)

    def test_edgeless_everywhere(self):
        g = edgeless_graph(5)
        assert all(is_cutpoint(g, v) and cut(g, v, v) for v in range(1, 6))

    def test_last_vertex_vacuous(self):
        assert is_cutpoint(complete_graph(6), 6) and cut(complete_graph(6), 6, 6)
        assert not cut(complete_graph(6), 1, 5)

    def test_cutpoint_list_matches_predicate(self):
        g = make_graph(7, [(1, 3), (4, 5), (6, 7)])
        assert [v for v in range(1, 8) if cut(g, v, v)] == [v for v in range(1, 8) if is_cutpoint(g, v)]

    def test_psi_window(self):
        g = make_graph(10, [(1, 2), (9, 10)])
        assert psi_r_predicate(2)(g)  # v = 5 is a cutpoint inside [4, 6]

    def test_psi_no_cutpoints(self):
        assert not psi_r_predicate(2)(complete_graph(10))

    def test_psi_empty_window(self):
        assert not psi_r_predicate(2)(edgeless_graph(7))

    @given(graphs(max_n=10), st.integers(min_value=1, max_value=11), st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_window_matches_definition(self, g, lo, hi):
        assert cut(g, lo, hi) == any(is_cutpoint(g, x) for x in range(lo, hi + 1))


@pytest.mark.parametrize("kind", [LINE, CIRCLE])
@pytest.mark.parametrize("name", sorted(NAMED_SEQUENCES))
def test_edge_rows_match_definitions_on_sampled_rows(name, kind):
    # blocks of hashed pair-table rows against each row's graph
    seq = NAMED_SEQUENCES[name]()
    for n in (1, 2, 3, 7, 30):
        g = ground(seq, n, kind)
        rows = g.edge_matrix(5, stream_words(range(25)))
        graphs = [g.graph_from_row(row) for row in rows]
        for lo, hi in [(1, n), (n, n), (3, 2), (2, n - 2), (4, n - 4), (6, n - 6)]:
            got = cut_in_window(rows, g.v, g.w, lo, hi).tolist()
            assert got == [any(is_cutpoint(h, x) for x in range(lo, hi + 1)) for h in graphs]
        for l in (1, 2, 3):
            for lo, hi in [(1, n), margin_window(n), (min(2, n), n - 1)]:
                got = copy_counts(rows, g.v, g.w, n, l, lo, hi).tolist()
                assert got == [greedy_copies(h, l, lo, hi) for h in graphs], (n, l, lo, hi)
        for pred in (psi_r_predicate(1), psi_r_predicate(3), kcopies_predicate(2, 1),
                     kcopies_predicate(1, 3)):
            assert pred.rows(rows, g.v, g.w, n).tolist() == [pred(h) for h in graphs]


class TestSums:
    def test_edge_plus_edge(self):
        e = make_graph(2, [(1, 2)])
        s = disjoint_sum(e, e)
        assert s.n == 4 and s.edges == frozenset({(1, 2), (3, 4)})

    def test_single_vertex_prefix_shifts(self):
        g = make_graph(2, [(1, 2)])
        s = disjoint_sum(edgeless_graph(1), g)
        assert s.edges == frozenset({(2, 3)})

    @given(graphs(max_n=6), graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_edge_counts_add(self, a, b):
        assert disjoint_sum(a, b).m == a.m + b.m
        assert disjoint_sum(a, b).n == a.n + b.n

    @given(graphs(max_n=4), graphs(max_n=4), graphs(max_n=4))
    @settings(max_examples=30, deadline=None)
    def test_concat_associative(self, a, b, c):
        assert disjoint_sum(disjoint_sum(a, b), c) == disjoint_sum(a, disjoint_sum(b, c))


class TestTriangles:
    def test_small_complete_graphs(self):
        assert count_triangles(complete_graph(3)) == 1
        assert count_triangles(complete_graph(4)) == 4
        assert count_triangles(edgeless_graph(7)) == 0

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_triple_enumeration(self, g):
        want = sum(
            1
            for a, b, c in combinations(range(1, g.n + 1), 3)
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        )
        assert count_triangles(g) == want

    def test_against_enumeration_on_larger_fixed_graph(self):
        g = make_graph(20, [(i, i + 3) for i in range(1, 18)] + [(i, i + 1) for i in range(1, 20)]
                       + [(i, i + 2) for i in range(1, 19)])
        want = sum(
            1
            for a, b, c in combinations(range(1, 21), 3)
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        )
        assert count_triangles(g) == want


class TestFlatness:
    def test_lc_path_realizable_on_unit_support(self):
        seq = make_support({1: 0.5})
        h = Subgraph(10, (1, 2, 3), frozenset({(1, 2), (2, 3)}))
        assert is_flat(seq, 10, h, "LC")

    def test_lc_triangle_not_realizable_on_unit_support(self):
        seq = make_support({1: 0.5})
        h = Subgraph(10, (1, 2, 3), frozenset({(1, 2), (2, 3), (1, 3)}))
        assert not is_flat(seq, 10, h, "LC")

    def test_lc_triangle_realizable_with_two_distances(self):
        seq = make_support({1: 0.5, 2: 0.5})
        h = Subgraph(10, (1, 2, 3), frozenset({(1, 2), (2, 3), (1, 3)}))
        assert is_flat(seq, 10, h, "LC")

    def test_lc_le_consecutive_triangle(self):
        h = Subgraph(10, (1, 2, 3), frozenset({(1, 2), (2, 3), (1, 3)}))
        assert not is_flat(make_constant(0.5), 10, h, "LC_LE")

    def test_lc_le_spread_pair(self):
        # vertices on opposite arcs: the distance-sum condition never fires
        h = Subgraph(10, (1, 6), frozenset({(1, 2)}))
        assert is_flat(make_constant(0.5), 10, h, "LC_LE")

    def test_lc_plus_successor_pattern(self):
        seq = make_support({1: 0.5})
        h = Subgraph(10, (4, 5), frozenset({(1, 2)}))
        assert is_flat(seq, 10, h, "LC_PLUS")

    def test_lc_plus_gap_pair_needs_nonunit_distance(self):
        # positions 4 and 6 are not circle successors, so witnesses may not
        # be line successors either; the only supported distance is 1
        seq = make_support({1: 0.5})
        h = Subgraph(10, (4, 6), frozenset({(1, 2)}))
        assert not is_flat(seq, 10, h, "LC_PLUS")
        assert is_flat(make_support({1: 0.5, 3: 0.5}), 10, h, "LC_PLUS")

    def test_lc_plus_tied_edge_without_unit_distance_is_refused_at_once(self):
        # vertices 5 and 6 sit at host successors 31, 32 and share an h-edge,
        # so their witnesses must be line successors, but 1 is not in the support
        seq = make_support({d: 0.5 for d in (6, 8, 12, 23, 27, 28, 30, 33, 36)})
        h = Subgraph(37, (34, 8, 13, 6, 31, 32), frozenset({(2, 3), (3, 4), (5, 6)}))
        start = time.perf_counter()
        assert not is_flat(seq, 37, h, "LC_PLUS")
        assert time.perf_counter() - start < 1.0

    def test_guard(self):
        h = Subgraph(20, tuple(range(1, 10)))
        with pytest.raises(FlatnessGuardError):
            is_flat(make_constant(0.5), 20, h, "LC")

    def test_lc_monotone_in_support(self):
        h = Subgraph(12, (1, 2, 3, 4), frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
        small = make_support({2: 0.5, 4: 0.5})
        grown = make_support({1: 0.5, 2: 0.5, 4: 0.5, 5: 0.5})
        if is_flat(small, 12, h, "LC"):
            assert is_flat(grown, 12, h, "LC")

    def test_free_vertices_unconstrained(self):
        seq = make_support({1: 0.5})
        h = Subgraph(10, (1, 5, 9))  # no edges at all
        assert is_flat(seq, 10, h, "LC")

    def test_lc_and_lc_plus_match_brute_force(self):
        # every witness tuple in [1, n]^k, checked against the docstring's definitions
        rng = random.Random(11)
        for _ in range(2000):
            host, n = rng.randint(2, 12), rng.randint(1, 9)
            k = rng.randint(0, min(4, host))
            pos = tuple(rng.sample(range(1, host + 1), k))
            density = rng.random()
            edges = frozenset(e for e in combinations(range(1, k + 1), 2) if rng.random() < density)
            supp = {d for d in range(1, 10) if rng.random() < rng.choice((0.15, 0.3, 0.6))}
            seq, h = make_support({d: 0.5 for d in supp}), Subgraph(host, pos, edges)
            for variant in ("LC", "LC_PLUS"):
                expected = any(
                    all(abs(w[a - 1] - w[b - 1]) in supp for a, b in edges)
                    and (variant == "LC" or all(
                        (w[j] == w[i] + 1) == (pos[j] == pos[i] % host + 1)
                        for i in range(k) for j in range(k) if i != j))
                    for w in product(range(1, n + 1), repeat=k))
                assert is_flat(seq, n, h, variant) == expected, (host, pos, edges, supp, n, variant)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = make_graph(5, [(2, 1), (3, 5)])
        assert from_edgelist_text(to_edgelist_text(g)) == g

    def test_canonical_text(self):
        g = make_graph(3, [(3, 1), (1, 2)])
        assert to_edgelist_text(g) == "n 3\ne 1 2\ne 1 3\n"

    def test_comments_ignored(self):
        g = from_edgelist_text("# heading\nn 4\n# middle\ne 1 4\n")
        assert g == make_graph(4, [(1, 4)])

    def test_missing_header(self):
        with pytest.raises(GraphError):
            from_edgelist_text("e 1 2\n")

    def test_bad_line(self):
        with pytest.raises(GraphError) as err:
            from_edgelist_text("n 3\nq 1 2\n")
        assert "line 2" in str(err.value)
