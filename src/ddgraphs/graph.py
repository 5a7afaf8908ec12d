"""Finite simple graphs on {1..n} and the structural predicates the
experiments need: shift-anchored exact copies, cutpoints, block sums,
triangle counting, and realizability ("flatness") checks for circle
subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .probseq import ProbSeq, support_table


class GraphError(ValueError):
    pass


class FlatnessGuardError(GraphError):
    """Witness search refused: too many subgraph vertices."""


Edge = tuple[int, int]


def _norm_edge(v: int, w: int) -> Edge:
    return (v, w) if v < w else (w, v)


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertex set {1..n}; edges stored as (v, w) with v < w."""

    n: int
    edges: frozenset[Edge]

    @cached_property
    def neighbor_sets(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for v, w in self.edges:
            adj[v].add(w)
            adj[w].add(v)
        return {v: frozenset(s) for v, s in adj.items()}

    def has_edge(self, v: int, w: int) -> bool:
        if v == w:
            return False
        return _norm_edge(v, w) in self.edges

    @property
    def m(self) -> int:
        return len(self.edges)


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    if n < 1:
        raise GraphError("graphs have at least one vertex")
    norm = set()
    for v, w in edges:
        if v == w:
            raise GraphError(f"loop at vertex {v}")
        if not (1 <= v <= n and 1 <= w <= n):
            raise GraphError(f"edge ({v},{w}) out of range [1,{n}]")
        norm.add(_norm_edge(v, w))
    return Graph(n, frozenset(norm))


def _graph_unchecked(n: int, edges: Iterable[Edge]) -> Graph:
    # hot path for samplers: edges must already be normalized and in range
    return Graph(n, frozenset(edges))


def complete_graph(l: int) -> Graph:
    if l < 1:
        raise GraphError("graphs have at least one vertex")
    return Graph(l, frozenset((v, w) for v in range(1, l + 1) for w in range(v + 1, l + 1)))


def edgeless_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("graphs have at least one vertex")
    return Graph(n, frozenset())


# --- exact copies ------------------------------------------------------------


def is_exact_copy_at(g: Graph, h: Graph, i: int) -> bool:
    """Does the block {i+1..i+l} induce h (under the shift) with no edge
    leaving the block?
    """
    l = h.n
    if not 0 <= i <= g.n - l:
        raise GraphError(f"offset {i} out of range for block of {l} in [1,{g.n}]")
    for j in range(1, l + 1):
        for k in range(j + 1, l + 1):
            if h.has_edge(j, k) != g.has_edge(i + j, i + k):
                return False
    lo, hi = i + 1, i + l
    for u in range(lo, hi + 1):
        for x in g.neighbor_sets[u]:
            if x < lo or x > hi:
                return False
    return True


def exact_copy_offsets(g: Graph, h: Graph, lo: int, hi: int) -> list[int]:
    """All offsets whose copy block lies inside [lo, hi]."""
    return [i for i in range(max(0, lo - 1), hi - h.n + 1) if is_exact_copy_at(g, h, i)]


def max_disjoint_exact_copies(g: Graph, h: Graph, lo: int, hi: int) -> int:
    """Maximum number of vertex-disjoint exact copies of h inside [lo, hi].

    Copies occupy contiguous equal-length intervals, so the earliest-right-
    endpoint greedy over sorted offsets is exact.
    """
    if not 1 <= lo <= hi <= g.n:
        raise GraphError(f"window [{lo},{hi}] invalid for n={g.n}")
    l = h.n
    count = 0
    last_end = lo - 1
    for i in exact_copy_offsets(g, h, lo, hi):
        if i + 1 > last_end:
            count += 1
            last_end = i + l
    return count


# --- cutpoints ---------------------------------------------------------------


def cutpoints(g: Graph) -> list[int]:
    """The vertices v, increasing, that no edge {a, b} with a <= v < b
    crosses; v = n qualifies vacuously."""
    crossing = [0] * (g.n + 2)
    for a, b in g.edges:
        crossing[a] += 1
        crossing[b] -= 1
    out, running = [], 0
    for v in range(1, g.n + 1):
        running += crossing[v]
        if running == 0:
            out.append(v)
    return out


def psi_r_holds(g: Graph, f_r: int) -> bool:
    """Some cutpoint v lies in the window 2 f_r <= v <= n - 2 f_r."""
    if f_r < 1:
        raise GraphError("f_r must be >= 1")
    lo, hi = 2 * f_r, g.n - 2 * f_r
    if lo > hi:
        return False
    return any(lo <= v <= hi for v in cutpoints(g))


# --- block sums --------------------------------------------------------------


def disjoint_sum(g1: Graph, g2: Graph) -> Graph:
    """Place g2 after g1 with no cross edges; vertex counts add."""
    shift = g1.n
    edges = set(g1.edges)
    edges.update((v + shift, w + shift) for v, w in g2.edges)
    return Graph(g1.n + g2.n, frozenset(edges))


# --- triangles ---------------------------------------------------------------


def count_triangles(g: Graph) -> int:
    total = 0
    ns = g.neighbor_sets
    for v, w in g.edges:
        total += len(ns[v] & ns[w])
    return total // 3


def has_triangle(g: Graph) -> bool:
    ns = g.neighbor_sets
    return any(ns[v] & ns[w] for v, w in g.edges)


# --- circle-subgraph flatness -------------------------------------------------


@dataclass(frozen=True)
class Subgraph:
    """A subgraph of the circle on [host_n]: distinct vertex positions plus
    edges given as index pairs over 1..k.
    """

    host_n: int
    positions: tuple[int, ...]
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        k = len(self.positions)
        if len(set(self.positions)) != k:
            raise GraphError("positions must be distinct")
        if any(not 1 <= p <= self.host_n for p in self.positions):
            raise GraphError("positions out of host range")
        for a, b in self.edges:
            if not (1 <= a < b <= k):
                raise GraphError(f"edge index pair ({a},{b}) invalid for k={k}")

    @property
    def k(self) -> int:
        return len(self.positions)

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges


def cw_holds(a, b, c):
    """Clockwise betweenness: some cyclic rotation is non-decreasing.
    Elementwise: each argument is an int or an int array."""
    return ((a <= b) & (b <= c)) | ((b <= c) & (c <= a)) | ((c <= a) & (a <= b))


def _components(h: Subgraph) -> list[list[int]]:
    """The connected components of h over 1..k, each in BFS order from its
    least vertex."""
    seen: set[int] = set()
    comps = []
    for root in range(1, h.k + 1):
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        for u in comp:  # comp grows while it is walked: a BFS queue
            for x in range(1, h.k + 1):
                if x not in seen and h.has_edge(u, x):
                    seen.add(x)
                    comp.append(x)
        comps.append(comp)
    return comps


def _placeable(h: Subgraph, order: list[int], supp: list[int], n: int, succ: bool) -> bool:
    """Do the vertices in ``order`` have witnesses in 1..n with every h-edge
    among them at a support distance, and, with ``succ``, w_j = w_i + 1
    exactly when position j follows position i on the host circle?  Placed
    in ``order``: a vertex with an h-neighbour already placed tries only that
    neighbour's witness +- each support distance.  With ``succ`` any other
    vertex tries 1..n.  Without it ``order`` is a component in BFS order, so
    only its first vertex has no placed neighbour; as only differences of
    witnesses matter, it sits at 0 and the witnesses need only span at most
    n - 1, which shifts them into 1..n."""
    supp_set, deltas = set(supp), supp + [-d for d in supp]
    pos, host = h.positions, h.host_n
    follows = lambda i, j: pos[j - 1] == pos[i - 1] % host + 1
    # per vertex: its placed h-neighbours, and (placed vertex, w = w_s + 1, w_s = w + 1)
    nbrs = [[s for s in range(t) if h.has_edge(order[s], order[t])] for t in range(len(order))]
    ties = [[(s, follows(order[s], order[t]), follows(order[t], order[s])) for s in range(t)]
            if succ else [] for t in range(len(order))]
    w = [0] * len(order)
    # an h-edge between host successors needs witnesses at distance 1
    if 1 not in supp_set and any((a or b) and s in nbrs[t]
                                 for t, tie in enumerate(ties) for s, a, b in tie):
        return False

    def extend(t: int) -> bool:
        if t == len(order):
            return True
        near, tie = nbrs[t], ties[t]
        if succ:
            lo, hi, free = 1, n, range(1, n + 1)
        else:  # within n - 1 of every placed witness; only the first is free, at 0
            lo, hi, free = max(w[:t], default=0) - n + 1, min(w[:t], default=0) + n - 1, [0]
        for x in [w[near[0]] + d for d in deltas] if near else free:
            if (lo <= x <= hi and all(abs(x - w[s]) in supp_set for s in near)
                    and all((x == w[s] + 1) == a and (w[s] == x + 1) == b for s, a, b in tie)):
                w[t] = x
                if extend(t + 1):
                    return True
        return False

    return extend(0)


def _flat_le(h: Subgraph, n: int) -> bool:
    p = (0, *h.positions)
    pairs = [*h.edges, *((b, a) for a, b in h.edges)]
    return any(all(i in (a, b) or not cw_holds(p[i], p[a], p[b])
                   or abs(p[a] - p[i]) + abs(p[i] - p[b]) > n / 2 for a, b in pairs)
               for i in range(1, h.k + 1))


def is_flat(seq: ProbSeq, n: int, h: Subgraph, variant: str) -> bool:
    """Realizability of a circle subgraph on the line of length n.

    LC:      witnesses w_1..w_k exist with p(|w_i - w_j|) > 0 for every edge
             {i, j} of h (non-edges unconstrained).
    LC_PLUS: additionally w_j = w_i + 1 exactly when the h-positions are
             circle successors (this couples every pair, not just edges).
    LC_LE:   some index i sees no h-edge among clockwise-between pairs whose
             distance sum by i is at most n/2; a direct scan, no search.
    """
    if h.k > 8:
        raise FlatnessGuardError(f"subgraph has {h.k} > 8 vertices")
    if variant == "LC_LE":
        return _flat_le(h, n)
    supp = support_table(seq, n - 1)[0].tolist()
    if variant == "LC":
        # components share no constraint, so each is searched on its own
        return all(_placeable(h, comp, supp, n, False) for comp in _components(h) if len(comp) > 1)
    if variant == "LC_PLUS":
        return _placeable(h, list(range(1, h.k + 1)), supp, n, True)
    raise GraphError(f"unknown flatness variant {variant!r}")


# --- edge-list text format ----------------------------------------------------


def to_edgelist_text(g: Graph) -> str:
    """Canonical text form: header line, then sorted 'e v w' lines."""
    lines = [f"n {g.n}"]
    lines.extend(f"e {v} {w}" for v, w in sorted(g.edges))
    return "\n".join(lines) + "\n"


def from_edgelist_text(text: str) -> Graph:
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2:
            n = int(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise GraphError(f"line {lineno}: cannot parse {raw!r}")
    if n is None:
        raise GraphError("missing 'n <count>' header line")
    return make_graph(n, edges)
