"""Ehrenfeucht games on labeled models.

``th_k_equal`` decides whether two models satisfy the same sentences of
quantifier depth <= k by solving the k-round spoiler/duplicator game with
min-max recursion.  Positions are memoized on the *set* of matched vertex
pairs plus the remaining rounds: the win condition and the move options are
invariant under reordering picks (and repeated pairs collapse), so
set-canonical positions have equal game value.  Constants act as pre-placed
picks present from round 0, which also fixes the k = 0 semantics: the second
player wins an empty game exactly when the constant atoms agree.

``pointed_equiv`` solves the distance-restricted variant: the first picks
are forced to the given points and the round-i choices are confined to
radius 3^(k-i) neighborhoods of earlier picks, measured with the successor
path added exactly when the vocabulary includes successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, cw_holds, disjoint_sum, neighborhood
from .logic import LabeledModel, Vocab


class GameBudgetError(RuntimeError):
    """Estimated game size exceeds the configured node budget."""

    def __init__(self, estimate: int, budget: int):
        self.estimate = estimate
        self.budget = budget
        super().__init__(f"estimated {estimate} game positions exceeds budget {budget}")


@dataclass
class GameStats:
    positions: int = 0
    memo_hits: int = 0
    memo_size: int = 0


def _atom_pairs(m: LabeledModel, picks: tuple[int, ...]) -> tuple[int, ...]:
    if m.vocab.has_constants:
        return tuple(picks) + (1, m.n)
    return tuple(picks)


def partial_iso(
    m1: LabeledModel, m2: LabeledModel, picks1: tuple[int, ...], picks2: tuple[int, ...]
) -> bool:
    """Do the picked points (plus constants, where the vocabulary has them)
    induce isomorphic substructures under the index correspondence?"""
    if m1.vocab is not m2.vocab:
        raise ValueError(f"vocabulary mismatch: {m1.vocab.value} vs {m2.vocab.value}")
    if len(picks1) != len(picks2):
        raise ValueError("pick lists must have equal length")
    vocab = m1.vocab
    xs = _atom_pairs(m1, tuple(picks1))
    ys = _atom_pairs(m2, tuple(picks2))
    t = len(xs)
    for i in range(t):
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


def _estimate_positions(n1: int, n2: int, k: int) -> int:
    est = 1
    for _ in range(k):
        est *= n1 * n2
        if est > 10**18:
            return est
    return est


def _pair_consistent(
    m1: LabeledModel, m2: LabeledModel, pairs: frozenset[tuple[int, int]], new: tuple[int, int]
) -> bool:
    """Does adding ``new`` keep the correspondence a partial isomorphism?

    Assumes ``pairs`` is already consistent; with a ternary vocabulary the
    triple atoms make incremental checks fiddly, so that case re-checks in
    full (those games stay small here).
    """
    vocab = m1.vocab
    if vocab.has_cw:
        all_pairs = pairs | {new}
        return partial_iso(
            m1, m2, tuple(p[0] for p in all_pairs), tuple(p[1] for p in all_pairs)
        )
    a, b = new
    against: list[tuple[int, int]] = list(pairs)
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


def _solve(
    m1: LabeledModel,
    m2: LabeledModel,
    pairs: frozenset[tuple[int, int]],
    rounds: int,
    memo: dict | None,
    stats: GameStats,
    restricted: tuple[Graph, Graph, int] | None = None,
) -> bool:
    """Duplicator-win value of a position whose pairs already form a
    partial isomorphism (violations are pruned before recursing, which is
    sound because the win condition is hereditary).

    ``restricted`` = (metric graph of m1, metric graph of m2, k) plays the
    distance-restricted game of ``pointed_equiv``."""
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
        # move choices confined to radius 3^(k-i) around earlier picks
        g1, g2, k_total = restricted
        i = k_total - rounds + 1  # this move's index, 1-based
        radius = 3 ** (k_total - i)
        opts1 = _restricted_options(g1, picks1, radius)
        opts2 = _restricted_options(g2, picks2, radius)
    else:
        opts1 = list(range(1, m1.n + 1))
        opts2 = list(range(1, m2.n + 1))

    value = True
    for spoiler_opts, dup_opts, order in ((opts1, opts2, 0), (opts2, opts1, 1)):
        for a in spoiler_opts:
            found = False
            # answering with the same vertex id succeeds often when the two
            # models share a block, so try it first
            ordered = [a] if a in dup_opts else []
            ordered += [b for b in dup_opts if b != a]
            for b in ordered:
                pair = (a, b) if order == 0 else (b, a)
                if not _pair_consistent(m1, m2, pairs, pair):
                    continue
                if _solve(m1, m2, pairs | {pair}, rounds - 1, memo, stats, restricted):
                    found = True
                    break
            if not found:
                value = False
                break
        if not value:
            break
    if memo is not None:
        memo[key] = value
        stats.memo_size = len(memo)
    return value


def _metric_adjacency(m: LabeledModel) -> Graph:
    """Graph used for neighborhood distance: the model's graph, with the
    successor path (wrapping on circles) added when the vocabulary has
    successor."""
    if not m.vocab.has_succ:
        return m.graph
    edges = set(m.graph.edges)
    for v in range(1, m.n):
        edges.add((v, v + 1))
    if m.vocab.circular and m.n >= 2:
        edges.add((1, m.n))
    return Graph(m.n, frozenset(edges))


def _restricted_options(g: Graph, picks: tuple[int, ...], radius: int) -> list[int]:
    out: set[int] = set()
    for v in set(picks):
        out |= neighborhood(g, v, radius)
    return sorted(out)


def th_k_equal_detailed(
    m1: LabeledModel,
    m2: LabeledModel,
    k: int,
    node_budget: int = 10**9,
    use_memo: bool = True,
) -> tuple[bool, GameStats]:
    if m1.vocab is not m2.vocab:
        raise ValueError(f"vocabulary mismatch: {m1.vocab.value} vs {m2.vocab.value}")
    if k < 0:
        raise ValueError("k must be >= 0")
    est = _estimate_positions(m1.n, m2.n, k)
    if est > node_budget:
        raise GameBudgetError(est, node_budget)
    stats = GameStats()
    if not partial_iso(m1, m2, (), ()):  # constant atoms may already disagree
        return False, stats
    memo: dict | None = {} if use_memo else None
    value = _solve(m1, m2, frozenset(), k, memo, stats)
    return value, stats


def th_k_equal(
    m1: LabeledModel,
    m2: LabeledModel,
    k: int,
    node_budget: int = 10**9,
    use_memo: bool = True,
) -> bool:
    """True iff the models satisfy the same sentences of depth <= k."""
    return th_k_equal_detailed(m1, m2, k, node_budget, use_memo)[0]


def pointed_equiv(
    m1: LabeledModel,
    v1: int,
    m2: LabeledModel,
    v2: int,
    k: int,
    node_budget: int = 10**9,
) -> bool:
    """Second-player win status of the restricted game: first picks forced
    to (v1, v2), then k rounds with move i confined to radius 3^(k-i)."""
    if m1.vocab is not m2.vocab:
        raise ValueError(f"vocabulary mismatch: {m1.vocab.value} vs {m2.vocab.value}")
    if not (1 <= v1 <= m1.n and 1 <= v2 <= m2.n):
        raise ValueError("pointed vertices out of range")
    if k < 0:
        raise ValueError("k must be >= 0")
    est = _estimate_positions(m1.n, m2.n, k)
    if est > node_budget:
        raise GameBudgetError(est, node_budget)
    if not partial_iso(m1, m2, (v1,), (v2,)):
        return False
    stats = GameStats()
    return _solve(
        m1,
        m2,
        frozenset({(v1, v2)}),
        k,
        {},
        stats,
        restricted=(_metric_adjacency(m1), _metric_adjacency(m2), k),
    )


# --- absorbing-graph search -----------------------------------------------------

SUM = "SUM"
CONCAT_BOTH_ENDS = "CONCAT_BOTH_ENDS"
CONCAT_RIGHT = "CONCAT_RIGHT"

_MODE_VOCABS = {
    SUM: (Vocab.L,),
    CONCAT_BOTH_ENDS: (Vocab.L_PLUS, Vocab.L_LE),
    CONCAT_RIGHT: (Vocab.LC_LE,),
}


def fact4_search(
    candidates: list[Graph],
    h_set: list[Graph],
    k: int,
    mode: str = SUM,
    vocab: Vocab | None = None,
    node_budget: int = 10**9,
) -> Graph | None:
    """First candidate G absorbing every H in ``h_set`` at depth k.

    SUM:              Th_k(G) = Th_k(G + H)        as plain-graph models
    CONCAT_BOTH_ENDS: Th_k(G) = Th_k(G ++ H ++ G)  as L_PLUS or L_LE models
    CONCAT_RIGHT:     Th_k(G) = Th_k(G ++ H)       as LC_LE models

    Each identity is decided by ``th_k_equal``; the search certifies the
    returned graph instance-wise.  Returns None when no candidate qualifies.
    """
    if mode not in _MODE_VOCABS:
        raise ValueError(f"unknown mode {mode!r}")
    if not candidates:
        raise ValueError("candidates must be nonempty")
    if vocab is None:
        vocab = _MODE_VOCABS[mode][0]
    elif vocab not in _MODE_VOCABS[mode]:
        raise ValueError(f"vocabulary {vocab.value} not valid for mode {mode}")
    for g in candidates:
        mg = LabeledModel(g, vocab)
        ok = True
        for h in h_set:
            if mode == SUM:
                combined = disjoint_sum(g, h)
            elif mode == CONCAT_BOTH_ENDS:
                combined = disjoint_sum(disjoint_sum(g, h), g)
            else:
                combined = disjoint_sum(g, h)
            if not th_k_equal(mg, LabeledModel(combined, vocab), k, node_budget):
                ok = False
                break
        if ok:
            return g
    return None
