"""Ehrenfeucht games on labeled models.

``th_k_equal`` decides whether two models satisfy the same sentences of
quantifier depth <= k by solving the k-round spoiler/duplicator game with
min-max recursion.  Positions are memoized on the *set* of matched vertex
pairs plus the remaining rounds: the win condition and the move options are
invariant under reordering picks (and repeated pairs collapse), so
set-canonical positions have equal game value.  Constants act as pre-placed
picks present from round 0, which also fixes the k = 0 semantics: the second
player wins an empty game exactly when the constant atoms agree.

Atomic agreement is read from each model's atom table
(``LabeledModel.atoms``), which ``partial_iso`` and the solver share.  At a
position the solver builds the consistency matrix of all candidate answer
pairs with one broadcast compare per placed pair (plus the betweenness
triples on LC_LE).  A position with one round left is decided by one
reduction of that matrix: every move of either player needs a consistent
answer.  Higher positions walk each spoiler move's consistent answers, the
same vertex id first, then ascending, so the positions, memo hits and memo
size counted are those of the plain recursion that checks each answer atom
by atom.

``pointed_equiv`` solves the distance-restricted variant: the first picks
are forced to the given points and the round-i choices are confined to
radius 3^(k-i) neighborhoods of earlier picks, measured with the successor
path added exactly when the vocabulary includes successor.  The balls come
from one all-pairs hop-distance array per model and game.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Graph, cw_holds, disjoint_sum
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
    if not all(1 <= v <= m.n for m, picks in ((m1, picks1), (m2, picks2)) for v in picks):
        raise ValueError("picks out of range")
    xs = _atom_pairs(m1, tuple(picks1))
    ys = _atom_pairs(m2, tuple(picks2))
    # each two picks agree on their binary atoms
    i, j = np.triu_indices(len(xs), 1)
    x, y = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    if (m1.atoms[x[i], x[j]] != m2.atoms[y[i], y[j]]).any():
        return False
    if m1.vocab.has_cw:
        for i, j, k in combinations(range(len(xs)), 3):
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


def _cw(a: np.ndarray, b: int, c: int) -> np.ndarray:
    """``cw_holds(a, b, c)`` over an array of a."""
    return ((a <= b) & (b <= c)) | ((b <= c) & (c <= a)) | ((c <= a) & (a <= b))


def _consistency(
    m1: LabeledModel,
    m2: LabeledModel,
    pairs: frozenset[tuple[int, int]],
    opts1: np.ndarray,
    opts2: np.ndarray,
) -> np.ndarray:
    """Boolean (|opts1|, |opts2|) matrix: does the answer pair
    (opts1[i], opts2[j]) keep ``pairs`` a partial isomorphism?

    Assumes ``pairs`` is one.  Each placed pair, and each constant, costs one
    broadcast compare of atom-table rows; with betweenness, each two placed
    pairs add the two orientations of the triples they form with the answer.
    """
    t1, t2 = m1.atoms, m2.atoms
    against = list(pairs)
    if m1.vocab.has_constants:
        against += [(1, 1), (m1.n, m2.n)]
    c = np.ones((len(opts1), len(opts2)), dtype=bool)
    for x, y in against:
        c &= t1[x, opts1][:, None] == t2[y, opts2]
    if m1.vocab.has_cw:
        for (x1, y1), (x2, y2) in combinations(pairs, 2):
            c &= _cw(opts1, x1, x2)[:, None] == _cw(opts2, y1, y2)
            c &= _cw(opts1, x2, x1)[:, None] == _cw(opts2, y2, y1)
    return c


def _solve(
    m1: LabeledModel,
    m2: LabeledModel,
    pairs: frozenset[tuple[int, int]],
    rounds: int,
    memo: dict | None,
    stats: GameStats,
    dists: tuple[np.ndarray, np.ndarray] | None = None,
) -> bool:
    """Duplicator-win value of a position whose pairs already form a
    partial isomorphism (violations are pruned before recursing, which is
    sound because the win condition is hereditary).

    ``dists`` = the hop distances of the two metric graphs plays the
    distance-restricted game of ``pointed_equiv``."""
    if rounds == 0:
        return True
    key = (pairs, rounds)
    if memo is not None and key in memo:
        stats.memo_hits += 1
        return memo[key]
    stats.positions += 1
    if dists is None:
        opts1, opts2 = np.arange(1, m1.n + 1), np.arange(1, m2.n + 1)
    else:
        # move choices confined to radius 3^(rounds-1) around earlier picks
        radius = 3 ** (rounds - 1)
        opts1 = np.flatnonzero(dists[0][[p[0] for p in pairs]].min(0) <= radius)
        opts2 = np.flatnonzero(dists[1][[p[1] for p in pairs]].min(0) <= radius)
    c = _consistency(m1, m2, pairs, opts1, opts2)
    if rounds == 1:
        # the answers end the game: every move needs one consistent answer
        value = bool(c.any(1).all() and c.any(0).all())
    else:
        value = all(
            any(
                _solve(m1, m2, pairs | {(b, a) if flip else (a, b)}, rounds - 1, memo, stats, dists)
                for b in _answer_order(a, dup[row].tolist())
            )
            for spoiler, dup, rows, flip in ((opts1, opts2, c, False), (opts2, opts1, c.T, True))
            for a, row in zip(spoiler.tolist(), rows)
        )
    if memo is not None:
        memo[key] = value
        stats.memo_size = len(memo)
    return value


def _answer_order(a: int, answers: list[int]) -> list[int]:
    # answering with the same vertex id succeeds often when the two models
    # share a block, so try it first; then ascending
    if a in answers:
        answers.remove(a)
        answers.insert(0, a)
    return answers


_METRIC_ATOMS = 0b1110  # adj and successor either way, in LabeledModel.atoms


def _hop_distances(m: LabeledModel) -> np.ndarray:
    """All-pairs hop distances, shape (n+1, n+1), in the metric graph of
    ``m``: its graph, with the successor path (wrapping on circles) added
    when the vocabulary has successor.  inf where unreachable and in column
    0."""
    metric = (m.atoms & _METRIC_ATOMS) != 0
    reached = np.eye(len(metric), dtype=bool)
    dist = np.where(reached, 0.0, np.inf)
    frontier, d = reached, 0
    while frontier.any():
        d += 1
        frontier = (frontier @ metric) & ~reached
        reached = reached | frontier
        dist[frontier] = d
    return dist


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
        dists=(_hop_distances(m1), _hop_distances(m2)),
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
