"""Ehrenfeucht games on labeled models.

``th_k_equal`` decides whether two models satisfy the same sentences of
quantifier depth <= k by solving the k-round spoiler/duplicator game with
min-max recursion.  Positions are memoized on the *set* of matched vertex
pairs plus the remaining rounds: the win condition and the move options are
invariant under reordering picks (and repeated pairs collapse), so
set-canonical positions have equal game value.  Constants act as pre-placed
picks present from round 0, which also fixes the k = 0 semantics: the second
player wins an empty game exactly when the constant atoms agree.

Atomic agreement is decided in one place, ``_consistency``, from each
model's atom table (``LabeledModel.atoms``): the boolean matrix of candidate
answer pairs that keep a partial isomorphism.  It compares each answer's own
loop atoms (succ(x, x) holds on the one-vertex circle), then one broadcast
compare per placed pair and constant, plus the betweenness triples on LC_LE.
``partial_iso`` applies it one pick at a time.  A position with one round
left is decided by one reduction of that matrix: every move of either player
needs a consistent answer.  Higher positions walk each spoiler move's
consistent answers, the same vertex id first, then ascending, so the
positions, memo hits and memo size counted are those of the plain recursion
that checks each answer atom by atom.

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
from .logic import ADJ_BIT, SUCC_BACK_BIT, SUCC_BIT, LabeledModel, Vocab


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


def _estimate_positions(n1: int, n2: int, k: int) -> int:
    est = 1
    for _ in range(k):
        est *= n1 * n2
        if est > 10**18:
            return est
    return est


def _consistency(
    m1: LabeledModel,
    m2: LabeledModel,
    pairs: frozenset[tuple[int, int]],
    opts1: np.ndarray,
    opts2: np.ndarray,
) -> np.ndarray:
    """Boolean (|opts1|, |opts2|) matrix: does the answer pair
    (opts1[i], opts2[j]) keep ``pairs`` a partial isomorphism?

    Assumes ``pairs`` is one.  The answers' loop atoms, and each placed pair
    and each constant, cost one broadcast compare of atom-table entries; with
    betweenness, each two placed pairs add the two orientations of the
    triples they form with the answer.
    """
    t1, t2 = m1.atoms, m2.atoms
    against = list(pairs)
    if m1.vocab.has_constants:
        against += [(1, 1), (m1.n, m2.n)]
    c = t1[opts1, opts1][:, None] == t2[opts2, opts2]
    for x, y in against:
        c &= t1[x, opts1][:, None] == t2[y, opts2]
    if m1.vocab.has_cw:
        for (x1, y1), (x2, y2) in combinations(pairs, 2):
            c &= cw_holds(opts1, x1, x2)[:, None] == cw_holds(opts2, y1, y2)
            c &= cw_holds(opts1, x2, x1)[:, None] == cw_holds(opts2, y2, y1)
    return c


def partial_iso(
    m1: LabeledModel, m2: LabeledModel, picks1: tuple[int, ...], picks2: tuple[int, ...]
) -> bool:
    """Do the picked points (plus constants, where the vocabulary has them)
    induce isomorphic substructures under the index correspondence?"""
    _check_picks(m1, m2, picks1, picks2)
    # the constants go first, as picks
    pairs = [(1, 1), (m1.n, m2.n)] if m1.vocab.has_constants else []
    placed: frozenset[tuple[int, int]] = frozenset()
    for x, y in pairs + list(zip(picks1, picks2)):
        if not _consistency(m1, m2, placed, np.array([x]), np.array([y]))[0, 0]:
            return False
        placed |= {(x, y)}
    return True


def _check_picks(m1: LabeledModel, m2: LabeledModel, picks1: tuple, picks2: tuple) -> None:
    if m1.vocab is not m2.vocab:
        raise ValueError(f"vocabulary mismatch: {m1.vocab.value} vs {m2.vocab.value}")
    if len(picks1) != len(picks2):
        raise ValueError("pick lists must have equal length")
    if not all(1 <= v <= m.n for m, picks in ((m1, picks1), (m2, picks2)) for v in picks):
        raise ValueError("picks out of range")


def _solve(
    m1: LabeledModel,
    m2: LabeledModel,
    pairs: frozenset[tuple[int, int]],
    rounds: int,
    memo: dict,
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
    if key in memo:
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


_METRIC_ATOMS = (1 << ADJ_BIT) | (1 << SUCC_BIT) | (1 << SUCC_BACK_BIT)


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


def _play(
    m1: LabeledModel,
    m2: LabeledModel,
    picks1: tuple[int, ...],
    picks2: tuple[int, ...],
    k: int,
    node_budget: int,
) -> tuple[bool, GameStats]:
    """The k-round game from the given first picks: unrestricted with none,
    the distance-restricted game of ``pointed_equiv`` with some."""
    _check_picks(m1, m2, picks1, picks2)
    if k < 0:
        raise ValueError("k must be >= 0")
    est = _estimate_positions(m1.n, m2.n, k)
    if est > node_budget:
        raise GameBudgetError(est, node_budget)
    stats = GameStats()
    if not partial_iso(m1, m2, picks1, picks2):  # the constants or first picks may disagree
        return False, stats
    dists = (_hop_distances(m1), _hop_distances(m2)) if picks1 else None
    return _solve(m1, m2, frozenset(zip(picks1, picks2)), k, {}, stats, dists), stats


def th_k_equal_detailed(
    m1: LabeledModel, m2: LabeledModel, k: int, node_budget: int = 10**9
) -> tuple[bool, GameStats]:
    """``th_k_equal`` with the statistics of the game it solved."""
    return _play(m1, m2, (), (), k, node_budget)


def th_k_equal(m1: LabeledModel, m2: LabeledModel, k: int, node_budget: int = 10**9) -> bool:
    """True iff the models satisfy the same sentences of depth <= k."""
    return _play(m1, m2, (), (), k, node_budget)[0]


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
    return _play(m1, m2, (v1,), (v2,), k, node_budget)[0]


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
        for h in h_set:
            combined = disjoint_sum(g, h)
            if mode == CONCAT_BOTH_ENDS:
                combined = disjoint_sum(combined, g)
            if not th_k_equal(mg, LabeledModel(combined, vocab), k, node_budget):
                break
        else:
            return g
    return None
