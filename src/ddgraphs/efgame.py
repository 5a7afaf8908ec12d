"""Ehrenfeucht games on labeled models.

``th_k_equal`` decides whether two models satisfy the same sentences of
quantifier depth <= k.  The duplicator wins the r-round game from two tuples
exactly when their rank-r (Hintikka) types agree, so type tables decide
every game.  Each m-tuple with m + r = k gets an atomic id and a rank-r type
id, interned in one dict for both models.  An (m+1)-tuple's atomic id is its
prefix's id plus the new entry's atoms from ``LabeledModel.atoms``: its loop
atom, against each earlier entry, and on LC_LE both betweenness orientations
with each two earlier entries.  Constants are entries placed before round 1,
so at k = 0 the second player wins exactly when the constant atoms agree.  A
rank-r type is the atomic id plus the set of the one-point extensions'
rank-(r-1) types (at rank 1, of the new entries' atom codes).  The search
only counts what the plain min-max recursion visits: positions memoized on
the *set* of matched pairs plus the remaining rounds, each spoiler move
trying its consistent answers (equal atomic ids), the same vertex id first,
then ascending, until one has an equal type id.  ``pointed_equiv`` forces
the first picks and keeps round-i choices within radius 3^(k-i) of earlier
picks, the metric gaining the successor path exactly when the vocabulary has
successor; its types take only the extensions inside those balls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .graph import Graph, cw_holds, disjoint_sum
from .logic import ADJ_BIT, SUCC_BACK_BIT, SUCC_BIT, LabeledModel, Vocab
from .sampler import CELL_BUDGET


class GameBudgetError(RuntimeError):
    """Estimated game size exceeds its budget: positions against the node
    budget, or type-table cells against ``sampler.CELL_BUDGET``."""

    def __init__(self, estimate: int, budget: int, unit: str = "game positions"):
        self.estimate, self.budget = estimate, budget
        super().__init__(f"estimated {estimate} {unit} exceeds budget {budget}")


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


_PAD = np.iinfo(np.int64).max  # sorts after every code and id


def _entries(m: LabeledModel, picks: tuple[int, ...]) -> tuple[int, ...]:
    """The 0-based entries of a game's first tuple: the constants, then the picks."""
    return tuple(v - 1 for v in ((1, m.n) if m.vocab.has_constants else ()) + tuple(picks))


def _extension_codes(m: LabeledModel, tuples: np.ndarray, ids: dict) -> np.ndarray:
    """(N, n) codes of appending each vertex to each row of ``tuples`` (N, t,
    0-based): the new entry's loop atom, its atoms against each entry, and on
    LC_LE both orientations of its betweenness triple with each two entries.
    Codes of models sharing ``ids`` are equal exactly when the atoms are."""
    t, new, entries = m.atoms[1:, 1:], np.arange(m.n), tuples.T[:, :, None]
    cols = [(t[new, new], 5)] + [(t[x, new], 5) for x in entries]  # atoms are below 2^5
    if m.vocab.has_cw:
        cols += [(cw_holds(new, x, y) << 1 | cw_holds(new, y, x), 2)
                 for x, y in combinations(entries, 2)]
    code, bits = np.zeros((len(tuples), m.n), dtype=np.int64), 0
    for col, width in cols:
        if bits + width > 62:  # renumber through ids, which stay below 2^31
            code = np.array([[ids.setdefault(c, len(ids)) for c in row] for row in code.tolist()])
            bits = 31
        code <<= width
        code |= col
        bits += width
    return code


def _set_ids(ids: dict, heads: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The ids in ``ids`` of (heads[i], the set of row i's entries other than
    ``_PAD``).  Sorts ``rows`` in place."""
    rows.sort(axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = _PAD
    rows.sort(axis=1)
    sizes = (rows != _PAD).sum(1)
    keys = zip(heads.tolist(), rows[:, :sizes.max()].tolist(), sizes.tolist())
    return np.array([ids.setdefault((h, tuple(r[:s])), len(ids)) for h, r, s in keys])


def _type_tables(m: LabeledModel, picks: tuple[int, ...], k: int, dist, ids: dict) -> list:
    """Per level j < k: atomic ids, rank-(k - j) type ids and move balls (in
    the pointed game, from hop distances ``dist``) of the first tuple plus j
    vertices, row-major; the models share ``ids`` and agree on first atoms."""
    n, levels = m.n, []
    tuples, heads = np.array([_entries(m, picks)], np.intp).reshape(1, -1), np.zeros(1, np.int64)
    near = None if dist is None else dist[[v - 1 for v in picks]].min(0)[None]
    for j in range(k):
        levels.append((heads, None if near is None else near <= 3 ** (k - j - 1)))
        code = _extension_codes(m, tuples, ids)
        if j < k - 1:
            heads = _set_ids(ids, np.repeat(heads, n), code.reshape(-1, 1))
            tuples = np.column_stack([np.repeat(tuples, n, 0), np.tile(np.arange(n), len(tuples))])
            near = None if near is None else np.minimum(near[:, None], dist[None]).reshape(-1, n)
    table: list = []
    for heads, ball in reversed(levels):  # rank 1 reads the codes of the last entries
        code = code.reshape(len(heads), n)
        if ball is not None:
            code[~ball] = _PAD
        code = _set_ids(ids, heads, code)
        table.insert(0, (heads.tolist(), code.tolist(), ball))
    return table


def partial_iso(m1: LabeledModel, m2: LabeledModel, picks1: tuple[int, ...],
                picks2: tuple[int, ...]) -> bool:
    """Do the picked points (plus constants, where the vocabulary has them)
    induce isomorphic substructures under the index correspondence?"""
    return _play(m1, m2, picks1, picks2, 0, 1)[0]


def _walk(tables, pairs: frozenset, rows: tuple[int, int], rounds: int, seen: set,
          stats: GameStats) -> None:
    """Count the position (pairs, rounds >= 1), at rows ``rows`` of level
    k - rounds, and what the plain recursion visits below it."""
    seen.add((pairs, rounds))
    stats.positions += 1
    if rounds < 2:
        return
    level, moves = len(tables[0]) - rounds, []
    for levels, row in zip(tables, rows):
        (here, _, ball), (at, ty, _) = levels[level], levels[level + 1]
        n = len(at) // len(here)
        opts = range(n) if ball is None else np.flatnonzero(ball[row]).tolist()
        moves.append((opts, at[row * n:row * n + n], ty[row * n:row * n + n], row * n))
    for (opts, at, ty, _), (d_opts, d_at, d_ty, _), flip in ((*moves, 0), (*moves[::-1], 1)):
        answers: dict[int, list[int]] = {}
        for b in d_opts:
            answers.setdefault(d_at[b], []).append(b)
        for a in opts:
            group = answers.get(at[a], ())
            # the same vertex id first: it often wins when the models share a block
            if a in d_opts and d_at[a] == at[a]:
                group = chain((a,), (b for b in group if b != a))
            for b in group:
                pair = (b, a) if flip else (a, b)
                key = (pairs | {pair}, rounds - 1)
                if key in seen:
                    stats.memo_hits += 1
                elif rounds > 2:
                    _walk(tables, key[0], (moves[0][3] + pair[0], moves[1][3] + pair[1]),
                          rounds - 1, seen, stats)
                else:  # a last-round child is only counted: the tables hold its value
                    seen.add(key)
                    stats.positions += 1
                if ty[a] == d_ty[b]:
                    break
            else:
                return  # no answer wins against this move


_METRIC_ATOMS = (1 << ADJ_BIT) | (1 << SUCC_BIT) | (1 << SUCC_BACK_BIT)


def _hop_distances(m: LabeledModel) -> np.ndarray:
    """All-pairs hop distances, shape (n+1, n+1), in ``m``'s graph plus, with
    successor, the successor path (wrapping on circles); inf where unreachable
    and in column 0."""
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


def _play(m1: LabeledModel, m2: LabeledModel, picks1: tuple[int, ...], picks2: tuple[int, ...],
          k: int, node_budget: int) -> tuple[bool, GameStats]:
    """The k-round game from the given first picks: unrestricted with none,
    the distance-restricted game of ``pointed_equiv`` with some."""
    if m1.vocab is not m2.vocab:
        raise ValueError(f"vocabulary mismatch: {m1.vocab.value} vs {m2.vocab.value}")
    if len(picks1) != len(picks2):
        raise ValueError("pick lists must have equal length")
    if not all(1 <= v <= m.n for m, picks in ((m1, picks1), (m2, picks2)) for v in picks):
        raise ValueError("picks out of range")
    if k < 0:
        raise ValueError("k must be >= 0")
    est = _estimate_positions(m1.n, m2.n, k)
    if est > node_budget:
        raise GameBudgetError(est, node_budget)
    cells = m1.n**k + m2.n**k  # the deepest table reads every k-vertex extension
    if cells > CELL_BUDGET:
        raise GameBudgetError(cells, CELL_BUDGET, "type-table cells")
    stats, ids = GameStats(), {}
    firsts = [(m, _entries(m, p)) for m, p in ((m1, picks1), (m2, picks2))]
    for i in range(len(firsts[0][1])):  # the constants or first picks may disagree
        codes = {_extension_codes(m, np.array([e[:i]], np.intp), ids)[0, e[i]] for m, e in firsts}
        if len(codes) > 1:
            return False, stats
    if k == 0:
        return True, stats
    tables = [_type_tables(m, p, k, _hop_distances(m)[1:, 1:] if p else None, ids)
              for m, p in ((m1, picks1), (m2, picks2))]
    pairs = frozenset((v1 - 1, v2 - 1) for v1, v2 in zip(picks1, picks2))
    _walk(tables, pairs, (0, 0), k, set(), stats)
    stats.memo_size = stats.positions  # every position visited is memoized
    return tables[0][0][1] == tables[1][0][1], stats  # the first tuples' rank-k type ids


def th_k_equal_detailed(m1: LabeledModel, m2: LabeledModel, k: int,
                        node_budget: int = 10**9) -> tuple[bool, GameStats]:
    """``th_k_equal`` with the statistics of the game it solved."""
    return _play(m1, m2, (), (), k, node_budget)


def th_k_equal(m1: LabeledModel, m2: LabeledModel, k: int, node_budget: int = 10**9) -> bool:
    """True iff the models satisfy the same sentences of depth <= k."""
    return _play(m1, m2, (), (), k, node_budget)[0]


def pointed_equiv(m1: LabeledModel, v1: int, m2: LabeledModel, v2: int, k: int,
                  node_budget: int = 10**9) -> bool:
    """Second-player win status of the restricted game: first picks forced
    to (v1, v2), then k rounds with move i confined to radius 3^(k-i)."""
    return _play(m1, m2, (v1,), (v2,), k, node_budget)[0]


# --- absorbing-graph search -----------------------------------------------------

SUM = "SUM"
CONCAT_BOTH_ENDS = "CONCAT_BOTH_ENDS"
CONCAT_RIGHT = "CONCAT_RIGHT"

_MODE_VOCABS = {SUM: (Vocab.L,), CONCAT_BOTH_ENDS: (Vocab.L_PLUS, Vocab.L_LE),
                CONCAT_RIGHT: (Vocab.LC_LE,)}


def fact4_search(candidates: list[Graph], h_set: list[Graph], k: int, mode: str = SUM,
                 vocab: Vocab | None = None, node_budget: int = 10**9) -> Graph | None:
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
