"""Ehrenfeucht games on labeled models.

The duplicator wins the r-round game from two tuples exactly when their
rank-r (Hintikka) types agree, so games are decided by comparing type ids.
``type_id`` interns the rank-k type of a model's first tuple (its constants,
then its picks) in an ``ids`` dict shared by all models compared.  A tuple's
atomic id is its prefix's id plus the new entry's atoms from
``LabeledModel.atoms``: its loop atom, against each earlier entry, and on
LC_LE both betweenness orientations with each two earlier entries.  Its
rank-0 type is its atomic id, and its rank-r type is the atomic id plus the
set of its one-point extensions' rank-(r-1) types.  ``pointed_equiv`` forces
the first picks and confines round i to radius 3^(k-i) of earlier picks, in
the graph plus, with successor, the successor path; its types take only the
extensions inside those balls.  Only ``th_k_equal_detailed`` walks the
tables, to count the positions the plain game search visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .graph import Graph, cw_holds, disjoint_sum
from .logic import ADJ_BIT, SUCC_BACK_BIT, SUCC_BIT, LabeledModel, Vocab
from .sampler import CELL_BUDGET


class GameBudgetError(RuntimeError):
    """Estimated game size exceeds its budget: the counting walk's positions
    against its node budget, or a model's type-table cells against
    ``sampler.CELL_BUDGET``."""

    def __init__(self, estimate: int, budget: int, unit: str = "game positions"):
        self.estimate, self.budget = estimate, budget
        super().__init__(f"estimated {estimate} {unit} exceeds budget {budget}")


@dataclass
class GameStats:
    positions: int = 0
    memo_hits: int = 0
    memo_size: int = 0


_PAD = np.iinfo(np.int64).max  # sorts after every code and id


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


def _check_table(m: LabeledModel, k: int) -> None:
    """Refuse k < 0, and a type table that would read more than
    ``CELL_BUDGET`` k-vertex extensions of ``m``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cells = m.n**k  # the deepest level reads every k-vertex extension
    if cells > CELL_BUDGET:
        raise GameBudgetError(cells, CELL_BUDGET, "type-table cells")


def _type_tables(m: LabeledModel, picks: tuple[int, ...], k: int, ids: dict) -> list:
    """Per level j < max(k, 1): the atomic ids and rank-(k - j) type ids of
    the first tuple plus j vertices, row-major.  With picks, the game is the
    pointed one and each level sees only the vertices in its move balls."""
    if not all(1 <= v <= m.n for v in picks):
        raise ValueError("picks out of range")
    _check_table(m, k)
    n, levels = m.n, []
    tuples, heads = np.empty((1, 0), np.intp), np.zeros(1, np.int64)
    for e in ((0, n - 1) if m.vocab.has_constants else ()) + tuple(v - 1 for v in picks):
        heads = _set_ids(ids, heads, _extension_codes(m, tuples, ids)[:, [e]])
        tuples = np.append(tuples, [[e]], axis=1)
    if k == 0:
        return [(heads.tolist(), heads.tolist())]
    dist = _hop_distances(m)[1:, 1:] if picks else None
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
        table.insert(0, (heads.tolist(), code.tolist()))
    return table


def type_id(m: LabeledModel, k: int, ids: dict, picks: tuple[int, ...] = ()) -> int:
    """The rank-k type id of ``m``'s first tuple: its constants, then
    ``picks`` (with picks, of the pointed game).  Ids are equal exactly when
    the types are, among models of one vocabulary, one pick count and one k
    that share ``ids``.  Raises ``GameBudgetError`` when the table would read
    more than ``CELL_BUDGET`` k-vertex extensions."""
    return _type_tables(m, picks, k, ids)[0][1][0]


def _same_type(m1: LabeledModel, m2: LabeledModel, k: int, picks1=(), picks2=()) -> bool:
    if m1.vocab is not m2.vocab:
        raise ValueError(f"vocabulary mismatch: {m1.vocab.value} vs {m2.vocab.value}")
    if len(picks1) != len(picks2):
        raise ValueError("pick lists must have equal length")
    ids: dict = {}
    return type_id(m1, k, ids, picks1) == type_id(m2, k, ids, picks2)


def partial_iso(m1: LabeledModel, m2: LabeledModel, picks1: tuple[int, ...],
                picks2: tuple[int, ...]) -> bool:
    """Do the picked points (plus constants, where the vocabulary has them)
    induce isomorphic substructures under the index correspondence?"""
    return _same_type(m1, m2, 0, picks1, picks2)


def _walk(tables, pairs: frozenset, rows: tuple[int, int], rounds: int, seen: set,
          stats: GameStats) -> None:
    """Count the position (pairs, rounds >= 1), at rows ``rows`` of level
    k - rounds, and what the plain min-max recursion visits below it: each
    position memoized on the *set* of matched pairs plus the remaining rounds,
    each spoiler move trying its consistent answers (equal atomic ids), the
    same vertex id first, then ascending, until one has an equal type id."""
    seen.add((pairs, rounds))
    stats.positions += 1
    if rounds < 2:
        return
    level, moves = len(tables[0]) - rounds, []
    for levels, row in zip(tables, rows):
        at, ty = levels[level + 1]
        n = len(at) // len(levels[level][0])
        moves.append((at[row * n:row * n + n], ty[row * n:row * n + n], row * n))
    for (at, ty, _), (d_at, d_ty, _), flip in ((*moves, 0), (*moves[::-1], 1)):
        answers: dict[int, list[int]] = {}
        for b, c in enumerate(d_at):
            answers.setdefault(c, []).append(b)
        for a, c in enumerate(at):
            group = answers.get(c, ())
            # the same vertex id first: it often wins when the models share a block
            if a < len(d_at) and d_at[a] == c:
                group = chain((a,), (b for b in group if b != a))
            for b in group:
                pair = (b, a) if flip else (a, b)
                key = (pairs | {pair}, rounds - 1)
                if key in seen:
                    stats.memo_hits += 1
                elif rounds > 2:
                    _walk(tables, key[0], (moves[0][2] + pair[0], moves[1][2] + pair[1]),
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


def th_k_equal_detailed(m1: LabeledModel, m2: LabeledModel, k: int,
                        node_budget: int = 10**9) -> tuple[bool, GameStats]:
    """``th_k_equal`` with the statistics of the plain game search, counted
    by a walk over both models' type tables; built only when the constants'
    atoms agree.  ``node_budget`` bounds that walk's (n1 n2)^k position
    estimate."""
    first = partial_iso(m1, m2, (), ())  # the constants' atoms; checks the vocabularies
    est = (m1.n * m2.n) ** min(k, 64)  # past any budget below 2^64 from k = 64 on, if n1 n2 > 1
    if est > node_budget:
        raise GameBudgetError(est, node_budget)
    for m in (m1, m2):
        _check_table(m, k)
    if not first:  # the types differ at rank 0 already, and the walk visits nothing
        return False, GameStats()
    ids: dict = {}
    tables = [_type_tables(m, (), k, ids) for m in (m1, m2)]
    stats = GameStats()
    if k:
        _walk(tables, frozenset(), (0, 0), k, set(), stats)
        stats.memo_size = stats.positions  # every position visited is memoized
    return tables[0][0][1] == tables[1][0][1], stats


def th_k_equal(m1: LabeledModel, m2: LabeledModel, k: int) -> bool:
    """True iff the models satisfy the same sentences of depth <= k."""
    return _same_type(m1, m2, k)


def pointed_equiv(m1: LabeledModel, v1: int, m2: LabeledModel, v2: int, k: int) -> bool:
    """Second-player win status of the restricted game: first picks forced
    to (v1, v2), then k rounds with move i confined to radius 3^(k-i)."""
    return _same_type(m1, m2, k, (v1,), (v2,))


# --- absorbing-graph search -----------------------------------------------------

SUM = "SUM"
CONCAT_BOTH_ENDS = "CONCAT_BOTH_ENDS"
CONCAT_RIGHT = "CONCAT_RIGHT"

_MODE_VOCABS = {SUM: (Vocab.L,), CONCAT_BOTH_ENDS: (Vocab.L_PLUS, Vocab.L_LE),
                CONCAT_RIGHT: (Vocab.LC_LE,)}


def fact4_search(candidates: list[Graph], h_set: list[Graph], k: int, mode: str = SUM,
                 vocab: Vocab | None = None) -> Graph | None:
    """First candidate G absorbing every H in ``h_set`` at depth k.

    SUM:              Th_k(G) = Th_k(G + H)        as plain-graph models
    CONCAT_BOTH_ENDS: Th_k(G) = Th_k(G ++ H ++ G)  as L_PLUS or L_LE models
    CONCAT_RIGHT:     Th_k(G) = Th_k(G ++ H)       as LC_LE models

    Each identity is a compare of rank-k type ids, G's built once; the search
    certifies the returned graph instance-wise.  Returns None when no
    candidate qualifies.
    """
    if mode not in _MODE_VOCABS:
        raise ValueError(f"unknown mode {mode!r}")
    if not candidates:
        raise ValueError("candidates must be nonempty")
    if vocab is None:
        vocab = _MODE_VOCABS[mode][0]
    elif vocab not in _MODE_VOCABS[mode]:
        raise ValueError(f"vocabulary {vocab.value} not valid for mode {mode}")
    ids: dict = {}
    for g in candidates:
        want = type_id(LabeledModel(g, vocab), k, ids)
        for h in h_set:
            combined = disjoint_sum(g, h)
            if mode == CONCAT_BOTH_ENDS:
                combined = disjoint_sum(combined, g)
            if type_id(LabeledModel(combined, vocab), k, ids) != want:
                break
        else:
            return g
    return None
