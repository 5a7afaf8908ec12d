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
extensions inside those balls.  ``th_k_equal_detailed`` also counts, one
level at a time, the positions the plain game search visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Graph, cw_holds, disjoint_sum
from .logic import ADJ_BIT, SUCC_BACK_BIT, SUCC_BIT, LabeledModel, Vocab
from .rng import keyed_u64_array
from .sampler import CELL_BUDGET, BudgetError


class GameBudgetError(BudgetError):
    """Estimated game size exceeds its budget: the counted game search's
    positions, or a model's type-table cells (``sampler.CELL_BUDGET``)."""

    unit = "game positions"


@dataclass
class GameStats:
    positions: int = 0
    memo_hits: int = 0


_PAD = np.iinfo(np.int64).max  # sorts after every code and id
_HASHED_ROWS = 512  # fewer rows are interned one by one: most are distinct, and a hash costs more


def _extension_codes(m: LabeledModel, tuples: np.ndarray, ids: dict) -> np.ndarray:
    """(N, n) codes of appending each vertex to each row of ``tuples`` (N, t,
    0-based): the new entry's loop atom, its atoms against each entry, and on
    LC_LE both orientations of its betweenness triple with each two entries.
    Codes of models sharing ``ids`` are equal exactly when the atoms are."""
    t, new, entries = m.atoms[1:, 1:], np.arange(m.n), tuples.T
    cols = [(t[x], 5) for x in entries]  # atoms are below 2^5
    if m.vocab.has_cw:
        cols += [(cw_holds(new, x, y) << 1 | cw_holds(new, y, x), 2)
                 for x, y in combinations(entries[:, :, None], 2)]
    code, bits = t.diagonal() + np.zeros((len(tuples), 1), np.int64), 5  # the loop atom
    for col, width in cols:
        if bits + width > 62:  # renumber through ids, which stay below 2^31
            u, i = np.unique(code, return_inverse=True)  # each distinct code interned once
            code = np.array([ids.setdefault(c, len(ids)) for c in u.tolist()])[i.reshape(code.shape)]
            bits = 31
        code = code << width | col
        bits += width
    return code


def _set_ids(ids: dict, heads: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The ids in ``ids`` of (heads[i], the set of row i's entries other than
    ``_PAD``), keyed by the set's bytes; sorts ``rows`` in place.  From ``_HASHED_ROWS``
    rows on, each distinct (head, set) is interned once, found by a row hash checked in full."""
    if rows.shape[1] > 1:
        rows.sort(axis=1)
        rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = _PAD
        rows.sort(axis=1)
    inv = slice(None)
    if len(rows) >= _HASHED_ROWS:
        mix = keyed_u64_array((), np.arange(rows.shape[1] + 1, dtype=np.uint64)) | np.uint64(1)
        hashes = rows.view(np.uint64) @ mix[1:] + heads.view(np.uint64) * mix[0]
        _, first, inv = np.unique(hashes, return_index=True, return_inverse=True)
        same = (rows[first][inv] == rows).all()  # then so are the heads: mix[0] is odd
        pick, inv = (first, inv) if same else (slice(None), slice(None))  # else intern every row
        heads, rows = heads[pick], rows[pick]
    b, width, sizes = rows.tobytes(), rows.shape[1] * 8, (rows != _PAD).sum(1) * 8
    keys = zip(heads.tolist(), range(0, len(b), width), sizes.tolist())
    return np.array([ids.setdefault((h, b[i:i + s]), len(ids)) for h, i, s in keys])[inv]


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
        return [(heads, heads)]
    dist = _hop_distances(m)[1:, 1:] if picks else None
    near = None if dist is None else dist[[v - 1 for v in picks]].min(0)[None]
    for j in range(k):
        levels.append((heads, None if near is None else near <= 3 ** (k - j - 1)))
        code = _extension_codes(m, tuples, ids)
        if j < k - 1:
            heads = _set_ids(ids, np.repeat(heads, n), code.reshape(-1, 1))
            entry = np.arange(len(tuples) * n)[:, None] % n  # each row's new last entry
            tuples = np.concatenate([np.repeat(tuples, n, 0), entry], 1)
            near = None if near is None else np.minimum(near[:, None], dist[None]).reshape(-1, n)
    table: list = []
    for heads, ball in reversed(levels):  # rank 1 reads the codes of the last entries
        code = code.reshape(len(heads), n)
        if ball is not None:
            code[~ball] = _PAD
        code = _set_ids(ids, heads, code)
        table.insert(0, np.array([heads, code]))  # a copy: the next level masks and sorts code
    return table


def type_id(m: LabeledModel, k: int, ids: dict, picks: tuple[int, ...] = ()) -> int:
    """The rank-k type id of ``m``'s first tuple: its constants, then
    ``picks`` (with picks, of the pointed game).  Ids are equal exactly when
    the types are, among models of one vocabulary, one pick count and one k
    that share ``ids``.  ``GameBudgetError`` past ``CELL_BUDGET`` cells."""
    return int(_type_tables(m, picks, k, ids)[0][1][0])


def _same_type(m1: LabeledModel, m2: LabeledModel, k: int, picks1=(), picks2=()) -> bool:
    if m1.vocab is not m2.vocab:
        raise ValueError(f"vocabulary mismatch: {m1.vocab.value} vs {m2.vocab.value}")
    ids: dict = {}
    return type_id(m1, k, ids, picks1) == type_id(m2, k, ids, picks2)


def partial_iso(m1: LabeledModel, m2: LabeledModel, picks1: tuple[int, ...],
                picks2: tuple[int, ...]) -> bool:
    """Do the picked points (plus constants, where the vocabulary has them)
    induce isomorphic substructures under the index correspondence?"""
    if len(picks1) != len(picks2):  # type ids of different pick counts may coincide
        raise ValueError("pick lists must have equal length")
    return _same_type(m1, m2, 0, picks1, picks2)


def _count(tables, n1: int, n2: int, k: int) -> GameStats:
    """Positions and memo hits of the plain game search, one level at a time: a level's distinct
    child keys are its positions, the repeats memo hits.  What a position tries (consistent
    answers, equal atomic ids, up to the first that wins, equal type ids; no move after one that
    has none) depends only on its memo key, its set of matched pairs: an int64 of pair ids
    a n2 + b + 1, largest first, in base n1 n2 + 1 (below 2^63 by CELL_BUDGET).  A position's
    grid: its moves (model 1's, model 2's, one that loses) by their answers (and one that wins)."""
    order, vertex = np.arange(n1 + n2 + 1), np.concatenate([np.arange(n1), np.arange(n2), [0]])
    cols, flip, mv = np.arange(max(n1, n2) + 1), order[:, None] >= n1, vertex[:, None]
    pairs = np.where(flip, cols, mv).ravel(), np.where(flip, mv, cols).ravel()
    place = np.where(mv == cols, -1, cols)  # each answer's place in its order: same vertex first
    step = max(1, CELL_BUDGET // place.size)  # positions a block
    base, positions, hits = n1 * n2 + 1, min(k, 1), 0
    keys, rows = np.zeros(1, int), [np.zeros(1, int)] * 2  # the root: no pairs, each table's row 0
    for j in range(k - 1):  # positions with two or more rounds left have children
        ids1, ids2 = [tb[j + 1].reshape(2, -1, n) for tb, n in zip(tables, (n1, n2))]
        found = []
        for s in range(0, max(len(keys), 1), step):  # blocks of positions (one, if there are none)
            x, y = ids1[:, rows[0][s:s + step]], ids2[:, rows[1][s:s + step]]
            cons, win = grids = np.zeros((2, x.shape[1]) + place.shape, bool)
            np.equal(x[..., None], y[:, :, None], out=grids[:, :, :n1, :n2])  # model 1's moves
            np.equal(y[..., None], x[:, :, None], out=grids[:, :, n1:-1, :n1])  # then model 2's
            win[:, :, -1] = True
            last = win.argmax(2)  # the place of the last answer tried
            last[win[:, order, vertex]] = -1  # the same vertex wins
            last[order > (last == place.shape[1] - 1).argmax(1)[:, None]] = -2  # after a lost move
            cons &= np.less_equal(place, last[:, :, None], out=win)  # the answers tried
            p, cell = cons.reshape(-1, place.size).nonzero()
            found.append((p + s, cell))
        p, cell = found[0] if len(found) == 1 else (np.concatenate(x) for x in zip(*found))
        a, b = pairs[0][cell], pairs[1][cell]
        child = a * n2 + b + 1  # the new pair's id: a one-pair set's key
        if j:  # insert it among the parent's digits (at most n1 n2), unless it is one of them
            key, d = keys[p], (keys[:, None] // base ** np.arange(min(j, n1 * n2)) % base)[p]
            at = base ** (d > child[:, None]).sum(1)
            inserted = key // at * (at * base) + child * at + key % at
            child = np.where((d == child[:, None]).any(1), key, inserted)
        if j < k - 2:  # the next level's positions, and their rows in its tables
            keys, first = np.unique(child, return_index=True)
            rows = [rows[0][p[first]] * n1 + a[first], rows[1][p[first]] * n2 + b[first]]
        new = len(keys) if j < k - 2 else int(  # np.unique costs more than a sort here
            len(child) and 1 + np.count_nonzero(np.diff(np.sort(child))))
        positions, hits = positions + new, hits + len(child) - new
    return GameStats(positions, hits)


def _hop_distances(m: LabeledModel) -> np.ndarray:
    """All-pairs hop distances, shape (n+1, n+1), in ``m``'s graph plus, with
    successor, the successor path (wrapping on circles); inf where unreachable
    and in column 0."""
    metric = (m.atoms & (1 << ADJ_BIT | 1 << SUCC_BIT | 1 << SUCC_BACK_BIT)) != 0
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
    """``th_k_equal`` with the plain game search's statistics, counted one level
    at a time from both models' type tables (built only when the constants'
    atoms agree); ``node_budget`` bounds its (n1 n2)^k position estimate."""
    first = partial_iso(m1, m2, (), ())  # the constants' atoms; checks the vocabularies
    est = (m1.n * m2.n) ** min(k, 64)  # past any budget below 2^64 from k = 64 on, if n1 n2 > 1
    if est > node_budget:
        raise GameBudgetError(est, node_budget)
    for m in (m1, m2):
        _check_table(m, k)
    if not first:  # the types differ at rank 0 already, and the search visits nothing
        return False, GameStats()
    ids: dict = {}
    tables = [_type_tables(m, (), k, ids) for m in (m1, m2)]
    return bool(tables[0][0][1][0] == tables[1][0][1][0]), _count(tables, m1.n, m2.n, k)


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
