"""Ehrenfeucht games on labeled models.

The duplicator wins the r-round game from two tuples exactly when their
rank-r (Hintikka) types agree, so games are decided by comparing type ids.
``type_ids`` numbers the rank-k types of a batch of models' first tuples
(each one's constants, then its picks) in one pass: the models are padded to
the largest n, with padded vertices masked out of every type, and each level
interns the rows of all of them at once, so ids compare only within one
call.  A batch of more than two models is bounded by its padded cells, each
model by its own.  A tuple's atomic id is its prefix's id plus the new
entry's atoms from ``LabeledModel.atoms``: its loop atom, against each
earlier entry, and on LC_LE both betweenness orientations with each two
earlier entries; the codes of these atoms for every next entry extend the
prefix's by the columns of its last entry, so each level adds one column,
not the whole tuple.  Its rank-0 type is its atomic id, and its rank-r type
is the atomic id plus the set of its one-point extensions' rank-(r-1) types.
``pointed_equiv`` forces the first picks and confines round i to radius
3^(k-i) of earlier picks, in the graph plus, with successor, the successor
path; its types take only the extensions inside those balls.
``th_k_equal_detailed`` also counts, one level at a time, the positions the
plain game search visits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, cw_holds, disjoint_sum
from .logic import ADJ_BIT, SUCC_BACK_BIT, SUCC_BIT, LabeledModel, Vocab
from .rng import keyed_u64_array
from .sampler import CELL_BUDGET, BudgetError


class GameBudgetError(BudgetError):
    """Estimated game size exceeds its budget: the counted game search's
    positions, or type-table cells (``sampler.CELL_BUDGET``): the largest
    model's, or, past a pair, the padded batch's."""

    unit = "game positions"


@dataclass
class GameStats:
    positions: int = 0
    memo_hits: int = 0


_PAD = np.iinfo(np.int64).max  # sorts after every code and id
_HASHED_ROWS = 512  # below, the dict's cost a row (one setdefault, distinct or not) is under the hash's fixed cost


def _extended(atoms: np.ndarray, cw: bool, code: np.ndarray, bits: int, tuples: np.ndarray) -> tuple:
    """The (M, N, n) codes, and their width in bits, of appending each vertex v to each row of
    ``tuples`` (M, N, t, 0-based) of M models with stacked (M, n, n) ``atoms``, from ``code``,
    those of appending v to each row without its last entry e: that code, then v's atoms
    against e and, with ``cw``, both orientations of v's betweenness triple with e and each
    earlier entry.  Codes of one call are equal exactly when the atoms are.  Shifts ``code``
    in place."""
    new, e = np.arange(atoms.shape[1]), tuples[..., -1:]
    cols = [(atoms[np.arange(len(atoms))[:, None], e[..., 0]], 5)]  # atoms are below 2^5
    if cw:
        cols += [(cw_holds(new, x, e) << 1 | cw_holds(new, e, x), 2) for x in np.moveaxis(tuples[..., :-1, None], 2, 0)]
    for col, width in cols:
        if bits + width > 62:  # renumber: each code becomes its rank among the distinct codes
            u, i = np.unique(code, return_inverse=True)
            code, bits = i.reshape(code.shape), len(u).bit_length()
        code <<= width
        code |= col
        bits += width
    return code, bits


def _set_ids(heads: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Ids, equal exactly when the keys are, of the keys (heads[i], the set of row i's entries
    other than ``_PAD``); sorts ``rows`` in place.  From ``_HASHED_ROWS`` rows on, a row hash
    checked in full numbers the distinct keys; below, or on a collision, a dict keyed by each
    canonical (head, row)'s bytes."""
    if rows.shape[1] > 1:
        rows.sort(axis=1)
        rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = _PAD
        rows.sort(axis=1)
    if len(rows) >= _HASHED_ROWS:
        mix = keyed_u64_array((), np.arange(rows.shape[1] + 1, dtype=np.uint64)) | np.uint64(1)
        hashes = rows.view(np.uint64) @ mix[1:] + heads.view(np.uint64) * mix[0]
        _, first, inv = np.unique(hashes, return_index=True, return_inverse=True)
        if (rows[first][inv] == rows).all():  # then so are the heads: mix[0] is odd
            return inv
    keys, ids = np.column_stack([heads, rows]), {}
    return np.array([ids.setdefault(key, len(ids)) for key in keys.view(f"V{keys.shape[1] * 8}").ravel().tolist()])


def _type_tables(models: list[LabeledModel], picks, k: int) -> list:
    """Per level j < max(k, 1): the atomic ids and rank-(k - j) type ids of each model's first
    tuple plus j vertices, as one (2, M n^j) array over the M models padded to the largest n,
    model-major, then row-major; rows through a padded vertex are junk.  Only level 0 when the
    models' first tuples already have pairwise distinct atomic ids.  With ``picks`` (one tuple
    per model), the game is the pointed one and each level sees only the vertices in its move
    balls."""
    vocab, count, n = models[0].vocab, len(models), max(m.n for m in models)
    for m in models:
        if m.vocab is not vocab:
            raise ValueError(f"vocabulary mismatch: {vocab.value} vs {m.vocab.value}")
    if len({len(p) for p in picks}) > 1:  # type ids of different pick counts may coincide
        raise ValueError("pick lists must have equal length")
    if not all(1 <= v <= m.n for m, p in zip(models, picks) for v in p):
        raise ValueError("picks out of range")
    if k < 0:
        raise ValueError("k must be >= 0")
    cells = n**k * (count if count > 2 else 1)  # the deepest level reads every k-vertex extension
    if cells > CELL_BUDGET:  # of the largest model, or of the padded batch past a pair
        raise GameBudgetError(cells, CELL_BUDGET, "type-table cells")
    atoms, at = np.zeros((count, n, n), np.uint8), np.arange(count)
    for a, m in zip(atoms, models):
        a[:m.n, :m.n] = m.atoms[1:, 1:]
    tuples, heads = np.empty((count, 1, 0), np.intp), np.zeros(count, np.int64)
    code, bits = atoms.diagonal(0, 1, 2)[:, None].astype(np.int64), 5  # appending v: its loop atom
    firsts = [((0, m.n - 1) if vocab.has_constants else ()) + tuple(v - 1 for v in p) for m, p in zip(models, picks)]
    for e in np.array(firsts, np.intp).reshape(count, -1).T:
        heads = _set_ids(heads, code[at, 0, e, None])
        tuples = np.concatenate([tuples, e[:, None, None]], 2)
        code, bits = _extended(atoms, vocab.has_cw, code, bits, tuples)
    if k == 0 or len(set(heads.tolist())) == count:  # distinct atomic ids, distinct types
        return [np.array([heads, heads])]
    valid, near = np.arange(n) < np.array([m.n for m in models])[:, None], None
    if picks[0]:
        dist = _hop_distances(atoms)
        near = dist[at[:, None], np.array(picks) - 1].min(1)[:, None]
    levels = []
    for j in range(k):
        levels.append((heads, valid[:, None] if near is None else near <= 3 ** (k - j - 1)))
        if j < k - 1:
            heads = _set_ids(np.repeat(heads, n), code.reshape(-1, 1))
            entry = np.broadcast_to(np.arange(code.shape[1] * n)[:, None] % n, (count, code.shape[1] * n, 1))
            tuples = np.concatenate([np.repeat(tuples, n, 1), entry], 2)  # each row's new last entry
            code, bits = _extended(atoms, vocab.has_cw, np.repeat(code, n, 1), bits, tuples)
            near = None if near is None else np.minimum(near[:, :, None], dist[:, None]).reshape(count, -1, n)
    table: list = []
    for heads, mask in reversed(levels):  # rank 1 reads the codes of the last entries
        code = code.reshape(count, -1, n)
        np.copyto(code, _PAD, where=~mask)
        code = _set_ids(heads, code.reshape(-1, n))
        table.insert(0, np.array([heads, code]))  # a copy: the next level masks and sorts code
    return table


def type_ids(models: list[LabeledModel], k: int, picks: list[tuple[int, ...]] | None = None) -> list[int]:
    """The rank-k type ids of the models' first tuples: each one's constants, then its
    ``picks`` (with picks, of the pointed game).  The models share a vocabulary and a pick
    count, and are padded to the largest n.  Ids of one call are equal exactly when the types
    are; ids of different calls do not compare.  ``GameBudgetError`` past ``CELL_BUDGET`` cells
    of one model, or of a padded batch of more than two."""
    return _type_tables(models, picks or [()] * len(models), k)[0][1].tolist() if models else []


def _same_type(m1: LabeledModel, m2: LabeledModel, k: int, picks1=(), picks2=()) -> bool:
    t1, t2 = type_ids([m1, m2], k, [picks1, picks2])
    return t1 == t2


def partial_iso(m1: LabeledModel, m2: LabeledModel, picks1: tuple[int, ...],
                picks2: tuple[int, ...]) -> bool:
    """Do the picked points (plus constants, where the vocabulary has them)
    induce isomorphic substructures under the index correspondence?"""
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


def _hop_distances(atoms: np.ndarray) -> np.ndarray:
    """All-pairs hop distances of each model of stacked (M, n, n) 0-based
    ``atoms``, in its graph plus, with successor, the successor path (wrapping
    on circles); inf where unreachable, so from a real vertex to a padded one."""
    metric = (atoms & (1 << ADJ_BIT | 1 << SUCC_BIT | 1 << SUCC_BACK_BIT)) != 0
    reached = np.broadcast_to(np.eye(atoms.shape[1], dtype=bool), atoms.shape)
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
    at a time from each model's rows of the pair's type tables (built past the
    constants only when their atoms agree); ``node_budget`` bounds its (n1 n2)^k
    position estimate."""
    est = (m1.n * m2.n) ** min(k, 64)  # past any budget below 2^64 from k = 64 on, if n1 n2 > 1
    if est > node_budget:
        raise GameBudgetError(est, node_budget)
    tables = _type_tables([m1, m2], ((), ()), k)
    if tables[0][0][0] != tables[0][0][1]:  # the constants' atoms differ, and the search visits nothing
        return False, GameStats()
    n, split = max(m1.n, m2.n), ([], [])
    for i, m in enumerate((m1, m2)):
        for j, t in enumerate(tables):  # model i's rows whose tuples pass through no padded vertex
            at = (at[:, None] * n + np.arange(m.n)).ravel() if j else np.zeros(1, np.intp)
            split[i].append(t.reshape(2, 2, -1)[:, i].take(at, 1))
    return bool(tables[0][1][0] == tables[0][1][1]), _count(split, m1.n, m2.n, k)


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

    Each identity is a compare of rank-k type ids: G is typed in one batch with
    all of its combined graphs, so every H is typed, not only those up to the
    first that G does not absorb, and the batch's cell bound holds.  The search
    certifies the returned graph instance-wise.  Returns None when no candidate
    qualifies.
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
        combined = [disjoint_sum(g, h) for h in h_set]
        if mode == CONCAT_BOTH_ENDS:
            combined = [disjoint_sum(c, g) for c in combined]
        want, *got = type_ids([LabeledModel(x, vocab) for x in [g, *combined]], k)
        if all(t == want for t in got):
            return g
    return None
