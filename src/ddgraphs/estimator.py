"""Probability estimation for sentence/predicate events on sampled graphs.

Three routes:

* ``mc_probability`` - seeded Monte Carlo with Wilson score intervals,
* ``exact_probability`` - the exact value from a sentence's lineage (one
  forward pass in line order per component, refused past ``LINEAGE_BUDGET``
  live states); ``exact_path2`` is its endpoint 2-path, and
  ``exact_triangle_circle`` a closed form for aligned circle triangles,
* ``brute_force_probability`` - exhaustive enumeration over the free edge
  set for tiny instances (the oracle the other two are checked against).

A sentence built from exists, & and | over adj atoms and (negated)
equalities grounds to its ``lineage``: clauses of pair columns, one of
which holds iff it does.  ``grounding``
keeps it, with the columns the target reads, in the sampler's memo, once
per (sequence, n, model, sentence), for every route to read.  Monte Carlo
and brute force share one ``row_decision`` on blocks of boolean rows of
those columns: a lineage of at most 16 clauses per pair is a kernel that
reads only its columns, the only ones Monte Carlo hashes, and decides a
block with one ``clause_hits`` reduction.  A predicate's ``rows`` decides a
block itself; other sentences run their array plan on each row scattered
into an adjacency matrix; only a plain callable builds each row's graph.
Monte Carlo decides a kernel's clause blocks in turn, each at the trials no
earlier block settled, hashing a block's columns as one grid or, where later
columns are seldom reached, its first columns and then each later column
only where its clause still holds.  Blocks of trials and leaves are bounded
by ``CELL_BUDGET``, not by a trial or subset count.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .graph import Graph
from .logic import Adj, And, Eq, Exists, Formula, Node, Not, Or, Var, library
from .probseq import ProbSeq, ordered_sum
from .rng import derived_streams, keyed_u64_cells
from .sampler import CELL_BUDGET, CIRCLE, LINE, BudgetError, Grounding, PairBatch, ground

Target = Formula | Callable[[Graph], bool]


class EstimatorError(ValueError):
    pass


class BruteForceGuardError(EstimatorError):
    """Enumerated edge set too large for exhaustive summation."""


class OracleValidityError(EstimatorError):
    """Closed form not applicable; fall back to brute force or Monte Carlo."""


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with confidence interval and reproducibility data.

    Exact-oracle results carry trials = 0 and a degenerate interval.
    """

    estimate: float
    ci_low: float
    ci_high: float
    trials: int
    master_seed: int
    target: str
    n: int
    model_kind: str = LINE

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.estimate <= self.ci_high <= 1.0:
            raise EstimatorError(
                f"interval violation: {self.ci_low} <= {self.estimate} <= {self.ci_high}"
            )


_Z = NormalDist().inv_cdf(1.0 - (1.0 - 0.95) / 2.0)  # two-sided 95%


def wilson_ci(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; exact at the 0/1 boundaries, unlike Wald."""
    if trials <= 0:
        raise EstimatorError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise EstimatorError("successes must lie in [0, trials]")
    phat = successes / trials
    denom = 1.0 + _Z * _Z / trials
    center = phat + _Z * _Z / (2.0 * trials)
    margin = _Z * math.sqrt(phat * (1.0 - phat) / trials + _Z * _Z / (4.0 * trials * trials))
    low = max(0.0, (center - margin) / denom)
    high = min(1.0, (center + margin) / denom)
    return min(low, phat), max(high, phat)


def _target_name(target: Target) -> str:
    if isinstance(target, Formula):
        return target.name
    return getattr(target, "target_name", getattr(target, "__name__", "predicate"))


# Past this many clauses per pair a column kernel's reduction costs more than
# deciding each row (on the dense line the triangle's two routes break even
# near n = 50-60, i.e. 16-19 triangles per pair).
_CLAUSES_PER_PAIR = 16
# What a cell hashed alone by ``keyed_u64_cells`` costs over one of a grid
# column whose (stream, v) half is its own: about 36 ns against 13 ns.
_CELL_COST = 3
# Clause blocks end where the sum of -log(1 - q) over clauses of probability q
# reaches 1, 3, 7, ... times this: half the trials stay live, then an eighth.
_BLOCK_MASS = math.log(2)
# Cells a lineage, or one grounding step's assignments, may hold; a lineage is
# held whole while Monte Carlo and brute force run in blocks.
_LINEAGE_CELLS = 1 << 20


class LineageBudgetError(BudgetError):
    """A lineage, or its exact forward pass, grows past its budget."""

    message = "estimated {estimate} exceeds lineage budget {budget}"


@lru_cache(maxsize=256)
def _queries(root: Node) -> tuple | None:
    """``root`` as a union of conjunctive queries (adj pairs, (a, b, equal)
    guards) over variable ids and constant names, each with whether it is a
    triangle (three pairs closing a cycle on three variables); None unless
    ``root`` is built from exists, & and | over adj atoms and (negated)
    equalities.  Every binder takes its own id."""
    ids = count()

    def walk(node: Node, scope: dict[str, int]) -> tuple | None:
        term = lambda t: scope[t.name] if isinstance(t, Var) else t.name
        match node:
            case Adj(a, b):
                return ((((term(a), term(b)),), ()),)
            case Eq(a, b) | Not(Eq(a, b)):
                return (((), ((term(a), term(b), isinstance(node, Eq)),)),)
            case Exists(v, body):
                return walk(body, {**scope, v: next(ids)})
            case And(l, r) | Or(l, r):
                left, right = walk(l, scope), walk(r, scope)
                if left is None or right is None:
                    return None
                if isinstance(node, Or):
                    return left + right
                if len(left) * len(right) > _LINEAGE_CELLS:
                    raise LineageBudgetError(len(left) * len(right), _LINEAGE_CELLS)
                return tuple((a1 + a2, g1 + g2) for a1, g1 in left for a2, g2 in right)
        return None

    def triangle(atoms, guards) -> bool:
        pairs = {frozenset(a) for a in atoms}
        names = set().union(*pairs)
        return not guards and len(pairs) == len(names) == 3 and \
            all(len(p) == 2 for p in pairs) and all(type(t) is int for t in names)

    queries = walk(root, {})
    return None if queries is None else tuple((q, triangle(*q)) for q in queries)


def _ground(query: tuple, batch: PairBatch) -> np.ndarray:
    """One conjunctive query's clauses, a column per adj atom.  Variables
    are bound one at a time: one with an adj atom to a bound term to that
    term plus or minus each support distance, any other to every vertex.
    Each atom or guard filters the assignments once its terms are bound."""
    atoms, guards = query
    n, circle = batch.n, batch.model_kind == CIRCLE
    dists = np.flatnonzero(batch.run_start >= 0)
    steps = np.concatenate([dists, -dists[2 * dists != n] if circle else -dists])
    # per assignment, each bound term's vertex and each decided atom's column
    at, cols = {"first": np.array([1]), "last": np.array([n])}, {}
    unbound = list(dict.fromkeys(t for a in atoms + guards for t in a[:2] if t not in at))
    while True:
        keep = np.ones(len(at["first"]), dtype=bool)
        for i, (a, b) in enumerate(atoms):
            if i not in cols and a in at and b in at:
                cols[i] = batch.columns(at[a], at[b])
                keep &= cols[i] >= 0
        for a, b, equal in guards:
            if a in at and b in at:
                keep &= (at[a] == at[b]) == equal
        at, cols = {t: v[keep] for t, v in at.items()}, {i: c[keep] for i, c in cols.items()}
        rows = len(at["first"])
        if not unbound:
            return np.array([cols[i] for i in range(len(atoms))], np.int64).reshape(len(atoms), rows).T
        # a variable with an adj atom to a bound term, else the first unbound
        u, t = next(((u, t) for a in atoms for u, t in (a, a[::-1]) if u in unbound and t in at),
                    (unbound[0], None))
        width = n if t is None else len(steps)
        if rows * width * (len(at) + len(cols)) > _LINEAGE_CELLS:
            raise LineageBudgetError(rows * width * (len(at) + len(cols)), _LINEAGE_CELLS)
        new = np.tile(np.arange(1, n + 1), rows) if t is None else (at[t][:, None] + steps).ravel()
        at = {s: np.repeat(v, width) for s, v in at.items()} | {u: (new - 1) % n + 1 if circle else new}
        cols = {i: np.repeat(c, width) for i, c in cols.items()}
        unbound.remove(u)


def lineage(target: Target, batch: PairBatch) -> np.ndarray | None:
    """``target`` grounded on ``batch``: a (k, r) array of pair-table
    columns, a clause per row, such that the target holds on a draw iff some
    clause has all its columns as edges (a clause may repeat a column, and
    one of no column holds).  None unless the target is a sentence built
    from exists, & and | over adj atoms and (negated) equalities; ``first``
    and ``last`` are vertices 1 and n.  Each conjunctive query is grounded
    by ``_ground``, except that a triangle's clauses are
    ``batch.triangle_blocks``, each triangle once.  Raises
    ``LineageBudgetError`` past ``_LINEAGE_CELLS`` cells."""
    queries = _queries(target.root) if isinstance(target, Formula) else None
    if queries is None:
        return None
    parts, cells = [], 0
    for query, triangle in queries:
        for block in batch.triangle_blocks() if triangle else [_ground(query, batch)]:
            cells += block.size
            if cells > _LINEAGE_CELLS:
                raise LineageBudgetError(cells, _LINEAGE_CELLS)
            parts.append(block)
    if len(parts) == 1:
        return parts[0]
    if any(len(part) and not part.shape[1] for part in parts):
        return np.zeros((1, 0), dtype=np.int64)  # a clause of no column holds
    # clauses shorter than the longest repeat their last column
    r = max((part.shape[1] for part in parts), default=0)
    return np.concatenate([np.zeros((0, r), np.int64)] + [
        part[:, np.minimum(np.arange(r), part.shape[1] - 1)] for part in parts if part.shape[1]])


def clause_hits(rows: np.ndarray, clauses: np.ndarray) -> np.ndarray:
    """Boolean (k, T): clause i holds on row t iff every column of
    ``clauses[i]`` is an edge of ``rows[t]``.  Reduced by column, on the
    C-ordered transpose of the (T, columns) rows: a view of hashed rows
    (``edge_matrix`` returns them F-ordered), a copy of C-ordered ones
    (brute force enumerates those).  A clause of no column holds."""
    if clauses.shape[1] == 0:
        return np.ones((len(clauses), len(rows)), dtype=bool)
    by_column = np.ascontiguousarray(rows.T)
    hit = by_column[clauses[:, 0]]
    for j in clauses.T[1:]:
        hit &= by_column[j]
    return hit


def grounding(seq: ProbSeq, n: int, target: Target, model_kind: str) -> Grounding:
    """``target`` grounded on ``PairBatch(seq, n, model_kind)`` by the
    sampler's memo (``ground``), keyed by the target if it is a sentence,
    else by None.  A lineage of at most ``_CLAUSES_PER_PAIR`` clauses per
    pair is a kernel that reads its own
    columns, hashed by its ``first`` and ``blocks``; others read every column."""
    sentence = target if isinstance(target, Formula) else None

    def build(table: PairBatch) -> Grounding:
        try:
            clauses = lineage(sentence, table)
        except LineageBudgetError as refused:
            clauses = refused.with_traceback(None)  # kept without the frames that raised it
        if not isinstance(clauses, np.ndarray) or len(clauses) > _CLAUSES_PER_PAIR * table.size:
            return Grounding(table, np.arange(table.size), clauses)
        read = np.zeros(table.size, dtype=bool)
        read[clauses] = True
        # the columns read, and each clause column's position among them
        g = Grounding(table, np.flatnonzero(read), (np.cumsum(read) - 1)[clauses], kernel=True)
        g.first = _first_columns(g)
        g.blocks = _clause_blocks(g)
        g.cells += 0 if g.first is None else len(g.first)  # the memo counts them as clause cells
        g.cells += sum(c.size + k.size for c, k in g.blocks) if len(g.blocks) > 1 else 0  # and blocks
        return g

    return ground(seq, n, model_kind, sentence, None if sentence is None else build)


def _first_columns(g: Grounding) -> np.ndarray | None:
    """The positions of the kernel ``g``'s clause-first columns when Monte
    Carlo should hash them first and each later column of a clause only
    where the clause still holds, else None (hash every read column).
    Clause i's later position j is reached on a share prod_{l < j} p(c_il)
    of the trials; the two stages pay when those expected cells, at
    ``_CELL_COST`` each, cost less than the read columns that are no
    clause's first."""
    clauses = g.lineage
    if clauses.shape[1] < 2:
        return None
    first = np.unique(clauses[:, 0])
    live = np.cumprod(g.p[clauses[:, :-1]], axis=1).sum()
    if live * _CELL_COST < len(g.read) - len(first):
        first.flags.writeable = False
        return first
    return None


def _clause_blocks(g: Grounding) -> list[tuple]:
    """The kernel ``g``'s clauses in blocks, in order, as (columns hashed as
    one grid, clauses): the block's first columns and its clauses where
    ``g.first`` is set, else all its columns and its clauses as positions
    among them.  Block b ends where the running sum of -log(1 - q), q a
    clause's product of p, reaches ``_BLOCK_MASS`` * (2^(b+1) - 1).  A lineage
    whose sum is at most 2 ``_BLOCK_MASS``, or whose first block would end at
    its last clause, stays one block, hashed unsplit."""
    clauses = g.lineage
    with np.errstate(divide="ignore"):  # a clause of q = 1 has infinite mass
        mass = np.cumsum(-np.log1p(-np.prod(g.p[clauses], axis=1)))
    if len(clauses) < 2 or mass[-1] <= 2 * _BLOCK_MASS or mass[-2] < _BLOCK_MASS:
        return [(slice(None) if g.first is None else g.first, clauses)]
    ends = np.searchsorted(mass, _BLOCK_MASS * (2.0 ** np.arange(1, 64) - 1)) + 1
    blocks = []
    for block in np.split(clauses, np.unique(ends[ends < len(clauses)])):
        columns = np.unique(block if g.first is None else block[:, 0])
        if g.first is None:  # the block's clauses as positions among its columns
            block = np.searchsorted(columns, block)
        columns.flags.writeable = block.flags.writeable = False
        blocks.append((columns, block))
    return blocks


def _kernel_hits(g: Grounding, master_seed: int, ids: np.ndarray) -> np.ndarray:
    """``clause_hits(g.edge_matrix(master_seed, ids), g.lineage).any(0)``
    for the kernel ``g``, by ``g.blocks`` in order, each at the trials no
    earlier block settled: its grid reduced by ``clause_hits``, or, where
    ``g.first`` is set, each later column of a clause hashed only at the
    (clause, trial) cells whose earlier columns drew edges."""
    hits = np.zeros(len(ids), dtype=bool)
    for b, (columns, clauses) in enumerate(g.blocks):
        live = np.flatnonzero(~hits) if b else slice(None)
        at = ids[live]
        if not len(at):
            break
        drawn = g.edge_matrix(master_seed, at, columns)
        if g.first is None:
            hits[live] = clause_hits(drawn, clauses).any(axis=0)
            continue
        cell = drawn.T[np.searchsorted(columns, clauses[:, 0])]  # C-ordered (first, trials) view
        clause, trial = np.divmod(np.flatnonzero(cell), len(at))
        for column in clauses.T[1:]:
            c = column.take(clause)
            edge = keyed_u64_cells((master_seed,), at.take(trial), g.v.take(c), g.w.take(c)) \
                < g.thresholds.take(c)
            edge |= g.always.take(c)
            clause, trial = clause[edge], trial[edge]
        hits[live] = np.bincount(trial, minlength=len(at)) > 0
    return hits


def row_decision(target: Target, g: Grounding) -> tuple[int, Callable]:
    """How ``target`` is decided on boolean rows of ``g``'s columns.

    Returns (cells, decide): the cells per row a block must hold, and
    ``decide(rows)``, one bool per row.  A kernel grounding decides a block
    with one ``clause_hits`` reduction.  Otherwise every column is read: a
    predicate's ``rows`` decides the block (n + 1 more cells a row), a
    sentence, compiled once, runs on each row scattered into an adjacency
    matrix, and any other predicate on each row's graph.
    """
    if g.kernel:
        clauses = g.lineage
        return max(len(g.read), len(clauses)), lambda rows: clause_hits(rows, clauses).any(axis=0)
    if hasattr(target, "rows"):
        return len(g.read) + g.n + 1, lambda rows: target.rows(rows, g.v, g.w, g.n)
    if isinstance(target, Formula):
        run, adj = target._checker, np.zeros((g.n, g.n), dtype=bool)
        v, w = g.v.astype(np.intp) - 1, g.w.astype(np.intp) - 1

        def decide(rows: np.ndarray) -> np.ndarray:
            out = np.empty(len(rows), dtype=bool)
            for t, row in enumerate(rows):
                adj[v, w] = adj[w, v] = row  # every column, so no edge of the last row stays
                out[t] = run(adj)
            return out

        return len(g.read), decide
    return len(g.read), lambda rows: np.fromiter(
        (target(g.graph_from_row(row)) for row in rows), bool, len(rows))


def mc_probability(
    seq: ProbSeq,
    n: int,
    target: Target,
    model_kind: str,
    trials: int,
    master_seed: int,
) -> EstimateResult:
    """Monte Carlo estimate of P(n; target) over independent seeded samples.

    Trial t draws its graph from stream ``derived_stream(n, t)``, so results
    are independent of evaluation order and parallel scheduling.

    Only the columns the target's ``grounding`` reads are hashed:
    targets with a lineage (see ``lineage``) are decided by their clauses,
    by ``_kernel_hits``, clause block by clause block, each block at the
    trials no earlier block has settled: its columns as one grid reduced by
    ``clause_hits``, or, where the grounding's ``first`` is set, its
    clauses' first columns as one grid, then each later column only at the
    (clause, trial) cells whose clause still holds.  Every other target
    reads every column: a predicate's ``rows`` decides the block, the
    compiled sentence each row's adjacency, a plain predicate each row's
    graph.  All give the same successes, since each draw is a pure function
    of (master_seed, stream, v, w).  Blocks of trials hold at most
    ``CELL_BUDGET`` cells (at least one trial), which bounds memory
    independently of ``trials``.
    """
    if trials < 1:
        raise EstimatorError("trials must be >= 1")
    if n < 1:
        raise EstimatorError("n must be >= 1")

    g = grounding(seq, n, target, model_kind)
    cells, decide = row_decision(target, g)
    block = max(1, CELL_BUDGET // max(1, cells))
    successes = 0
    for start in range(0, trials, block):
        ids = derived_streams(n, start, min(start + block, trials))
        hits = _kernel_hits(g, master_seed, ids) if g.kernel else decide(g.edge_matrix(master_seed, ids))
        successes += int(np.count_nonzero(hits))
    low, high = wilson_ci(successes, trials)
    return EstimateResult(
        estimate=successes / trials,
        ci_low=low,
        ci_high=high,
        trials=trials,
        master_seed=master_seed,
        target=_target_name(target),
        n=n,
        model_kind=model_kind,
    )


# The library sentences the oracles ground, built once
_PATH2, _TRIANGLE = library("path2"), library("triangle")

# Live states that a component's forward pass in ``exact_probability`` may hold.
LINEAGE_BUDGET = 1 << 14


def _components(clauses: list[tuple]) -> list[list[tuple]]:
    """The clauses in groups that share no column, each in clause order,
    ordered by their first clause (union-find on clause indices)."""
    if len(set(chain.from_iterable(clauses))) == sum(map(len, clauses)):
        return [[clause] for clause in clauses]  # no column is shared
    root = list(range(len(clauses)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    owner: dict[int, int] = {}
    for i, clause in enumerate(clauses):
        for c in clause:
            a, b = sorted((find(i), find(owner.setdefault(c, i))))
            root[b] = a
    groups: dict[int, list[tuple]] = {}
    for i, clause in enumerate(clauses):
        groups.setdefault(find(i), []).append(clause)
    return list(groups.values())


def exact_probability(seq: ProbSeq, n: int, target: Target, model_kind: str) -> float:
    """P(n; target) from the target's ``lineage``, whose columns are
    independent (Suciu, Olteanu, Re and Koch, *Probabilistic Databases*,
    2011, ch. 5).  Clauses that share no column form components, combined
    as ``-expm1(sum log1p(-q))`` left to right.  A one-clause component's q
    is its probabilities multiplied left to right; another's, one forward
    pass over its columns in line order (w, v), whose states are the sets of
    residuals (unseen columns) of begun clauses with every seen column an
    edge: each column branches the states present and absent (no branch of
    weight 0), equal states merge, and q sums (``math.fsum``) the states
    with an empty residual.  The lineage comes from the target's
    ``grounding``.  Raises ``OracleValidityError`` for a target with no
    lineage and ``LineageBudgetError`` past ``LINEAGE_BUDGET`` live states
    or when the lineage itself was refused."""
    if n < 1:
        raise EstimatorError("n must be >= 1")
    g = grounding(seq, n, target, model_kind)
    clauses = g.lineage
    if isinstance(clauses, LineageBudgetError):
        raise LineageBudgetError(clauses.estimate, clauses.budget)
    if clauses is None:
        raise OracleValidityError(f"no exact oracle for target {_target_name(target)!r}: it is not "
                                  "built from exists, & and | over adj atoms and (negated) equalities")
    rows = clauses.tolist()
    if (np.diff(np.sort(clauses, axis=1), axis=1) == 0).any():
        rows = map(dict.fromkeys, rows)  # a clause's columns once each, in order
    p = dict(zip(clauses.ravel().tolist(), g.p[clauses].ravel().tolist()))
    clauses = list(dict.fromkeys(map(tuple, rows)))
    log_miss = 0.0
    for component in _components(clauses):
        if len(component) == 1:
            q = math.prod(map(p.__getitem__, component[0]))
        else:
            line = lambda c: (g.w[c], g.v[c])
            starting = {c: [] for c in sorted(set(chain.from_iterable(component)), key=line)}
            for clause in component:  # each clause's other columns in line order, by its first
                starting[min(clause, key=line)].append(tuple(sorted(clause, key=line))[1:])
            done, states = [], {frozenset(): 1.0}
            for c, new in starting.items():
                before, states = states, {}
                for state, mass in before.items():
                    moved = [r for r in state if r[0] == c]
                    # a state column c does not touch is its absent branch, and with no new clause its present one
                    absent = state.difference(moved) if moved else state
                    present = absent.union([r[1:] for r in moved], new) if moved or new else absent
                    for branch, weight in ((present, mass * p[c]), (absent, mass * (1.0 - p[c]))):
                        if weight:  # a p = 1 column has no absent branch
                            states[branch] = states.get(branch, 0.0) + weight
                done += [states.pop(s) for s in list(states) if () in s]  # some clause holds
                if len(states) > LINEAGE_BUDGET:
                    raise LineageBudgetError(len(states), LINEAGE_BUDGET)
            q = math.fsum(done)
        if q >= 1.0:
            return 1.0
        log_miss += math.log1p(-q)
    return -math.expm1(log_miss) + 0.0  # normalize -0.0


def exact_path2(seq: ProbSeq, n: int) -> float:
    """P(endpoints 1 and n joined by a two-edge path) on the line, by
    ``exact_probability``: each midpoint v's clause is its own component, so
    P = 1 - prod_{v=2}^{n-1} (1 - p(v-1) p(n-v)), added in increasing v."""
    if n < 3:
        raise EstimatorError("needs n >= 3")
    return exact_probability(seq, n, _PATH2, LINE)


def triangles(seq: ProbSeq, n: int, model_kind: str) -> Grounding:
    """The grounding of the triangle sentence, whose ``lineage`` is
    ``PairBatch.triangles`` over ``read``; past the lineage budget, every
    column with those triangles, not kept in the memo."""
    g = grounding(seq, n, _TRIANGLE, model_kind)
    if isinstance(g.lineage, np.ndarray):
        return g
    table = PairBatch(seq, n, model_kind)
    return Grounding(table, np.arange(table.size), table.triangles())


def _aligned_triangles(table: PairBatch) -> Grounding:
    """The circle table's candidate triangles, walked by ``triangle_blocks``
    and read as columns with the triangles as clauses.  Raises
    OracleValidityError at the first block that holds a triangle outside the
    edge-disjoint family {v, v+n/3, v+2n/3}, so a refusal holds at most one
    block.  Each triangle comes once and the family's rotations are all
    candidates, so no more than n/3 are ever kept."""
    n, step, kept = table.n, table.n // 3, []
    for triples in table.triangle_blocks():
        a, b, c = table.v[triples[:, 0]], table.w[triples[:, 0]], table.w[triples[:, 2]]
        if len(triples) and (n % 3 or ((b - a != step) | (c - b != step) | (a > step)).any()):
            raise OracleValidityError(
                f"a candidate triangle at n={n} is not one of the aligned triples {{v, v+n/3, v+2n/3}}")
        kept.append(triples)
    triples = np.concatenate([np.zeros((0, 3), dtype=np.int64), *kept])
    read = np.unique(triples)
    return Grounding(table, read, np.searchsorted(read, triples))


def exact_triangle_circle(seq: ProbSeq, n: int) -> float:
    """P(circle model on [n] contains a triangle), in closed form.

    Valid only when the positive-probability triangles are exactly the
    edge-disjoint family {v, v+n/3, v+2n/3}: ``_aligned_triangles`` checks
    that, once per (sequence, n) in the sampler's memo, and raises
    OracleValidityError otherwise.  With no candidate triangle the
    probability is exactly 0.
    """
    if n < 3:
        raise EstimatorError("needs n >= 3")
    g = ground(seq, n, CIRCLE, "aligned triangles", _aligned_triangles)
    if not len(g.lineage):
        return 0.0
    step, p = n // 3, float(g.p[0])
    if p >= 1.0:
        return 1.0
    # the aligned triples partition their edges, so counts are binomial
    return -math.expm1(step * math.log1p(-(p**3)))


# Leaves brute force decides one at a time (a sentence's array plan, or a
# predicate on a graph, at about 0.1 ms each) for a target with no lineage
# and no ``rows``.
_ROW_PATH_LEAVES = 1 << 15


def brute_force_probability(seq: ProbSeq, n: int, target: Target, model_kind: str) -> float:
    """Exact probability by enumerating the free edge subsets as pair-table rows.

    The pair table's p = 1 pairs are set in every row (and pairs outside it
    absent); enumeration is over its f remaining pairs, in (v, w) order, and
    guarded at 2^21 subsets.  Leaf i holds free pair j iff bit f-1-j of i is
    0, the leaf order of a recursion that takes each pair before leaving it
    out; weights are multiplied in pair order from 1.0 and the weights that
    hold are added in leaf order, so the value is that recursion's, bit for
    bit.  Blocks of leaves go to the same ``row_decision`` as Monte Carlo:
    targets with a lineage are decided by ``clause_hits``, and a predicate
    with ``rows`` by its row function, so neither builds a graph; any other
    target is refused past ``_ROW_PATH_LEAVES`` leaves.
    """
    if n < 1:
        raise EstimatorError("n must be >= 1")
    batch = PairBatch(seq, n, model_kind)
    by_pair = np.lexsort((batch.w, batch.v))
    free = by_pair[~batch.always[by_pair]]
    f = len(free)
    if f > 21:
        raise BruteForceGuardError(f"{f} free pairs is beyond the 2^21 subset guard")
    g = grounding(seq, n, target, model_kind)
    if 2**f > _ROW_PATH_LEAVES and not (g.kernel or hasattr(target, "rows")):
        raise BruteForceGuardError(f"{2**f} leaves is beyond the bound of {_ROW_PATH_LEAVES} leaves "
                                   "for a target decided leaf by leaf (no lineage and no rows)")
    cells, decide = row_decision(target, g)
    # A leaf holds ~8 words (index, weight, their temporaries) and a byte per
    # cell of its row, its read columns and the decision.  Blocks of
    # CELL_BUDGET // 64 words (256 KB) add no measurable peak RSS.
    block = max(1, CELL_BUDGET // 64 // (8 + (len(batch.v) + len(g.read) + cells + 7) // 8))
    total = 0.0
    for lo in range(0, 2**f, block):
        leaf = np.arange(lo, min(lo + block, 2**f), dtype=np.int64)
        rows = np.repeat(batch.always[None, :], len(leaf), axis=0)
        weight = np.ones(len(leaf))
        for j, (column, p) in enumerate(zip(free.tolist(), batch.p[free].tolist())):
            present = (leaf >> (f - 1 - j)) & 1 == 0
            rows[:, column] = present
            weight *= np.where(present, p, 1.0 - p)
        total = ordered_sum(weight[decide(rows[:, g.read])], total)
    return total


def exact_result(
    estimate: float, n: int, target: str, model_kind: str, master_seed: int = 0
) -> EstimateResult:
    """Wrap an oracle value in the common result record (trials = 0)."""
    return EstimateResult(
        estimate=estimate,
        ci_low=estimate,
        ci_high=estimate,
        trials=0,
        master_seed=master_seed,
        target=target,
        n=n,
        model_kind=model_kind,
    )


def scan(
    seq: ProbSeq,
    target: Target,
    model_kind: str,
    n_list: Sequence[int],
    trials: int,
    master_seed: int,
) -> list[EstimateResult]:
    """One Monte Carlo estimate per n; streams are independent per (n, trial)."""
    if not n_list:
        raise EstimatorError("n_list must be nonempty")
    return [
        mc_probability(seq, n, target, model_kind, trials, master_seed)
        for n in n_list
    ]


CSV_HEADER = "n,estimate,ci_low,ci_high,trials,master_seed,target,model_kind"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def results_to_csv(results: Sequence[EstimateResult]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in results:
        buf.write(
            f"{r.n},{_fmt(r.estimate)},{_fmt(r.ci_low)},{_fmt(r.ci_high)},"
            f"{r.trials},{r.master_seed},{r.target},{r.model_kind}\n"
        )
    return buf.getvalue()
