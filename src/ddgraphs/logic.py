"""First-order formulas over graph vocabularies, with a text parser and a
model checker.

Vocabularies (all include adjacency and equality):

  L        plain graphs on the line
  L_PLUS   + successor, constants ``first``/``last``
  L_LE     + linear order <=
  LC       plain graphs on the circle
  LC_PLUS  + circular successor (w = v+1 mod n)
  LC_LE    + ternary clockwise-betweenness C(a, b, c)

Interpretations are derived from the vertex numbering, so a model is just a
graph plus a vocabulary tag.  ``compile_sentence`` turns a sentence once into
an array plan over the model's adjacency matrix, bounded-variable evaluation
as relational algebra; its docstring states the plan's rules.

Text grammar (whitespace insignificant; the tables ``_ATOMS``, ``_BINARY``
and ``_QUANTIFIERS`` hold its words, and ``_children`` its tree shapes)::

    formula := ("forall"|"exists") VAR "." formula | imp
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := neg ("&" neg)*
    neg     := "!" neg | "(" formula ")" | atom
    atom    := "adj(" t "," t ")" | "succ(" t "," t ")" | t "<=" t
             | "C(" t "," t "," t ")" | t "=" t
    t       := VAR | "first" | "last"
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, combinations
from operator import attrgetter

import numpy as np

from . import sampler
from .graph import Graph, cw_holds


class Vocab(str, Enum):
    L = "L"
    L_PLUS = "L_PLUS"
    L_LE = "L_LE"
    LC = "LC"
    LC_PLUS = "LC_PLUS"
    LC_LE = "LC_LE"

    @property
    def circular(self) -> bool:
        return self in (Vocab.LC, Vocab.LC_PLUS, Vocab.LC_LE)

    @property
    def has_succ(self) -> bool:
        return self in (Vocab.L_PLUS, Vocab.LC_PLUS)

    @property
    def has_constants(self) -> bool:
        return self is Vocab.L_PLUS

    @property
    def has_le(self) -> bool:
        return self is Vocab.L_LE

    @property
    def has_cw(self) -> bool:
        return self is Vocab.LC_LE


class LogicError(ValueError):
    pass


class FormulaSyntaxError(LogicError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at offset {pos})")


class VocabularyError(LogicError):
    pass


# --- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str  # "first" or "last"


Term = Var | Const


class Atom:
    """An atomic formula; ``terms`` are its fields in order."""

    @property
    def terms(self) -> tuple[Term, ...]:
        return tuple(getattr(self, k) for k in self.__match_args__)


@dataclass(frozen=True)
class Adj(Atom):
    a: Term
    b: Term


@dataclass(frozen=True)
class Succ(Atom):
    a: Term
    b: Term


@dataclass(frozen=True)
class Le(Atom):
    a: Term
    b: Term


@dataclass(frozen=True)
class Cw(Atom):
    a: Term
    b: Term
    c: Term


@dataclass(frozen=True)
class Eq(Atom):
    a: Term
    b: Term


@dataclass(frozen=True)
class Not:
    body: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Implies:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Node"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Node"


Node = Atom | Not | And | Or | Implies | Forall | Exists

# --- grammar tables -------------------------------------------------------------

# Each atom's text template ("name(...)" is prefix, "{} op {}" infix), the
# Vocab flag it needs (None: every vocabulary) and its name in errors.
_ATOMS: dict[type[Atom], tuple[str, str | None, str | None]] = {
    Adj: ("adj({}, {})", None, None),
    Succ: ("succ({}, {})", "has_succ", "succ"),
    Le: ("{} <= {}", "has_le", "<="),
    Cw: ("C({}, {}, {})", "has_cw", "C(...)"),
    Eq: ("{} = {}", None, None),
}
# Binary connectives, loosest first: symbol, and whether it groups to the right.
_BINARY: dict[type, tuple[str, bool]] = {Implies: ("->", True), Or: ("|", False), And: ("&", False)}
_QUANTIFIERS: dict[type, str] = {Forall: "forall", Exists: "exists"}

_PREFIX = {t.split("(")[0]: cls for cls, (t, _, _) in _ATOMS.items() if not t.startswith("{")}
_INFIX = {t.split()[1]: cls for cls, (t, _, _) in _ATOMS.items() if t.startswith("{")}
_CONSTANTS = ("first", "last")
_KEYWORDS = {*_QUANTIFIERS.values(), *_PREFIX, *_CONSTANTS}


def _children(node: Node) -> tuple[Node, ...]:
    match node:
        case Atom():
            return ()
        case Not(body) | Forall(_, body) | Exists(_, body):
            return (body,)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return (l, r)
    raise LogicError(f"unknown node {node!r}")


def _node_depth(node: Node) -> int:
    return (type(node) in _QUANTIFIERS) + max(map(_node_depth, _children(node)), default=0)


def _free_vars(node: Node, bound: frozenset[str]) -> set[str]:
    if isinstance(node, Atom):
        return {t.name for t in node.terms if isinstance(t, Var) and t.name not in bound}
    if type(node) in _QUANTIFIERS:
        bound = bound | {node.var}
    return set().union(*(_free_vars(c, bound) for c in _children(node)))


def _check_vocab(node: Node, vocab: Vocab) -> None:
    if isinstance(node, Atom):
        _, flag, name = _ATOMS[type(node)]
        if flag and not getattr(vocab, flag):
            raise VocabularyError(f"{name} not available in {vocab.value}")
        for t in node.terms:
            if isinstance(t, Const) and not vocab.has_constants:
                raise VocabularyError(f"constant {t.name!r} not available in {vocab.value}")
    for c in _children(node):
        _check_vocab(c, vocab)


@dataclass(frozen=True)
class Formula:
    """A vocabulary-tagged formula; use :func:`parse` or :func:`library`."""

    root: Node
    vocab: Vocab
    name: str = "formula"

    def __post_init__(self):
        _check_vocab(self.root, self.vocab)

    @cached_property
    def depth(self) -> int:
        return _node_depth(self.root)

    @cached_property
    def free_variables(self) -> frozenset[str]:
        return frozenset(_free_vars(self.root, frozenset()))

    @property
    def is_sentence(self) -> bool:
        return not self.free_variables

    @cached_property
    def _checker(self) -> Callable[[np.ndarray], bool]:
        return compile_sentence(self)

    @cached_property
    def _hash(self) -> int:
        return hash((self.root, self.vocab, self.name))

    def __hash__(self):  # walks the tree once, not on every memo probe
        return self._hash

    def __getstate__(self):
        # the checker and the hash (string hashes vary by process) are rebuilt, not pickled
        return {k: v for k, v in self.__dict__.items() if k not in ("_checker", "_hash")}

    def __str__(self):
        return to_text(self)


# --- parser -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(->|<=|[().,|&!=]|[A-Za-z_][A-Za-z0-9_]*)|\Z)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """``(text, offset)`` pairs, ending with ``("", len(text))``."""
    tokens, pos = [], 0
    while m := _TOKEN_RE.match(text, pos):
        if not m.group(1):
            return tokens + [("", len(text))]
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    raise FormulaSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def take(self) -> tuple[str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        v, pos = self.take()
        if v != want:
            raise FormulaSyntaxError(f"expected {want!r}, found {v!r}", pos)

    def formula(self) -> Node:
        quant = {word: cls for cls, word in _QUANTIFIERS.items()}.get(self.peek())
        if quant is None:
            return self.binary(0)
        self.take()
        name, pos = self.take()
        if not name.isidentifier() or name in _KEYWORDS:
            raise FormulaSyntaxError(f"bad variable name {name!r}", pos)
        self.expect(".")
        return quant(name, self.formula())

    def binary(self, level: int) -> Node:
        if level == len(_BINARY):
            return self.neg()
        cls, (op, right) = list(_BINARY.items())[level]
        node = self.binary(level + 1)
        while self.peek() == op:
            self.take()
            if right:
                return cls(node, self.binary(level))
            node = cls(node, self.binary(level + 1))
        return node

    def neg(self) -> Node:
        if self.peek() == "!":
            self.take()
            return Not(self.neg())
        if self.peek() == "(":
            self.take()
            node = self.formula()
            self.expect(")")
            return node
        return self.atom()

    def term(self) -> Term:
        v, pos = self.take()
        if not v.isidentifier():
            raise FormulaSyntaxError(f"expected a term, found {v!r}", pos)
        if v in _CONSTANTS:
            return Const(v)
        if v in _KEYWORDS:
            raise FormulaSyntaxError(f"keyword {v!r} is not a term", pos)
        return Var(v)

    def atom(self) -> Node:
        cls = _PREFIX.get(self.peek())
        if cls is not None:
            self.take()
            self.expect("(")
            terms = [self.term()]
            while len(terms) < len(cls.__match_args__):
                self.expect(",")
                terms.append(self.term())
            self.expect(")")
            return cls(*terms)
        a = self.term()
        op, pos = self.take()
        if op not in _INFIX:
            ops = " or ".join(map(repr, _INFIX))
            raise FormulaSyntaxError(f"expected {ops} after term, found {op!r}", pos)
        return _INFIX[op](a, self.term())


def parse(text: str, vocab: Vocab) -> Formula:
    """Parse a formula; raises positioned syntax errors, vocabulary errors
    for atoms the tag does not permit, and rejects unbound variables."""
    p = _Parser(text)
    root = p.formula()
    v, pos = p.take()
    if v:
        raise FormulaSyntaxError(f"trailing input {v!r}", pos)
    f = Formula(root, vocab)
    if f.free_variables:
        raise LogicError(f"unbound variable(s): {', '.join(sorted(f.free_variables))}")
    return f


def _node_text(node: Node, parent_prec: int) -> str:
    # precedence: quantifiers 0, the _BINARY rows 1, 2, ... loosest first,
    # then negation, then atoms
    kind, kids, neg_prec = type(node), _children(node), len(_BINARY) + 1
    if isinstance(node, Atom):
        s, prec = _ATOMS[kind][0].format(*(t.name for t in node.terms)), neg_prec + 1
    elif kind in _BINARY:
        (op, right), prec = _BINARY[kind], list(_BINARY).index(kind) + 1
        s = f"{_node_text(kids[0], prec + right)} {op} {_node_text(kids[1], prec + (not right))}"
    elif kind in _QUANTIFIERS:
        s, prec = f"{_QUANTIFIERS[kind]} {node.var}. {_node_text(kids[0], 0)}", 0
    else:
        s, prec = f"!{_node_text(kids[0], neg_prec)}", neg_prec
    return f"({s})" if prec < parent_prec else s


def to_text(f: Formula) -> str:
    """Grammar-conformant text; ``parse(to_text(f), f.vocab)`` rebuilds an
    equal AST."""
    return _node_text(f.root, 0)


# --- models and satisfaction ---------------------------------------------------


class CheckerBudgetError(sampler.BudgetError):
    """One slice of a model-checking array exceeds ``sampler.CELL_BUDGET``."""

    unit = "cells in one slice"


EQ_BIT, ADJ_BIT, SUCC_BIT, SUCC_BACK_BIT, LE_BIT = range(5)  # of LabeledModel.atoms


@dataclass(frozen=True)
class LabeledModel:
    """A graph with interpretations fixed by its vertex numbering."""

    graph: Graph
    vocab: Vocab

    @property
    def n(self) -> int:
        return self.graph.n

    def succ(self, v: int, w: int) -> bool:
        if self.vocab.circular:
            return w == v % self.n + 1
        return w == v + 1

    def constant(self, name: str) -> int:
        return 1 if name == "first" else self.n

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The (n, n) boolean adjacency matrix: entry [v - 1, w - 1] is adj(v, w)."""
        edges = self.graph.edges
        v, w = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges)).reshape(-1, 2).T - 1
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[v, w] = adj[w, v] = True
        return adj

    @cached_property
    def atoms(self) -> np.ndarray:
        """The binary atoms as an (n+1, n+1) uint8 table.  Entry [x, a]
        packs a = x, adj(a, x), succ(a, x) and succ(x, a) (with successor)
        and a <= x (with order) at the bit positions named above; row and
        column 0 are zero.  Pairs (a, b) and (x, y) of picks agree on every
        binary atom iff ``m1.atoms[x, a] == m2.atoms[y, b]``."""
        n = self.n
        x, a = np.arange(1, n + 1)[:, None], np.arange(1, n + 1)[None, :]
        bits = ((x == a) << EQ_BIT) | (self.adjacency << ADJ_BIT)
        if self.vocab.has_succ:
            # succ(v, w) iff w = v % period + 1: v + 1 on the line, wrapping on the circle
            period = n if self.vocab.circular else n + 1
            bits |= ((x == a % period + 1) << SUCC_BIT) | ((a == x % period + 1) << SUCC_BACK_BIT)
        if self.vocab.has_le:
            bits |= (a <= x) << LE_BIT
        table = np.zeros((n + 1, n + 1), dtype=np.uint8)
        table[1:, 1:] = bits
        return table


def holds(m: LabeledModel, f: Formula) -> bool:
    """Satisfaction of a sentence: ``compile_sentence(f)``, built once per
    formula, run on ``m.adjacency``."""
    if f.vocab is not m.vocab:
        raise VocabularyError(f"model vocabulary {m.vocab.value} != formula {f.vocab.value}")
    return f._checker(m.adjacency)


# A plan step maps a run to a uint8 truth array: level d on axis ``_Run.ax[d]``, size 1 where
# unread.  Not bool: numpy's boolean loops run an operand that is constant over the trailing
# axes one cell at a time, so (2, 90, 90, 90) & (2, 90, 1, 1) is over 20 times slower as bools.
Step = Callable[["_Run"], np.ndarray]


class _Run:
    """One run of a plan: the adjacency; per quantifier level d its axis, its vertex
    indices and their number before any slicing; and the arrays made once per run."""

    def __init__(self, adj: np.ndarray, circular: bool, lines: list[tuple[int, ...]]):
        n, ndim = len(adj), len(lines)
        self.adj, self.n, self.ndim, self.lines = adj.view(np.uint8), n, ndim, lines
        self.period, self.every = n if circular else n + 1, np.arange(n)
        self.ax, self.memo = list(range(ndim - 1, -1, -1)), {}
        self.dom, self.size = [None] * ndim, [0] * ndim
        self.small = n ** ndim <= sampler.CELL_BUDGET  # an array spans at most n cells a level

    def along(self, d: int, values: np.ndarray) -> np.ndarray:
        return values.reshape(self.lines[self.ax[d]])


# Each atom on term arrays of 0-based vertex indices (constants are scalars).
_ATOM_ARRAYS: dict[type[Atom], Callable[..., np.ndarray]] = {
    Adj: lambda r, a, b: r.adj[a, b],
    Succ: lambda r, a, b: b == (a + 1) % r.period,
    Le: lambda r, a, b: a <= b,
    Cw: lambda r, a, b, c: cw_holds(a, b, c),
    Eq: lambda r, a, b: a == b,
}


def compile_sentence(f: Formula) -> Callable[[np.ndarray], bool]:
    """``f`` compiled once into an array plan, as a check of an (n, n)
    boolean adjacency matrix read in ``f.vocab``.

    Every subformula evaluates to a uint8 truth array with one axis per quantifier level,
    of size 1 on the axes it does not read.  Level d of a depth-D sentence owns axis
    D - 1 - d, so the innermost level leads and ``exists`` and ``forall`` reduce along a
    leading axis, many times faster in numpy than along the last.  Atoms index the
    adjacency or compare vertex indices (``first`` and ``last`` are fixed); connectives are
    broadcast ops that skip their right side once the left decides the whole array.

    Guards are relativized: in ``forall v. (G -> B)`` and ``exists v. (G & B)`` the
    conjuncts of G that read only v and constants choose v's range (an empty range makes
    ``exists`` false and ``forall`` true), and those that do not read v move outside.

    An ``exists w`` whose other conjuncts span w and two or more other levels is counted
    when each is a factor over w and at most one other level, a disequality ``!(w = t)``
    or a counted ``exists`` (exists z. P & exists w. Q is exists z, w. P & Q: a chain
    multiplies its counts and tests > 0 at its top).  Summing out w multiplies the factors
    over w, those over one other level grouped (``!adj(v, x) & !(v = x)`` is J - I - A),
    by a matrix product where two other levels remain; a ``!(w = t)`` with t not among
    them is expanded first, into the count less the count at w = t.  Counts are made once
    per run, exact: float32 where none can reach 2^24, else float64 (below 2^53), else
    integers.  A witness over three other levels (``exists w. adj(a, w) & adj(b, w) &
    adj(c, w)``) keeps the array plan.

    An array past ``sampler.CELL_BUDGET`` cells is made in slices of its leading axis (its
    innermost level) when one fits, else of its outermost level's axis.
    ``CheckerBudgetError`` is raised when one slice of the outermost level would still not
    fit, counted at the ranges' unsliced sizes, whatever the enclosing slices.
    """
    if not f.is_sentence:
        raise LogicError(f"free variable(s): {', '.join(sorted(f.free_variables))}")
    root, _ = _plan(f.root, {}, 0)
    circular, depth = f.vocab.circular, f.depth
    lines = [tuple(-1 if i == a else 1 for i in range(depth)) for a in range(depth)]  # 1-D along each axis
    return lambda adj: bool(root(_Run(adj, circular, lines)))


Planned = tuple[Step, frozenset[int]]  # a step and the levels it reads


def _plan(node: Node, scope: dict[str, int], level: int) -> Planned:
    """``node``'s step, with ``level`` the next quantifier's level."""
    match node:
        case Adj(Var(a), Var(b)) if scope[a] != scope[b]:
            a, b = sorted((scope[a], scope[b]))  # adj is symmetric: rows along b, whose axis leads
            return (lambda r: _gather(r.adj, b, a, r)), frozenset((a, b))
        case Atom():
            op, terms = _ATOM_ARRAYS[type(node)], [_term(t, scope) for t in node.terms]
            return (lambda r: op(r, *(t(r) for t in terms)).view(np.uint8),
                    frozenset(scope[t.name] for t in node.terms if isinstance(t, Var)))
        case Not(Eq(a, b)):  # one compare, not a compare and a flip
            ta, tb = _term(a, scope), _term(b, scope)
            return (lambda r: (ta(r) != tb(r)).view(np.uint8)), _plan(node.body, scope, level)[1]
        case Not(body):
            p, levels = _plan(body, scope, level)
            return (lambda r: p(r) ^ 1), levels
        case And():
            return _all_of([_plan(c, scope, level) for c in _conjuncts(node)])
        case Or(l, r):
            (p, pa), (q, qa) = _plan(l, scope, level), _plan(r, scope, level)
            return (lambda run: x if np.count_nonzero(x := p(run)) == x.size else x | q(run)), pa | qa
        case Implies(l, r):
            return _implies(_plan(l, scope, level), _plan(r, scope, level))
        case Forall() | Exists():
            return _quantifier(node, scope, level)
    raise LogicError(f"unknown node {node!r}")


def _gather(m: np.ndarray, a: int, b: int, r: _Run) -> np.ndarray:
    """The vertex-indexed (n, n) matrix ``m`` at levels a (rows) and b, as a C-ordered block
    (broadcasts with transposed operands run several times slower)."""
    pa, pb = r.ax[a], r.ax[b]
    m = _block(m, a, b, r)
    if pa > pb:
        m, pa, pb = np.ascontiguousarray(m.T), pb, pa
    shape = [1] * r.ndim
    shape[pa], shape[pb] = m.shape
    return m.reshape(shape)


def _block(m: np.ndarray, a: int, b: int, r: _Run) -> np.ndarray:
    """``m``'s rows at level a's vertices and columns at level b's."""
    rows, cols, n, every = r.dom[a], r.dom[b], r.n, r.every  # every vertex in order: m itself
    m = m if rows.size == n and rows.base is every else m[rows.ravel()]
    return m if cols.size == n and cols.base is every else m[:, cols.ravel()]


def _term(t: Term, scope: dict[str, int]) -> Step:
    if isinstance(t, Var):
        a = scope[t.name]
        return lambda r: r.dom[a]
    return (lambda r: np.intp(0)) if t.name == "first" else (lambda r: np.intp(r.n - 1))


def _conjuncts(node: Node) -> list[Node]:
    return _conjuncts(node.left) + _conjuncts(node.right) if isinstance(node, And) else [node]


def _all_of(parts: list[Planned]) -> Planned:
    """The conjunction of ``parts`` (true if none), stopping once it is false
    everywhere."""
    if not parts:
        return (lambda r: np.uint8(1)), frozenset()
    steps = [s for s, _ in parts]

    def step(r: _Run) -> np.ndarray:
        acc = steps[0](r)
        for i, s in enumerate(steps[1:]):
            if not np.count_nonzero(acc):
                break
            y = s(r)
            # past the first op acc is this step's own array, reused when it spans the result
            into = i > 0 and acc.ndim and all(p >= q for p, q in zip(acc.shape, y.shape))
            acc = np.bitwise_and(acc, y, out=acc if into else None)
        return acc

    levels = frozenset().union(*(a for _, a in parts))
    return (steps[0] if len(steps) == 1 else step), levels


def _implies(left: Planned, right: Planned) -> Planned:
    (p, pa), (q, qa) = left, right
    return (lambda r: x ^ 1 if not np.count_nonzero(x := p(r)) else (x ^ 1) | q(r)), pa | qa


def _quantifier(node: Forall | Exists, scope: dict[str, int], d: int) -> Planned:
    forall, inner = isinstance(node, Forall), {**scope, node.var: d}
    if not forall:
        guards, tail = _conjuncts(node.body), None
    elif isinstance(node.body, Implies):
        guards, tail = _conjuncts(node.body.left), node.body.right
    else:
        guards, tail = [], node.body
    planned = [(g, *_plan(g, inner, d + 1)) for g in guards]
    ranged = [(s, a) for _, s, a in planned if a <= {d}]  # read only v and constants
    outside = [(s, a) for _, s, a in planned if a and d not in a]
    rest = [(g, s, a) for g, s, a in planned if d in a and a != {d}]
    range_of = _all_of(ranged)[0] if ranged else None
    body = _all_of([(s, a) for _, s, a in rest])
    if forall:
        then = _plan(tail, inner, d + 1)
        body = _implies(body, then) if rest else then
    # a body over w and one other level spans n^2 cells either way
    counted = None if forall or len(frozenset().union(*(a for _, _, a in rest))) < 3 else _counted(rest, range_of, d)
    reduced = counted[0] if counted else _reduced(body, d, forall)
    sliced, span = _sliced(*reduced, d, forall), reduced[1]

    def step(r: _Run) -> np.ndarray:
        dom = r.every
        if range_of is not None:
            r.dom[d] = r.along(d, dom)
            dom = dom[np.broadcast_to(range_of(r), r.dom[d].shape).ravel().view(np.bool_)]
        if not len(dom):
            return np.uint8(forall)
        r.dom[d], r.size[d] = dom.reshape(r.lines[r.ax[d]]), len(dom)
        return sliced(r)

    if counted:  # the count reads w's range itself
        step, step.terms = sliced, counted[1]  # an enclosing count multiplies these terms in
    if not outside:
        return step, span - {d}
    # forall v. (P & G -> B) is P -> forall v. (G -> B); exists v. (P & B) is P & exists v. B
    wrap = _implies if forall else lambda o, q: _all_of([o, q])
    return wrap(_all_of(outside), (step, span - {d}))


def _reduced(body: Planned, d: int, forall: bool) -> Planned:
    """``body`` reduced along level d by ``all`` or ``any``, with the levels it spans."""
    b = body[0]

    def step(r: _Run) -> np.ndarray:
        x, a = b(r), r.ax[d]
        if x.ndim == 0 or x.shape[a] == 1:  # x does not vary along d
            return x
        return (np.bitwise_and if forall else np.bitwise_or).reduce(x, axis=a, keepdims=True)

    return step, body[1]


# A factor of a count is (the levels it reads, at most two; a maker of a run's vertex-indexed array
# over them, an axis of n per level in that order; e, where its entries are at most n^e, 0 for 0/1).


def _once(make: Callable[[_Run], np.ndarray]) -> Callable[[_Run], np.ndarray]:
    def get(r: _Run) -> np.ndarray:  # made at most once per run
        if (x := r.memo.get(get)) is None:
            x = r.memo[get] = make(r)
        return x

    return get


_adjacency, _unequal = attrgetter("adj"), _once(lambda r: np.not_equal.outer(r.every, r.every))  # !(v = w): J - I


def _counted(rest: list[tuple[Node, Step, frozenset[int]]], range_of: Step | None, d: int) -> tuple | None:
    """``exists w`` counted (see ``compile_sentence``): a step testing its count of witnesses for > 0,
    and the count's signed products of factors.  None for a body the rule does not take."""
    terms = [(1, () if range_of is None else (((d,), _once(lambda r: _every(range_of, (d,), r)), 0),))]
    for node, s, levels in rest:
        if (inner := getattr(s, "terms", None)) is not None:  # a counted exists multiplies in
            terms = [(c * k, fs + gs) for c, fs in terms for k, gs in inner]
        elif len(levels) > 2:
            return None
        else:
            lv = tuple(sorted(levels, reverse=True))  # the axis order of _every
            make = _unequal if isinstance(node, Not) and isinstance(node.body, Eq) else _adjacency \
                if isinstance(node, Adj) else _once(lambda r, s=s, lv=lv: _every(s, lv, r))
            terms = [(c, fs + ((lv, make, 0),)) for c, fs in terms]
    return None if (terms := _eliminate(terms, d)) is None else (_tested(terms), terms)


def _every(s: Step, levels: tuple[int, ...], r: _Run) -> np.ndarray:
    """``s`` at every vertex of ``levels`` (descending), as a vertex-indexed array."""
    kept = [(r.dom[a], r.size[a]) for a in levels]
    for a in levels:
        r.dom[a], r.size[a] = r.along(a, r.every), r.n
    x = np.broadcast_to(s(r), np.broadcast_shapes(*(r.dom[a].shape for a in levels)))
    for a, k in zip(levels, kept):
        r.dom[a], r.size[a] = k
    return x.reshape((r.n,) * len(levels))


def _eliminate(terms: list[tuple], w: int) -> list[tuple] | None:
    """The terms summed over w, each term's factors over w made one (``_summed``) once each ``!(w = t)``
    with t not among their other levels is expanded into the term without it less the term at w = t.
    None where a term's factors over w read three other levels."""
    out, todo = [], list(terms)
    while todo:
        c, fs = todo.pop()
        mine = [f for f in fs if w in f[0]]
        other = sorted({a for lv, make, _ in mine if make is not _unequal for a in lv} - {w}, reverse=True)
        loose = next((f for f in mine if f[1] is _unequal and not set(f[0]) <= {w, *other}), None)
        if loose is None:
            if len(other) > 2:
                return None
            out.append((c, tuple(f for f in fs if w not in f[0]) + (_summed(mine, w, other),)))
            continue
        todo.append((c, fs := tuple(f for f in fs if f is not loose)))
        t = sum(loose[0]) - w  # no other factor reads w and t, so at w = t only a !(t = t) (then 0) does
        at = tuple((tuple(t if a == w else a for a in lv), make, e) for lv, make, e in fs)
        if all(lv != (t, t) for lv, _, _ in at):
            out.append((-c, at))
    return out


def _summed(mine: list[tuple], w: int, other: list[int]) -> tuple:
    """The sum over w of the product of ``mine``: a factor over ``other`` (a matrix product for two)."""
    e = 1 + sum(f[2] for f in mine)
    left = _product([f for f in mine if not other[1:] or other[1] not in f[0]], (*other[:1], w))
    right = _product([f for f in mine if other[1:] and other[1] in f[0]], (w, *other[1:]))

    def make(r: _Run) -> np.ndarray:
        m = left(r, dtype := _exact(r.n ** e))
        return _count(m, right(r, dtype)) if other[1:] else m.sum(-1)

    return tuple(other), _once(make), e


def _product(fs: list[tuple], key: tuple[int, ...]) -> Callable:
    """A maker of ``fs``' product as a read-only vertex-indexed array over ``key`` (0/1 factors once)."""
    plan, seen = [], set()
    for lv, make, e in fs:
        symmetric = make in (_adjacency, _unequal)
        if e or (same := (make, frozenset(lv) if symmetric else lv)) not in seen:
            seen.add(None if e else same)
            shape = ((-1, 1) if lv[0] == key[0] else (1, -1)) if len(lv) == 1 < len(key) else None
            plan.append((make, len(lv) == 2 and lv[0] != key[0] and not symmetric, shape))
    full = {a for lv, _, _ in fs for a in lv} == set(key)

    def made(r: _Run, dtype: type) -> np.ndarray:
        acc = None
        for make, flip, shape in plan:
            if (x := r.memo.get((make, dtype))) is None:  # cast once: a mixed op runs a cast loop too
                x = r.memo[make, dtype] = x if (x := make(r)).dtype.type is dtype else x.astype(dtype)
            x = x.T if flip else x if shape is None else x.reshape(shape)
            acc = x if acc is None else acc * x
        return acc if full else np.broadcast_to(np.ones((), dtype) if acc is None else acc, (r.n,) * len(key))

    return made


def _exact(bound: int) -> type:  # the narrowest type that holds every integer up to bound
    return np.float32 if bound < 1 << 24 else np.float64 if bound < 1 << 53 else np.int64 if bound < 1 << 63 else object


def _tested(terms: list[tuple]) -> Planned:
    """The step testing the sum of ``terms`` (signed 1 or -1) for > 0: made once per run over at
    most two levels, else with each factor placed at the current ranges."""
    levels = tuple(sorted({a for _, fs in terms for f in fs for a in f[0]}, reverse=True))  # laid as gathered
    e, wide = max((sum(f[2] for f in fs) for _, fs in terms), default=0), len(levels) > 2
    sums = [(c, _product(fs, levels)) for c, fs in terms if not wide]

    def place(x: np.ndarray, lv: tuple[int, ...], r: _Run) -> np.ndarray:  # at the current ranges
        return _gather(x, *lv, r) if len(lv) == 2 else x[r.dom[lv[0]]] if lv else x

    @_once
    def made(r: _Run):
        dtype = _exact(len(terms) * r.n ** e)
        if wide:
            return [(np.array(c, dtype), [(lv, make(r)) for lv, make, _ in fs]) for c, fs in terms]
        total = 0
        for c, p in sums:
            total = total + p(r, dtype) if c > 0 else total - p(r, dtype)
        return (total > 0).view(np.uint8)

    def step(r: _Run) -> np.ndarray:
        x = made(r)
        if not wide:
            return place(x, levels, r)
        return (sum(math.prod((place(y, lv, r) for lv, y in fs), start=c) for c, fs in x) > 0).view(np.uint8)

    return step, frozenset(levels)


# OpenBLAS spreads a product of more than 2^18 multiply-adds over all its
# threads; on a shared two-core host that made a 400 x 400 x 13 product about
# 60 times slower than on one thread, so products are taken in blocks.
_PRODUCT_BLOCK = 1 << 18


def _count(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Two count arrays' product, exact in their type, by ``np.dot`` (``@`` ran float32 ~90x slower)."""
    inner, width = m2.shape
    rows = _PRODUCT_BLOCK // max(1, inner * width)
    if rows >= len(m1):
        return np.dot(m1, m2)
    # blocks of fewer rows run as matrix-vector products, 4x slower at 400^3: cut the columns too
    rows = max(rows, 32)
    cols = max(1, _PRODUCT_BLOCK // (inner * rows))
    out = np.empty((len(m1), width), dtype=m1.dtype)
    for j in range(0, width, cols):
        block = np.ascontiguousarray(m2[:, j:j + cols])
        for i in range(0, len(m1), rows):
            out[i:i + rows, j:j + cols] = np.dot(m1[i:i + rows], block)
    return out


def _sliced(step: Step, span: frozenset[int], d: int, forall: bool) -> Step:
    """``step``, whose largest array spans the levels ``span``, run on slices when that array
    would exceed ``sampler.CELL_BUDGET`` cells: slices of the leading axis (the innermost level
    of ``span``) when one of them fits, else of the outermost level's axis.  ``CheckerBudgetError``
    when one slice of the outermost level would not fit at the unsliced range sizes.  Slices of d
    itself are folded into one output by ``and`` or ``or`` as each is made, others concatenated."""
    order, out = sorted(span), span - {d}

    def run(r: _Run) -> np.ndarray:
        budget = sampler.CELL_BUDGET
        if r.small:  # no array can pass the budget, nor any slice be refused
            return step(r)
        per = math.prod(r.size[a] for a in order[1:])
        if per > budget:
            raise CheckerBudgetError(per, budget)
        cells = math.prod(r.dom[a].size for a in order)
        if cells <= budget:
            return step(r)
        a = order[-1] if cells // r.dom[order[-1]].size <= budget else order[0]
        whole, axis = r.dom[a], r.ax[a]
        values, rows, parts, acc = whole.ravel(), budget // (cells // whole.size), [], None
        for lo in range(0, len(values), rows):
            r.dom[a] = r.along(a, values[lo:lo + rows])
            # the output's shape: each axis as long as the levels of out on it
            part = np.broadcast_to(step(r), np.broadcast_shapes((1,) * r.ndim, *(r.dom[i].shape for i in out)))
            if a != d:
                parts.append(part)
            elif acc is None:
                acc = part.copy()
            else:  # folded as made: one slice and one output live, not every slice
                (np.bitwise_and if forall else np.bitwise_or)(acc, part, out=acc)
        r.dom[a] = whole
        return acc if a == d else np.concatenate(parts, axis=axis)

    return run


# --- sentence library -----------------------------------------------------------


def _extension_text(k: int) -> str:
    # A_k: every k-set of distinct vertices is extended in all 2^k adjacency
    # patterns by some witness outside the set
    if k < 1:
        raise LogicError("extension_Ak needs k >= 1")
    xs = [f"x{i}" for i in range(1, k + 1)]
    patterns = " & ".join(
        "(exists v. " + " & ".join(f"adj(v, {x})" if mask >> i & 1 else f"(!adj(v, {x}) & !(v = {x}))"
                                   for i, x in enumerate(xs)) + ")"
        for mask in range(2**k))
    distinct = " & ".join(f"!({a} = {b})" for a, b in combinations(xs, 2))
    return "".join(f"forall {x}. " for x in xs) + (f"{distinct} -> {patterns}" if distinct else patterns)


_LIBRARY: dict[str, Callable[..., tuple[str, Vocab]]] = {
    # the two endpoint constants joined through one midpoint
    "path2": lambda: ("exists m. adj(first, m) & adj(m, last)", Vocab.L_PLUS),
    # any two distinct neighbours of `first` joined by a length-4 walk that
    # avoids `first`; interior points may repeat (documented reading).
    # Guards sit at their own quantifier level so the checker prunes early.
    "ex2_path4": lambda: ("forall x. adj(first, x) -> (forall y. adj(first, y) & !(y = x) ->"
                          " (exists z1. adj(x, z1) & !(z1 = first) &"
                          " (exists z2. adj(z1, z2) & !(z2 = first) &"
                          " (exists z3. adj(z2, z3) & !(z3 = first) & adj(z3, y)))))", Vocab.L_PLUS),
    "triangle": lambda vocab=Vocab.L: (
        "exists x. exists y. adj(x, y) & (exists z. adj(y, z) & adj(z, x))", vocab),
    "edge_in_c4": lambda: ("forall x. forall y. adj(x, y) -> (exists z. adj(y, z) & !(z = x) &"
                           " (exists w. adj(z, w) & adj(w, x) & !(w = y)))", Vocab.L),
    "adj_first_last": lambda: ("adj(first, last)", Vocab.L_PLUS),
    "extension_Ak": lambda k: (_extension_text(k), Vocab.L),
}


def library(name: str, **params) -> Formula:
    """Named sentences used across the experiments, parsed from their text.

    ``triangle`` accepts an optional ``vocab``; ``extension_Ak`` requires
    ``k``; other entries take no parameters.
    """
    if name not in _LIBRARY:
        raise LogicError(f"unknown library sentence {name!r}")
    text, vocab = _LIBRARY[name](**params)
    return Formula(parse(text, vocab).root, vocab, f"{name}_{params['k']}" if "k" in params else name)


def library_sentences(max_depth: int | None = None, vocab: Vocab | None = None) -> list[Formula]:
    """All library sentences (extension family at k = 1, 2), optionally
    filtered by depth and vocabulary."""
    out = [library(name) for name in _LIBRARY if name != "extension_Ak"]
    out += [library("extension_Ak", k=k) for k in (1, 2)]
    if vocab is not None:
        out = [f for f in out if f.vocab is vocab]
    if max_depth is not None:
        out = [f for f in out if f.depth <= max_depth]
    return out
