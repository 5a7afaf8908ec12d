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
as relational algebra: one axis per quantifier level (the innermost level
leads, so quantifiers reduce along the leading axis), guards that narrow an
axis's range, matrix products in place of innermost witnesses, and slices
that keep every array within ``sampler.CELL_BUDGET`` cells.

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


# A plan step maps a run to a boolean array with one axis per quantifier
# level, level d on axis ndim - 1 - d (the innermost level leads), of size 1
# on every axis the subformula does not read.
Step = Callable[["_Run"], np.ndarray]


class _Run:
    """One run of a plan: the model's adjacency, and per quantifier level the
    vertex indices it ranges over, shaped to lie along its axis, and their
    number before any slicing."""

    def __init__(self, adj: np.ndarray, circular: bool, ndim: int):
        n = len(adj)
        self.adj, self.n, self.ndim = adj, n, ndim
        self.period = n if circular else n + 1
        self.first, self.last = np.intp(0), np.intp(n - 1)
        self.every = np.arange(n)
        self.dom: list[np.ndarray | None] = [None] * ndim
        self.size = [0] * ndim

    def axis(self, d: int) -> int:
        return self.ndim - 1 - d

    def along(self, d: int, values: np.ndarray) -> np.ndarray:
        a = self.axis(d)
        return values.reshape([-1 if i == a else 1 for i in range(self.ndim)])


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

    The quantifier at nesting level d of a depth-D sentence owns axis
    D - 1 - d, so the innermost level leads, and every subformula evaluates
    to a boolean array of size 1 on the axes it does not read: atoms index
    the adjacency matrix or compare vertex indices (``first`` and ``last``
    are fixed indices), connectives are broadcast elementwise ops, ``exists``
    is ``any`` and ``forall`` is ``all`` along the quantifier's axis (numpy
    reduces along a leading axis many times faster than along the last).
    Connectives skip their right side once the left decides the whole array.

    Guards are relativized: in ``forall v. (G -> B)`` and ``exists v. (G & B)``
    the conjuncts of G that read only v and constants choose the vertices v's
    axis ranges over (an empty range makes ``exists`` false and ``forall``
    true), and the conjuncts that do not read v move outside the quantifier.

    An ``exists w`` whose remaining conjuncts are two subformulas, over w and
    u1 and over w and u2 (u1 != u2), and at most one ``!(w = t)`` with t
    neither of them, is contracted before it is materialized: a matrix
    product counts the witnesses of the two, and the witness w = t is
    subtracted, so the array never spans w.

    No array spans more than ``sampler.CELL_BUDGET`` cells: a quantifier whose
    array would is evaluated in slices of the leading axis (its innermost
    level) when one slice of it fits, else of its outermost level's axis.
    ``CheckerBudgetError`` is raised when one slice of the outermost level
    would still exceed the budget, counted at the ranges' unsliced sizes, so
    the refusal does not depend on how enclosing quantifiers were sliced.
    """
    if not f.is_sentence:
        raise LogicError(f"free variable(s): {', '.join(sorted(f.free_variables))}")
    root, _ = _plan(f.root, {}, 0)
    circular, ndim = f.vocab.circular, f.depth
    return lambda adj: bool(root(_Run(adj, circular, ndim)))


Planned = tuple[Step, frozenset[int]]  # a step and the levels it reads


def _plan(node: Node, scope: dict[str, int], level: int) -> Planned:
    match node:
        case Adj(Var(a), Var(b)) if scope[a] != scope[b]:
            return (_adjacent(*sorted((scope[a], scope[b]), reverse=True)),
                    frozenset((scope[a], scope[b])))
        case Atom():
            op, terms = _ATOM_ARRAYS[type(node)], [_term(t, scope) for t in node.terms]
            return (lambda r: op(r, *(t(r) for t in terms)),
                    frozenset(scope[t.name] for t in node.terms if isinstance(t, Var)))
        case Not(body):
            p, axes = _plan(body, scope, level)
            return (lambda r: ~p(r)), axes
        case And():
            return _all_of([_plan(c, scope, level) for c in _conjuncts(node)])
        case Or(l, r):
            (p, pa), (q, qa) = _plan(l, scope, level), _plan(r, scope, level)
            return (lambda run: x if (x := p(run)).all() else _or(x, q(run))), pa | qa
        case Implies(l, r):
            return _implies(_plan(l, scope, level), _plan(r, scope, level))
        case Forall() | Exists():
            return _quantifier(node, scope, level)
    raise LogicError(f"unknown node {node!r}")


def _adjacent(a: int, b: int) -> Step:
    """adj between the variables of levels a > b (adj is symmetric, and a's
    axis comes first): the adjacency's rows and columns in their ranges (a
    range as long as n is every vertex)."""
    def step(r: _Run) -> np.ndarray:
        rows, cols = r.dom[a].ravel(), r.dom[b].ravel()
        m = r.adj if len(rows) == r.n else r.adj[rows]
        return _spread(m if len(cols) == r.n else m[:, cols], a, b, r)

    return step


def _term(t: Term, scope: dict[str, int]) -> Step:
    if isinstance(t, Var):
        a = scope[t.name]
        return lambda r: r.dom[a]
    return (lambda r: r.first) if t.name == "first" else (lambda r: r.last)


def _conjuncts(node: Node) -> list[Node]:
    return _conjuncts(node.left) + _conjuncts(node.right) if isinstance(node, And) else [node]


def _all_of(parts: list[Planned]) -> Planned:
    """The conjunction of ``parts`` (true if none), stopping once it is false
    everywhere."""
    if not parts:
        return (lambda r: np.True_), frozenset()
    steps = [s for s, _ in parts]

    def step(r: _Run) -> np.ndarray:
        acc = steps[0](r)
        for i, s in enumerate(steps[1:]):
            if not acc.any():
                break
            # past the first op acc is this step's own array, reused when it spans the result
            acc = _and(acc, s(r), into=i > 0)
        return acc

    axes = frozenset().union(*(a for _, a in parts))
    return (steps[0] if len(steps) == 1 else step), axes


def _and(x: np.ndarray, y: np.ndarray, into: bool = False) -> np.ndarray:
    """x & y as a bitwise op on uint8 views, written into x when ``into`` and
    x has the result's shape.  numpy's boolean loops run an operand that is
    constant over the trailing axes one cell at a time: (2, 90, 90, 90) &
    (2, 90, 1, 1) is over 20 times slower as bools."""
    x8, y8 = x.view(np.uint8), y.view(np.uint8)
    if into and x.ndim and x.shape == np.broadcast_shapes(x.shape, y.shape):
        return np.bitwise_and(x8, y8, out=x8).view(np.bool_)
    return np.bitwise_and(x8, y8).view(np.bool_)


def _or(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x | y, as ``_and``."""
    return np.bitwise_or(x.view(np.uint8), y.view(np.uint8)).view(np.bool_)


def _implies(left: Planned, right: Planned) -> Planned:
    (p, pa), (q, qa) = left, right
    return (lambda r: ~x if not (x := p(r)).any() else _or(~x, q(r))), pa | qa


def _quantifier(node: Forall | Exists, scope: dict[str, int], level: int) -> Planned:
    d, forall = level, isinstance(node, Forall)
    inner = {**scope, node.var: d}
    if not forall:
        guards, tail = _conjuncts(node.body), None
    elif isinstance(node.body, Implies):
        guards, tail = _conjuncts(node.body.left), node.body.right
    else:
        guards, tail = [], node.body
    planned = [(g, *_plan(g, inner, level + 1)) for g in guards]
    ranged = [(s, a) for _, s, a in planned if a <= {d}]  # read only v and constants
    outside = [(s, a) for _, s, a in planned if a and d not in a]
    rest = [(g, s, a) for g, s, a in planned if d in a and a != {d}]
    body = _all_of([(s, a) for _, s, a in rest])
    if forall:
        then = _plan(tail, inner, level + 1)
        reduced = _reduced(_implies(body, then) if rest else then, d, forall)
    else:
        reduced = _contraction(rest, inner, d) or _reduced(body, d, forall)
    sliced, span = _sliced(*reduced, d, forall), reduced[1]
    range_of = _all_of(ranged)[0] if ranged else None

    def step(r: _Run) -> np.ndarray:
        dom = r.every
        if range_of is not None:
            r.dom[d] = r.along(d, dom)
            dom = dom[np.broadcast_to(range_of(r), r.dom[d].shape).ravel()]
        if not len(dom):
            return np.bool_(forall)
        r.dom[d], r.size[d] = r.along(d, dom), len(dom)
        return sliced(r)

    if not outside:
        return step, span - {d}
    # forall v. (P & G -> B) is P -> forall v. (G -> B); exists v. (P & B) is P & exists v. B
    wrap = _implies if forall else lambda o, q: _all_of([o, q])
    return wrap(_all_of(outside), (step, span - {d}))


def _reduced(body: Planned, d: int, forall: bool) -> Planned:
    """``body`` reduced along level d by ``all`` or ``any``, with the levels
    it spans."""
    b = body[0]

    def step(r: _Run) -> np.ndarray:
        x, a = b(r), r.axis(d)
        if x.ndim == 0 or x.shape[a] == 1:  # x does not vary along d
            return x
        return x.all(axis=a, keepdims=True) if forall else x.any(axis=a, keepdims=True)

    return step, body[1]


def _contraction(rest: list[tuple[Node, Step, frozenset[int]]], scope: dict[str, int],
                 d: int) -> Planned | None:
    """``exists w. M1 & M2 & !(w = t)``, the last conjunct optional, with each
    Mi over w and one other variable ui (u1 != u2, t neither), as a step that
    never spans w: some witness remains once the witnesses counted by a
    matrix product lose w = t.  None for any other body."""
    pairs, excluded = [], []
    for node, step, axes in rest:
        if isinstance(node, Not) and isinstance(node.body, Eq):
            others = [t for t in node.body.terms if not (isinstance(t, Var) and scope[t.name] == d)]
            if len(others) == 1:
                excluded.append(others[0])
                continue
        if len(axes) != 2:
            return None
        pairs.append((step, next(iter(axes - {d}))))
    if len(pairs) != 2 or pairs[0][1] == pairs[1][1] or len(excluded) > 1:
        return None
    (s1, u1), (s2, u2) = pairs
    # t is a variable: !(w = first) reads only w, so the quantifier makes it a range guard
    t_level = scope[excluded[0].name] if excluded else None
    if t_level in (u1, u2):
        return None

    def step(r: _Run) -> np.ndarray:
        m1, m2 = _matrix(s1(r), u1, d, r), _matrix(s2(r), d, u2, r)
        count = _count(m1, m2)
        if t_level is None:
            return _spread(count > 0, u1, u2, r)
        # the witness w = t: m1's columns and m2's rows by vertex (false outside
        # w's range), at t's range; ranges as long as n are every vertex
        w, at = r.dom[d].ravel(), r.dom[t_level].ravel()
        if len(w) < r.n:
            by1, by2 = np.zeros((len(m1), r.n), dtype=bool), np.zeros((r.n, m2.shape[1]), dtype=bool)
            by1[:, w], by2[w] = m1, m2
            m1, m2 = by1, by2
        if len(at) < r.n:
            m1, m2 = m1[:, at], m2[at]
        witness = _and(_spread(m1, u1, t_level, r), _spread(m2, t_level, u2, r))
        # compared as uint8: a mixed float/bool comparison is several times slower
        few = _spread(np.minimum(count, 2).astype(np.uint8), u1, u2, r)
        flags = witness.view(np.uint8)
        np.less(flags, few, out=flags)  # in place: a fresh slice-sized array is fresh pages
        return witness

    return step, frozenset().union(*(a for _, _, a in rest)) - {d}


# OpenBLAS spreads a product of more than 2^18 multiply-adds over all its
# threads; on a shared two-core host that made a 400 x 400 x 13 product about
# 60 times slower than on one thread, so products are taken in row blocks.
_PRODUCT_BLOCK = 1 << 18


def _count(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The product of two boolean matrices: witness counts, in float32 (exact
    below 2^24), by ``np.dot`` (``@`` ran these float32 shapes about 90 times
    slower)."""
    a, b = m1.astype(np.float32), m2.astype(np.float32)
    out = np.empty((len(a), b.shape[1]), dtype=np.float32)
    rows = max(1, _PRODUCT_BLOCK // max(1, a.shape[1] * b.shape[1]))
    for i in range(0, len(a), rows):
        np.dot(a[i:i + rows], b, out=out[i:i + rows])
    return out


def _matrix(x: np.ndarray, a: int, b: int, r: _Run) -> np.ndarray:
    """The array ``x`` over levels a and b as a 2-D matrix, rows along a."""
    pa, pb = r.axis(a), r.axis(b)
    shape = [1] * r.ndim
    shape[pa], shape[pb] = r.dom[a].size, r.dom[b].size
    if x.shape != tuple(shape):
        x = np.broadcast_to(x, shape)
    m = x.reshape(shape[min(pa, pb)], shape[max(pa, pb)])
    return m if pa < pb else m.T


def _spread(m: np.ndarray, a: int, b: int, r: _Run) -> np.ndarray:
    """A 2-D matrix with rows along level a and columns along b, as a
    C-ordered plan array (broadcast ops on transposed operands run several
    times slower)."""
    pa, pb = r.axis(a), r.axis(b)
    if pa > pb:
        m, pa, pb = np.ascontiguousarray(m.T), pb, pa
    shape = [1] * r.ndim
    shape[pa], shape[pb] = m.shape
    return m.reshape(shape)


def _sliced(step: Step, span: frozenset[int], d: int, forall: bool) -> Step:
    """``step``, whose largest array spans the levels ``span``, run on slices
    when that array would exceed ``sampler.CELL_BUDGET`` cells: slices of the
    leading axis (the innermost level of ``span``) when one of them fits, else
    of the outermost level's axis.  ``CheckerBudgetError`` when one slice of
    the outermost level would not fit at the unsliced range sizes.  Slices of
    d itself are folded into one output by ``and`` or ``or`` as each is made,
    others concatenated."""
    order, out = sorted(span), span - {d}

    def run(r: _Run) -> np.ndarray:
        budget = sampler.CELL_BUDGET
        per = math.prod(r.size[a] for a in order[1:])
        if per > budget:
            raise CheckerBudgetError(per, budget)
        cells = math.prod(r.dom[a].size for a in order)
        if cells <= budget:
            return step(r)
        a = order[-1] if cells // r.dom[order[-1]].size <= budget else order[0]
        whole = r.dom[a]
        values, rows, parts, acc = whole.ravel(), budget // (cells // whole.size), [], None
        for lo in range(0, len(values), rows):
            r.dom[a] = r.along(a, values[lo:lo + rows])
            # the output's shape: levels from the innermost are axes in order
            part = np.broadcast_to(step(r), [r.dom[i].size if i in out else 1
                                             for i in reversed(range(r.ndim))])
            if a != d:
                parts.append(part)
            elif acc is None:
                acc = part.view(np.uint8).copy()
            else:  # folded as made: one slice and one output live, not every slice
                (np.bitwise_and if forall else np.bitwise_or)(acc, part.view(np.uint8), out=acc)
        r.dom[a] = whole
        return acc.view(np.bool_) if a == d else np.concatenate(parts, axis=r.axis(a))

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
