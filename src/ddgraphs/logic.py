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
graph plus a vocabulary tag.  ``compile_sentence`` turns a sentence into
closures once, one variable slot per quantifier, that enumerate assignments
on any model with short-circuiting; at these sizes O(n^depth) is fine.

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

import re
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

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

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    name: str  # "first" or "last"

    def __str__(self):
        return self.name


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
    """A vocabulary-tagged formula; use :func:`parse` or the builders below."""

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
    def atoms(self) -> np.ndarray:
        """The binary atoms as an (n+1, n+1) uint8 table.  Entry [x, a]
        packs a = x (bit 0), adj(a, x) (bit 1), succ(a, x) and succ(x, a)
        (bits 2, 3, with successor) and a <= x (bit 4, with order); row and
        column 0 are zero.  Pairs (a, b) and (x, y) of picks agree on every
        binary atom iff ``m1.atoms[x, a] == m2.atoms[y, b]``."""
        n = self.n
        x, a = np.arange(1, n + 1)[:, None], np.arange(1, n + 1)[None, :]
        adj = np.zeros((n, n), dtype=bool)
        if self.graph.edges:
            v, w = np.array(list(self.graph.edges)).T - 1
            adj[v, w] = adj[w, v] = True
        bits = (x == a) | (adj << 1)
        if self.vocab.has_succ:
            # succ(v, w) iff w = v % period + 1: v + 1 on the line, wrapping on the circle
            period = n if self.vocab.circular else n + 1
            bits |= ((x == a % period + 1) << 2) | ((a == x % period + 1) << 3)
        if self.vocab.has_le:
            bits |= (a <= x) << 4
        table = np.zeros((n + 1, n + 1), dtype=np.uint8)
        table[1:, 1:] = bits
        return table


def holds(m: LabeledModel, f: Formula) -> bool:
    """Satisfaction of a sentence: ``compile_sentence(f)`` run on ``m``."""
    if f.vocab is not m.vocab:
        raise VocabularyError(f"model vocabulary {m.vocab.value} != formula {f.vocab.value}")
    return compile_sentence(f)(m)


def compile_sentence(f: Formula) -> Callable[[LabeledModel], bool]:
    """``f`` compiled once into nested closures, as a check that binds a model
    of its vocabulary (n, adj, succ, constants) and runs them.  Each quantifier
    owns a slot and its body is compiled with its variable mapped to it, so
    shadowing is settled before any vertex is tried.  Connectives run left to
    right, quantifiers try 1..n in order; both stop at the first decisive value."""
    if not f.is_sentence:
        raise LogicError(f"free variable(s): {', '.join(sorted(f.free_variables))}")
    n, adj, succ = 0, None, None
    slots = [0, 0]  # first and last, then one per quantifier
    atoms = {Adj: lambda i, j: lambda: adj(slots[i], slots[j]),
             Eq: lambda i, j: lambda: slots[i] == slots[j],
             Succ: lambda i, j: lambda: succ(slots[i], slots[j]),
             Le: lambda i, j: lambda: slots[i] <= slots[j],
             Cw: lambda i, j, k: lambda: cw_holds(slots[i], slots[j], slots[k])}

    def slot(t: Term, scope: dict[str, int]) -> int:
        return scope[t.name] if isinstance(t, Var) else int(t.name == "last")

    def compile_node(node: Node, scope: dict[str, int]) -> Callable[[], bool]:
        match node:
            case Atom():
                return atoms[type(node)](*(slot(t, scope) for t in node.terms))
            case Not(body):
                p = compile_node(body, scope)
                return lambda: not p()
            case And(l, r):
                p, q = compile_node(l, scope), compile_node(r, scope)
                return lambda: p() and q()
            case Or(l, r):
                p, q = compile_node(l, scope), compile_node(r, scope)
                return lambda: p() or q()
            case Implies(l, r):
                p, q = compile_node(l, scope), compile_node(r, scope)
                return lambda: not p() or q()
            case Forall(v, body) | Exists(v, body):
                i, quant = len(slots), all if isinstance(node, Forall) else any
                slots.append(0)
                p = compile_node(body, {**scope, v: i})
                return lambda: quant(p() for slots[i] in range(1, n + 1))

    root = compile_node(f.root, {})

    def run(m: LabeledModel) -> bool:
        nonlocal n, adj, succ
        n, adj, succ = m.n, m.graph.has_edge, m.succ
        slots[:2] = m.constant("first"), m.constant("last")
        return root()

    return run


# --- sentence library -----------------------------------------------------------


def _and_all(nodes: list[Node]) -> Node:
    out = nodes[0]
    for x in nodes[1:]:
        out = And(out, x)
    return out


def _path2() -> Formula:
    # the two endpoint constants joined through one midpoint
    root = Exists("m", And(Adj(Const("first"), Var("m")), Adj(Var("m"), Const("last"))))
    return Formula(root, Vocab.L_PLUS, name="path2")


def _ex2_path4() -> Formula:
    # any two distinct neighbours of `first` joined by a length-4 walk that
    # avoids `first`; interior points may repeat (documented reading).
    # Guards sit at their own quantifier level so the checker prunes early.
    first = Const("first")
    x, y, z1, z2, z3 = (Var(s) for s in ("x", "y", "z1", "z2", "z3"))
    step3 = Exists("z3", _and_all([Adj(z2, z3), Not(Eq(z3, first)), Adj(z3, y)]))
    step2 = Exists("z2", _and_all([Adj(z1, z2), Not(Eq(z2, first)), step3]))
    step1 = Exists("z1", _and_all([Adj(x, z1), Not(Eq(z1, first)), step2]))
    guard_y = And(Adj(first, y), Not(Eq(y, x)))
    root = Forall("x", Implies(Adj(first, x), Forall("y", Implies(guard_y, step1))))
    return Formula(root, Vocab.L_PLUS, name="ex2_path4")


def _triangle(vocab: Vocab = Vocab.L) -> Formula:
    x, y, z = Var("x"), Var("y"), Var("z")
    inner = Exists("z", And(Adj(y, z), Adj(z, x)))
    root = Exists("x", Exists("y", And(Adj(x, y), inner)))
    return Formula(root, vocab, name="triangle")


def _edge_in_c4() -> Formula:
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    inner = Exists("w", _and_all([Adj(z, w), Adj(w, x), Not(Eq(w, y))]))
    mid = Exists("z", _and_all([Adj(y, z), Not(Eq(z, x)), inner]))
    root = Forall("x", Forall("y", Implies(Adj(x, y), mid)))
    return Formula(root, Vocab.L, name="edge_in_c4")


def _adj_first_last() -> Formula:
    return Formula(Adj(Const("first"), Const("last")), Vocab.L_PLUS, name="adj_first_last")


def _extension_ak(k: int) -> Formula:
    # every k-set of distinct vertices is extended in all 2^k adjacency
    # patterns by some witness outside the set
    if k < 1:
        raise LogicError("extension_Ak needs k >= 1")
    xs = [Var(f"x{i}") for i in range(1, k + 1)]
    v = Var("v")
    pattern_parts = []
    for mask in range(2**k):
        lits: list[Node] = []
        for i in range(k):
            if mask >> i & 1:
                lits.append(Adj(v, xs[i]))
            else:
                lits.append(And(Not(Adj(v, xs[i])), Not(Eq(v, xs[i]))))
        pattern_parts.append(Exists("v", _and_all(lits)))
    body: Node = _and_all(pattern_parts)
    if k > 1:
        distinct = _and_all(
            [Not(Eq(xs[i], xs[j])) for i in range(k) for j in range(i + 1, k)]
        )
        body = Implies(distinct, body)
    for i in reversed(range(k)):
        body = Forall(xs[i].name, body)
    return Formula(body, Vocab.L, name=f"extension_Ak_{k}")


_LIBRARY = {"path2": _path2, "ex2_path4": _ex2_path4, "triangle": _triangle,
            "edge_in_c4": _edge_in_c4, "adj_first_last": _adj_first_last,
            "extension_Ak": _extension_ak}


def library(name: str, **params) -> Formula:
    """Named sentences used across the experiments.

    ``triangle`` accepts an optional ``vocab``; ``extension_Ak`` requires
    ``k``; other entries take no parameters.
    """
    if name not in _LIBRARY:
        raise LogicError(f"unknown library sentence {name!r}")
    return _LIBRARY[name](**params)


def library_sentences(max_depth: int | None = None, vocab: Vocab | None = None) -> list[Formula]:
    """All library sentences (extension family at k = 1, 2), optionally
    filtered by depth and vocabulary."""
    out = [
        _path2(),
        _ex2_path4(),
        _triangle(),
        _edge_in_c4(),
        _adj_first_last(),
        _extension_ak(1),
        _extension_ak(2),
    ]
    if vocab is not None:
        out = [f for f in out if f.vocab is vocab]
    if max_depth is not None:
        out = [f for f in out if f.depth <= max_depth]
    return out
