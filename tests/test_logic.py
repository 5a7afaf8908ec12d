"""Parser, satisfaction, and the sentence library.

The model checker is validated against an independent evaluator that
materializes full variable assignments with no short-circuiting.
"""

import pickle
import random
import tracemalloc
import warnings
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddgraphs import logic, presets, sampler
from ddgraphs.graph import complete_graph, edgeless_graph, make_graph
from ddgraphs.logic import (
    Adj,
    And,
    CheckerBudgetError,
    Const,
    Cw,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaSyntaxError,
    LabeledModel,
    LogicError,
    Node,
    Not,
    Or,
    Implies,
    Le,
    Succ,
    Var,
    Vocab,
    VocabularyError,
    cw_holds,
    holds,
    library,
    library_sentences,
    parse,
    to_text,
)
from ddgraphs.probseq import ScaleWarning, make_constant, make_ones_powers, make_random_binary
from ddgraphs.rng import RngStream
from ddgraphs.sampler import CIRCLE, LINE, sample, sample_line


def brute_holds(m: LabeledModel, f: Formula) -> bool:
    """Independent oracle: evaluate by assignment tables, no short-circuits."""
    n = m.graph.n

    def val(t, env):
        return env[t.name] if isinstance(t, Var) else m.constant(t.name)

    def ev(node, env) -> bool:
        name = type(node).__name__
        if name == "Adj":
            return m.graph.has_edge(val(node.a, env), val(node.b, env))
        if name == "Eq":
            return val(node.a, env) == val(node.b, env)
        if name == "Succ":
            return m.succ(val(node.a, env), val(node.b, env))
        if name == "Le":
            return val(node.a, env) <= val(node.b, env)
        if name == "Cw":
            return cw_holds(val(node.a, env), val(node.b, env), val(node.c, env))
        if name == "Not":
            return not ev(node.body, env)
        if name == "And":
            results = [ev(node.left, env), ev(node.right, env)]
            return all(results)
        if name == "Or":
            results = [ev(node.left, env), ev(node.right, env)]
            return any(results)
        if name == "Implies":
            results = [ev(node.left, env), ev(node.right, env)]
            return (not results[0]) or results[1]
        if name == "Forall":
            return all(ev(node.body, {**env, node.var: x}) for x in range(1, n + 1))
        if name == "Exists":
            return any(ev(node.body, {**env, node.var: x}) for x in range(1, n + 1))
        raise AssertionError(name)

    return ev(f.root, {})


def random_node(rng: random.Random, vocab: Vocab, depth: int, scope: list[str]) -> Node:
    """A random formula of depth at most ``depth`` over the variables in
    ``scope``: every atom the vocabulary allows, constants included; binders
    are drawn from three names, so siblings and shadowing both occur."""
    consts = [Const("first"), Const("last")] if vocab.has_constants else []
    atoms = [Adj, Eq] + [Succ] * vocab.has_succ + [Le] * vocab.has_le + [Cw] * vocab.has_cw

    def gen(depth, scope):
        choices = ["atom"] * 2 + (["not", "and", "or", "imp", "q"] if depth > 0 else [])
        kind = rng.choice(choices)
        terms = [Var(v) for v in scope] + consts
        if kind == "atom" and terms:
            atom = rng.choice(atoms)
            return atom(*(rng.choice(terms) for _ in range(3 if atom is Cw else 2)))
        if kind == "atom":
            kind = "q"
        if kind == "not":
            return Not(gen(depth - 1, scope))
        if kind == "and":
            return And(gen(depth - 1, scope), gen(depth - 1, scope))
        if kind == "or":
            return Or(gen(depth - 1, scope), gen(depth - 1, scope))
        if kind == "imp":
            return Implies(gen(depth - 1, scope), gen(depth - 1, scope))
        v = rng.choice("xyz")
        return rng.choice([Forall, Exists])(v, gen(depth - 1, scope + [v]))

    return gen(depth, list(scope))


def random_sentence(rng: random.Random, vocab: Vocab, depth: int) -> Formula:
    """A random sentence of depth at most ``depth`` (see ``random_node``)."""
    return Formula(random_node(rng, vocab, depth, []), vocab)


def guarded_sentence(rng: random.Random, vocab: Vocab, levels: int) -> Formula:
    """``levels`` nested quantifiers, most past the first guarded by adj to
    an enclosing variable (the immediately enclosing one or an outer one), in
    either argument order, as ``forall v. (G -> B)`` or ``exists v. (G & B)``;
    G may hold an atom besides the guard, on either side of it, over the
    variables so far or over u alone, and the innermost body is a random
    formula over every variable."""
    names = ["a", "b", "c", "e"][:levels]

    def nest(i):
        if i == levels:
            return random_node(rng, vocab, 2, names)
        v, body = names[i], nest(i + 1)
        if i == 0 or rng.random() < 0.3:
            return rng.choice([Forall, Exists])(v, body)
        u = rng.choice(names[:i])
        guard = [rng.choice([Adj(Var(u), Var(v)), Adj(Var(v), Var(u))])]
        guard += [random_node(rng, vocab, 0, rng.choice((names[:i + 1], [u])))] * rng.randint(0, 1)
        rng.shuffle(guard)
        g = guard[0] if len(guard) == 1 else And(*guard)
        return Forall(v, Implies(g, body)) if rng.random() < 0.5 else Exists(v, And(g, body))

    return Formula(nest(0), vocab)


def counted_chain(rng: random.Random, vocab: Vocab, free: int) -> Formula:
    """``free`` quantified variables over a chain of two nested ``exists``
    (the inner one sometimes left out): each level's conjuncts are one or two
    factors over its variable and one other (an atom of the vocabulary, maybe
    negated, maybe paired with a second factor over the same two variables),
    0-2 disequalities to earlier variables and, with constants, sometimes a
    range guard; the chain is sometimes negated."""
    consts = ["first", "last"] if vocab.has_constants else []

    def atom(w, u):
        a, b = rng.sample([w, u], 2)
        choices = [f"adj({a}, {b})", f"{a} = {b}"] + [f"succ({a}, {b})"] * vocab.has_succ
        choices += [f"{a} <= {b}"] * vocab.has_le + [f"C({a}, {b}, {b})", f"C({a}, {a}, {b})"] * vocab.has_cw
        text = rng.choice(choices)
        return f"!({text})" if rng.random() < 0.3 else text

    def level(i, scope):
        w = "wv"[i]
        parts = [atom(w, u) for u in rng.sample(scope, rng.randint(1, 2))]
        if rng.random() < 0.3:
            parts.append(atom(w, rng.choice(scope)))
        parts += [f"!({w} = {t})" for t in rng.sample(scope, rng.randint(0, 2))]
        if consts and rng.random() < 0.3:
            parts.append(f"!({w} = {rng.choice(consts)})")
        if i == 0 and rng.random() < 0.8:
            parts.append(level(1, scope + [w]))
        rng.shuffle(parts)
        return f"(exists {w}. {' & '.join(parts)})"

    names = ["a", "b", "c"][:free]
    text = "".join(f"{rng.choice(['forall', 'exists'])} {x}. " for x in names)
    return parse(text + "!" * (rng.random() < 0.3) + level(0, names), vocab)


def guard_models(n: int, vocab: Vocab, seed: int) -> list[LabeledModel]:
    """An edgeless, a complete and a sampled graph on n vertices, the last
    with its first and last vertex isolated."""
    g = sample(make_constant(0.5), n, RngStream(seed, n), CIRCLE if vocab.circular else LINE)
    isolated = make_graph(n, [e for e in g.edges if not {1, n} & set(e)])
    return [LabeledModel(h, vocab) for h in (edgeless_graph(n), complete_graph(n), isolated)]


def all_graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(2 ** len(pairs)):
        yield make_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


class TestParser:
    def test_simple_sentence(self):
        f = parse("exists x. adj(x, first)", Vocab.L_PLUS)
        assert f.depth == 1 and f.is_sentence

    def test_vocabulary_rejection(self):
        with pytest.raises(VocabularyError):
            parse("exists x. x <= first", Vocab.L)
        with pytest.raises(VocabularyError):
            parse("exists x. succ(x, x)", Vocab.L)
        with pytest.raises(VocabularyError):
            parse("exists x. adj(x, first)", Vocab.LC_PLUS)

    def test_unbound_variable(self):
        with pytest.raises(LogicError):
            parse("adj(x, y)", Vocab.L)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("exists x. adj(x,)", Vocab.L)
        assert err.value.pos == 16

    @pytest.mark.parametrize("text, message, pos", [
        ("exists x. adj(x,)", "expected a term, found ')'", 16),
        ("exists x. adj(x, #)", "unexpected character '#'", 16),
        ("exists 1. adj(x,x)", "unexpected character '1'", 6),
        ("exists x adj(x,x)", "expected '.', found 'adj'", 9),
        ("exists x. adj(x,x) )", "trailing input ')'", 19),
        ("forall first. adj(first, first)", "bad variable name 'first'", 7),
        ("exists x. adj(x, exists)", "keyword 'exists' is not a term", 17),
        ("exists x. x x", "expected '<=' or '=' after term, found 'x'", 12),
        ("exists x. adj x", "expected '(', found 'x'", 14),
        ("exists x. C(x, x)", "expected ',', found ')'", 16),
        ("adj(first, last) ->", "expected a term, found ''", 19),
        ("", "expected a term, found ''", 0),
        # binders must be identifiers
        ("exists . adj(x, x)", "bad variable name '.'", 7),
        ("forall ->. first = last", "bad variable name '->'", 7),
        ("exists ). adj(first, last)", "bad variable name ')'", 7),
        ("exists |. exists x. adj(x, x)", "bad variable name '|'", 7),
    ])
    def test_syntax_error_messages(self, text, message, pos):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text, Vocab.L_PLUS)
        assert str(err.value) == f"{message} (at offset {pos})" and err.value.pos == pos

    def test_precedence(self):
        f = parse("forall x. adj(x, x) -> adj(x, x) & !adj(x, x) | adj(x, x)", Vocab.L)
        root = f.root
        assert isinstance(root, Forall) and isinstance(root.body, Implies)
        assert isinstance(root.body.right, Or)
        assert isinstance(root.body.right.left, And)

    def test_cw_and_le_atoms(self):
        assert parse("forall x. C(x, x, x)", Vocab.LC_LE).depth == 1
        assert parse("forall x. forall y. x <= y | y <= x", Vocab.L_LE).depth == 2

    @pytest.mark.parametrize("name, params", [
        *(pytest.param(name, {}, id=name)
          for name in ("path2", "ex2_path4", "triangle", "edge_in_c4", "adj_first_last")),
        *(pytest.param("extension_Ak", {"k": k}, id=f"extension_Ak-{k}") for k in (1, 2, 3)),
        *(pytest.param("triangle", {"vocab": v}, id=f"triangle-{v.value}") for v in Vocab),
    ])
    def test_roundtrip_library(self, name, params):
        f = library(name, **params)
        assert parse(to_text(f), f.vocab).root == f.root

    @given(st.integers(min_value=0, max_value=2**12 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_formulas(self, seed):
        rng = random.Random(seed)

        def gen(depth, scope):
            choices = ["atom"] * 2 + (["not", "and", "or", "imp", "q"] if depth > 0 else [])
            kind = rng.choice(choices)
            if kind == "atom" and scope:
                a, b = rng.choice(scope), rng.choice(scope)
                return rng.choice([Adj(Var(a), Var(b)), Eq(Var(a), Var(b))])
            if kind == "atom":
                kind = "q"
            if kind == "not":
                return Not(gen(depth - 1, scope))
            if kind == "and":
                return And(gen(depth - 1, scope), gen(depth - 1, scope))
            if kind == "or":
                return Or(gen(depth - 1, scope), gen(depth - 1, scope))
            if kind == "imp":
                return Implies(gen(depth - 1, scope), gen(depth - 1, scope))
            v = f"v{len(scope)}"
            body = gen(depth - 1, scope + [v])
            return rng.choice([Forall, Exists])(v, body)

        f = Formula(gen(3, []), Vocab.L)
        assert parse(to_text(f), Vocab.L).root == f.root


class TestQuantifierDepth:
    def test_atom(self):
        assert Formula(Adj(Const("first"), Const("last")), Vocab.L_PLUS).depth == 0

    def test_extension_family(self):
        assert library("extension_Ak", k=1).depth == 2
        assert library("extension_Ak", k=3).depth == 4

    def test_nested(self):
        assert parse("forall x. exists y. adj(x, y)", Vocab.L).depth == 2

    def test_depth_is_nesting_not_count(self):
        f = parse("(exists x. adj(x, x)) & (exists y. adj(y, y))", Vocab.L)
        assert f.depth == 1


class TestHolds:
    def test_triangle_sentence(self):
        tri = library("triangle")
        assert holds(LabeledModel(complete_graph(3), Vocab.L), tri)
        assert not holds(LabeledModel(edgeless_graph(5), Vocab.L), tri)

    def test_vocabulary_mismatch(self):
        with pytest.raises(VocabularyError):
            holds(LabeledModel(complete_graph(3), Vocab.L_PLUS), library("triangle"))

    def test_free_variable_rejected(self):
        f = Formula(Adj(Var("x"), Var("x")), Vocab.L)
        with pytest.raises(LogicError):
            holds(LabeledModel(complete_graph(3), Vocab.L), f)

    def test_power_support_c4_trace(self):
        # false exactly at n <= 8 or n - 1 a power of four (see the
        # derivation in test_acceptance::test_power_support_c4_trace)
        seq = make_ones_powers(4)
        c4 = library("edge_in_c4")
        false_at = [
            n for n in range(4, 71)
            if not holds(LabeledModel(sample_line(seq, n, RngStream(0)), Vocab.L), c4)
        ]
        assert false_at == [4, 5, 6, 7, 8, 17, 65]

    def test_negation_flips(self):
        tri = library("triangle")
        neg = Formula(Not(tri.root), Vocab.L)
        for g in (complete_graph(4), edgeless_graph(4), make_graph(4, [(1, 2), (2, 3)])):
            m = LabeledModel(g, Vocab.L)
            assert holds(m, neg) == (not holds(m, tri))

    def test_succ_is_linear_on_lines_and_wraps_on_circles(self):
        f_line = parse("exists x. exists y. succ(x, y) & adj(x, y)", Vocab.L_PLUS)
        g = make_graph(3, [(1, 3)])
        assert not holds(LabeledModel(g, Vocab.L_PLUS), f_line)
        f_circ = parse("exists x. exists y. succ(x, y) & adj(x, y)", Vocab.LC_PLUS)
        assert holds(LabeledModel(g, Vocab.LC_PLUS), f_circ)  # succ(3, 1) wraps

    def test_constants_interpret_as_endpoints(self):
        g = make_graph(4, [(1, 4)])
        assert holds(LabeledModel(g, Vocab.L_PLUS), library("adj_first_last"))
        assert not holds(LabeledModel(make_graph(4, [(1, 2)]), Vocab.L_PLUS), library("adj_first_last"))

    def test_conjunctions_of_constant_atoms(self):
        # three or more conjuncts over constants only: each is a scalar, not an array
        for text in ("adj(first, last) & !(first = last) & adj(last, first)",
                     "exists x. adj(first, last) & !(first = last) & adj(last, first) & adj(x, first)"):
            for edges in ([(1, 4)], [(1, 4), (2, 4)], [(1, 2)]):
                m = LabeledModel(make_graph(4, edges), Vocab.L_PLUS)
                f = parse(text, Vocab.L_PLUS)
                assert holds(m, f) == brute_holds(m, f), (text, edges)


class TestAgainstBruteForce:
    def test_every_library_sentence_on_all_tiny_graphs(self):
        for n in (1, 2, 3):
            for g in all_graphs(n):
                for f in library_sentences():
                    m = LabeledModel(g, f.vocab)
                    assert holds(m, f) == brute_holds(m, f), (n, g.edges, f.name)

    def test_library_on_random_medium_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(4, 5)
            pairs = list(combinations(range(1, n + 1), 2))
            g = make_graph(n, [p for p in pairs if rng.random() < 0.5])
            for f in library_sentences():
                m = LabeledModel(g, f.vocab)
                assert holds(m, f) == brute_holds(m, f), (g.edges, f.name)

    @given(st.integers(min_value=0, max_value=2**16 - 1), st.sampled_from(list(Vocab)))
    @settings(max_examples=240, deadline=None)
    def test_random_sentences_match_oracle(self, seed, vocab):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        g = sample(make_constant(0.5), n, RngStream(seed), CIRCLE if vocab.circular else LINE)
        f = random_sentence(rng, vocab, 4)
        m = LabeledModel(g, vocab)
        assert holds(m, f) == brute_holds(m, f)
        assert parse(to_text(f), vocab).root == f.root

    def test_order_and_circular_atoms_match_oracle(self):
        g = make_graph(4, [(1, 3), (2, 4)])
        cases = [
            ("forall x. exists y. x <= y", Vocab.L_LE),
            ("exists x. forall y. x <= y & (adj(x, y) | !adj(x, y))", Vocab.L_LE),
            ("forall x. forall y. forall z. C(x, y, z) | C(x, z, y) | x = y | y = z | x = z",
             Vocab.LC_LE),
            ("exists x. exists y. C(x, y, y)", Vocab.LC_LE),
            ("forall x. exists y. succ(x, y)", Vocab.LC_PLUS),
            ("exists x. succ(x, x)", Vocab.LC_PLUS),
            ("forall x. exists y. succ(x, y)", Vocab.L_PLUS),
            ("succ(first, last)", Vocab.L_PLUS),
        ]
        for text, vocab in cases:
            f = parse(text, vocab)
            m = LabeledModel(g, vocab)
            assert holds(m, f) == brute_holds(m, f), text
        # g is mirror-symmetric, so no sentence tells C from its reverse on
        # it; here y follows x clockwise and x has a second neighbour, which
        # holds at x = 1 and fails with the orientation reversed
        f = parse("exists x. exists y. adj(x, y) & (exists w. adj(x, w) & !w = y)"
                  " & (forall z. z = x | z = y | C(x, y, z))", Vocab.LC_LE)
        m = LabeledModel(make_graph(5, [(1, 2), (1, 4)]), Vocab.LC_LE)
        assert holds(m, f) == brute_holds(m, f) is True

    def test_shadowed_variable(self):
        # the inner binding wins, and the outer value is restored afterwards
        f = parse("exists x. (forall x. !adj(x, x)) & x = x", Vocab.L)
        m = LabeledModel(complete_graph(3), Vocab.L)
        assert holds(m, f) == brute_holds(m, f) is True
        g = parse("forall x. exists x. adj(x, x)", Vocab.L)
        assert holds(m, g) == brute_holds(m, g) is False
        # the outer x is read after an inner x ran to n, or stopped at last
        m = LabeledModel(complete_graph(3), Vocab.L_PLUS)
        for text in ("exists x. (forall x. x = x) & x = first",
                     "exists x. (exists x. x = last) & x = first",
                     "(exists x. x = last)"
                     " & (forall x. exists y. adj(x, y) & (exists x. x = first))"):
            h = parse(text, Vocab.L_PLUS)
            assert holds(m, h) == brute_holds(m, h) is True, text

    def test_connective_tables(self):
        a = parse("exists x. adj(x, x)", Vocab.L)  # always false
        b = parse("forall x. x = x", Vocab.L)  # always true
        m = LabeledModel(complete_graph(3), Vocab.L)
        for left, right in product([a, b], repeat=2):
            la, ra = holds(m, left), holds(m, right)
            assert holds(m, Formula(And(left.root, right.root), Vocab.L)) == (la and ra)
            assert holds(m, Formula(Or(left.root, right.root), Vocab.L)) == (la or ra)
            assert holds(m, Formula(Implies(left.root, right.root), Vocab.L)) == ((not la) or ra)


# Values of every library sentence on one line sample per n in RECORDED_N
# (stream RngStream(n, 7)), one bit per n, as the closure checker that
# preceded the array plan computed them.
RECORDED_N = (8, 16, 33, 64)
RECORDED_SEQS = {
    "random_binary_0": lambda: make_random_binary(0),
    "constant_0.1": lambda: make_constant(0.1),
    "constant_0.5": lambda: make_constant(0.5),
    **{name: getattr(presets, "seq_" + name) for name in (
        "thm1_scaled", "thm2_scaled", "thm3_scaled", "thm6_half", "example2_scaled",
        "ones4", "lemma_edge")},
}
RECORDED = {
    "path2": {"random_binary_0": "1111", "constant_0.1": "0001", "constant_0.5": "0111", "thm1_scaled": "0000", "thm2_scaled": "0101", "thm3_scaled": "0000", "thm6_half": "0000", "example2_scaled": "0000", "ones4": "0010", "lemma_edge": "0000"},
    "ex2_path4": {"random_binary_0": "0111", "constant_0.1": "1111", "constant_0.5": "0111", "thm1_scaled": "0111", "thm2_scaled": "1011", "thm3_scaled": "1111", "thm6_half": "1111", "example2_scaled": "1111", "ones4": "1111", "lemma_edge": "1111"},
    "triangle": {"random_binary_0": "1111", "constant_0.1": "0011", "constant_0.5": "1111", "thm1_scaled": "0111", "thm2_scaled": "0011", "thm3_scaled": "0000", "thm6_half": "0000", "example2_scaled": "0000", "ones4": "0000", "lemma_edge": "0000"},
    "edge_in_c4": {"random_binary_0": "0111", "constant_0.1": "0000", "constant_0.5": "0111", "thm1_scaled": "0000", "thm2_scaled": "0001", "thm3_scaled": "1100", "thm6_half": "1000", "example2_scaled": "1000", "ones4": "0111", "lemma_edge": "0000"},
    "adj_first_last": {"random_binary_0": "1110", "constant_0.1": "0000", "constant_0.5": "0110", "thm1_scaled": "0000", "thm2_scaled": "0000", "thm3_scaled": "0000", "thm6_half": "0000", "example2_scaled": "0000", "ones4": "0000", "lemma_edge": "0000"},
    "extension_Ak_1": {"random_binary_0": "1111", "constant_0.1": "0001", "constant_0.5": "1111", "thm1_scaled": "1111", "thm2_scaled": "0011", "thm3_scaled": "0000", "thm6_half": "0000", "example2_scaled": "0000", "ones4": "1111", "lemma_edge": "0000"},
    "extension_Ak_2": {"random_binary_0": "0011", "constant_0.1": "0000", "constant_0.5": "0011", "thm1_scaled": "0000", "thm2_scaled": "0000", "thm3_scaled": "0000", "thm6_half": "0000", "example2_scaled": "0000", "ones4": "0000", "lemma_edge": "0000"},
}


class TestArrayPlan:
    """The array plan against the oracle, against recorded values, and
    under the cell budget."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_library_and_triangles_match_oracle(self, n):
        sentences = library_sentences() + [library("triangle", vocab=v) for v in Vocab]
        for p, f in product((0.2, 0.5, 0.8), sentences):
            kind = CIRCLE if f.vocab.circular else LINE
            m = LabeledModel(sample(make_constant(p), n, RngStream(n, int(10 * p)), kind), f.vocab)
            assert holds(m, f) == brute_holds(m, f), (n, p, f.name, f.vocab)

    @given(st.integers(min_value=0, max_value=2**16 - 1), st.sampled_from(list(Vocab)),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_random_sentences_match_oracle_up_to_12(self, seed, vocab, n):
        rng = random.Random(seed)
        p = rng.choice((0.2, 0.5, 0.8))
        g = sample(make_constant(p), n, RngStream(seed), CIRCLE if vocab.circular else LINE)
        f = random_sentence(rng, vocab, 4)
        m = LabeledModel(g, vocab)
        assert holds(m, f) == brute_holds(m, f), to_text(f)

    @pytest.mark.parametrize("text, vocab", [
        # two conjuncts over w, each with one other variable, then w != t
        ("forall x. forall y. forall z. (exists w. w <= x & y <= w & !(w = z)) | x = y", Vocab.L_LE),
        ("forall x. exists y. exists z. exists w. succ(x, w) & succ(w, y) & !(w = z)", Vocab.L_PLUS),
        ("exists x. exists y. exists w. succ(w, x) & succ(y, w) & !(w = first)", Vocab.L_PLUS),
        ("forall x. forall y. exists w. adj(x, w) & !adj(w, y) & !(w = last)", Vocab.L_PLUS),
        ("forall x. forall y. exists w. C(x, w, w) & C(w, y, y) & !(w = y)", Vocab.LC_LE),
        ("forall x. exists y. exists w. adj(x, w) & succ(w, y)", Vocab.LC_PLUS),
        # a guard on w alone narrows its range first; t among the ui is not contracted
        ("forall x. forall y. exists w. adj(x, w) & adj(w, y) & !(w = x)", Vocab.L),
        ("forall x. forall y. exists w. adj(w, first) & adj(x, w) & adj(w, y)", Vocab.L_PLUS),
        # two contractions of one run, each with matrices of its own
        ("exists x. exists y. (exists w. adj(x, w) & adj(w, y)) & !(exists w. !adj(x, w) & !adj(w, y))", Vocab.L),
        # a contracted body inside another contraction, as in ex2_path4
        ("forall x. exists y. exists z. adj(x, z) & (exists w. adj(z, w) & adj(w, y))", Vocab.L),
        # t's range is narrower than n: w's range is every vertex, t's is not
        ("forall z. !(z = first) -> !(exists x. exists y. adj(x, z) & adj(z, y) & !(x = y) &"
         " !(exists w. adj(x, w) & adj(w, y) & !(w = z)))", Vocab.L_PLUS),
        ("forall z. (exists v. adj(z, v)) -> (forall x. forall y. exists w."
         " adj(x, w) & adj(w, y) & !(w = z))", Vocab.L),
        # w's range narrower than n, then both
        ("forall z. forall x. exists y. exists w. !(w = first) & adj(x, w) & succ(w, y) & !(w = z)",
         Vocab.L_PLUS),
        ("forall z. adj(z, last) -> (forall x. exists y. exists w."
         " !(w = first) & adj(x, w) & succ(w, y) & !(w = z))", Vocab.L_PLUS),
    ])
    def test_contracted_shapes_match_oracle(self, text, vocab):
        f = parse(text, vocab)
        for n in range(1, 10):
            for p in (0.3, 0.7):
                g = sample(make_constant(p), n, RngStream(n, int(10 * p)), CIRCLE if vocab.circular else LINE)
                m = LabeledModel(g, vocab)
                assert holds(m, f) == brute_holds(m, f), (text, n, p)

    @pytest.mark.parametrize("text, vocab", [
        # at w = a the second !(w = a) is !(a = a): that term is 0
        ("forall a. forall b. exists w. adj(w, b) & !(w = a) & !(w = a)", Vocab.L),
        # v's expansion at v = w leaves !(w = a) beside w's own
        ("forall a. forall b. exists w. !(w = a) & adj(w, b) & (exists v. adj(v, b) & !(v = w) & !(v = a))", Vocab.L),
        # counts through a chain of three, with range guards
        ("forall a. forall b. !(a = b) -> (exists x. !(x = first) & adj(a, x) & (exists y. adj(x, y) &"
         " !(y = a) & (exists z. !(z = last) & adj(y, z) & adj(z, b) & !(z = x))))", Vocab.L_PLUS),
        # a witness over three free levels keeps the array plan
        ("forall a. forall b. forall c. exists w. adj(a, w) & adj(b, w) & adj(c, w)", Vocab.L),
    ])
    def test_counted_shapes_match_oracle(self, text, vocab):
        f = parse(text, vocab)
        for n in range(1, 9):
            for p in (0.3, 0.7):
                g = sample(make_constant(p), n, RngStream(n, int(10 * p)), CIRCLE if vocab.circular else LINE)
                m = LabeledModel(g, vocab)
                assert holds(m, f) == brute_holds(m, f), (text, n, p)

    @pytest.mark.parametrize("vocab", list(Vocab))
    def test_counted_chains_match_oracle(self, vocab):
        rng = random.Random(f"chain:{vocab.value}")
        for n in range(1, 13):
            for _ in range(6 if n <= 6 else 2):
                f = counted_chain(rng, vocab, 2 if n > 8 else rng.randint(2, 3))
                for m in guard_models(n, vocab, n)[1 if n > 8 else 0:]:
                    assert holds(m, f) == brute_holds(m, f), (n, m.graph.edges, to_text(f))

    def test_sliced_counted_chains_match_oracle(self, monkeypatch):
        # budgets of n to n^2 cells cut the arrays over two or three free levels into
        # slices; where one slice of the outermost level does not fit, the check is refused
        rng, answered = random.Random(17), 0
        for vocab in Vocab:
            for n in range(5, 9):
                monkeypatch.setattr(sampler, "CELL_BUDGET", rng.choice((n, 2 * n, n * n)))
                f = counted_chain(rng, vocab, 3)
                for m in guard_models(n, vocab, n):
                    try:
                        value = holds(m, f)
                    except CheckerBudgetError:
                        continue
                    answered += 1
                    assert value == brute_holds(m, f), (n, sampler.CELL_BUDGET, m.graph.edges, to_text(f))
        assert answered >= 36

    @pytest.mark.parametrize("block", [64, 51200])
    def test_blocked_products_match_oracle(self, monkeypatch, block):
        # products past the block are cut into row blocks, and columns too where
        # fewer than 32 rows would fit: at 64 multiply-adds one column at a time,
        # at 51200 and n = 40 blocks of 32 whole rows
        sentences = library_sentences(vocab=Vocab.L) + library_sentences(vocab=Vocab.L_PLUS)
        for n, p in product((7, 12, 40), (0.3, 0.7)):
            models = [LabeledModel(sample_line(make_constant(p), n, RngStream(n, int(10 * p))), f.vocab)
                      for f in sentences]
            whole = [holds(m, f) for m, f in zip(models, sentences)]
            monkeypatch.setattr(logic, "_PRODUCT_BLOCK", block)
            assert [holds(m, f) for m, f in zip(models, sentences)] == whole, (block, n, p)
            if n <= 12:
                assert whole == [brute_holds(m, f) for m, f in zip(models, sentences)], (n, p)
            monkeypatch.undo()

    @pytest.mark.parametrize("name, params, levels", [
        ("ex2_path4", {}, [2, 3, 4]),  # z1, z2, z3
        ("triangle", {}, [2]),  # z: y's body spans x and y only
        ("edge_in_c4", {}, [2, 3]),  # z and w
        ("extension_Ak", {"k": 2}, [2, 2, 2, 2]),  # the witness v of each of the four patterns
        ("extension_Ak", {"k": 3}, []),  # a witness over three free levels keeps the dense plan
    ])
    def test_counted_levels_of_library_sentences(self, monkeypatch, name, params, levels):
        counted, seen = logic._counted, []

        def spy(rest, range_of, d):
            out = counted(rest, range_of, d)
            seen.extend([d] * (out is not None))
            return out

        monkeypatch.setattr(logic, "_counted", spy)
        logic.compile_sentence(library(name, **params))
        assert sorted(seen) == levels

    @pytest.mark.parametrize("vocab", list(Vocab))
    def test_edge_guards_match_oracle(self, vocab):
        # v guarded by adjacency to an enclosing variable, on edgeless, complete
        # and partly isolated graphs
        rng = random.Random(vocab.value)
        for n in range(1, 13):
            models = guard_models(n, vocab, n)
            for _ in range(4 if n <= 6 else 2):
                f = guarded_sentence(rng, vocab, rng.choice((3, 4)) if n <= 6 else 3)
                for m in models:
                    assert holds(m, f) == brute_holds(m, f), (n, m.graph.edges, to_text(f))

    @pytest.mark.parametrize("text, vocab, edges", [
        # y's forall is all of x's
        ("forall x. forall y. adj(x, y) -> (exists z. adj(y, z) & !(z = x))", Vocab.L, [(1, 2), (2, 3)]),
        ("forall x. forall y. adj(y, x) -> (forall z. adj(x, z) -> !(z = y) | succ(y, z))", Vocab.L_PLUS,
         [(1, 2), (2, 3), (3, 4), (2, 4)]),
        # a conjunct on x alone beside y's guard stays outside y's quantifier
        ("forall x. forall y. x = first & adj(x, y) -> x = first", Vocab.L_PLUS, [(1, 2)]),
        ("forall x. forall y. x = first & adj(x, y) -> y = last", Vocab.L_PLUS, [(1, 2), (2, 3), (1, 3)]),
        ("exists x. exists y. adj(y, x) & !(x = first) & y = last", Vocab.L_PLUS, [(1, 2), (2, 3)]),
        # vertex 8 has no edge, and vertex 7's are the last
        ("forall a. forall b. adj(a, b) & succ(b, a) -> (forall c. adj(a, c) -> succ(c, a))", Vocab.L_PLUS,
         [(2, 4), (2, 6), (2, 7), (4, 7), (6, 7)]),
        ("exists a. exists b. adj(a, b) & !succ(b, a) & !succ(a, b)", Vocab.L_PLUS, [(1, 2), (2, 3), (1, 4)]),
    ])
    def test_guarded_shapes_match_oracle(self, text, vocab, edges):
        f = parse(text, vocab)
        for n in range(1, 9):
            for g in (make_graph(n, [e for e in edges if max(e) <= n]), complete_graph(n)):
                m = LabeledModel(g, vocab)
                assert holds(m, f) == brute_holds(m, f), (text, n, g.edges)

    @pytest.mark.parametrize("budget, text", [
        # at 64 cells and n = 8 no quantifier inside y's can be refused, and the
        # arrays over z and the guard's two levels are cut into slices
        (64, "forall x. forall y. adj(x, y) -> (exists z. (z = first | z = last) & adj(y, z) & !(z = x))"),
        (64, "exists x. exists y. adj(y, x) & (forall z. z = first | z = last -> adj(y, z) | z = x)"),
        # z is guarded by adjacency to x, an outer level
        (20, "forall x. forall y. forall z. adj(z, x) & (z = first | z = last) -> adj(y, z) | y = x"),
    ])
    def test_slices_of_guarded_bodies_match_oracle(self, monkeypatch, budget, text):
        monkeypatch.setattr(sampler, "CELL_BUDGET", budget)
        f = parse(text, Vocab.L_PLUS)
        for seed in range(16):
            for m in guard_models(8, Vocab.L_PLUS, seed):
                assert holds(m, f) == brute_holds(m, f), (text, seed, m.graph.edges)

    def test_sliced_edge_guards_match_oracle(self, monkeypatch):
        # n = 7 and a budget of 49 cells: arrays over a guard's two levels and
        # a third are cut into slices
        monkeypatch.setattr(sampler, "CELL_BUDGET", 49)
        rng = random.Random(11)
        for vocab in Vocab:
            for seed in range(8):
                f = guarded_sentence(rng, vocab, 3)
                for m in guard_models(7, vocab, seed):
                    assert holds(m, f) == brute_holds(m, f), to_text(f)

    def test_sliced_evaluation_matches_oracle(self, monkeypatch):
        # n = 7 and a budget of 49 cells: every 3-axis array is cut into slices
        monkeypatch.setattr(sampler, "CELL_BUDGET", 49)
        rng = random.Random(5)
        for vocab in Vocab:
            for _ in range(40):
                g = sample(make_constant(0.5), 7, RngStream(rng.randrange(2**32)),
                           CIRCLE if vocab.circular else LINE)
                f, m = random_sentence(rng, vocab, 3), LabeledModel(g, vocab)
                assert holds(m, f) == brute_holds(m, f), to_text(f)
        for n in range(4, 13):  # no array of these spans 4 axes
            monkeypatch.setattr(sampler, "CELL_BUDGET", n * n)
            m = LabeledModel(sample_line(make_constant(0.5), n, RngStream(n)), Vocab.L)
            for f in library_sentences(vocab=Vocab.L):
                assert holds(m, f) == brute_holds(m, f), (n, f.name)

    @pytest.mark.parametrize("budget, text", [
        # under 20 cells at n = 8, arrays over two or three levels are cut along
        # the leading axis, the innermost level's; guards make the ranges uneven
        (20, "forall x. (x = first | adj(x, last)) -> (exists y. succ(x, y) | adj(x, y) & !(y = x))"),
        (20, "forall x. forall y. (y = first | y = last) -> (exists z. adj(x, z) & adj(z, y) & !(z = x))"),
        (20, "exists x. !adj(x, first) & (forall y. !(y = x) ->"
             " (exists z. (z = first | succ(z, last)) & adj(y, z) & !adj(x, z)))"),
        # under 6 cells, inside x's range guard v's array spans x's 8 vertices
        # and v's 2: one slice of v's axis does not fit, so x's axis is cut
        (6, "forall x. (exists v. (v = first | v = last) & adj(x, v)) ->"
            " (exists y. !(y = first) & !(y = last) & adj(x, y))"),
        (6, "exists x. (forall v. (v = first | succ(first, v)) -> adj(x, v) | v = x) & !(x = last)"),
    ])
    def test_leading_and_outermost_slices_match_oracle(self, monkeypatch, budget, text):
        monkeypatch.setattr(sampler, "CELL_BUDGET", budget)
        f = parse(text, Vocab.L_PLUS)
        for seed in range(16):
            m = LabeledModel(sample_line(make_constant(0.5), 8, RngStream(seed, 3)), Vocab.L_PLUS)
            assert holds(m, f) == brute_holds(m, f), (text, seed)

    def test_slices_of_the_quantified_axis(self, monkeypatch):
        # a budget of 3 cells below n = 8: one-axis bodies are reduced slice by slice
        monkeypatch.setattr(sampler, "CELL_BUDGET", 3)
        m = LabeledModel(make_graph(8, [(2, 5), (5, 8)]), Vocab.L_PLUS)
        for text in ("exists x. adj(x, last)", "forall x. !(x = first) -> !adj(x, first)",
                     "exists x. adj(x, first)", "forall x. x = x", "forall x. !adj(x, last)"):
            f = parse(text, Vocab.L_PLUS)
            assert holds(m, f) == brute_holds(m, f), text

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_bundled_sequences_match_recorded_values(self, name):
        f = next(f for f in library_sentences() if f.name == name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScaleWarning)
            seqs = {key: make() for key, make in RECORDED_SEQS.items()}
        for key, seq in seqs.items():
            bits = "".join(str(int(holds(LabeledModel(sample_line(seq, n, RngStream(n, 7)), f.vocab), f)))
                           for n in RECORDED_N)
            assert bits == RECORDED[name][key], (name, key)

    def test_checked_formula_pickles(self):
        f, m = library("edge_in_c4"), LabeledModel(complete_graph(5), Vocab.L)
        assert holds(m, f)
        h = hash(f)
        # the compiled checker and the hash (string hashes differ between processes) stay out
        assert not {"_checker", "_hash"} & set(f.__getstate__())
        clone = pickle.loads(pickle.dumps(f))
        assert clone == f and hash(clone) == h and holds(m, clone)

    def test_edge_in_c4_at_400_stays_under_64_mb(self):
        m = LabeledModel(sample_line(make_constant(0.5), 400, RngStream(1, 0)), Vocab.L)
        c4 = library("edge_in_c4")
        tracemalloc.start()
        try:
            value = holds(m, c4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value and peak < 64 * 2**20, peak

    def test_slices_of_the_quantified_level_fold_into_one_output(self, monkeypatch):
        # z's array spans 48^4 cells; one z-slice of 48^3 cells is over half of
        # 2^17, so z is cut one vertex at a time: 48 slices that must not all stay live
        f = parse("forall x. forall y. forall u. exists z. adj(x, z) & adj(y, z) & !adj(u, z)",
                  Vocab.L)
        m = LabeledModel(sample_line(make_constant(0.5), 48, RngStream(1, 0)), Vocab.L)
        monkeypatch.setattr(sampler, "CELL_BUDGET", 1 << 23)
        whole = holds(m, f)
        monkeypatch.setattr(sampler, "CELL_BUDGET", 1 << 17)
        tracemalloc.start()
        try:
            value = holds(m, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == whole and peak < 4 * sampler.CELL_BUDGET, peak

    def test_budget_error_when_one_slice_does_not_fit(self, monkeypatch):
        # three conjuncts over w are not contracted, so the body spans 4 axes
        f = parse("forall a. forall b. forall c. exists w. adj(a, w) & adj(b, w) & adj(c, w)",
                  Vocab.L)
        with pytest.raises(CheckerBudgetError) as err:
            holds(LabeledModel(edgeless_graph(400), Vocab.L), f)
        assert (err.value.estimate, err.value.budget) == (400**3, sampler.CELL_BUDGET)
        monkeypatch.setattr(sampler, "CELL_BUDGET", 1000)
        with pytest.raises(CheckerBudgetError) as err:
            holds(LabeledModel(complete_graph(20), Vocab.L), f)
        assert (err.value.estimate, err.value.budget) == (20**3, 1000)
        assert isinstance(err.value, RuntimeError) and "8000" in str(err.value)

    def test_refusal_does_not_depend_on_edges(self):
        # w ranges over a's edges, yet is refused at its dense range sizes, so
        # a sparse model is refused as an edgeless one of the same n
        sparse = sample_line(make_constant(0.1), 400, RngStream(4, 0))
        for text in ("forall a. forall b. forall c. exists w. adj(a, w) & adj(b, w) & adj(c, w)",
                     "forall a. forall b. forall c. forall w. adj(w, a) -> adj(b, w) | adj(c, w)"):
            f = parse(text, Vocab.L)
            for g in (edgeless_graph(400), sparse):
                with pytest.raises(CheckerBudgetError) as err:
                    holds(LabeledModel(g, Vocab.L), f)
                assert err.value.estimate == 400**3, (text, len(g.edges))

    def test_refused_where_the_plan_reaches_a_quantifier(self, monkeypatch):
        # a = b is false on every edge (a, b), but the plan reaches c on the
        # diagonal and refuses it
        monkeypatch.setattr(sampler, "CELL_BUDGET", 16)
        f = parse("forall a. forall b. adj(a, b) -> (forall c. a = b & adj(c, a) -> b = c)", Vocab.L)
        with pytest.raises(CheckerBudgetError) as err:
            holds(LabeledModel(make_graph(8, [(i, i + 1) for i in range(1, 8)]), Vocab.L), f)
        assert err.value.estimate == 64
        assert holds(LabeledModel(edgeless_graph(8), Vocab.L), f)


class TestClockwise:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_some_orientation_always_holds(self, a, b, c):
        if len({a, b, c}) == 3:
            assert cw_holds(a, b, c) or cw_holds(a, c, b)

    def test_distinct_triples_pick_one_orientation(self):
        for a, b, c in combinations(range(1, 7), 3):
            assert cw_holds(a, b, c) != cw_holds(a, c, b)

    def test_rotation_invariance(self):
        assert cw_holds(2, 5, 9) and cw_holds(5, 9, 2) and cw_holds(9, 2, 5)


class TestAtomTable:
    @pytest.mark.parametrize("vocab", list(Vocab))
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_bits_follow_the_atoms(self, vocab, n):
        rng = random.Random(n)
        g = make_graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5])
        m = LabeledModel(g, vocab)
        table = m.atoms
        assert table.shape == (n + 1, n + 1) and table.dtype == "uint8"
        assert not table[0].any() and not table[:, 0].any()
        for x, a in product(range(1, n + 1), repeat=2):
            want = (a == x) | g.has_edge(a, x) << 1
            if vocab.has_succ:
                want |= m.succ(a, x) << 2 | m.succ(x, a) << 3
            if vocab.has_le:
                want |= (a <= x) << 4
            assert table[x, a] == want, (x, a)


class TestLibrary:
    def test_path2_depth(self):
        assert library("path2").depth == 1

    def test_extension_on_complete_graph(self):
        # no vertex has a non-neighbor in a complete graph
        f = library("extension_Ak", k=1)
        assert not holds(LabeledModel(complete_graph(3), Vocab.L), f)

    def test_triangle_depth(self):
        assert library("triangle").depth == 3

    def test_ex2_path4_depth(self):
        assert library("ex2_path4").depth == 5

    def test_unknown_name(self):
        with pytest.raises(LogicError):
            library("no_such_sentence")

    def test_extension_requires_positive_k(self):
        with pytest.raises(LogicError):
            library("extension_Ak", k=0)
