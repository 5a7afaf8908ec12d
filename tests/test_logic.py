"""Parser, satisfaction, and the sentence library.

The model checker is validated against an independent evaluator that
materializes full variable assignments with no short-circuiting.
"""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddgraphs.graph import complete_graph, edgeless_graph, make_graph
from ddgraphs.logic import (
    Adj,
    And,
    Const,
    Cw,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaSyntaxError,
    LabeledModel,
    LogicError,
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
from ddgraphs.probseq import make_constant, make_ones_powers
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

    @pytest.mark.parametrize("name", ["path2", "ex2_path4", "triangle", "edge_in_c4", "adj_first_last"])
    def test_roundtrip_library(self, name):
        f = library(name)
        assert parse(to_text(f), f.vocab).root == f.root

    def test_roundtrip_extension(self):
        f = library("extension_Ak", k=2)
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
        # every atom the vocabulary allows, constants included; binders are
        # drawn from three names, so siblings and shadowing both occur
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        g = sample(make_constant(0.5), n, RngStream(seed), CIRCLE if vocab.circular else LINE)
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

        f = Formula(gen(4, []), vocab)
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
