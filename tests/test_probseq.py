"""Probability-sequence constructors, evaluation, and statistics."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddgraphs.graph import complete_graph, edgeless_graph, make_graph
from ddgraphs.presets import NAMED_SEQUENCES
from ddgraphs.probseq import (
    MAX_INDEX,
    Band,
    IndexBudgetError,
    ProbSeq,
    RuleOverlapError,
    ScaleWarning,
    SequenceError,
    condition_statistic,
    from_json,
    log_partial_product,
    make_constant,
    make_diluted,
    make_example2,
    make_ones_powers,
    make_random_binary,
    make_support,
    make_thm1,
    make_thm2,
    make_thm3,
    make_thm6,
    partial_product,
    support_table,
    support_upto,
)
from ddgraphs.rng import RngStream
from ddgraphs.sampler import is_admissible, sample_line


def reference_log_miss(seq, n, weighted):
    """sum_{i=1}^{n} w(i) ln(1 - p(i)), w(i) = i or 1, one index at a time."""
    total = 0.0
    for i in range(1, n + 1):
        p = seq.eval(i)
        if p >= 1.0:
            return float("-inf")
        total += (i if weighted else 1) * math.log1p(-p)
    return total


def reference_admissible(seq, h):
    """Every pair of [n]: edges need p > 0, non-edges p < 1."""
    for j in range(1, h.n + 1):
        for k in range(j + 1, h.n + 1):
            p = seq.eval(k - j)
            if ((j, k) in h.edges and p <= 0.0) or ((j, k) not in h.edges and p >= 1.0):
                return False
    return True


def thm1_scaled(k=2, b=(4, 16)):
    with pytest.warns(ScaleWarning):
        return make_thm1(k, b)


class TestConstant:
    def test_all_zero(self):
        s = make_constant(0.0)
        assert s.eval(1) == 0.0 and s.eval(99) == 0.0

    def test_all_one(self):
        s = make_constant(1.0)
        assert s.eval(1) == 1.0 and s.eval(99) == 1.0

    def test_half_far_out(self):
        assert make_constant(0.5).eval(10**6) == 0.5

    def test_eval_example(self):
        assert make_constant(0.5).eval(7) == 0.5

    def test_rejects_out_of_range(self):
        with pytest.raises(SequenceError):
            make_constant(1.5)
        with pytest.raises(SequenceError):
            make_constant(-0.1)


class TestThm1:
    def test_head_band_tail(self):
        s = thm1_scaled()
        assert s.eval(3) == 0.5
        assert s.eval(10) == pytest.approx(1 / 60, abs=0)
        assert s.eval(17) == 0.0

    def test_band_formula(self):
        s = thm1_scaled()
        assert s.eval(5) == pytest.approx(1 / 30)  # 1/(3*5*2)

    def test_meta(self):
        s = thm1_scaled()
        assert s.meta["k"] == 2 and s.meta["b"] == [4, 16]

    def test_rejects_non_increasing(self):
        with pytest.raises(SequenceError):
            make_thm1(2, (16, 4))

    def test_warns_on_small_head(self):
        with pytest.warns(ScaleWarning):
            make_thm1(2, (4, 16))

    def test_c2_bound_at_largest_band_end(self):
        # analytic chain: prod(1-p(i)) >= n^{-1/k} up to desk-scale slack
        s = thm1_scaled(2, (4, 16, 256))
        c2 = condition_statistic(s, 256, "C2")
        assert c2 >= -1 / 2 - 0.1


class TestThm2:
    def test_band_values(self):
        s = make_thm2([1, 40, 150])
        assert s.eval(35) == pytest.approx(1 / 3)
        assert s.eval(5) == 0.0
        assert s.eval(150) == pytest.approx(1 / 4)

    def test_band_edges(self):
        s = make_thm2([1, 40, 150])
        assert s.eval(13) == pytest.approx(1 / 3)  # 40 - 27
        assert s.eval(12) == 0.0
        assert s.eval(86) == pytest.approx(1 / 4)  # 150 - 64

    def test_rejects_overlapping_bands(self):
        with pytest.raises(RuleOverlapError):
            make_thm2([1, 40, 60])  # 60 - 64 < 40

    @staticmethod
    def spacing_warnings(f):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ScaleWarning)
            make_thm2(f)
        return [str(w.message).split(":")[0] for w in caught if w.category is ScaleWarning]

    def test_warns_at_m4_only_below_respaced_top(self):
        # f(4) - 2*4^3 - 1 = 21 <= f(3) = 40, while 170 - 129 = 41 > 40 and
        # 460 - 251 = 209 > 170; f(3) = 40 falls short too (40 - 55 <= f(2) = 1)
        assert self.spacing_warnings([1, 40, 150, 460]) == ["f(3)=40", "f(4)=150"]
        assert self.spacing_warnings([1, 40, 170, 460]) == ["f(3)=40"]

    def test_spacing_boundary(self):
        # f(m) - 2m^3 - 1 > f(m-1) at every m >= 3 needs f(3) >= 57, then
        # f(4) >= 187 and f(5) >= 439
        assert self.spacing_warnings([1, 57, 187, 439]) == []
        assert self.spacing_warnings([1, 56, 187, 439]) == ["f(3)=56"]
        assert self.spacing_warnings([1, 57, 186, 439]) == ["f(4)=186"]
        assert self.spacing_warnings([1, 57, 187, 438]) == ["f(5)=438"]


def example2_spaced():
    # f(3) = 120 equals ten times the earlier mass exactly, which trips the
    # spacing warning by design
    with pytest.warns(ScaleWarning):
        return make_example2([2, 8], [1, 11, 120])


class TestExample2:
    def test_support_values(self):
        s = example2_spaced()
        assert s.eval(120) == pytest.approx(3**-0.95)
        assert s.eval(120) == pytest.approx(0.352, abs=1e-3)
        assert s.eval(119) == 0.0

    def test_clamps_unit_value(self):
        # a(1) = 1^-0.2 = 1 is not a usable probability; dropped and recorded
        s = example2_spaced()
        assert s.meta["excluded"] == [1]
        assert s.eval(1) == 0.0

    def test_rejects_non_increasing(self):
        with pytest.raises(SequenceError):
            make_example2([8, 2], [1, 11, 120])
        with pytest.raises(SequenceError):
            make_example2([2, 8], [11, 1])

    def test_warns_on_tight_spacing(self):
        with pytest.warns(ScaleWarning):
            make_example2([2, 8], [1, 11, 120, 130])


class TestThm3:
    def test_recursion_first_step(self):
        s = make_thm3([0.5, 0.5, 0.5], "eq5")
        assert s.meta["f"] == [1, 16]  # ceil(max(3/0.5, 8*(1-0.5)^-1))

    def test_explicit_support(self):
        s = make_thm3([0.5, 0.5, 0.5], [1, 16, 200])
        assert s.eval(16) == 0.5
        assert s.eval(17) == 0.0
        assert s.eval(200) == 0.5

    def test_recursion_overflows_quickly(self):
        with pytest.raises(IndexBudgetError) as exc:
            make_thm3([0.5] * 6, "eq5")
        assert exc.value.i == 3

    def test_rejects_values_outside_open_interval(self):
        with pytest.raises(SequenceError):
            make_thm3([1.0, 0.5], [1, 16])


class TestThm6:
    def test_support(self):
        s = make_thm6([0.5] * 3)
        assert s.meta["support"] == [6, 18, 54]
        assert s.eval(18) == 0.5
        assert s.eval(12) == 0.0
        assert s.eval(6) == 0.5 and s.eval(7) == 0.0

    def test_floor_arithmetic(self):
        s = make_thm6([0.9, 0.3])
        assert s.meta["support"] == [3, 30]
        assert s.eval(30) == pytest.approx(0.3)

    def test_warns_when_increasing(self):
        with pytest.warns(ScaleWarning):
            make_thm6([0.3, 0.8])

    def test_overflow(self):
        with pytest.raises(IndexBudgetError):
            make_thm6([0.5] * 45)


class TestRandomBinary:
    def test_zero_one_valued(self):
        s = make_random_binary(1)
        assert all(s.eval(i) in (0.0, 1.0) for i in range(1, 1001))

    def test_deterministic(self):
        a, b = make_random_binary(1), make_random_binary(1)
        assert [a.eval(i) for i in range(1, 1001)] == [b.eval(i) for i in range(1, 1001)]

    def test_seeds_differ(self):
        a, b = make_random_binary(1), make_random_binary(2)
        assert any(a.eval(i) != b.eval(i) for i in range(1, 10_001))

    def test_fair_frequency_across_seeds(self):
        good = 0
        for seed in range(100):
            s = make_random_binary(seed)
            freq = sum(s.eval(i) for i in range(1, 10_001)) / 10_000
            good += 0.47 <= freq <= 0.53
        assert good >= 95


class TestOnesPowers:
    def test_powers_of_four(self):
        s = make_ones_powers(4)
        assert s.eval(16) == 1.0
        assert s.eval(8) == 0.0

    def test_exponent_zero_included(self):
        assert make_ones_powers(2).eval(1) == 1.0

    def test_base_guard(self):
        with pytest.raises(SequenceError):
            make_ones_powers(1)


class TestDiluted:
    def test_positions(self):
        s = make_diluted([0.5, 0.5], [2, 3])
        assert s.meta["positions"] == [4, 8]
        assert s.eval(4) == 0.5 and s.eval(8) == 0.5 and s.eval(5) == 0.0

    def test_zero_gaps_keep_spacing(self):
        s = make_diluted([0.5, 0.5], [0, 0])
        assert s.meta["positions"] == [2, 3]

    def test_huge_gap(self):
        s = make_diluted([0.9], [10**6])
        assert s.eval(10**6 + 2) == pytest.approx(0.9)

    def test_rejects_negative_gap(self):
        with pytest.raises(SequenceError):
            make_diluted([0.5], [-1])


class TestLogPartialProduct:
    def test_constant_analytic(self):
        assert log_partial_product(make_constant(0.5), 4) == pytest.approx(
            4 * math.log(0.5), abs=1e-12
        )

    def test_zero_sequence(self):
        assert log_partial_product(make_constant(0.0), 1000) == 0.0

    def test_unit_term_gives_minus_inf(self):
        assert log_partial_product(make_ones_powers(4), 4) == float("-inf")

    def test_partial_product_exponentiates(self):
        assert partial_product(make_constant(0.5), 4) == pytest.approx(1 / 16)
        assert partial_product(make_ones_powers(4), 4) == 0.0

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_monotone_non_increasing(self, n):
        s = make_thm2([1, 40, 150])
        assert log_partial_product(s, n + 1) <= log_partial_product(s, n) + 1e-15


class TestConditionStatistics:
    def test_c2_constant(self):
        assert condition_statistic(make_constant(0.5), 4, "C2") == pytest.approx(-2.0, abs=1e-12)

    def test_c5_zero_sequence(self):
        assert condition_statistic(make_constant(0.0), 100, "C5") == 0.0

    def test_c3_sum_matches_direct_formula(self):
        s = thm1_scaled()
        want = 4 * 0.5 + sum(1 / (6 * i) for i in range(5, 17))
        assert condition_statistic(s, 16, "C3_SUM") == pytest.approx(want, abs=1e-12)

    def test_c2_needs_two(self):
        with pytest.raises(ValueError):
            condition_statistic(make_constant(0.5), 1, "C2")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            condition_statistic(make_constant(0.5), 5, "C9")


STAT_NS = list(range(1, 40)) + [64, 100, 212, 256, 300, 460, 1000, 1400]


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(NAMED_SEQUENCES))
    def test_statistics(self, name):
        seq = NAMED_SEQUENCES[name]()
        for n in STAT_NS:
            lpp = reference_log_miss(seq, n, weighted=False)
            assert log_partial_product(seq, n) == lpp, n
            assert condition_statistic(seq, n, "C5") == reference_log_miss(seq, n, weighted=True), n
            c3 = 0.0
            for i in range(1, n + 1):
                c3 += seq.eval(i)
            assert condition_statistic(seq, n, "C3_SUM") == c3, n
            if n >= 2:
                assert condition_statistic(seq, n, "C2") == lpp / math.log(n), n

    @pytest.mark.parametrize("name", sorted(NAMED_SEQUENCES))
    def test_admissibility(self, name):
        seq = NAMED_SEQUENCES[name]()
        verdicts = set()
        for n in list(range(1, 13)) + [20, 41]:
            graphs = [complete_graph(n), edgeless_graph(n)]
            graphs += [sample_line(seq, n, RngStream(3, t)) for t in range(4)]
            graphs += [sample_line(make_constant(0.5), n, RngStream(5, t)) for t in range(8)]
            graphs += [make_graph(n, [(v, v + 1) for v in range(1, n)])]
            for h in graphs:
                want = reference_admissible(seq, h)
                assert is_admissible(seq, h) == want, (n, sorted(h.edges))
                verdicts.add(want)
        assert verdicts == {True, False}


class TestAdmissibility:
    def test_interior_constant_admits_everything(self):
        s = make_constant(0.5)
        assert is_admissible(s, complete_graph(4))
        assert is_admissible(s, edgeless_graph(4))
        assert is_admissible(s, make_graph(3, [(1, 3)]))

    def test_edge_needs_positive_probability(self):
        s = make_support({2: 0.5})  # p(1) = 0
        assert not is_admissible(s, make_graph(2, [(1, 2)]))

    def test_non_edge_needs_room(self):
        s = make_support({1: 1.0})
        assert not is_admissible(s, edgeless_graph(2))


class TestSupportUpto:
    def test_thm6(self):
        assert support_upto(make_thm6([0.5] * 4), 60) == [6, 18, 54]

    def test_zero_constant(self):
        assert support_upto(make_constant(0.0), 10) == []

    def test_ones_powers(self):
        assert support_upto(make_ones_powers(4), 20) == [1, 4, 16]

    def test_thm6_matches_floor_set(self):
        s = make_thm6([0.5] * 6)
        for n in (5, 6, 100, 1000, 3000):
            want = [idx for idx in s.meta["support"] if idx <= n]
            assert support_upto(s, n) == want

    def test_table_is_memoized_and_read_only(self):
        s = make_support({2: 0.25, 5: 1.0})
        idx, probs = support_table(s, 9)
        assert (idx.tolist(), probs.tolist()) == ([2, 5], [0.25, 1.0])
        assert support_table(s, 9)[1] is probs
        for a in (idx, probs):
            with pytest.raises(ValueError):
                a[0] = 3


def half(i):
    return 0.5


class TestRuleSemantics:
    def test_rejects_conflicting_overlap(self):
        # bands may not share an index, whether or not their values agree there
        with pytest.raises(RuleOverlapError):
            ProbSeq(bands=(Band(3, 3, half), Band(3, 3, lambda i: 0.25)))
        with pytest.raises(RuleOverlapError, match="i=3$"):
            ProbSeq(bands=(Band(3, 3, half), Band(3, 3, half)))

    def test_identical_overlap_allowed(self):
        # equal values on adjacent disjoint bands
        s = ProbSeq(bands=(Band(4, 4, half), Band(3, 3, half)))
        assert (s.eval(2), s.eval(3), s.eval(4), s.eval(5)) == (0.0, 0.5, 0.5, 0.0)

    def test_rejects_band_conflict_at_every_index(self):
        # the values differ only at 500; the error names the first shared index
        with pytest.raises(RuleOverlapError, match="i=1$"):
            ProbSeq(bands=(Band(1, 1000, half), Band(1, 1000, lambda i: 0.25 if i == 500 else 0.5)))
        with pytest.raises(RuleOverlapError, match="i=1000$"):
            ProbSeq(bands=(Band(1, 1000, half), Band(1000, 1000, half)))
        s = ProbSeq(bands=(Band(1, 999, half), Band(1000, 1000, half),
                           Band(1001, MAX_INDEX, lambda i: 0.1)))
        assert (s.eval(999), s.eval(1000), s.eval(1001)) == (0.5, 0.5, 0.1)

    def test_rejects_overlapping_open_tails(self):
        with pytest.raises(RuleOverlapError, match="i=7$"):
            ProbSeq(bands=(Band(1, MAX_INDEX, half), Band(7, MAX_INDEX, half)))

    def test_generated_rule_conflict_is_probed(self):
        powers = make_ones_powers(4).bands
        with pytest.raises(RuleOverlapError, match="i=16$"):
            ProbSeq(bands=(*powers, Band(10, 20, half)))

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            make_constant(0.5).eval(0)


def band_fn(v):
    """A constant value, or (for None) one that varies with the index and
    is 0 at every fourth index."""
    return (lambda i: (i % 4) / 4) if v is None else (lambda i: v)


@st.composite
def disjoint_bands(draw):
    """Up to 6 disjoint bands in increasing order, 0..3 free indices apart;
    the last may be an open tail."""
    bands, lo = [], draw(st.integers(min_value=1, max_value=4))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        hi = lo + draw(st.integers(min_value=0, max_value=5))
        bands.append(Band(lo, hi, band_fn(draw(st.sampled_from([0.0, 0.25, 1.0, None])))))
        lo = hi + 1 + draw(st.integers(min_value=0, max_value=3))
    if bands and draw(st.booleans()):
        bands[-1] = Band(bands[-1].lo, MAX_INDEX, bands[-1].fn)
    return bands


def scan(bands, i):
    """p(i) from the first band in list order that holds i."""
    return next((b.fn(i) for b in bands if b.lo <= i <= b.hi), 0.0)


class TestBands:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_eval_and_table_match_a_linear_scan(self, data):
        bands = data.draw(disjoint_bands())
        top = max((b.lo for b in bands), default=0) + 8
        for order in (bands, data.draw(st.permutations(bands))):
            seq = ProbSeq(bands=tuple(order))
            assert [seq.eval(i) for i in [*range(1, top), MAX_INDEX]] == [
                scan(bands, i) for i in [*range(1, top), MAX_INDEX]]
            n = data.draw(st.integers(min_value=0, max_value=top))
            idx, probs = support_table(seq, n)
            want = [(i, seq.eval(i)) for i in range(1, n + 1) if seq.eval(i) > 0.0]
            assert list(zip(idx.tolist(), probs.tolist())) == want

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_overlap_names_the_first_shared_index(self, data):
        bands = data.draw(disjoint_bands().filter(bool))
        near = data.draw(st.sampled_from(bands))
        lo = data.draw(st.integers(min_value=max(1, near.lo - 3), max_value=near.lo + 5))
        hi = data.draw(st.one_of(st.integers(min_value=lo, max_value=lo + 8), st.just(MAX_INDEX)))
        extra = Band(lo, hi, band_fn(0.5))
        shared = [max(a.lo, extra.lo) for a in bands if max(a.lo, extra.lo) <= min(a.hi, extra.hi)]
        order = data.draw(st.permutations([*bands, extra]))
        if not shared:
            assert ProbSeq(bands=tuple(order)).eval(lo) == 0.5
            return
        with pytest.raises(RuleOverlapError, match=f"i={min(shared)}$"):
            ProbSeq(bands=tuple(order))

    def test_thm6_terms_on_one_index_are_refused(self):
        # floor(3 / 0.3) = floor(9 / 0.9) = 10
        with pytest.warns(ScaleWarning), pytest.raises(RuleOverlapError, match="i=10$"):
            make_thm6([0.3, 0.9])

    @pytest.mark.parametrize("seq", [make_constant(0.5), make_support({3: 0.5}),
                                     make_ones_powers(2)], ids=lambda s: s.kind)
    def test_index_past_the_budget_is_refused(self, seq):
        assert seq.eval(MAX_INDEX) == (0.5 if seq.kind == "constant" else 0.0)
        with pytest.raises(IndexBudgetError, match=f"i={MAX_INDEX + 1} exceeds"):
            seq.eval(MAX_INDEX + 1)


@st.composite
def any_sequence(draw):
    kind = draw(st.sampled_from(["constant", "thm1", "thm2", "example2", "thm3", "thm6", "ones",
                                 "rand", "diluted", "support"]))
    if kind == "constant":
        return make_constant(draw(st.floats(min_value=0, max_value=1, allow_nan=False)))
    if kind == "thm1":
        b1 = draw(st.integers(min_value=13, max_value=20))
        b2 = draw(st.integers(min_value=b1 + 1, max_value=60))
        return make_thm1(draw(st.integers(min_value=1, max_value=2)), [b1, b2])
    if kind == "thm2":
        return make_thm2([1, 40, draw(st.integers(min_value=105, max_value=400))])
    if kind == "example2":
        b1 = draw(st.integers(min_value=1, max_value=4))
        return make_example2([b1, draw(st.integers(min_value=b1 + 1, max_value=8))],
                             [1, 20, 300, draw(st.integers(min_value=3500, max_value=9000))])
    if kind == "thm3":
        a = draw(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=3, max_size=3))
        return make_thm3(a, draw(st.sampled_from(["eq5", [1, 16, 200]])))
    if kind == "thm6":
        return make_thm6([draw(st.floats(min_value=0.2, max_value=0.9, allow_nan=False))] * 3)
    if kind == "ones":
        return make_ones_powers(draw(st.integers(min_value=2, max_value=5)))
    if kind == "rand":
        return make_random_binary(draw(st.integers(min_value=0, max_value=2**32)))
    if kind == "diluted":
        a = draw(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=4))
        return make_diluted(a, draw(st.lists(st.integers(min_value=0, max_value=3000),
                                             min_size=len(a), max_size=len(a))))
    return make_support({draw(st.integers(min_value=1, max_value=50)): 0.7})


@given(any_sequence(), st.integers(min_value=1, max_value=10_000))
@settings(max_examples=120, deadline=None)
def test_values_always_probabilities(seq, i):
    assert 0.0 <= seq.eval(i) <= 1.0


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "seq",
        [
            make_constant(0.25),
            make_support({3: 0.1, 9: 0.9}),
            make_thm2([1, 40, 150]),
            make_thm6([0.5, 0.4]),
            make_random_binary(99),
            make_ones_powers(3),
            make_diluted([0.5], [4]),
            make_thm3([0.5, 0.5, 0.5], [1, 16, 200]),
        ],
    )
    def test_reload_evaluates_identically(self, seq):
        clone = from_json(seq.to_json())
        assert clone.kind == seq.kind
        for i in list(range(1, 60)) + [97, 150, 200, 1000]:
            assert clone.eval(i) == seq.eval(i)

    @pytest.mark.parametrize(
        "seq",
        [
            make_constant(0.25),
            make_support({3: 0.1, 9: 0.9}),
            make_thm1(1, [7, 20, 40]),
            make_thm2([1, 100, 1000]),
            make_example2([2, 4], [1, 20, 300, 5000]),
            make_thm3([0.5, 0.25, 0.5], [1, 16]),
            make_thm3([0.5, 0.5, 0.5], "eq5"),
            make_thm6([0.5, 0.4]),
            make_random_binary(99),
            make_ones_powers(3),
            make_diluted([0.5], [4]),
        ],
        ids=lambda seq: seq.kind + ("_eq5" if seq.params.get("f") == "eq5" else ""),
    )
    def test_json_is_a_fixed_point(self, seq):
        # params record the constructor call, so a reload writes the same document
        assert from_json(seq.to_json()).to_json() == seq.to_json()

    def test_scale_warning_names_the_caller(self):
        with pytest.warns(ScaleWarning) as direct:
            seq = make_thm2([1, 40, 150, 460])
        with pytest.warns(ScaleWarning) as loaded:
            from_json(seq.to_json())
        assert len(direct) == len(loaded) == 2
        assert {w.filename for w in direct} == {w.filename for w in loaded} == {__file__}

    def test_thm1_roundtrip(self):
        seq = thm1_scaled()
        with pytest.warns(ScaleWarning):
            clone = from_json(seq.to_json())
        assert all(clone.eval(i) == seq.eval(i) for i in range(1, 40))

    def test_unknown_kind(self):
        with pytest.raises(SequenceError):
            from_json('{"kind": "nope", "params": {}}')

    @pytest.mark.parametrize("doc", [
        '{"kind": "constant", "params": {}}',
        '{"kind": "constant", "params": {"p": 0.5, "q": 1}}',
        '{"kind": "thm3", "params": {"a": [0.5]}}',
        '{"kind": "constant", "params": [0.5]}',
    ])
    def test_bad_params_raise_sequence_error(self, doc):
        with pytest.raises(SequenceError):
            from_json(doc)
