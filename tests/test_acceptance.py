"""Acceptance suite.

One test per acceptance criterion, each printed as a pass/fail line with
its measured values (run with ``pytest tests/test_acceptance.py -v -s`` to
see all lines).  Tolerances and runtime budgets are asserted as stated.

Two criteria are checked against expectations derived by hand, not read
from the code under test:

* the deterministic 4-cycle trace is false exactly where n <= 8 or n - 1 is
  a power of four (at n = 4..8 some distance-1 edge has no room for a
  completing square; at n = 4^j + 1 the edge (1, n) has none), so at
  n = 4..20 it is false at 4, 5, 6, 7, 8, 17 and not only at 5, 17;
* the two-band zero case at n = 2f(m) - 2m^3 needs f(m) - 2m^3 - 1 > f(m-1).
  Bands topped at (1, 40, 170, 460) meet it at m = 4, 5; bands topped at
  (1, 40, 150, 460) do not, and there midpoints mixing the 1/3 band with the
  1/4 band complete a two-edge path at n = 172 (P = 1 - (11/12)^40, not 0).
"""

import math
import random
import time
import warnings
from itertools import combinations

from ddgraphs.efgame import SUM, fact4_search, th_k_equal
from ddgraphs.estimator import (
    brute_force_probability,
    exact_path2,
    exact_triangle_circle,
    mc_probability,
)
from ddgraphs.graph import copy_counts, make_graph
from ddgraphs.logic import LabeledModel, Vocab, holds, library, library_sentences
from ddgraphs.presets import (
    absorbing_sum_candidate,
    all_labeled_graphs,
    has_triangle_predicate,
    midpoint_chain_tv,
    seq_thm1_scaled,
)
from ddgraphs.probseq import (
    ScaleWarning,
    condition_statistic,
    make_constant,
    make_ones_powers,
    make_random_binary,
    make_support,
    make_thm2,
    make_thm6,
)
from ddgraphs.rng import RngStream, keyed_u64, stream_words
from ddgraphs.sampler import CIRCLE, LINE, ground, sample_line

TRIANGLE_18 = 1 - (7 / 8) ** 6  # 0.55120...
TRIANGLE_162 = 1 - (7 / 8) ** 54  # 0.99926...


def _gate(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> bool:
    within = elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    return ok and within


def test_path2_oracle_agreement():
    t0 = time.time()
    seq = make_constant(0.5)
    bf = brute_force_probability(seq, 5, library("path2"), LINE)
    ex = exact_path2(seq, 5)
    ok = abs(bf - 37 / 64) < 1e-12 and abs(ex - 37 / 64) < 1e-12
    assert _gate(
        "path2-oracle-agreement", ok,
        f"brute={bf:.15f} exact={ex:.15f} want 37/64={37 / 64:.15f}",
        time.time() - t0, 1.0,
    )


def test_triangle_oscillation_exact_circle():
    t0 = time.time()
    seq = make_thm6([0.5] * 5)
    zeros = [exact_triangle_circle(seq, n) for n in (17, 53, 161)]
    p18 = exact_triangle_circle(seq, 18)
    p162 = exact_triangle_circle(seq, 162)
    ok = (
        all(z == 0.0 for z in zeros)
        and abs(p18 - TRIANGLE_18) < 1e-9
        and abs(p162 - TRIANGLE_162) < 1e-9
    )
    assert _gate(
        "triangle-oscillation-exact", ok,
        f"P(17,53,161)={zeros} P(18)={p18:.5f} P(162)={p162:.5f}",
        time.time() - t0, 1.0,
    )


def test_mc_calibration_triangle_circle():
    t0 = time.time()
    seq = make_thm6([0.5] * 5)
    pred = has_triangle_predicate()
    first = mc_probability(seq, 18, pred, CIRCLE, 10_000, 0)
    point_ok = abs(first.estimate - TRIANGLE_18) <= 0.02
    covered = 0
    for seed in range(100):
        r = mc_probability(seq, 18, pred, CIRCLE, 10_000, seed)
        covered += r.ci_low <= TRIANGLE_18 <= r.ci_high
    ok = point_ok and covered >= 93
    assert _gate(
        "mc-calibration", ok,
        f"estimate={first.estimate:.4f} (true {TRIANGLE_18:.4f}), coverage {covered}/100",
        time.time() - t0, 60.0,
    )


def test_power_support_c4_trace():
    t0 = time.time()
    seq = make_ones_powers(4)
    target = library("edge_in_c4")
    false_at = []
    for n in range(4, 21):
        g = sample_line(seq, n, RngStream(0))  # deterministic {0,1} sequence
        if not holds(LabeledModel(g, Vocab.L), target):
            false_at.append(n)
    # Edges join v, w exactly when |v - w| = 4^j.  A 4-cycle steps +-4^a four
    # times with sum 0; each step is 1 mod 3, so two steps go up and two down,
    # and 4^a + 4^b = 4^c + 4^d forces {a, b} = {c, d}.  Every 4-cycle is thus
    # a parallelogram v, v+d, v+d+e, v+e with powers d != e, and an edge
    # (v, v+d) lies in one iff some power e != d has v+d+e <= n or v-e >= 1.
    # For d = 1 (e = 4) that fails at some v <= 4 with v + 5 > n iff n <= 8;
    # for d > 1 (e = 1) only the edge (1, n) fails, when n - 1 = d.
    expected = [n for n in range(4, 21) if n <= 8 or any(n - 1 == 4**j for j in range(1, n))]
    ok = false_at == expected
    assert _gate(
        "power-support-c4-trace", ok,
        f"false at {false_at}, expected {expected} (n <= 8 or n - 1 a power of 4)",
        time.time() - t0, 10.0,
    )


def test_game_model_checker_consistency():
    t0 = time.time()
    rng = random.Random(2024)
    pairs_checked = violations = equal_cases = 0
    while pairs_checked < 200:
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        k = rng.randint(0, 3)
        g1 = make_graph(n1, [p for p in combinations(range(1, n1 + 1), 2) if rng.random() < 0.5])
        g2 = make_graph(n2, [p for p in combinations(range(1, n2 + 1), 2) if rng.random() < 0.5])
        pairs_checked += 1
        for vocab in (Vocab.L, Vocab.L_PLUS):
            if th_k_equal(LabeledModel(g1, vocab), LabeledModel(g2, vocab), k):
                equal_cases += 1
                for f in library_sentences(max_depth=k, vocab=vocab):
                    if holds(LabeledModel(g1, vocab), f) != holds(LabeledModel(g2, vocab), f):
                        violations += 1
    ok = violations == 0
    assert _gate(
        "game-vs-checker-consistency", ok,
        f"{pairs_checked} pairs, {equal_cases} equivalent cases, {violations} violations",
        time.time() - t0, 60.0,
    )


def test_sum_absorber_search():
    t0 = time.time()
    candidate = absorbing_sum_candidate(2)
    h_set = all_labeled_graphs(3)
    found = fact4_search([candidate], h_set, 2, SUM)
    ok = found is candidate
    assert _gate(
        "sum-absorber-search", ok,
        f"candidate n={candidate.n} absorbs all {len(h_set)} labeled graphs on <=3 vertices",
        time.time() - t0, 120.0,
    )


def test_isolated_edge_copies_at_scale():
    t0 = time.time()
    seq = make_support({1: 0.3})
    n, trials = 200, 200
    margin = math.ceil(math.log(n))
    g = ground(seq, n, LINE)
    rows = g.edge_matrix(0, stream_words([keyed_u64(77, t) for t in range(trials)]))
    counts = copy_counts(rows, g.v, g.w, n, 2, margin, n - margin).tolist()
    share = sum(1 for c in counts if c >= 5) / trials
    ok = share >= 0.95
    assert _gate(
        "isolated-edge-copies", ok,
        f"{share:.1%} of {trials} samples have >=5 disjoint copies in "
        f"[{margin},{n - margin}], mean {sum(counts) / trials:.1f}",
        time.time() - t0, 30.0,
    )


def _thm2_recording(f):
    """make_thm2(f) and the f(m) named by the spacing warnings it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ScaleWarning)
        seq = make_thm2(f)
    return seq, [str(w.message).split(":")[0] for w in caught if w.category is ScaleWarning]


def test_two_band_path2_oscillation():
    t0 = time.time()
    # Band m holds p = 1/m on [f(m) - m^3, f(m)].  At n = 2f(m) - 2m^3 two
    # band-m distances sum to at least n, and the distances that pair with
    # band m, [f(m) - 2m^3 - 1, f(m) - m^3 - 1], miss every lower band when
    # f(m) - 2m^3 - 1 > f(m-1): 41 > 40 at m = 4, 209 > 170 at m = 5.  At
    # n = 2f(m) - m^3 the m^3 midpoints c - 1 in [f(m) - m^3, f(m) - 1] each
    # close a path with probability 1/m^2 and no lower band reaches the
    # partners, so P = 1 - (1 - 1/m^2)^(m^3).
    seq, warned = _thm2_recording([1, 40, 170, 460])
    f = {m: seq.meta["f"][m - 2] for m in (4, 5)}
    values = {}
    ok = not {"f(4)=170", "f(5)=460"} & set(warned)
    for m in (4, 5):
        p_zero = exact_path2(seq, 2 * f[m] - 2 * m**3)
        p_high = exact_path2(seq, 2 * f[m] - m**3)
        values[m] = (p_zero, p_high)
        ok = ok and p_zero == 0.0 and abs(p_high - (1 - (1 - 1 / m**2) ** m**3)) < 1e-12
    # (1, 40, 150, 460) breaks the spacing at m = 4 (21 <= 40): the 20
    # distances b in [21, 40] of the 1/3 band pair with a = 171 - b in
    # [131, 150] of the 1/4 band, two midpoints each, so P(172) = 1 - (11/12)^40.
    counter, counter_warned = _thm2_recording([1, 40, 150, 460])
    p172 = exact_path2(counter, 172)
    ok = ok and "f(4)=150" in counter_warned and abs(p172 - (1 - (11 / 12) ** 40)) < 1e-12
    assert _gate(
        "two-band-path2-oscillation", ok,
        f"m=4: P(212)={values[4][0]:.4f} (want 0), P(276)={values[4][1]:.4f} "
        f"(want 1-(15/16)^64); m=5: P(670)={values[5][0]:.4f} (want 0), "
        f"P(795)={values[5][1]:.4f} (want 1-(24/25)^125); bands (1, 40, 150, 460): "
        f"P(172)={p172:.4f} (want 1-(11/12)^40), warns {counter_warned}",
        time.time() - t0, 1.0,
    )


def test_extension_property_on_random_binary():
    t0 = time.time()
    target = library("extension_Ak", k=1)
    hits = 0
    for seed in range(20):
        g = sample_line(make_random_binary(seed), 100, RngStream(seed))
        hits += holds(LabeledModel(g, Vocab.L), target)
    ok = hits >= 18
    assert _gate(
        "extension-on-random-binary", ok,
        f"{hits}/20 master seeds satisfy the 1-set extension property at n=100",
        time.time() - t0, 30.0,
    )


def test_midpoint_chain_marginal_preservation():
    t0 = time.time()
    tv, _ = midpoint_chain_tv(make_constant(0.5), 5, 100_000, 0)
    ok = tv <= 0.05
    assert _gate(
        "midpoint-chain-preservation", ok,
        f"triangle-count TV(chain 5->6, direct 6) = {tv:.4f} over 1e5 trials",
        time.time() - t0, 120.0,
    )


def test_condition_statistics_bounds():
    t0 = time.time()
    c2_const = condition_statistic(make_constant(0.5), 4, "C2")
    seq = seq_thm1_scaled()  # k = 2, bands topped at (4, 16, 256)
    largest = max(seq.meta["b"])
    c2_decay = condition_statistic(seq, largest, "C2")
    ok = abs(c2_const - (-2.0)) < 1e-12 and c2_decay >= -0.5 - 0.1
    assert _gate(
        "condition-statistics", ok,
        f"C2(const 1/2, 4)={c2_const:.12f} (want -2); "
        f"C2(decay bands, {largest})={c2_decay:.4f} (want >= -0.6)",
        time.time() - t0, 1.0,
    )
