"""Pinned digests of what every bundled sequence and one sequence of each
constructor kind evaluate to: p(i) over 1..3000 and at large indices, the
support table at several n, C2, C3_SUM and C5, and the JSON form.  A change
to how a ProbSeq stores or reads its values that moves any of them fails
here.  Each pin is the first 16 hex digits of a sha256 over text written
with ``float.hex``, so it does not depend on numpy's byte layout."""

import hashlib
import warnings

import pytest

from ddgraphs.presets import NAMED_SEQUENCES
from ddgraphs.probseq import (
    _CONSTRUCTORS,
    MAX_INDEX,
    ScaleWarning,
    condition_statistic,
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
    support_table,
)

LARGE = [10**6 + 2, 2**40, 4**20, 3**30, 2 * 3**39, 2**62, MAX_INDEX]
TABLE_NS = [1, 2, 17, 200, 2999]
STAT_NS = [2, 200, 2999]

CONSTRUCTED = {
    "constant": lambda: make_constant(0.3),
    "support": lambda: make_support({1: 0.25, 7: 1.0, 40: 0.5, 2999: 0.125, 10**6 + 2: 0.75}),
    "thm1": lambda: make_thm1(1, [7, 20, 40, 2500]),
    "thm2": lambda: make_thm2([1, 100, 1000, 2000]),
    "example2": lambda: make_example2([2, 4], [1, 20, 300, 5000]),
    "thm3": lambda: make_thm3([0.5, 0.25, 0.5], [1, 16, 2**40]),
    "thm3_eq5": lambda: make_thm3([0.5, 0.5, 0.5], "eq5"),
    "thm6": lambda: make_thm6([0.5] * 39),
    "thm6_unsorted": lambda: make_thm6([0.2, 0.9]),
    "random_binary": lambda: make_random_binary(7),
    "ones_powers": lambda: make_ones_powers(2),
    "ones_powers_3": lambda: make_ones_powers(3),
    "diluted": lambda: make_diluted([0.9, 0.4], [10**6, 3]),
}

SEQUENCES = {**{f"named_{k}": v for k, v in NAMED_SEQUENCES.items()}, **CONSTRUCTED}

# (eval, support_table, statistics, to_json) digests per sequence
PINS = {
    "constant": ("f421acbc50bb6320", "0445f25ab3ad6fe0", "e654cfa9ec80b0db", "3fb2b0ae3155c858"),
    "diluted": ("dba0b8c7047839e2", "7b38f3103696d2d2", "9494fcffe29a70ad", "c11fd36af3858668"),
    "example2": ("5d4c97003f836e79", "56965faa616e5e95", "337bd95ef5447063", "a177e9cfb5350475"),
    "named_example2_scaled": ("64a66b92cc9044af", "91ba28218b51d60d", "dd9f62b9029fafac", "b16c3e81c8b04e88"),
    "named_lemma_edge": ("55ca9f26785ebfac", "673248b5de203fed", "496481ec4946a2d5", "cfc375b7a82eb86a"),
    "named_ones4": ("33cf6bda31c553ec", "d71409579a25a378", "981887798a0faa35", "4c7b1b3299d25e3e"),
    "named_thm1_scaled": ("2c38c94e7e801f38", "cf6cc6c68f945255", "6638224ecbaff0d8", "b82c782a30118204"),
    "named_thm2_scaled": ("055c3df4f012453f", "d4eb4f2b3b8675ae", "0228dda8f8483d09", "520bfe2cf0aa0025"),
    "named_thm3_scaled": ("56e3cc83146344c5", "d184734e22c375e7", "c6b919f80c461b1f", "2b978f4ba4c61f76"),
    "named_thm6_half": ("51bf91413929a392", "3dfea67d1089e16d", "5a3143a2d753907a", "abeae2d9461ea50e"),
    "ones_powers": ("660603bd216812d2", "7c5e64dc6f1abfcf", "99256389dd845566", "c8e7310c6c955b14"),
    "ones_powers_3": ("24f04c8a9dbf663b", "5164c168f8a3fe53", "2133694188997866", "fafee1029a2ebdef"),
    "random_binary": ("27140f0616448a80", "7190293b6d7339c6", "08e206952901e050", "f37259c3faa8ab76"),
    "support": ("3c37d7ee4e87abd7", "a3eaf6cd89a1b4c4", "23a8818c2415e491", "1390d7100df50463"),
    "thm1": ("464a725d21be4f7d", "e21c3e25d17d05ab", "7653afac1211113d", "ba3ee358702fc16a"),
    "thm2": ("f9305ad7327e146c", "5a09a927e5403ce6", "2ff01b5956e00d89", "e1911b25dacd20d7"),
    "thm3": ("825791233e5aeb47", "36941ab0e19658ed", "b74f63569170f827", "7fb1282d85a66197"),
    "thm3_eq5": ("27c76544ca5d0d78", "d8c7f0f9c6cca72f", "bec8d657f0728592", "de3bd01d08ba386b"),
    "thm6": ("5b465ac431bb2c38", "cb589478dced9f93", "941e19bf8344584d", "f2557d95a29c0896"),
    "thm6_unsorted": ("a45adfd120c96984", "3fc608de23d2cd5b", "8fee5b79384ea1f7", "3f05088faacc1170"),
}


def build(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScaleWarning)
        return SEQUENCES[name]()


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def fingerprint(seq):
    evals = digest(f"{i}:{seq.eval(i).hex()}" for i in [*range(1, 3001), *LARGE])
    tables = digest(
        f"{n}=" + ",".join(f"{i}:{p.hex()}" for i, p in zip(*map(list, support_table(seq, n))))
        for n in TABLE_NS
    )
    stats = digest(
        f"{kind}({n})={condition_statistic(seq, n, kind).hex()}"
        for kind in ("C2", "C3_SUM", "C5")
        for n in STAT_NS
    )
    return evals, tables, stats, digest([seq.to_json()])


def test_every_constructor_kind_is_pinned():
    assert {build(name).kind for name in CONSTRUCTED} == set(_CONSTRUCTORS)
    assert set(PINS) == set(SEQUENCES)


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_sequence_matches_its_pin(name):
    assert fingerprint(build(name)) == PINS[name]
