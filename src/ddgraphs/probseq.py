"""Edge-probability sequences indexed by vertex distance.

A ``ProbSeq`` is a finitely described infinite sequence p(1), p(2), ... of
values in [0, 1], stored as disjoint ``Band``s (p(i) = fn(i) on [lo, hi])
sorted by ``lo``: an overlap is refused at construction, ``eval`` bisects
for the one band that can hold i, and indices outside every band are 0.

Constructors cover the sequence families used throughout the experiments:
constant sequences, two-band decay sequences, disjoint 1/m bands, sparse
power-law supports, recursively spaced supports, geometric supports, fair
random {0,1} sequences, deterministic power supports, and dilution.
Growth parameters are caller-supplied at desk scale; preconditions that the
asymptotic arguments rely on are downgraded to warnings where a smaller
choice still yields a well-defined sequence.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .rng import keyed_u64

MAX_INDEX = 2**63 - 1  # all index arithmetic stays within 64-bit signed range

_RAND_TAG = 0x52414E44  # stream tag for seeded {0,1} sequences

_LO = attrgetter("lo")


class SequenceError(ValueError):
    """Invalid construction parameters."""


class RuleOverlapError(SequenceError):
    """Two bands share an index."""


class IndexBudgetError(SequenceError):
    """A support index would exceed the 64-bit budget."""

    def __init__(self, term: str, i: int):
        self.term = term
        self.i = i
        super().__init__(f"{term} at i={i} exceeds the 64-bit index budget")


class ScaleWarning(UserWarning):
    """A desk-scale parameter violates a precondition the asymptotic argument uses."""


def _scale_warning(message: str) -> None:
    """Raise a ScaleWarning attributed to the first caller outside this
    module, however many of its frames (constructors, ``from_json``) lie
    in between."""
    here = _scale_warning.__code__.co_filename
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename == here:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, ScaleWarning, stacklevel=level)


# --- bands -------------------------------------------------------------------


@dataclass(frozen=True)
class Band:
    """p(i) = fn(i) on lo <= i <= hi: a single index when lo == hi, an open
    tail when hi == MAX_INDEX."""

    lo: int
    hi: int
    fn: Callable[[int], float]

    def value(self, i: int) -> float:
        v = self.fn(i)
        if not 0.0 <= v <= 1.0:
            raise SequenceError(f"band produced {v} outside [0,1] at i={i}")
        return v


def _point(i: int, v: float) -> Band:
    return Band(i, i, lambda _, _v=v: _v)


@dataclass(frozen=True, eq=False)
class ProbSeq:
    """Immutable distance-indexed probability sequence.

    ``bands`` are kept sorted by ``lo``, must be disjoint, and drop any
    empty band (lo > hi).  ``kind`` and ``params`` record the constructor
    call for JSON round-trips; ``meta`` retains named integer lists (growth
    lists, supports, clamps) so experiment predicates can read them back.
    """

    bands: tuple[Band, ...]
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        bands = tuple(sorted((b for b in self.bands if b.lo <= b.hi), key=_LO))
        for a, b in zip(bands, bands[1:]):
            if b.lo <= a.hi:  # sorted and disjoint so far, so b.lo is the first shared index
                raise RuleOverlapError(f"bands [{a.lo}, {a.hi}] and [{b.lo}, {b.hi}] hold i={b.lo}")
        object.__setattr__(self, "bands", bands)

    def eval(self, i: int) -> float:
        """p(i) for 1 <= i <= MAX_INDEX; 0 outside every band."""
        if i < 1:
            raise ValueError(f"index must be >= 1, got {i}")
        if i > MAX_INDEX:
            raise IndexBudgetError("index", i)
        k = bisect_right(self.bands, i, key=_LO) - 1
        return self.bands[k].value(i) if k >= 0 and i <= self.bands[k].hi else 0.0

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params, "meta": self.meta}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# --- constructors ------------------------------------------------------------


def make_constant(p: float) -> ProbSeq:
    """p(i) = p for every i."""
    if not 0.0 <= p <= 1.0:
        raise SequenceError(f"probability {p} outside [0,1]")
    p = float(p)
    return ProbSeq(
        bands=(Band(1, MAX_INDEX, lambda i, _p=p: _p),),
        kind="constant",
        params={"p": p},
    )


def make_support(pairs: dict[int, float]) -> ProbSeq:
    """Explicit finite support: p(i) = pairs[i], zero elsewhere.  Keys may
    be the strings of the JSON form."""
    pairs = {int(i): v for i, v in pairs.items()}
    bands = []
    for i in sorted(pairs):
        v = float(pairs[i])
        if i < 1:
            raise SequenceError(f"support index {i} must be >= 1")
        if not 0.0 <= v <= 1.0:
            raise SequenceError(f"probability {v} outside [0,1] at i={i}")
        bands.append(_point(i, v))
    return ProbSeq(
        bands=tuple(bands),
        kind="support",
        params={"pairs": {str(i): float(pairs[i]) for i in sorted(pairs)}},
        meta={"support": sorted(pairs)},
    )


def make_thm1(k: int, b: Sequence[int]) -> ProbSeq:
    """Decay-band sequence: 1/2 head, 1/(3ik) bands, zero gaps.

    p(i) = 1/2 for i <= b(1); 1/(3ik) for b(2m-1) < i <= b(2m); else 0,
    with b = (b(1), b(2), ...) strictly increasing.
    """
    if k < 1:
        raise SequenceError("k must be a positive integer")
    b = [int(x) for x in b]
    if not b or any(x < 1 for x in b):
        raise SequenceError("b must be a nonempty list of positive integers")
    if any(b[j] >= b[j + 1] for j in range(len(b) - 1)):
        raise SequenceError(f"b must be strictly increasing, got {b}")
    if b[0] <= 6 * k:
        _scale_warning(f"b(1)={b[0]} <= 6k={6 * k}: smaller than the asymptotic argument assumes")
    bands = [Band(1, b[0], lambda i: 0.5)]
    for m in range(1, (len(b) + 1) // 2 + 1):
        lo_idx, hi_idx = 2 * m - 2, 2 * m - 1  # b(2m-1), b(2m) as 0-based slots
        if hi_idx >= len(b):
            break
        bands.append(Band(b[lo_idx] + 1, b[hi_idx], lambda i, _k=k: 1.0 / (3.0 * i * _k)))
    return ProbSeq(
        bands=tuple(bands),
        kind="thm1",
        params={"k": k, "b": b},
        meta={"k": k, "b": b},
    )


def make_thm2(f: Sequence[int]) -> ProbSeq:
    """Disjoint 1/m bands: p(i) = 1/m on [f(m)-m^3, f(m)] for m = 2, 3, ...

    ``f[j]`` is f(m) for m = j+2.  Bands must be disjoint:
    f(m) - m^3 > f(m-1).

    The endpoint 2-path probability at n = 2f(m) - 2m^3 can vanish only if
    no band below m meets the window [f(m) - 2m^3 - 1, f(m) - m^3 - 1] of
    distances that pair with band m, i.e. only if f(m) - 2m^3 - 1 > f(m-1).
    Each m >= 3 that breaks this spacing raises a ScaleWarning naming f(m).
    """
    f = [int(x) for x in f]
    if not f:
        raise SequenceError("f must be nonempty")
    bands = []
    prev_top: int | None = None
    for j, top in enumerate(f):
        m = j + 2
        lo = max(1, top - m**3)
        if prev_top is not None and top - m**3 <= prev_top:
            raise RuleOverlapError(
                f"band for m={m} ([{top - m ** 3}, {top}]) overlaps previous top f({m - 1})={prev_top}"
            )
        if prev_top is not None and top - 2 * m**3 - 1 <= prev_top:
            _scale_warning(
                f"f({m})={top}: f(m) - 2m^3 - 1 = {top - 2 * m**3 - 1} <= f({m - 1})={prev_top}, "
                f"so band {m - 1} completes 2-paths at n = {2 * top - 2 * m**3}"
            )
        bands.append(Band(lo, top, lambda i, _m=m: 1.0 / _m))
        prev_top = top
    return ProbSeq(bands=tuple(bands), kind="thm2", params={"f": f}, meta={"f": f, "m_start": 2})


def make_example2(b: Sequence[int], f: Sequence[int], b0: int = 0) -> ProbSeq:
    """Sparse power-law support: p(f(i)) = a(i) with alternating exponents.

    a(i) = i^-0.2 on (b(2j), b(2j+1)] and i^-0.95 on (b(2j+1), b(2j+2)],
    reading b(0) = ``b0``.  Support indices whose a(i) falls outside (0, 1)
    are dropped and recorded in ``meta['excluded']`` (i = 1 always is, since
    1^-0.2 = 1 is not a valid edge probability here).
    """
    b = [int(x) for x in b]
    f = [int(x) for x in f]
    if any(b[j] >= b[j + 1] for j in range(len(b) - 1)) or (b and b0 >= b[0]):
        raise SequenceError(f"b must be strictly increasing above b0, got b0={b0}, b={b}")
    if any(f[j] >= f[j + 1] for j in range(len(f) - 1)):
        raise SequenceError(f"f must be strictly increasing, got {f}")
    if f and f[0] < 1:
        raise SequenceError(f"support index {f[0]} must be >= 1")
    running = 0
    for j, fi in enumerate(f):
        if j >= 1 and fi <= 10 * running:
            _scale_warning(
                f"f({j + 1})={fi} <= 10 * sum of earlier terms ({running}): spacing below "
                "what the oscillation argument assumes"
            )
        running += fi

    bounds = [b0] + b

    def a_of(i: int) -> float | None:
        for j in range(len(bounds) - 1):
            if bounds[j] < i <= bounds[j + 1]:
                return float(i) ** (-0.2 if j % 2 == 0 else -0.95)
        return None

    bands = []
    excluded: list[int] = []
    support: list[int] = []
    for j, fi in enumerate(f):
        i = j + 1
        a = a_of(i)
        if a is None or not 0.0 < a < 1.0:
            excluded.append(i)
            continue
        bands.append(_point(fi, a))
        support.append(fi)
    return ProbSeq(
        bands=tuple(bands),
        kind="example2",
        params={"b": b, "f": f, "b0": b0},
        meta={"b": b, "f": f, "b0": b0, "support": support, "excluded": excluded},
    )


def _eq5_supports(a: list[float]) -> list[int]:
    """Recursive support spacing: f(1)=1 and
    f(i) = ceil(max{(i+1)/a(i+1), 4i f(i-1) [1-max a(j), j<=i-1]^{-f(i-1)^2}}).

    Stops cleanly when the a-list runs out; raises IndexBudgetError when a
    term leaves the 64-bit range (the recursion explodes very fast).
    """
    fs = [1]
    i = 2
    while i + 1 <= len(a):
        f_prev = fs[-1]
        amax = max(a[:i - 1])  # a(1)..a(i-1)
        log_term = math.log(4.0 * i * f_prev) - (f_prev**2) * math.log1p(-amax)
        if log_term > math.log(MAX_INDEX):
            raise IndexBudgetError("f", i)
        term1 = (i + 1) / a[i]  # a(i+1), 0-based
        term2 = 4.0 * i * f_prev * (1.0 - amax) ** (-(f_prev**2))
        fi = math.ceil(max(term1, term2))
        if fi > MAX_INDEX:
            raise IndexBudgetError("f", i)
        fs.append(fi)
        i += 1
    return fs


def make_thm3(a: Sequence[float], f: Sequence[int] | str) -> ProbSeq:
    """Recursively spaced support: p(f(i)) = a(i).

    ``f`` is an explicit support list (f(1), f(2), ...), or the string
    ``"eq5"`` to derive it from the recursion above; derived mode stops with
    IndexBudgetError as soon as a term exceeds 64 bits, because the middle
    factor grows like (1-a)^{-f^2}.
    """
    a = [float(x) for x in a]
    if any(not 0.0 < x < 1.0 for x in a):
        raise SequenceError("all a(i) must lie strictly within (0,1)")
    if isinstance(f, str):
        if f != "eq5":
            raise SequenceError(f"unknown f mode {f!r}")
        fs = _eq5_supports(a)
    else:
        f = fs = [int(x) for x in f]
        if any(fs[j] >= fs[j + 1] for j in range(len(fs) - 1)):
            raise SequenceError(f"f must be strictly increasing, got {fs}")
        if fs and fs[0] < 1:
            raise SequenceError(f"support index {fs[0]} must be >= 1")
        if any(x > MAX_INDEX for x in fs):
            raise IndexBudgetError("f", fs.index(next(x for x in fs if x > MAX_INDEX)) + 1)
    pairs = list(zip(fs, a))
    return ProbSeq(
        bands=tuple(_point(fi, ai) for fi, ai in pairs),
        kind="thm3",
        params={"a": a, "f": f},
        meta={"a_values": [ai for _, ai in pairs], "f": fs},
    )


def make_thm6(a: Sequence[float]) -> ProbSeq:
    """Geometric support: p(floor(3^i / a(i))) = a(i)."""
    a = [float(x) for x in a]
    if any(not 0.0 < x < 1.0 for x in a):
        raise SequenceError("all a(i) must lie strictly within (0,1)")
    if any(a[j] < a[j + 1] for j in range(len(a) - 1)):
        _scale_warning("a is not non-increasing")
    bands = []
    support: list[int] = []
    power = 3
    for j, ai in enumerate(a):
        idx = int(power / ai)
        if idx > MAX_INDEX or power > MAX_INDEX:
            raise IndexBudgetError("floor(3^i/a(i))", j + 1)
        bands.append(_point(idx, ai))
        support.append(idx)
        power *= 3
    return ProbSeq(
        bands=tuple(bands),
        kind="thm6",
        params={"a": a},
        meta={"support": support},
    )


def make_random_binary(seed: int) -> ProbSeq:
    """Fair {0,1}-valued sequence, reproducible from the seed alone.

    Each p(i) is the low bit of a keyed hash of (seed, i): an independent
    fair coin per index with no storage.
    """
    seed = int(seed)

    def bit(i: int, _s=seed) -> float:
        return float(keyed_u64(_s, _RAND_TAG, i) & 1)

    return ProbSeq(
        bands=(Band(1, MAX_INDEX, bit),),
        kind="random_binary",
        params={"seed": seed},
        seed=seed,
    )


def make_ones_powers(base: int) -> ProbSeq:
    """p(i) = 1 exactly at i = base^j (j = 0, 1, ...), else 0."""
    if base < 2:
        raise SequenceError("base must be >= 2")
    base = int(base)
    bands, p = [], 1
    while p <= MAX_INDEX:
        bands.append(_point(p, 1.0))
        p *= base
    return ProbSeq(
        bands=tuple(bands),
        kind="ones_powers",
        params={"base": base},
    )


def make_diluted(a: Sequence[float], gap: Sequence[int]) -> ProbSeq:
    """Insert zero runs: a(i) lands at position 1 + sum_{j<=i} (1 + gap(j))."""
    a = [float(x) for x in a]
    gap = [int(x) for x in gap]
    if len(gap) != len(a):
        raise SequenceError("a and gap must have equal length")
    if any(g < 0 for g in gap):
        raise SequenceError("gaps must be non-negative")
    if any(not 0.0 <= x <= 1.0 for x in a):
        raise SequenceError("all a(i) must lie in [0,1]")
    bands = []
    positions: list[int] = []
    pos = 1
    for i, (ai, gi) in enumerate(zip(a, gap), start=1):
        pos += 1 + gi
        if pos > MAX_INDEX:
            raise IndexBudgetError("position", i)
        bands.append(_point(pos, ai))
        positions.append(pos)
    return ProbSeq(
        bands=tuple(bands),
        kind="diluted",
        params={"a": a, "gap": gap},
        meta={"positions": positions},
    )


_CONSTRUCTORS = {
    "constant": make_constant,
    "support": make_support,
    "thm1": make_thm1,
    "thm2": make_thm2,
    "example2": make_example2,
    "thm3": make_thm3,
    "thm6": make_thm6,
    "random_binary": make_random_binary,
    "ones_powers": make_ones_powers,
    "diluted": make_diluted,
}


def from_json_dict(doc: dict) -> ProbSeq:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _CONSTRUCTORS:
        raise SequenceError(f"unknown sequence kind {kind!r}")
    make, params = _CONSTRUCTORS[kind], doc.get("params", {})
    if not isinstance(params, dict):
        raise SequenceError(f"params of sequence kind {kind!r} must be an object")
    try:
        inspect.signature(make).bind(**params)
    except TypeError as e:  # a missing or unknown parameter
        raise SequenceError(f"bad params for sequence kind {kind!r}: {e}") from None
    return make(**params)


def from_json(text: str) -> ProbSeq:
    return from_json_dict(json.loads(text))


# --- analysis ----------------------------------------------------------------


def ordered_sum(values: np.ndarray, start: float = 0.0) -> float:
    """start + values[0] + values[1] + ..., left to right on every Python:
    builtin ``sum`` of floats is compensated on 3.12+, ``np.sum`` pairwise."""
    return float(np.cumsum(np.append(start, values))[-1])


@lru_cache(maxsize=32)
def support_table(seq: ProbSeq, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The support up to n: the sorted indices i <= n with p(i) > 0 (int64)
    and p at each (float64); empty for n < 1.  Walks the sorted bands and
    calls each band's fn once per index <= n, once per (sequence, n):
    sequences are immutable and hash by identity, and the arrays are
    read-only."""
    support = [
        (i, p)
        for b in seq.bands
        for i in range(max(b.lo, 1), min(b.hi, n) + 1)
        if (p := b.value(i)) > 0.0
    ]
    idx = np.array([i for i, _ in support], dtype=np.int64)
    probs = np.array([p for _, p in support], dtype=np.float64)
    idx.flags.writeable = probs.flags.writeable = False
    return idx, probs


def support_upto(seq: ProbSeq, n: int) -> list[int]:
    """Sorted indices i <= n with p(i) > 0: ``support_table``'s indices as a
    list."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return support_table(seq, n)[0].tolist()


def _log_miss_sum(seq: ProbSeq, n: int, weighted: bool) -> float:
    """sum_{i<=n} w(i) ln(1 - p(i)) with w(i) = i or 1, over support indices
    only; exactly -inf when some p(i) = 1 with i <= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0.0
    idx, probs = support_table(seq, n)
    for i, p in zip(idx.tolist(), probs.tolist()):
        if p >= 1.0:
            return float("-inf")
        total += (i if weighted else 1) * math.log1p(-p)
    return total


def log_partial_product(seq: ProbSeq, n: int) -> float:
    """sum_{i<=n} ln(1 - p(i)); exactly -inf when some p(i) = 1 with i <= n.

    Only support indices contribute, so the cost is O(|supp <= n|).
    """
    return _log_miss_sum(seq, n, weighted=False)


def partial_product(seq: ProbSeq, n: int) -> float:
    """prod_{i<=n} (1 - p(i)), exponentiated from log scale."""
    lp = log_partial_product(seq, n)
    return 0.0 if lp == float("-inf") else math.exp(lp)


def condition_statistic(seq: ProbSeq, n: int, kind: str) -> float:
    """Convergence-condition statistics.

    C2:     log prod_{i<=n}(1-p(i)) / log n          (n >= 2)
    C3_SUM: sum_{i<=n} p(i)
    C5:     sum_{i<=n} i * ln(1-p(i))
    """
    if kind == "C2":
        if n < 2:
            raise ValueError("C2 needs n >= 2")
        return log_partial_product(seq, n) / math.log(n)
    if kind == "C3_SUM":
        if n < 1:
            raise ValueError("n must be >= 1")
        return ordered_sum(support_table(seq, n)[1])
    if kind == "C5":
        return _log_miss_sum(seq, n, weighted=True)
    raise ValueError(f"unknown statistic kind {kind!r}")
