"""Counter-based keyed randomness.

Every random decision in this package is a pure function of a tuple of
64-bit words (master seed, stream id, pair coordinates, ...).  There is no
sequential generator state, so trial-level parallelism and evaluation order
cannot change results, and the same inputs give bit-identical output on any
platform.

``keyed_u64`` is the scalar chain.  ``keyed_u64_array`` computes it over an
array of last words (stream ids of many trials), and ``keyed_u64_grid`` for a
whole (streams x pairs) grid in numpy; every edge draw of the samplers goes
through the grid.  The grid is laid out by column (F-ordered), and is mixed
in place in cache-sized blocks of whole columns.  Its (stream, v) half is
mixed once per distinct v where the grid is large enough for that to pay
(see ``keyed_u64_grid`` for the rule), and in every column otherwise.
``keyed_u64_cells`` hashes chosen cells of such a grid one by one: the
Monte Carlo kernels hash a clause's later columns only at the trials where
its earlier columns all drew an edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1

_INIT = 0x9E3779B97F4A7C15
_MUL1 = 0xFF51AFD7ED558CCD
_MUL2 = 0xC4CEB9FE1A85EC53

TWO64 = float(2**64)


def mix64(x: int) -> int:
    """Finalizer-style avalanche mix of a 64-bit word."""
    x &= MASK64
    x ^= x >> 33
    x = (x * _MUL1) & MASK64
    x ^= x >> 33
    x = (x * _MUL2) & MASK64
    x ^= x >> 33
    return x


def keyed_u64(*words: int) -> int:
    """Hash a tuple of integers to a uniform 64-bit word."""
    h = _INIT
    for w in words:
        h = mix64(h ^ (w & MASK64))
    return h


def threshold_u64(p: float) -> int:
    """Acceptance threshold for ``keyed_u64(...) < threshold`` to fire with probability p.

    Only meaningful for 0 < p < 1; the exact 0/1 cases must be short-circuited
    by the caller (constructors emit exact 0.0/1.0 floats for them).
    """
    t = int(p * TWO64)
    return max(0, min(t, MASK64))


# --- vectorized chain -------------------------------------------------------
#
# ``_mix_inplace`` is ``mix64`` over an array.  It, ``keyed_u64_array`` and
# ``keyed_u64_grid`` must equal the scalar chain above bit for bit;
# tests/test_sampler.py checks this against ``keyed_u64`` and a reference.

_NP33 = np.uint64(33)
_NP_MUL1 = np.uint64(_MUL1)
_NP_MUL2 = np.uint64(_MUL2)
_BLOCK = 1 << 15  # grid cells per block: 256 KB of uint64, cache-sized


def _mix_inplace(x: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """``mix64`` of every word of the uint64 array ``x``, in place, with
    ``tmp`` (of x's shape) as scratch."""
    tmp = np.empty_like(x) if tmp is None else tmp
    x ^= np.right_shift(x, _NP33, out=tmp)
    x *= _NP_MUL1
    x ^= np.right_shift(x, _NP33, out=tmp)
    x *= _NP_MUL2
    x ^= np.right_shift(x, _NP33, out=tmp)
    return x


def keyed_u64_array(prefix_words: tuple[int, ...], last: np.ndarray) -> np.ndarray:
    """``keyed_u64(*prefix_words, last[i])`` for every word of the uint64
    array ``last``."""
    return _mix_inplace(np.uint64(keyed_u64(*prefix_words)) ^ last.astype(np.uint64, copy=False))


def keyed_u64_grid(prefix_words: tuple[int, ...], rows: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hash grid: rows absorb per-row words, columns absorb (v, w) pairs.

    Returns a (len(rows), len(v)) uint64 array equal elementwise to
    ``keyed_u64(*prefix_words, rows[i], v[j], w[j])``, F-ordered: the
    transpose of a C-ordered (len(v), len(rows)) array, so each column's
    words are contiguous.  A cell is ``mix64(mix64(base[i] ^ v[j]) ^ w[j])``
    with ``base = keyed_u64_array(prefix_words, rows)``, and its inner mix,
    the (stream, v) half, does not depend on w.  When every column holds at
    least ``_BLOCK // 512`` rows (64) and the grid more than ``2 * _BLOCK``
    cells, the half is mixed once per distinct v and copied to each column
    with that v (see ``_shared_halves``).  Other grids mix it in every
    column: there finding the distinct v (a sort of the columns, and a
    fixed cost per call) costs more than sharing saves, as on one row, or
    on the 18 columns x 1,000 rows of a circle table at n = 18.  Either way
    the w half is mixed in place, one block of whole columns (about
    ``_BLOCK`` cells, at least one column) at a time, with one block of
    scratch.
    """
    base = keyed_u64_array(prefix_words, rows)
    v, w = v.astype(np.uint64, copy=False), w.astype(np.uint64, copy=False)
    out = np.empty((len(v), len(base)), dtype=np.uint64)  # column j is out[j]
    if out.size == 0:  # no cells: no block size to take from len(base)
        return out.T
    step = max(1, _BLOCK // len(base))
    tmp = np.empty((min(len(v), step), len(base)), dtype=np.uint64)
    share = len(base) * 512 >= _BLOCK and out.size > 2 * _BLOCK
    src = _shared_halves(out, base, v, step, tmp) if share else None
    for c in reversed(range(0, len(v), step)):
        block = out[c:c + step]
        scratch = tmp[:len(block)]
        if src is None:
            _mix_inplace(np.bitwise_xor(base, v[c:c + step, None], out=block), scratch)
            block ^= w[c:c + step, None]
        else:  # the block's own rows may hold halves it reads: gather them first
            np.take(out, src[c:c + step], axis=0, out=scratch, mode="clip")
            np.bitwise_xor(scratch, w[c:c + step, None], out=block)
        _mix_inplace(block, scratch)
    return out.T


def keyed_u64_cells(prefix_words: tuple[int, ...], rows: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``keyed_u64(*prefix_words, rows[i], v[i], w[i])`` for every i, over
    uint64 arrays of one length: the cells of a hash grid taken one by one,
    for cells scattered over a grid too sparsely to hash it whole."""
    out = keyed_u64_array(prefix_words, rows)
    tmp = np.empty_like(out)
    for words in (v, w):
        out ^= words
        _mix_inplace(out, tmp)
    return out


def _shared_halves(out: np.ndarray, base: np.ndarray, v: np.ndarray, step: int,
                   tmp: np.ndarray) -> np.ndarray | None:
    """Mix the half ``base ^ u`` of each distinct word u of ``v`` into row
    r of ``out`` (``step`` rows at a time, with ``tmp`` as scratch), where
    u is the r-th distinct word in order of first appearance in ``v``.
    Returns the row that holds each column's half, or None, writing
    nothing, if no word repeats.  A column j holds a word that first
    appears at some column >= r, so its half lies in a row r <= j: filling
    ``out`` block by block from the last block reads no overwritten row."""
    words, first, inverse = np.unique(v, return_index=True, return_inverse=True)
    if len(words) == len(v):
        return None
    order = np.argsort(first)
    for c in range(0, len(words), step):
        block = out[c:min(c + step, len(words))]
        _mix_inplace(np.bitwise_xor(base, words[order[c:c + step], None], out=block), tmp[:len(block)])
    return np.argsort(order)[inverse]


def stream_words(stream_ids) -> np.ndarray:
    """Stream ids as a uint64 array, each read mod 2^64 as ``keyed_u64``
    reads its words.  An integer array is cast (a uint64 one is returned
    as is); other ids go through Python ints."""
    if isinstance(stream_ids, np.ndarray) and stream_ids.dtype.kind in "iu":
        return stream_ids.astype(np.uint64, copy=False)
    return np.array([int(s) & MASK64 for s in stream_ids], dtype=np.uint64)


@dataclass(frozen=True)
class RngStream:
    """Addressable randomness source: (master_seed, stream_id) name a stream.

    Distinct stream ids give statistically independent streams; concurrent
    consumers must simply use distinct ids.
    """

    master_seed: int
    stream_id: int = 0

    def pair_u64(self, v: int, w: int) -> int:
        """The scalar draw word of pair (v, w); the samplers compute the same
        word through ``keyed_u64_grid``."""
        return keyed_u64(self.master_seed, self.stream_id, v, w)


def derived_stream(n: int, trial: int) -> int:
    """Stream id used by estimator scans: independent per (n, trial).

    Both must lie in [0, 2^32): wider values would collide with others.
    """
    if not (0 <= n < 1 << 32 and 0 <= trial < 1 << 32):
        raise ValueError(f"derived_stream needs n and trial in [0, 2^32), got {n}, {trial}")
    return (n << 32) | trial


def derived_streams(n: int, start: int, stop: int) -> np.ndarray:
    """``derived_stream(n, t)`` for t in range(start, stop), as a uint64
    array; the range is checked once per call."""
    if not (0 <= n < 1 << 32 and 0 <= start <= stop <= 1 << 32):
        raise ValueError(
            f"derived_streams needs n and trials in [0, 2^32), got {n}, [{start}, {stop})"
        )
    return np.uint64(n << 32) | np.arange(start, stop, dtype=np.uint64)
