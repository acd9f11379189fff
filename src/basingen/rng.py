"""Portable, seedable uniform random source.

Implements the subtractive lagged-Fibonacci recurrence

    x[n] = (x[n-100] - x[n-37]) mod 2**30

with the warm-up scheme from D. E. Knuth, "The Art of Computer
Programming", vol. 2, 3rd edition (``ran_start`` / ``ran_array``).  The
constants are frozen for this package:

* long lag 100, short lag 37, modulus 2**30,
* seeding warm-up guaranteeing 2**70-separated streams,
* ``ran_array`` blocks consumed in full.

A ``ran_array`` block is the next stretch of the recurrence and its next
state the 100 words after it, so a stream read in full is the recurrence
itself, whatever the block length: ``uniforms(count)`` computes only the
words it returns that are not yet computed (at least 37), from the last
100 words computed.

After the initial fill of ``ran_start``, every seeding step and every
recurrence step is linear modulo 2**30.  They run as wrapping ``np.uint64``
array arithmetic, and each emitted word is reduced with one final 30-bit
mask; since 2**30 divides 2**64, the words are Knuth's bit for bit on
every platform.  Only the first ``bitlength(seed)`` (at most 30) seeding
steps depend on the seed.  The remaining 69 squarings, the output
reordering and the 10 warm-up blocks are one fixed 100 x 100 map ``C``,
built on the first construction (never at import) by pushing the unit
vectors through the same step functions.

``_warm_state(seed)`` is the one seeding path: ``ran_start``'s loop over
the seed's bits, then one product with ``C``, about 15-190 us by the bit
length of the seed (one core of a 2-vCPU x86-64 Xeon VM).  It keeps the
read-only states of the 800 seeds used last (about 1 KB each: 8 classes
of 100 functions), so a stream made again from a seed it holds is not
seeded again.  Deviates are ``word / 2**30``, so they lie in ``[0, 1)``
exactly; ``uniform()`` reads one, through ``uniforms(1)``, so 36 of
every 37 single draws read a word already computed.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

from .params import _require_count

LONG_LAG = 100
SHORT_LAG = 37
MODULUS = 1 << 30
MAX_SEED = MODULUS - 1

_WARMUP_LENGTH = 2 * LONG_LAG - 1
_WARMUP_BLOCKS = 10
_STREAM_SEPARATION = 70
_MASK = np.uint64(MODULUS - 1)

# The steps below act along axis 0: a 1-D array is one state, and a
# (words, k) array carries k states side by side, as when building C.


def _square(buf: np.ndarray) -> None:
    """``ran_start``'s "square" step and its reduction sweep on the
    199-word buffer whose first 100 words are the state."""
    gap = LONG_LAG - SHORT_LAG
    split = 2 * LONG_LAG - 1 - gap  # j >= split only writes below split
    buf[2 : 2 * LONG_LAG : 2] = buf[1:LONG_LAG]
    buf[1 : 2 * LONG_LAG - 1 : 2] = 0
    high = buf[split : 2 * LONG_LAG - 1]  # j = 198..136
    buf[split - gap : 2 * LONG_LAG - 1 - gap] -= high
    buf[split - LONG_LAG : LONG_LAG - 1] -= high
    low = buf[LONG_LAG:split]  # j = 135..100, read after the pass above
    buf[LONG_LAG - gap : split - gap] -= low
    buf[: split - LONG_LAG] -= low


def _multiply_by_z(buf: np.ndarray) -> None:
    """``ran_start``'s "multiply by z" step."""
    buf[1 : LONG_LAG + 1] = buf[:LONG_LAG]
    buf[:1] = buf[LONG_LAG : LONG_LAG + 1]
    buf[SHORT_LAG : SHORT_LAG + 1] -= buf[LONG_LAG : LONG_LAG + 1]


def _run(known: np.ndarray, length: int) -> np.ndarray:
    """`known` (at least 100 consecutive words of the recurrence) followed
    by the next `length` words.  Slices of 37 words read only words
    already computed."""
    first = len(known)
    words = np.empty((first + length, *known.shape[1:]), dtype=np.uint64)
    words[:first] = known
    for start in range(first, first + length, SHORT_LAG):
        stop = min(start + SHORT_LAG, first + length)
        np.subtract(
            words[start - LONG_LAG : stop - LONG_LAG],
            words[start - SHORT_LAG : stop - SHORT_LAG],
            out=words[start:stop],
        )
    return words


@cache
def _tail_map() -> np.ndarray:
    """The map ``C`` from the buffer after the seed-dependent steps to the
    state after the warm-up, as a read-only (100, 100) array."""
    buf = np.zeros((2 * LONG_LAG - 1, LONG_LAG), dtype=np.uint64)
    buf[:LONG_LAG] = np.eye(LONG_LAG, dtype=np.uint64)
    for _ in range(_STREAM_SEPARATION - 1):
        _square(buf)
    state = np.concatenate([buf[SHORT_LAG:LONG_LAG], buf[:SHORT_LAG]])  # ran_start's output copy
    for _ in range(_WARMUP_BLOCKS):
        state = _run(state, _WARMUP_LENGTH)[_WARMUP_LENGTH:]
    tail = state & _MASK
    tail.setflags(write=False)
    return tail


@lru_cache(maxsize=800)
def _warm_state(seed: int) -> np.ndarray:
    """``ran_start(seed)`` followed by the warm-up: the read-only 100-word
    state from which the stream's first word is read."""
    fill = [0] * LONG_LAG
    ss = (seed + 2) & (MODULUS - 2)
    for j in range(LONG_LAG):
        fill[j] = ss
        ss <<= 1  # cyclic shift over 29 bits
        if ss >= MODULUS:
            ss -= MODULUS - 2
    fill[1] += 1  # make fill[1], and only fill[1], odd
    buf = np.zeros(2 * LONG_LAG - 1, dtype=np.uint64)
    buf[:LONG_LAG] = fill
    ss = seed
    while ss:
        _square(buf)
        if ss & 1:
            _multiply_by_z(buf)
        ss >>= 1
    state = (_tail_map() @ buf[:LONG_LAG]) & _MASK
    state.setflags(write=False)
    return state


class LaggedFibonacci:
    """Deterministic uniform deviate stream for one generation task.

    A stream never changes a word in place, so no draw from one stream
    disturbs another; two generators built from equal seeds emit
    identical sequences.
    """

    def __init__(self, seed: int):
        seed = _require_count("seed", seed, 0)
        if seed > MAX_SEED:
            raise ValueError(f"seed must be in [0, {MAX_SEED}], got {seed}")
        self.seed = seed
        # unread words from _cursor on; the last 100 feed the recurrence
        self._words = _warm_state(seed)
        self._cursor = 0

    def uniform(self) -> float:
        """Return the next deviate in [0, 1) and advance the state."""
        return self.uniforms(1).item()

    def uniforms(self, count: int) -> np.ndarray:
        """Return the next `count` deviates as a float64 array, computing
        the words not yet computed, at least 37 at a time."""
        count = _require_count("count", count, 0)
        start, stop = self._cursor, self._cursor + count
        missing = stop - len(self._words)
        if missing > 0:
            keep = min(start, len(self._words) - LONG_LAG)
            # a slice of up to 37 words is one ufunc call, so compute at
            # least that many: the next single draws read them
            self._words = _run(self._words[keep:], max(missing, SHORT_LAG))
            start, stop = start - keep, stop - keep
        self._cursor = stop
        return (self._words[start:stop] & _MASK) / MODULUS

