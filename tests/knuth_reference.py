"""Pure-integer oracle for Knuth's lagged-Fibonacci stream.

``ran_start`` and ``ran_array`` from D. E. Knuth, "The Art of Computer
Programming", vol. 2, 3rd edition, written word by word on Python
integers, exactly as ``basingen.rng`` computed them before it moved to
wrapping ``np.uint64`` array arithmetic.  It shares no code with the
library, so the library's stream can be compared with it bit for bit.
"""

LONG_LAG = 100
SHORT_LAG = 37
MODULUS = 1 << 30

_BLOCK_LENGTH = 1009
_WARMUP_LENGTH = 2 * LONG_LAG - 1
_STREAM_SEPARATION = 70


def seeded_state(seed: int) -> list[int]:
    """Expand a seed into the initial 100-word generator state."""
    buf = [0] * (2 * LONG_LAG - 1)
    ss = (seed + 2) & (MODULUS - 2)
    for j in range(LONG_LAG):
        buf[j] = ss
        ss <<= 1  # cyclic shift over 29 bits
        if ss >= MODULUS:
            ss -= MODULUS - 2
    buf[1] += 1  # make buf[1], and only buf[1], odd
    ss = seed & (MODULUS - 1)
    t = _STREAM_SEPARATION - 1
    while t:
        for j in range(LONG_LAG - 1, 0, -1):  # "square"
            buf[j + j] = buf[j]
            buf[j + j - 1] = 0
        for j in range(2 * LONG_LAG - 2, LONG_LAG - 1, -1):
            k = j - (LONG_LAG - SHORT_LAG)
            buf[k] = (buf[k] - buf[j]) % MODULUS
            buf[j - LONG_LAG] = (buf[j - LONG_LAG] - buf[j]) % MODULUS
        if ss & 1:  # "multiply by z"
            for j in range(LONG_LAG, 0, -1):
                buf[j] = buf[j - 1]
            buf[0] = buf[LONG_LAG]
            buf[SHORT_LAG] = (buf[SHORT_LAG] - buf[LONG_LAG]) % MODULUS
        if ss:
            ss >>= 1
        else:
            t -= 1
    state = [0] * LONG_LAG
    for j in range(SHORT_LAG):
        state[j + LONG_LAG - SHORT_LAG] = buf[j]
    for j in range(SHORT_LAG, LONG_LAG):
        state[j - SHORT_LAG] = buf[j]
    return state


class ReferenceStream:
    """The stream of ``basingen.rng.LaggedFibonacci(seed)``, word by word."""

    def __init__(self, seed: int):
        self._state = seeded_state(seed)
        for _ in range(10):  # warm up, discarding the early blocks
            self.next_block(_WARMUP_LENGTH)
        self._block: list[float] = []
        self._cursor = 0

    def uniform(self) -> float:
        """Return the next deviate in [0, 1) and advance the state."""
        if self._cursor >= len(self._block):
            self._block = [word / MODULUS for word in self.next_block(_BLOCK_LENGTH)]
            self._cursor = 0
        value = self._block[self._cursor]
        self._cursor += 1
        return value

    def next_block(self, length: int) -> list[int]:
        """Emit `length` raw words and step the state past them."""
        block = self._state + [0] * (length - LONG_LAG)
        for j in range(LONG_LAG, length):
            block[j] = (block[j - LONG_LAG] - block[j - SHORT_LAG]) % MODULUS
        fresh = [0] * LONG_LAG
        j = length
        for i in range(SHORT_LAG):
            fresh[i] = (block[j - LONG_LAG] - block[j - SHORT_LAG]) % MODULUS
            j += 1
        for i in range(SHORT_LAG, LONG_LAG):
            fresh[i] = (block[j - LONG_LAG] - fresh[i - SHORT_LAG]) % MODULUS
            j += 1
        self._state = fresh
        return block
