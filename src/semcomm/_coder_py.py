"""Pure-Python arithmetic coder with adaptive add-one models.

32-bit carry-free coder: interval endpoints are kept in [0, 2^32), with the
classic three-way renormalization (emit on agreement of the top bit, count
middle-straddling steps as pending underflow bits).  The compiled backend
mirrors this file operation for operation; both must produce bit-identical
streams for every input, which the test suite enforces.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

BACKEND = "pure-python"

_BITS = 32
_TOP = 1 << _BITS
_MASK = _TOP - 1
_HALF = 1 << (_BITS - 1)
_QUARTER = 1 << (_BITS - 2)
_THREE_QUARTER = _HALF + _QUARTER

# totals must leave the narrowed interval at least one unit wide
MAX_TOTAL = _QUARTER


class _BitWriter:
    __slots__ = ("data", "_acc", "_n", "bit_count")

    def __init__(self):
        self.data = bytearray()
        self._acc = 0
        self._n = 0
        self.bit_count = 0

    def put(self, bit: int) -> None:
        self._acc = (self._acc << 1) | bit
        self._n += 1
        self.bit_count += 1
        if self._n == 8:
            self.data.append(self._acc)
            self._acc = 0
            self._n = 0

    def getvalue(self) -> bytes:
        out = bytearray(self.data)
        if self._n:
            out.append(self._acc << (8 - self._n))
        return bytes(out)


class _BitReader:
    __slots__ = ("data", "_pos")

    def __init__(self, data: bytes):
        self.data = data
        self._pos = 0

    def get(self) -> int:
        # bits past the end read as zero; the coder never needs more than
        # the register width beyond the written stream
        i, r = divmod(self._pos, 8)
        self._pos += 1
        if i >= len(self.data):
            return 0
        return (self.data[i] >> (7 - r)) & 1


class RangeEncoder:
    """Streaming arithmetic encoder over cumulative integer frequencies."""

    __slots__ = ("_low", "_high", "_pending", "_writer", "_done")

    def __init__(self):
        self._low = 0
        self._high = _MASK
        self._pending = 0
        self._writer = _BitWriter()
        self._done = False

    @property
    def bits_emitted(self) -> int:
        """Bits already materialized (pending underflow bits excluded)."""
        return self._writer.bit_count

    def _put(self, bit: int) -> None:
        self._writer.put(bit)
        other = bit ^ 1
        while self._pending:
            self._writer.put(other)
            self._pending -= 1

    def encode(self, cum_lo: int, cum_hi: int, total: int) -> None:
        if self._done:
            raise ValueError("encoder already finished")
        if not 0 <= cum_lo < cum_hi <= total <= MAX_TOTAL:
            raise ValueError("invalid frequency interval")
        rng = self._high - self._low + 1
        self._high = self._low + (rng * cum_hi) // total - 1
        self._low = self._low + (rng * cum_lo) // total
        while True:
            if self._high < _HALF:
                self._put(0)
            elif self._low >= _HALF:
                self._put(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTER:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                break
            self._low = (self._low << 1) & _MASK
            self._high = ((self._high << 1) | 1) & _MASK

    def finish(self) -> bytes:
        """Flush the disambiguating tail and return the whole bitstream."""
        if not self._done:
            self._pending += 1
            if self._low < _QUARTER:
                self._put(0)
            else:
                self._put(1)
            self._done = True
        return self._writer.getvalue()


class RangeDecoder:
    """Mirror image of :class:`RangeEncoder` over one finished bitstream."""

    __slots__ = ("_low", "_high", "_code", "_reader")

    def __init__(self, data: bytes):
        self._low = 0
        self._high = _MASK
        self._reader = _BitReader(data)
        code = 0
        for _ in range(_BITS):
            code = (code << 1) | self._reader.get()
        self._code = code

    def decode_target(self, total: int) -> int:
        """Scaled position of the pending symbol inside [0, total)."""
        if not 1 <= total <= MAX_TOTAL:
            raise ValueError("invalid total")
        rng = self._high - self._low + 1
        target = ((self._code - self._low + 1) * total - 1) // rng
        if target >= total:  # corrupt stream steering out of range
            raise ValueError(f"decoder target {target} outside alphabet total {total}")
        return target

    def decode_update(self, cum_lo: int, cum_hi: int, total: int) -> None:
        if not 0 <= cum_lo < cum_hi <= total <= MAX_TOTAL:
            raise ValueError("invalid frequency interval")
        rng = self._high - self._low + 1
        self._high = self._low + (rng * cum_hi) // total - 1
        self._low = self._low + (rng * cum_lo) // total
        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._code -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTER:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._code -= _QUARTER
            else:
                break
            self._low = (self._low << 1) & _MASK
            self._high = ((self._high << 1) | 1) & _MASK
            self._code = ((self._code << 1) | self._reader.get()) & _MASK


def encode_block_adaptive(symbols: Sequence[int], k: int,
                          encoder: RangeEncoder) -> float:
    """Encode a symbol block under an adaptive add-one model over k symbols.

    Every symbol starts with count 1, so symbol s at time t is priced at
    count_s(t) / (t + k): the smoothed next-case rule with weight equal to
    the alphabet size.  Returns the ideal code length sum -log2(price) in
    bits; the actual emitted bits trail it by at most the coder overhead.
    """
    if k < 1:
        raise ValueError("alphabet must be non-empty")
    counts = [1] * k
    total = k
    ideal = 0.0
    for s in symbols:
        if not 0 <= s < k:
            raise ValueError(f"symbol {s} outside alphabet of {k}")
        cum = 0
        for i in range(s):
            cum += counts[i]
        c = counts[s]
        encoder.encode(cum, cum + c, total)
        ideal -= math.log2(c / total)
        counts[s] = c + 1
        total += 1
    return ideal


def decode_block_adaptive(n: int, k: int, decoder: RangeDecoder) -> list:
    """Decode n symbols written by :func:`encode_block_adaptive`."""
    if k < 1:
        raise ValueError("alphabet must be non-empty")
    if n < 0:
        raise ValueError("n must be >= 0")
    counts = [1] * k
    total = k
    out = []
    for _ in range(n):
        target = decoder.decode_target(total)
        cum = 0
        s = 0
        while cum + counts[s] <= target:
            cum += counts[s]
            s += 1
        decoder.decode_update(cum, cum + counts[s], total)
        out.append(s)
        counts[s] += 1
        total += 1
    return out


def ideal_bits(symbols: Iterable[int], k: int) -> float:
    """Ideal adaptive code length of a block without encoding it."""
    counts = [1] * k
    total = k
    ideal = 0.0
    for s in symbols:
        ideal -= math.log2(counts[s] / total)
        counts[s] += 1
        total += 1
    return ideal
