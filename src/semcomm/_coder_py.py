"""Pure-Python arithmetic coder and the adaptive add-one model.

32-bit carry-free coder: interval endpoints are kept in [0, 2^32), with the
classic three-way renormalization (emit on agreement of the top bit, count
middle-straddling steps as pending underflow bits).  Golden SHA-256
digests in the test suite pin the stream layout bit for bit.

Renormalization runs in two phases per narrowing: first every leading bit
on which low and high agree is shifted out, then every underflow step,
after which the top bits of low and high differ and neither phase can run
again.  So each call reads both counts off the bit patterns and moves all
their bits at once: the encoder shifts the emitted bits, the pending
opposite bits included, into an integer accumulator and flushes whole
bytes; the decoder pulls the same number of bits from a 64-bit window.

:class:`AdaptiveModel` is the one add-one model.  Its cumulative counts
live in a Fenwick tree (Fenwick 1994) with no root node, so pricing a
symbol and finding the symbol under a decoder target (binary descent,
Moffat 1999) each cost O(log k) rather than a scan over k counts, and the
one descent also counts the symbol it finds.  The model is state only; one
kernel pair codes with it.  ``encode_run``/``decode_run`` code a run of
symbols over a cycle of models, symbol j under model j mod the cycle
length: the coder's registers sit in locals for the whole run, and each
symbol is one loop body with no method call (Moffat, Neal & Witten 1998).
A cycle of one model codes a block; the container's tuple fields are a
cycle of four.  Pricing is not the kernel's work: the model is
exchangeable, so a block's ideal length depends on its counts alone, and
``lossless`` takes it from the inductive likelihood.  :class:`RangeEncoder`
and :class:`RangeDecoder` hold only the registers and the stream; the
tests keep a one-interval coder over those registers as the reference the
kernel is checked against.
"""

from __future__ import annotations

from itertools import cycle, islice
from typing import Sequence

BACKEND = "pure-python"

_BITS = 32
_TOP = 1 << _BITS
_MASK = _TOP - 1
_HALF = 1 << (_BITS - 1)
_QUARTER = 1 << (_BITS - 2)
_THREE_QUARTER = _HALF + _QUARTER
_BELOW_HALF = _HALF - 1

# totals must leave the narrowed interval at least one unit wide
MAX_TOTAL = _QUARTER


class RangeEncoder:
    """The encoder's registers and output, advanced by :func:`encode_run`."""

    __slots__ = ("_low", "_high", "_pending", "_out", "_acc", "_nacc", "_done")

    def __init__(self):
        self._low = 0
        self._high = _MASK
        self._pending = 0
        self._out = bytearray()
        self._acc = 0  # the last _nacc emitted bits, not yet whole bytes in _out
        self._nacc = 0
        self._done = False

    def finish(self) -> bytes:
        """Flush the disambiguating tail and return the whole bitstream."""
        if not self._done:
            # one more bit and its pending opposites, the last one included
            p = self._pending + 1
            tail = (1 << p) - 1 if self._low < _QUARTER else 1 << p
            acc = (self._acc << (p + 1)) | tail
            nacc = self._nacc + p + 1
            self._pending = 0
            spare = nacc & 7
            self._out += (acc >> spare).to_bytes(nacc >> 3, "big")
            self._acc = acc & ((1 << spare) - 1)
            self._nacc = spare
            self._done = True
        if self._nacc:
            return bytes(self._out) + bytes((self._acc << (8 - self._nacc),))
        return bytes(self._out)


class RangeDecoder:
    """The decoder's registers over one finished bitstream, advanced by
    :func:`decode_run`."""

    __slots__ = ("_low", "_high", "_code", "_data", "_pos", "_window", "_nwindow")

    def __init__(self, data: bytes):
        self._low = 0
        self._high = _MASK
        # bits past the end read as zero; the coder never needs more than
        # the register width beyond the written stream
        self._data = bytes(data)
        self._code = int.from_bytes(self._data[:4].ljust(4, b"\0"), "big")
        self._pos = 4
        self._window = 0  # the next _nwindow unread bits
        self._nwindow = 0


class AdaptiveModel:
    """Add-one adaptive frequency model over the symbols 0..k-1.

    Every symbol starts with count 1, so symbol s after t coded symbols is
    priced at count_s / (t + k): the smoothed next-case rule with weight
    equal to the alphabet size.  Node i of the Fenwick tree holds the
    counts of the symbols in (i - lowbit(i), i]; the tree is padded to a
    power of two, size, with zero-count symbols, which the decoder never
    lands on.  Prefixes read nodes below k and descents nodes below size,
    so the tree keeps no root node size, and node 0 holds the total.  The
    model is state only, kept as one tuple (counts, tree, size, the step a
    descent starts from) that :func:`encode_run` and :func:`decode_run`
    take whole.
    """

    __slots__ = ("k", "_state")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("alphabet must be non-empty")
        size = 1 << (k - 1).bit_length()
        self.k = k
        tree = [k] + [max(0, min(i, k) - i + (i & -i)) for i in range(1, size)]
        self._state = ([1] * k, tree, size, size >> 1)


def _states(models: Sequence[AdaptiveModel], n: int) -> list:
    """The models' states, once a run of n symbols is known to fit."""
    if not models:
        raise ValueError("a run needs at least one model")
    if n < 0:
        raise ValueError("n must be >= 0")
    states = []
    for model in models:
        state = model._state
        # n bounds what any one model of the cycle counts, even one listed twice
        if state[1][0] + n - 1 > MAX_TOTAL:
            raise ValueError(f"a run of {n} symbols would take the model "
                             f"total past {MAX_TOTAL}")
        states.append(state)
    return states


def encode_run(enc: RangeEncoder, models: Sequence[AdaptiveModel],
               symbols: Sequence[int]) -> None:
    """Code and count symbols[j] under models[j % len(models)].

    The coder registers live in locals for the whole run, and each model's
    state comes from one cycled tuple: a symbol is one loop body (Fenwick
    prefix, range step and renormalization, Fenwick update) with no method
    call.  It writes the bits that coding each symbol's interval on its
    own would write.  The run is checked whole before anything is coded:
    the symbols of each model's column must fall in its alphabet.
    """
    if enc._done:
        raise ValueError("encoder already finished")
    states = _states(models, len(symbols))
    width = len(models)
    for f, model in enumerate(models):
        column = symbols[f::width] if width > 1 else symbols
        if column and not (min(column) >= 0 and max(column) < model.k):
            bad = min(column) if min(column) < 0 else max(column)
            raise ValueError(f"symbol {bad} outside alphabet of {model.k}")
    states = cycle(states)
    low, high, pending = enc._low, enc._high, enc._pending
    acc, nacc, out = enc._acc, enc._nacc, enc._out
    nbits, mask, quarter = _BITS, _MASK, _QUARTER
    three_quarter, below_half, half = _THREE_QUARTER, _BELOW_HALF, _HALF
    for (counts, tree, size, _), s in zip(states, symbols):
        total = tree[0]
        cum = 0
        i = s
        while i:
            cum += tree[i]
            i &= i - 1
        c = counts[s]
        rng = high - low + 1
        high = low + (rng * (cum + c)) // total - 1
        low += (rng * cum) // total
        m = nbits - (low ^ high).bit_length()
        if m:
            # the first agreeing bit is followed by the pending opposite bits
            top = low >> (nbits - m)
            nacc += m
            if pending:
                rest = m - 1
                first = top >> rest
                acc = ((((acc << 1) | first) << pending
                        | (0 if first else (1 << pending) - 1))
                       << rest) | (top & ((1 << rest) - 1))
                nacc += pending
                pending = 0
            else:
                acc = (acc << m) | top
            if nacc >= 32:
                spare = nacc & 7
                out += (acc >> spare).to_bytes(nacc >> 3, "big")
                acc &= (1 << spare) - 1
                nacc = spare
            low = (low << m) & mask
            high = ((high << m) | ((1 << m) - 1)) & mask
        if quarter <= low and high < three_quarter:
            # an underflow step needs bit 30 set in low and clear in high;
            # it drops that bit from both and shifts the bits below it up
            m = nbits - 1 - (~(low & ~high) & below_half).bit_length()
            pending += m
            low = (low << m) & below_half
            high = ((high << m) & below_half) | half | ((1 << m) - 1)
        counts[s] = c + 1
        tree[0] = total + 1
        i = s + 1
        while i < size:
            tree[i] += 1
            i += i & -i
    enc._low, enc._high, enc._pending = low, high, pending
    enc._acc, enc._nacc = acc, nacc


def decode_run(dec: RangeDecoder, models: Sequence[AdaptiveModel],
               n: int) -> list:
    """Decode and count n symbols written by :func:`encode_run` under the
    same cycle of models, mirroring the encoder's narrowing symbol by
    symbol.  A target outside the model's total, which only a corrupt
    stream gives, raises ValueError."""
    states = cycle(_states(models, n))
    low, high, code = dec._low, dec._high, dec._code
    window, nwindow, pos, data = dec._window, dec._nwindow, dec._pos, dec._data
    nbits, mask, quarter = _BITS, _MASK, _QUARTER
    three_quarter, below_half, half = _THREE_QUARTER, _BELOW_HALF, _HALF
    out = []
    append = out.append
    for counts, tree, _, start in islice(states, n):
        total = tree[0]
        rng = high - low + 1
        target = ((code - low + 1) * total - 1) // rng
        if target >= total:  # corrupt stream steering out of range
            break
        # descend to the last s with cumulative count <= target, counting s
        # on each node not stepped past: those are the nodes that cover s
        s = 0
        rest = target
        step = start
        while step:
            node = tree[s + step]
            if node <= rest:
                s += step
                rest -= node
            else:
                tree[s + step] = node + 1
            step >>= 1
        cum = target - rest
        c = counts[s]
        high = low + (rng * (cum + c)) // total - 1
        low += (rng * cum) // total
        shift = nbits - (low ^ high).bit_length()
        if shift:
            low = (low << shift) & mask
            high = ((high << shift) | ((1 << shift) - 1)) & mask
        under = 0
        if quarter <= low and high < three_quarter:
            m = nbits - 1 - (~(low & ~high) & below_half).bit_length()
            low = (low << m) & below_half
            high = ((high << m) & below_half) | half | ((1 << m) - 1)
            shift += m
            # each underflow step also takes a quarter off the code
            under = half * ((1 << m) - 1)
        if shift:
            nwindow -= shift
            if nwindow < 0:
                window = (window << 64) | int.from_bytes(
                    data[pos:pos + 8].ljust(8, b"\0"), "big")
                nwindow += 64
                pos += 8
            code = ((code << shift) + (window >> nwindow) - under) & mask
            window &= (1 << nwindow) - 1
        counts[s] = c + 1
        tree[0] = total + 1
        append(s)
    dec._low, dec._high, dec._code = low, high, code
    dec._window, dec._nwindow, dec._pos = window, nwindow, pos
    if len(out) < n:
        raise ValueError(
            f"decoder target {target} outside alphabet total {total}")
    return out


def encode_block_adaptive(symbols: Sequence[int], k: int,
                          encoder: RangeEncoder) -> None:
    """Encode a symbol block under a fresh :class:`AdaptiveModel` over k
    symbols."""
    encode_run(encoder, (AdaptiveModel(k),), symbols)


def decode_block_adaptive(n: int, k: int, decoder: RangeDecoder) -> list:
    """Decode n symbols written by :func:`encode_block_adaptive`."""
    return decode_run(decoder, (AdaptiveModel(k),), n)

