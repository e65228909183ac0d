"""Range coder: round trips, code length accounting, golden streams."""

import hashlib
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm import coder
from semcomm._coder_py import (_BELOW_HALF, _BITS, _HALF, _MASK, _QUARTER,
                               _THREE_QUARTER, MAX_TOTAL)


# --- the one-interval reference coder --------------------------------------
# It codes one raw interval per call over the registers the kernel keeps,
# so the tests can write raw intervals between kernel runs and check each
# run against coding its symbols one interval at a time.


class _ReferenceEncoder(coder.RangeEncoder):
    __slots__ = ()

    def encode(self, cum_lo: int, cum_hi: int, total: int) -> None:
        if self._done:
            raise ValueError("encoder already finished")
        if not 0 <= cum_lo < cum_hi <= total <= MAX_TOTAL:
            raise ValueError("invalid frequency interval")
        low = self._low
        rng = self._high - low + 1
        high = low + (rng * cum_hi) // total - 1
        low += (rng * cum_lo) // total
        n = _BITS - (low ^ high).bit_length()
        if n:
            # the first agreeing bit is followed by the pending opposite bits
            bits = low >> (_BITS - n)
            acc = self._acc
            p = self._pending
            nacc = self._nacc + n
            if p:
                rest = n - 1
                first = bits >> rest
                acc = ((((acc << 1) | first) << p | (0 if first else (1 << p) - 1))
                       << rest) | (bits & ((1 << rest) - 1))
                nacc += p
                self._pending = 0
            else:
                acc = (acc << n) | bits
            if nacc >= 32:
                spare = nacc & 7
                self._out += (acc >> spare).to_bytes(nacc >> 3, "big")
                acc &= (1 << spare) - 1
                nacc = spare
            self._acc = acc
            self._nacc = nacc
            low = (low << n) & _MASK
            high = ((high << n) | ((1 << n) - 1)) & _MASK
        if _QUARTER <= low and high < _THREE_QUARTER:
            # an underflow step needs bit 30 set in low and clear in high;
            # it drops that bit from both and shifts the bits below it up
            m = _BITS - 1 - (~(low & ~high) & _BELOW_HALF).bit_length()
            self._pending += m
            low = (low << m) & _BELOW_HALF
            high = ((high << m) & _BELOW_HALF) | _HALF | ((1 << m) - 1)
        self._low = low
        self._high = high


class _ReferenceDecoder(coder.RangeDecoder):
    __slots__ = ()

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
        low = self._low
        rng = self._high - low + 1
        high = low + (rng * cum_hi) // total - 1
        low += (rng * cum_lo) // total
        n = _BITS - (low ^ high).bit_length()
        if n:
            low = (low << n) & _MASK
            high = ((high << n) | ((1 << n) - 1)) & _MASK
        m = 0
        if _QUARTER <= low and high < _THREE_QUARTER:
            m = _BITS - 1 - (~(low & ~high) & _BELOW_HALF).bit_length()
            low = (low << m) & _BELOW_HALF
            high = ((high << m) & _BELOW_HALF) | _HALF | ((1 << m) - 1)
        self._low = low
        self._high = high
        shift = n + m
        if shift:
            # the code shifts in step with low and high; each underflow
            # step also takes a quarter off it first
            window = self._window
            nwindow = self._nwindow - shift
            if nwindow < 0:
                pos = self._pos
                chunk = self._data[pos:pos + 8].ljust(8, b"\0")
                window = (window << 64) | int.from_bytes(chunk, "big")
                nwindow += 64
                self._pos = pos + 8
            self._code = ((self._code << shift) + (window >> nwindow)
                          - _HALF * ((1 << m) - 1)) & _MASK
            self._window = window & ((1 << nwindow) - 1)
            self._nwindow = nwindow


def _total(model):
    """A model's count total, held in node 0 of its Fenwick tree."""
    return model._state[1][0]


def _encode(symbols, k):
    enc = coder.RangeEncoder()
    coder.encode_block_adaptive(symbols, k, enc)
    return enc.finish(), coder.ideal_bits(symbols, k)


def _decode(blob, n, k):
    dec = coder.RangeDecoder(blob)
    return coder.decode_block_adaptive(n, k, dec)


def test_round_trip_simple():
    symbols = [0, 1, 2, 1, 0, 3, 3, 3]
    blob, ideal = _encode(symbols, 4)
    assert _decode(blob, len(symbols), 4) == symbols
    assert ideal > 0.0


def test_round_trip_empty():
    blob, ideal = _encode([], 7)
    assert ideal == 0.0
    assert _decode(blob, 0, 7) == []


def test_round_trip_singleton_alphabet():
    # with one symbol every cell is certain, the ideal length is zero
    symbols = [0] * 50
    blob, ideal = _encode(symbols, 1)
    assert ideal == 0.0
    assert _decode(blob, 50, 1) == symbols


def test_round_trip_single_symbol():
    blob, _ = _encode([5], 9)
    assert _decode(blob, 1, 9) == [5]


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_random(seed):
    rnd = random.Random(seed)
    k = rnd.randint(1, 64)
    n = rnd.randint(0, 400)
    symbols = [rnd.randrange(k) for _ in range(n)]
    blob, ideal = _encode(symbols, k)
    assert _decode(blob, n, k) == symbols
    # emitted length tracks the ideal length within coder overhead
    assert 8 * len(blob) <= ideal * 1.005 + 64


def test_round_trip_heavy_duplicates():
    rnd = random.Random(42)
    symbols = [0] * 300 + [rnd.randrange(3) for _ in range(100)]
    rnd.shuffle(symbols)
    blob, ideal = _encode(symbols, 3)
    assert _decode(blob, len(symbols), 3) == symbols
    assert 8 * len(blob) <= ideal * 1.005 + 64


def test_adaptive_prices_match_ideal_bits():
    # the add-one rule prices a block at prod(n_s!) (k-1)! / (n+k-1)!,
    # whatever the order of its symbols
    rnd = random.Random(7)
    symbols = [rnd.randrange(5) for _ in range(200)]
    ln_p = (sum(math.lgamma(symbols.count(s) + 1) for s in range(5))
            + math.lgamma(5) - math.lgamma(len(symbols) + 5))
    assert coder.ideal_bits(symbols, 5) == pytest.approx(-ln_p / math.log(2),
                                                         abs=1e-9)


def test_ideal_bits_skewed_below_uniform():
    skewed = [0] * 95 + [1] * 5
    uniform = [i % 2 for i in range(100)]
    assert coder.ideal_bits(skewed, 2) < coder.ideal_bits(uniform, 2)


def test_symbol_range_validation():
    enc = coder.RangeEncoder()
    with pytest.raises(ValueError):
        coder.encode_block_adaptive([3], 3, enc)
    with pytest.raises(ValueError):
        coder.encode_block_adaptive([0], 0, enc)


def test_encoder_rejects_bad_interval():
    enc = _ReferenceEncoder()
    with pytest.raises(ValueError):
        enc.encode(5, 5, 10)
    with pytest.raises(ValueError):
        enc.encode(0, 11, 10)
    with pytest.raises(ValueError):
        enc.encode(0, 1, coder.MAX_TOTAL + 1)
    enc.finish()
    with pytest.raises(ValueError, match="already finished"):
        enc.encode(0, 1, 2)


def test_deterministic_output():
    symbols = [2, 0, 1, 1, 2, 0] * 30
    one, _ = _encode(symbols, 3)
    two, _ = _encode(symbols, 3)
    assert one == two


def test_backend_name_reported():
    assert coder.get_backend_name() == "pure-python"


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    k = data.draw(st.integers(1, 48))
    symbols = data.draw(st.lists(st.integers(0, k - 1), max_size=200))
    blob, ideal = _encode(symbols, k)
    assert _decode(blob, len(symbols), k) == symbols
    assert 8 * len(blob) <= ideal * 1.005 + 64


def test_interleaved_blocks_share_stream():
    # two adaptive blocks written back to back into one encoder
    a = [1, 0, 1, 1]
    b = [4, 4, 2]
    enc = coder.RangeEncoder()
    coder.encode_block_adaptive(a, 2, enc)
    coder.encode_block_adaptive(b, 5, enc)
    blob = enc.finish()
    dec = coder.RangeDecoder(blob)
    assert coder.decode_block_adaptive(4, 2, dec) == a
    assert coder.decode_block_adaptive(3, 5, dec) == b


def test_decoder_on_truncated_stream():
    symbols = list(range(32)) * 8
    blob, _ = _encode(symbols, 32)
    cut = blob[: len(blob) // 2]
    dec = coder.RangeDecoder(cut)
    out = coder.decode_block_adaptive(len(symbols), 32, dec)
    # a bare range stream has no integrity check of its own; the container
    # layer owns that. Truncation must merely never crash the decoder.
    assert len(out) == len(symbols)
    assert out != symbols


# SHA-256 of finish() for the golden streams below, recorded with a coder
# that scanned counts linearly and moved one bit at a time; any change of
# stream layout shows up here
_GOLDEN_KS = (1, 2, 3, 255, 256, 257, 1600)
_GOLDEN_DIGESTS = {
    0: "37ccd52a9e72ba753b694e2627ba1b78ac643637f0596e86d668026ddd36dc84",
    1: "4f15f3556b353c8dd7367110e3fb1fe4fd683400c21c8084e9da9d83362f34b3",
    2: "d0ee0e5112d91c4b3482c2bdf5c54848f5d82e30f64b44510e02bc7308e30bfa",
}


def _golden_stream(seed):
    """Adaptive blocks over every golden alphabet, twice in shuffled order,
    with runs of raw intervals (widths down to one, totals up to MAX_TOTAL)
    written between them, all into one encoder."""
    rnd = random.Random(f"golden:{seed}")
    items = []
    for _ in range(2):
        ks = list(_GOLDEN_KS)
        rnd.shuffle(ks)
        for k in ks:
            n = rnd.randint(0, 1500)
            hot, p_hot = rnd.randrange(k), rnd.choice((0.0, 0.6, 0.97))
            symbols = [hot if rnd.random() < p_hot else rnd.randrange(k)
                       for _ in range(n)]
            items.append(("block", k, symbols))
            raw = []
            for _ in range(rnd.randint(0, 40)):
                total = rnd.choice((rnd.randint(1, 64), coder.MAX_TOTAL,
                                    rnd.randint(1, coder.MAX_TOTAL)))
                lo = rnd.randrange(total)
                hi = lo + 1 if rnd.random() < 0.5 else rnd.randint(lo + 1, total)
                raw.append((lo, hi, total))
            items.append(("raw", raw))
    return items


def _encode_golden(items):
    enc = _ReferenceEncoder()
    for item in items:
        if item[0] == "block":
            coder.encode_block_adaptive(item[2], item[1], enc)
        else:
            for lo, hi, total in item[1]:
                enc.encode(lo, hi, total)
    return enc.finish()


@pytest.mark.parametrize("seed", range(3))
def test_golden_streams(seed):
    items = _golden_stream(seed)
    blob = _encode_golden(items)
    assert hashlib.sha256(blob).hexdigest() == _GOLDEN_DIGESTS[seed]
    dec = _ReferenceDecoder(blob)
    for item in items:
        if item[0] == "block":
            assert coder.decode_block_adaptive(len(item[2]), item[1], dec) == item[2]
        else:
            for lo, hi, total in item[1]:
                assert lo <= dec.decode_target(total) < hi
                dec.decode_update(lo, hi, total)


# --- the measured length against the written stream -----------------------


def _written_bits(symbols, k):
    """8 * len(finish()) of a real block encode, and whether underflow bits
    were still pending when finish() ran."""
    enc = coder.RangeEncoder()
    coder.encode_block_adaptive(symbols, k, enc)
    pending = enc._pending > 0
    return 8 * len(enc.finish()), pending


@st.composite
def _blocks(draw):
    k = draw(st.sampled_from(_GOLDEN_KS))
    shape = draw(st.sampled_from(("random", "run", "two")))
    if shape == "random":
        symbols = draw(st.lists(st.integers(0, k - 1), max_size=600))
    elif shape == "run":
        symbols = [draw(st.integers(0, k - 1))] * draw(st.integers(0, 5000))
    else:
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        symbols = [b if x else a for x in draw(st.lists(st.booleans(),
                                                        min_size=1, max_size=300))]
    return symbols, k


@settings(max_examples=200, deadline=None)
@given(_blocks())
def test_coded_bits_matches_written_stream(block):
    symbols, k = block
    bits = _written_bits(symbols, k)[0]
    assert coder.coded_bits(symbols, k) == bits
    if k <= 256:  # the baseline passes its text as bytes
        assert coder.coded_bits(bytes(symbols), k) == bits


@pytest.mark.parametrize("k", _GOLDEN_KS)
def test_coded_bits_edge_blocks(k):
    # an empty block is finish()'s two tail bits padded to one byte
    assert coder.coded_bits([], k) == _written_bits([], k)[0] == 8
    for symbols in ([k - 1], [0] * 5000, [k - 1] * 3000 + [0]):
        assert coder.coded_bits(symbols, k) == _written_bits(symbols, k)[0]


def test_coded_bits_through_underflow_steps():
    # random two-symbol blocks often end with underflow bits still pending,
    # which only finish() writes; the measured length must count them
    rnd = random.Random(14)
    pending = 0
    for _ in range(200):
        k = rnd.choice(_GOLDEN_KS[1:])
        a, b = rnd.randrange(k), rnd.randrange(k)
        symbols = [rnd.choice((a, b)) for _ in range(rnd.randint(1, 300))]
        bits, was_pending = _written_bits(symbols, k)
        pending += was_pending
        assert coder.coded_bits(symbols, k) == bits
    assert pending >= 50


@pytest.mark.parametrize("symbols, k", [
    ([3], 3), ([0, 1, -1], 3), ([0], 0), ([], 0), ([0], -2),
    (range(coder.MAX_TOTAL - 2), 4),
])
def test_coded_bits_rejects_what_encode_run_rejects(symbols, k):
    with pytest.raises(ValueError):
        coder.encode_block_adaptive(symbols, k, coder.RangeEncoder())
    with pytest.raises(ValueError):
        coder.coded_bits(symbols, k)


def test_coded_bits_checks_before_allocating():
    # a list sized by k would take gigabytes here; the checks come first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="past"):
            coder.coded_bits([0, 0], coder.MAX_TOTAL)
        with pytest.raises(ValueError, match="outside alphabet"):
            coder.coded_bits([coder.MAX_TOTAL], coder.MAX_TOTAL)
        assert coder.coded_bits([5, 5], coder.MAX_TOTAL - 1) > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- the run kernel against a one-interval oracle --------------------------


class _PlainModel:
    """Add-one counts in a plain list, no Fenwick tree: each symbol is one
    interval through the reference coder's encode or decode_target and
    decode_update."""

    def __init__(self, k):
        self.counts = [1] * k

    def interval(self, s):
        cum = sum(self.counts[:s])
        return cum, cum + self.counts[s], sum(self.counts)

    def encode(self, enc, s):
        enc.encode(*self.interval(s))
        self.counts[s] += 1

    def decode(self, dec):
        target = dec.decode_target(sum(self.counts))
        s, cum_hi = 0, self.counts[0]
        while cum_hi <= target:
            s += 1
            cum_hi += self.counts[s]
        dec.decode_update(*self.interval(s))
        self.counts[s] += 1
        return s


def _rotate(cycle, by):
    by %= len(cycle)
    return cycle[by:] + cycle[:by]


@st.composite
def _run_ops(draw):
    """A pool of alphabets and ops over it: runs over cycles of 1-4 pool
    models (a model may recur), each with a point where the kernel splits
    it across two calls, and raw intervals in between."""
    ks = draw(st.lists(st.sampled_from((1, 2, 3, 7, 64, 256, 300)),
                       min_size=1, max_size=4))
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            cycle = tuple(draw(st.lists(st.integers(0, len(ks) - 1),
                                        min_size=1, max_size=4)))
            raw = draw(st.lists(st.integers(0, 299), max_size=120))
            symbols = [x % ks[cycle[j % len(cycle)]] for j, x in enumerate(raw)]
            ops.append(("run", cycle, symbols,
                        draw(st.integers(0, len(symbols)))))
        else:
            raw = []
            for _ in range(draw(st.integers(0, 3))):
                total = draw(st.integers(1, coder.MAX_TOTAL))
                lo = draw(st.integers(0, total - 1))
                raw.append((lo, draw(st.integers(lo + 1, total)), total))
            ops.append(("raw", raw))
    return ks, ops


def _kernel_encode(ks, ops):
    enc = _ReferenceEncoder()
    models = [coder.AdaptiveModel(k) for k in ks]
    for op in ops:
        if op[0] == "raw":
            for interval in op[1]:
                enc.encode(*interval)
            continue
        _, cycle, symbols, split = op
        coder.encode_run(enc, [models[i] for i in cycle], symbols[:split])
        coder.encode_run(enc, [models[i] for i in _rotate(cycle, split)],
                         symbols[split:])
    return enc.finish(), [_total(m) for m in models]


def _oracle_encode(ks, ops):
    enc = _ReferenceEncoder()
    models = [_PlainModel(k) for k in ks]
    for op in ops:
        if op[0] == "raw":
            for interval in op[1]:
                enc.encode(*interval)
            continue
        _, cycle, symbols, _ = op
        for j, s in enumerate(symbols):
            models[cycle[j % len(cycle)]].encode(enc, s)
    return enc.finish(), [sum(m.counts) for m in models]


@settings(max_examples=150, deadline=None)
@given(_run_ops())
def test_fused_runs_match_per_symbol_route(case):
    ks, ops = case
    blob, totals = _kernel_encode(ks, ops)
    assert (blob, totals) == _oracle_encode(ks, ops)
    # the kernel decodes each run in one call, the oracle symbol by symbol
    kernel_dec = _ReferenceDecoder(blob)
    oracle_dec = _ReferenceDecoder(blob)
    models = [coder.AdaptiveModel(k) for k in ks]
    plain = [_PlainModel(k) for k in ks]
    for op in ops:
        if op[0] == "raw":
            for lo, hi, total in op[1]:
                for dec in (kernel_dec, oracle_dec):
                    assert lo <= dec.decode_target(total) < hi
                    dec.decode_update(lo, hi, total)
            continue
        _, cycle, symbols, _ = op
        assert coder.decode_run(kernel_dec, [models[i] for i in cycle],
                                len(symbols)) == symbols
        assert [plain[cycle[j % len(cycle)]].decode(oracle_dec)
                for j in range(len(symbols))] == symbols


def _state(enc, models):
    return ((enc._low, enc._high, enc._pending, enc._acc, enc._nacc,
             bytes(enc._out)),
            [(list(m._state[0]), list(m._state[1])) for m in models])


@pytest.mark.parametrize("bad", [-1, 5])
def test_encode_run_rejects_symbols_outside_alphabet(bad):
    # the bad symbol sits in field 2's column; 5 fits every other alphabet
    enc = coder.RangeEncoder()
    models = [coder.AdaptiveModel(k) for k in (8, 8, 5, 8)]
    coder.encode_run(enc, models, [1, 2, 0, 4, 3])
    before = _state(enc, models)
    with pytest.raises(ValueError, match="outside alphabet of 5"):
        coder.encode_run(enc, models, [4, 4, 2, 4, 0, 1, bad, 3])
    # nothing of the rejected run was coded or counted
    assert _state(enc, models) == before
    assert [_total(m) for m in models] == [10, 9, 6, 9]
    coder.encode_run(enc, models[1:] + models[:1], [4])  # the sixth symbol
    ref = coder.RangeEncoder()
    coder.encode_run(ref, [coder.AdaptiveModel(k) for k in (8, 8, 5, 8)],
                     [1, 2, 0, 4, 3, 4])
    assert enc.finish() == ref.finish()


def test_encode_run_on_finished_encoder_raises():
    enc = coder.RangeEncoder()
    model = coder.AdaptiveModel(3)
    coder.encode_run(enc, [model], [0, 1])
    enc.finish()
    with pytest.raises(ValueError, match="already finished"):
        coder.encode_run(enc, [model], [2])
    with pytest.raises(ValueError, match="already finished"):
        coder.encode_run(enc, [model], [])


def test_runs_past_max_total_rejected():
    with pytest.raises(ValueError, match="past"):
        coder.encode_run(coder.RangeEncoder(), [coder.AdaptiveModel(4)],
                         range(coder.MAX_TOTAL - 2))
    # the whole run length counts against every model of the cycle
    with pytest.raises(ValueError, match="past"):
        coder.decode_run(coder.RangeDecoder(b""),
                         [coder.AdaptiveModel(2), coder.AdaptiveModel(4)],
                         coder.MAX_TOTAL - 2)
    with pytest.raises(ValueError, match=">= 0"):
        coder.decode_run(coder.RangeDecoder(b""), [coder.AdaptiveModel(4)], -1)
    with pytest.raises(ValueError, match="at least one model"):
        coder.encode_run(coder.RangeEncoder(), [], [])


def test_decode_run_on_corrupt_stream_raises():
    def steered():
        # a wrong interval leaves the code above the decoder's high end,
        # where a corrupt stream steers it
        dec = _ReferenceDecoder(b"\xff" * 8)
        dec.decode_update(0, 2, 3)
        return dec
    with pytest.raises(ValueError, match="outside alphabet total"):
        coder.decode_run(steered(), [coder.AdaptiveModel(4)], 3)
    with pytest.raises(ValueError, match="outside alphabet total"):
        coder.decode_run(steered(), [coder.AdaptiveModel(2)] * 3, 1)
    # the one-interval reference calls check their arguments and the
    # stream the same way
    dec = _ReferenceDecoder(b"\xff" * 8)
    with pytest.raises(ValueError, match="invalid total"):
        dec.decode_target(0)
    with pytest.raises(ValueError, match="invalid frequency interval"):
        dec.decode_update(1, 1, 4)
    dec.decode_update(0, 1, 1000)
    with pytest.raises(ValueError, match="outside alphabet total"):
        dec.decode_target(1000)
