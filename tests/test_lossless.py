"""Container format: round trips, corruption rejection, bit accounting."""

import hashlib
import io
import math
import random
import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcomm import lossless
from semcomm.coder import RangeEncoder, encode_block_adaptive
from semcomm.errors import DecodeError
from semcomm.fol import AtomicStatement, EvidenceSet, parse_evidence
from semcomm.lossless import (_write_uvarint, gzip_bits, lossless_decode,
                              lossless_encode_report, shannon_baseline)

from conftest import DATA_DIR, one_statement_container, random_evidence_text
from test_coder import _ideal_bits_reference


def _parse(text):
    return parse_evidence(io.StringIO(text), source_id="test")

SAMPLE = """\
# a small mixed stream
Sails(Gull)
!Leaks(Gull)
Moors(Gull, North)
Sails(Tern)
Moors(Tern, South)
Sails(Gull)
Signals(Fyr)
"""


def _round_trip(text):
    ev = _parse(text)
    blob = lossless_encode_report(ev)[0]
    back = lossless_decode(blob)
    assert back.normalized_text() == ev.normalized_text()
    return blob


def test_round_trip_sample():
    _round_trip(SAMPLE)


def test_round_trip_empty():
    blob = _round_trip("")
    # magic, version, counts, and checksum still frame an empty stream
    assert len(blob) >= 9


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_random(seed):
    rnd = random.Random(seed)
    _round_trip(random_evidence_text(rnd))


def test_round_trip_preserves_duplicates():
    text = "Runs(Wren)\nRuns(Wren)\nRuns(Wren)\nIdles(Coot)\n"
    ev = _parse(text)
    back = lossless_decode(lossless_encode_report(ev)[0])
    assert len(back.statements) == 4
    assert back.normalized_text() == ev.normalized_text()


def test_tuple_fields_decode_in_bounded_chunks(monkeypatch):
    # each statement's subject is an index past the small-int cache, so a
    # whole-section symbol list costs about 0.4x the result on top of the
    # rest of the decode (peak 1.87x the result against 1.48x in chunks);
    # tracemalloc slows the coder about 40-fold, hence small chunks and a
    # small container rather than the real chunk size
    import semcomm.lossless as lossless
    monkeypatch.setattr(lossless, "_ROWS", 32)
    lines = [f"P{i % 3}(e{i}, e{i + 1})" if i % 2 else f"!Q(e{i})"
             for i in range(600)]
    ev = _parse("\n".join(lines) + "\n")
    assert len(ev.distinct_statements) == 600
    blob = lossless_encode_report(ev)[0]
    tracemalloc.start()
    try:
        back = lossless_decode(blob)
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.normalized_text() == ev.normalized_text()
    assert peak < 1.65 * result


def test_container_magic():
    blob = lossless_encode_report(_parse(SAMPLE))[0]
    assert blob[:4] == b"SEMC"


def test_report_accounting():
    ev = _parse(SAMPLE)
    blob, report = lossless_encode_report(ev)
    assert report.semantic_bits == 8 * len(blob)
    assert report.header_bits + report.coded_block_bits == report.semantic_bits
    assert report.n_statements == len(ev.statements)
    # ideal section lengths sit at or under the measured coded block
    ideal = report.dictionary_bits_ideal + report.payload_bits_ideal
    assert ideal <= report.coded_block_bits + 1e-9
    assert report.coded_block_bits <= ideal * 1.005 + 64


# --- the report's ideal lengths against the per-symbol oracle ---------------


def _sections(ev):
    """Each section's symbols and alphabet size, as the container codes
    them: name lengths, name bytes, the four tuple fields, the stream."""
    names = [x.encode() for x in (*ev.predicates, *ev.entities)]
    pred = {p: i for i, p in enumerate(ev.predicates)}
    ent = {e: i for i, e in enumerate(ev.entities)}
    distinct = ev.distinct_statements
    index = {st: i for i, st in enumerate(distinct)}
    no_obj = len(ent)
    return [([len(raw) for raw in names], 64), (b"".join(names), 256),
            ([0 if st.positive else 1 for st in distinct], 2),
            ([pred[st.predicate] for st in distinct], len(pred)),
            ([ent[st.subject] for st in distinct], len(ent)),
            ([no_obj if st.obj is None else ent[st.obj] for st in distinct],
             no_obj + 1),
            ([index[st] for st in ev.statements], len(distinct))]


def test_section_bits_match_the_oracle_on_random_blocks():
    rnd = random.Random(0x1DEA)
    for case in range(120):
        k = rnd.randint(1, 300)
        n = rnd.randint(0, 2000)
        # a few popular symbols in some blocks, uniform draws in others
        hot = rnd.randint(1, k)
        symbols = [rnd.randrange(hot if case % 2 else k) for _ in range(n)]
        want = _ideal_bits_reference(symbols, k)
        assert lossless._section_bits(symbols, k) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("story", [f"story{i}" for i in range(1, 8)])
def test_section_bits_match_the_oracle_on_stories(story):
    ev = parse_evidence(DATA_DIR / f"{story}.fol")
    want = [_ideal_bits_reference(symbols, k) for symbols, k in _sections(ev)]
    got = [lossless._section_bits(symbols, k) for symbols, k in _sections(ev)]
    assert got == pytest.approx(want, rel=1e-12)
    report = lossless_encode_report(ev)[1]
    assert report.dictionary_bits_ideal == pytest.approx(sum(want[:-1]), rel=1e-12)
    assert report.payload_bits_ideal == pytest.approx(want[-1], rel=1e-12)


def test_certain_stream_is_priced_at_plus_zero():
    # one distinct statement is certain at every step; its ideal length
    # must read 0.0 in the report, never -0.0
    report = lossless_encode_report(_parse("Sails(Gull)\n" * 3))[1]
    assert math.copysign(1.0, report.as_json()["payload_bits_ideal"]) == 1.0


def test_report_json_shape():
    _, report = lossless_encode_report(_parse(SAMPLE))
    js = report.as_json()
    assert set(js) == {"semantic_bits", "header_bits", "coded_block_bits",
                       "dictionary_bits_ideal", "payload_bits_ideal",
                       "n_statements", "alphabet_size"}


def test_reject_bad_magic():
    blob = bytearray(lossless_encode_report(_parse(SAMPLE))[0])
    blob[:4] = b"NOPE"
    with pytest.raises(DecodeError):
        lossless_decode(bytes(blob))


def test_reject_bad_version():
    blob = bytearray(lossless_encode_report(_parse(SAMPLE))[0])
    blob[4] ^= 0x7F
    with pytest.raises(DecodeError):
        lossless_decode(bytes(blob))


def test_reject_truncation():
    blob = lossless_encode_report(_parse(SAMPLE))[0]
    for cut in (5, len(blob) // 2, len(blob) - 1):
        with pytest.raises(DecodeError):
            lossless_decode(blob[:cut])


def test_reject_flipped_payload_bit():
    blob = bytearray(lossless_encode_report(_parse(SAMPLE))[0])
    blob[len(blob) // 2] ^= 0x10
    with pytest.raises(DecodeError):
        lossless_decode(bytes(blob))


def test_reject_flipped_checksum():
    blob = bytearray(lossless_encode_report(_parse(SAMPLE))[0])
    blob[-1] ^= 0x01
    with pytest.raises(DecodeError):
        lossless_decode(bytes(blob))


def test_reject_trailing_garbage():
    blob = lossless_encode_report(_parse(SAMPLE))[0]
    with pytest.raises(DecodeError):
        lossless_decode(blob + b"\x00")


def test_checksum_is_crc32():
    blob = lossless_encode_report(_parse(SAMPLE))[0]
    body, tail = blob[:-4], blob[-4:]
    assert struct.unpack(">I", tail)[0] == zlib.crc32(body) & 0xFFFFFFFF


_STORY1 = lossless_encode_report(parse_evidence(DATA_DIR / "story1.fol"))[0]


def _decodes_or_rejects(blob):
    try:
        lossless_decode(blob)
    except DecodeError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80))
def test_arbitrary_bytes_raise_only_decode_error(data):
    _decodes_or_rejects(data)
    _decodes_or_rejects(b"SEMC\x01" + data)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_STORY1) - 5),
                          st.integers(0, 255)), min_size=1, max_size=4))
def test_crc_fixed_mutations_raise_only_decode_error(edits):
    # the checksum is recomputed, so the decoder itself must catch the damage
    body = bytearray(_STORY1[:-4])
    for pos, value in edits:
        body[pos] = value
    _decodes_or_rejects(bytes(body) + zlib.crc32(body).to_bytes(4, "big"))


def _sealed(body: bytes) -> bytes:
    return bytes(body) + zlib.crc32(body).to_bytes(4, "big")


def _container(n_pred, n_ent, n_distinct, n_stream, coded=b"\x5a" * 8):
    buf = bytearray(b"SEMC\x01")
    for value in (n_pred, n_ent, n_distinct, n_stream, len(coded)):
        _write_uvarint(buf, value)
    buf += coded
    return _sealed(buf)


@pytest.mark.parametrize("blob, match", [
    (_sealed(b"SEMC\x01\x80"), "truncated varint at byte 6"),
    (_sealed(b"SEMC\x01" + b"\xff" * 10), "varint overflow at byte 15"),
    # declares a 9-byte coded block and holds 8
    (_sealed(b"SEMC\x01\x01\x01\x01\x01\x09" + b"\x5a" * 8),
     "coded block truncated at byte 18"),
    (_container(0, 0, 0, 5), "stream declared without a statement alphabet"),
    (_container(0, 0, 1, 1), "statements declared without names to build them"),
    (_container(1, 0, 1, 1), "statements declared without names to build them"),
], ids=["truncated-varint", "varint-past-63-bits", "short-coded-block",
        "stream-without-alphabet", "statements-without-predicates",
        "statements-without-entities"])
def test_reject_malformed_header(blob, match):
    # the checksum holds, so the header parse itself must refuse these
    with pytest.raises(DecodeError, match=match):
        lossless_decode(blob)


@pytest.mark.parametrize("counts", [
    (1, 10**8, 1, 1),   # entities beyond two per distinct statement
    (10**8, 1, 1, 1),   # predicates beyond one per distinct statement
    (1, 1, 10**8, 1),   # distinct statements beyond the stream length
    (1, 3, 1, 5),
    (2, 2, 1, 5),
    (1, 1, 3, 2),
    (1, 1, 0, 0),       # names without statements
])
def test_reject_impossible_header_counts(counts):
    # no encoder writes these counts; the decoder must refuse them before
    # it sizes a model from them
    with pytest.raises(DecodeError, match="header counts"):
        lossless_decode(_container(*counts))


@pytest.mark.parametrize("bad", ["", "a b", "9x", "("])
@pytest.mark.parametrize("where", ["predicate", "entity"])
def test_reject_names_the_evidence_format_cannot_hold(bad, where):
    # decoded, these would print as lines such as "P()" or "P(a b)",
    # which the parser rejects
    blob = (one_statement_container(bad, "a") if where == "predicate"
            else one_statement_container("P", bad))
    with pytest.raises(DecodeError, match="name syntax"):
        lossless_decode(blob)


def test_predicate_with_two_arities_is_decode_error():
    # the encoder takes hand-built statements as they come; the decoder
    # holds each predicate to the arity of its first row
    ev = EvidenceSet((AtomicStatement("P", "a", None),
                      AtomicStatement("P", "a", "b")))
    with pytest.raises(DecodeError, match="arity"):
        lossless_decode(lossless_encode_report(ev)[0])


def test_empty_coded_block_fails_at_the_first_name(monkeypatch):
    # 26 bytes declare 2^31 entities over an empty coded block.  Past the
    # block's end the decoder reads zero bits, so every name decodes as
    # "", and the first one (a length run, then an empty byte run) must
    # end the decode
    calls = []
    decode_run = lossless.decode_run

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 2, "decoded past the first name"
        return decode_run(*args)

    blob = _container(1, 2**31, 2**30, 2**30, coded=b"")
    assert len(blob) == 26
    monkeypatch.setattr(lossless, "decode_run", counted)
    with pytest.raises(DecodeError, match="name syntax"):
        lossless_decode(blob)


def test_header_counts_at_their_bounds_decode():
    # one two-place statement: entities at twice the distinct statements,
    # predicates and distinct statements at the stream length
    blob = _round_trip("Likes(Ann, Bob)\n")
    assert blob[5:9] == bytes((1, 2, 1, 1))


def test_deterministic_container():
    ev = _parse(SAMPLE)
    assert lossless_encode_report(ev)[0] == lossless_encode_report(ev)[0]


def test_shannon_baseline_empty():
    assert shannon_baseline(b"") == 0


def test_shannon_baseline_random_near_eight():
    rnd = random.Random(11)
    text = bytes(rnd.randrange(256) for _ in range(4000))
    bits = shannon_baseline(text)
    assert bits / (8 * len(text)) == pytest.approx(1.0, abs=0.02)


def test_shannon_baseline_repetitive_compresses():
    text = b"the quick brown fox " * 200
    assert shannon_baseline(text) < 8 * len(text) * 0.8


def _baseline_against_a_coding(text: bytes) -> tuple[int, int]:
    """Check the baseline and a real coding of the text against the
    per-symbol oracle; returns both lengths in bits.

    The baseline is the least integer at or above the ideal length I.  The
    closed form and the oracle sum the same logs in different orders, so
    the comparison allows a relative 1e-9.

    A coding writes between I and I + 9 bits.  Let S be the bits the coder
    has shifted out (pending underflow bits included) after the last
    symbol, R its register range and W the width of the coded interval,
    the product of the ranges' ratios.  Renormalization keeps the width,
    so W = R / 2^(32 + S), and after renormalizing 2^30 < R <= 2^32: the
    top bits of low and high differ and no underflow step is left.  So
    -log2 W - 2 < S <= -log2 W.  ``finish`` writes the pending bits and 2
    more, then pads to a byte: 8 * len(finish()) lies in [S + 2, S + 9].
    Each narrowing floors both endpoints, so it shrinks the range by its
    probability times a factor within T / rng of 1, with the model total
    T <= n + 255 and rng > 2^30.  That puts -log2 W within ``drift`` of I,
    0.011 bits on the longest bundled narrative."""
    ideal = _ideal_bits_reference(text, 256)
    tol = 1e-9 * ideal
    bits = shannon_baseline(text)
    assert ideal - tol <= bits < ideal + tol + 1
    enc = RangeEncoder()
    encode_block_adaptive(text, 256, enc)
    written = 8 * len(enc.finish())
    x = (len(text) + 255) / 2 ** 30
    drift = len(text) * x / (1 - x) / math.log(2)
    assert ideal - tol - drift < written <= ideal + 9 + tol + drift
    return bits, written


@pytest.mark.parametrize("story", [f"story{i}" for i in range(1, 8)])
def test_shannon_baseline_is_the_ceiling_of_the_ideal_on_narratives(story):
    bits, written = _baseline_against_a_coding(
        (DATA_DIR / f"{story}.txt").read_bytes())
    # a coding's length is an integer above the ideal, so at least its ceiling
    assert bits <= written


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=3000))
def test_shannon_baseline_is_the_ceiling_of_the_ideal(text):
    _baseline_against_a_coding(text)


def test_gzip_bits_positive():
    assert gzip_bits(b"aaaa" * 50) > 0
    assert gzip_bits(b"") >= 0


# SHA-256 of each bundled story's container, recorded with a coder that
# scanned counts linearly and moved one bit at a time
_GOLDEN_CONTAINERS = {
    "story1": "c9302052d552f117c3d8f0e893c94a52a64221acfa6cf8e49e8700ad49e9720b",
    "story2": "2053916cfcbf56826fe466f9484b3ff65ebe446df0bb01566e0f4c89d46915f1",
    "story3": "6ed16a8bff23bcfe5f92c8a05dfacc91c0987352aefdee211b856bb83691c054",
    "story4": "1e9dc4b096ace2bce43e758c922f0a311bab7b3521296fb004c60a6f8a5a788c",
    "story5": "5054eeaa764ac0ba8f818452903b120d198a412c82b401be50ebcbe42538a561",
    "story6": "0c20acf847891f1cccfe94ef6d59a37cb27438d83af1b380b53aec6a62c0cee2",
    "story7": "118cea1f49a179ba2ff3d7582737d26f6ae178e313dfb0588f82a25a1cee0d00",
}


@pytest.mark.parametrize("story", sorted(_GOLDEN_CONTAINERS))
def test_golden_story_containers(story):
    blob = lossless_encode_report(parse_evidence(DATA_DIR / f"{story}.fol"))[0]
    assert hashlib.sha256(blob).hexdigest() == _GOLDEN_CONTAINERS[story]
