"""Lossless semantic compression of statement streams.

The container holds a factorized dictionary (name pools plus per-statement
index tuples) and the symbol stream over the distinct-statement alphabet,
all entropy-coded in a single arithmetic-coder block.  Every section is
coded under the one adaptive add-one model, ``coder.AdaptiveModel``: its
price for a symbol with n_i prior occurrences out of t is (n_i + 1) /
(t + k), the smoothed next-case rule with weight equal to the alphabet size
k, and a Fenwick tree keeps each encode and decode at O(log k).  One
kernel pair, ``coder.encode_run``/``decode_run``, codes every section as
runs over a cycle of models: a name is a one-symbol length run, then a
byte run; the tuple fields are one run over the four field models (decoded
in chunks of rows); the statement stream, through
``encode_block_adaptive``, is a run under one model.

The report prices each section without the coder: the add-one price is
the next-case rule of a width-k hypothesis at lambda(w) = w, Carnap's
lambda = k (Carnap 1952), so a section's ideal length is its surprise,
-log2 of ``inductive.ln_likelihood_width`` over its symbol counts.  The
payload's ideal length is thus the stream's surprise under the width-k
hypothesis over its k distinct statements.  The likelihood sums the
counts in sorted order, so reordering the statements leaves every ideal
length the same float.  The byte-level baseline is priced by the same
route, with no coder: the raw bytes are one section over the 256 byte
values, and ``shannon_baseline`` is the length of a Shannon code for the
whole text, the least integer at or above its surprise (Shannon 1948).

Container layout (all integers unsigned LEB128 varints):

    magic "SEMC" | version 0x01 | n_pred | n_ent | n_distinct | n_stream
    | coded block length | coded block | crc32 (big endian, whole prefix)

Inside the coded block, in order: predicate names, entity names (length
symbol then raw bytes per name, shared adaptive models), one tuple per
distinct statement (polarity, predicate index, subject index, object index
with a sentinel for one-place statements), then the statement stream.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from typing import NamedTuple

from .coder import (
    AdaptiveModel,
    RangeDecoder,
    RangeEncoder,
    decode_block_adaptive,
    decode_run,
    encode_block_adaptive,
    encode_run,
)
from .errors import CapacityError, DecodeError, clip
from .fol import NAME, AtomicStatement, EvidenceSet, check_arity
from .inductive import InductiveParams, ln_likelihood_width

_MAGIC = b"SEMC"
_VERSION = 1
_MAX_NAME = 63  # name length symbol alphabet is 0..63
_ROWS = 4096  # distinct statements decoded per tuple-field run


def _write_uvarint(buf: bytearray, value: int) -> None:
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            buf.append(b | 0x80)
        else:
            buf.append(b)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise DecodeError(f"truncated varint at byte {pos}")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise DecodeError(f"varint overflow at byte {pos}")


class LosslessReport(NamedTuple):
    """Bit accounting for one encoded stream."""

    semantic_bits: int          # whole container, framing included
    header_bits: int            # framing outside the coded block
    coded_block_bits: int       # measured size of the arithmetic-coded block
    dictionary_bits_ideal: float
    payload_bits_ideal: float   # ideal length of the statement-stream section
    n_statements: int
    alphabet_size: int

    def as_json(self) -> dict:
        return {
            "semantic_bits": self.semantic_bits,
            "header_bits": self.header_bits,
            "coded_block_bits": self.coded_block_bits,
            "dictionary_bits_ideal": round(self.dictionary_bits_ideal, 2),
            "payload_bits_ideal": round(self.payload_bits_ideal, 2),
            "n_statements": self.n_statements,
            "alphabet_size": self.alphabet_size,
        }


def _section_bits(symbols, k: int) -> float:
    """Ideal length in bits of a section coded under a fresh add-one model
    over k symbols.  It is 0.0 minus the log term, so that a section of
    one certain symbol reads 0.0, not -0.0."""
    return 0.0 - ln_likelihood_width(k, len(symbols), Counter(symbols).values(),
                                     InductiveParams()) / math.log(2)


def _name_symbols(name: str) -> bytes:
    raw = name.encode("ascii")
    if len(raw) > _MAX_NAME:
        raise CapacityError(f"name {clip(repr(name))} longer than {_MAX_NAME} bytes")
    return raw


def _encode_tuples(enc: RangeEncoder, distinct, pred_index: dict,
                   ent_index: dict) -> float:
    """Code one (sign, predicate, subject, object) tuple per distinct
    statement as one run over the four field models; returns its ideal
    bits."""
    no_obj = len(ent_index)  # the object model's last index means "no object"
    fields = [sym for st in distinct for sym in (
        0 if st.positive else 1, pred_index[st.predicate],
        ent_index[st.subject],
        no_obj if st.obj is None else ent_index[st.obj])]
    ks = (2, len(pred_index), len(ent_index), no_obj + 1)
    encode_run(enc, tuple(AdaptiveModel(k) for k in ks), fields)
    return sum(_section_bits(fields[f::4], k) for f, k in enumerate(ks))


def lossless_encode_report(ev: EvidenceSet) -> tuple[bytes, LosslessReport]:
    """Encode an evidence stream; returns the container and its accounting."""
    preds = ev.predicates
    ents = ev.entities
    distinct = ev.distinct_statements
    pred_index = {p: i for i, p in enumerate(preds)}
    ent_index = {e: i for i, e in enumerate(ents)}

    enc = RangeEncoder()
    dict_bits = payload_bits = 0.0
    if preds or ents:
        len_model = AdaptiveModel(_MAX_NAME + 1)
        char_model = AdaptiveModel(256)
        names = [_name_symbols(x) for x in (*preds, *ents)]
        for raw in names:
            encode_run(enc, (len_model,), (len(raw),))
            encode_run(enc, (char_model,), raw)
        dict_bits += _section_bits([len(raw) for raw in names], _MAX_NAME + 1)
        dict_bits += _section_bits(b"".join(names), 256)
    if distinct:
        dict_bits += _encode_tuples(enc, distinct, pred_index, ent_index)
        # built only now, so the tuple fields are gone before it
        distinct_index = {st: i for i, st in enumerate(distinct)}
        stream = [distinct_index[st] for st in ev.statements]
        encode_block_adaptive(stream, len(distinct), enc)
        payload_bits = _section_bits(stream, len(distinct))
    coded = enc.finish() if (preds or ents or distinct) else b""

    buf = bytearray(_MAGIC)
    buf.append(_VERSION)
    _write_uvarint(buf, len(preds))
    _write_uvarint(buf, len(ents))
    _write_uvarint(buf, len(distinct))
    _write_uvarint(buf, len(ev.statements))
    _write_uvarint(buf, len(coded))
    header_bits = len(buf) * 8 + 32  # framing plus the trailing checksum
    buf.extend(coded)
    buf.extend(zlib.crc32(bytes(buf)).to_bytes(4, "big"))

    report = LosslessReport(
        semantic_bits=len(buf) * 8,
        header_bits=header_bits,
        coded_block_bits=len(coded) * 8,
        dictionary_bits_ideal=dict_bits,
        payload_bits_ideal=payload_bits,
        n_statements=len(ev.statements),
        alphabet_size=len(distinct),
    )
    return bytes(buf), report


def lossless_decode(blob: bytes) -> EvidenceSet:
    """Rebuild the statement stream from a container.

    The result reproduces the normalized form of the encoded evidence
    exactly: same statements, same order, duplicates included.  A
    malformed container raises DecodeError and nothing else.
    """
    if len(blob) < len(_MAGIC) + 1 + 4:
        raise DecodeError("container shorter than the fixed framing")
    if blob[:4] != _MAGIC:
        raise DecodeError("bad magic bytes (not a SEMC container)")
    if blob[4] != _VERSION:
        raise DecodeError(f"unsupported container version {blob[4]}")
    body, crc_raw = blob[:-4], blob[-4:]
    if zlib.crc32(body) != int.from_bytes(crc_raw, "big"):
        raise DecodeError(f"checksum mismatch at byte {len(blob) - 4}")

    pos = 5
    n_pred, pos = _read_uvarint(body, pos)
    n_ent, pos = _read_uvarint(body, pos)
    n_distinct, pos = _read_uvarint(body, pos)
    n_stream, pos = _read_uvarint(body, pos)
    coded_len, pos = _read_uvarint(body, pos)
    coded = body[pos:pos + coded_len]
    if len(coded) != coded_len:
        raise DecodeError(f"coded block truncated at byte {pos + len(coded)}")
    if pos + coded_len != len(body):
        raise DecodeError(f"trailing bytes after coded block at byte {pos + coded_len}")
    # names and distinct statements come only from the stream: each distinct
    # statement names one predicate and at most two entities.  Checked
    # before any model is sized from these counts.
    if n_distinct > n_stream or n_pred > n_distinct or n_ent > 2 * n_distinct:
        raise DecodeError(
            f"header counts no encoder writes: {n_pred} predicates, {n_ent} "
            f"entities, {n_distinct} distinct of {n_stream} statements")
    if n_distinct > 0 and (n_pred == 0 or n_ent == 0):
        raise DecodeError("statements declared without names to build them")
    if n_stream > 0 and n_distinct == 0:
        raise DecodeError("stream declared without a statement alphabet")
    try:
        return _decode_block(coded, n_pred, n_ent, n_distinct, n_stream)
    except DecodeError:
        raise
    except ValueError as exc:
        # a corrupt block can steer the coder out of range or give a
        # predicate two arities; both mean the container is bad
        raise DecodeError(f"corrupt coded block: {exc}") from exc


def _decode_block(coded: bytes, n_pred: int, n_ent: int, n_distinct: int,
                  n_stream: int) -> EvidenceSet:
    dec = RangeDecoder(coded)
    pred_names: list[str] = []
    ent_names: list[str] = []
    if n_pred or n_ent:
        len_model = AdaptiveModel(_MAX_NAME + 1)
        char_model = AdaptiveModel(256)

        def read_name() -> str:
            size = decode_run(dec, (len_model,), 1)[0]
            # latin-1 maps each byte to one character, and the name
            # syntax admits only ASCII, so the match rejects other bytes
            name = bytes(decode_run(dec, (char_model,), size)).decode("latin-1")
            if not NAME.fullmatch(name):
                raise DecodeError(f"decoded name {name!r} breaks the name syntax")
            return name

        pred_names = [read_name() for _ in range(n_pred)]
        ent_names = [read_name() for _ in range(n_ent)]

    distinct = (_decode_tuples(dec, pred_names, ent_names, n_distinct)
                if n_distinct else [])
    stream = decode_block_adaptive(n_stream, n_distinct, dec) if n_stream else []
    statements = tuple(distinct[i] for i in stream)
    return EvidenceSet(statements, source_id="decoded")


def _decode_tuples(dec: RangeDecoder, pred_names: list, ent_names: list,
                   n_distinct: int) -> list[AtomicStatement]:
    """Rebuild the distinct statements written by :func:`_encode_tuples`."""
    n_ent = len(ent_names)
    models = tuple(AdaptiveModel(k) for k in (2, len(pred_names), n_ent, n_ent + 1))
    arities: dict[str, int] = {}
    distinct = []
    # rows come in bounded chunks, so the transient symbol list stays
    # small beside the statements built from it
    for first in range(0, n_distinct, _ROWS):
        fields = iter(decode_run(dec, models, 4 * min(_ROWS, n_distinct - first)))
        for sign, p_i, s_i, o_i in zip(fields, fields, fields, fields):
            obj = None if o_i == n_ent else ent_names[o_i]
            check_arity(arities, pred_names[p_i], 1 if obj is None else 2)
            distinct.append(AtomicStatement(pred_names[p_i], ent_names[s_i], obj, sign == 0))
    return distinct


def shannon_baseline(text: bytes) -> int:
    """Bits of a Shannon code for the whole text under the order-0 add-one
    byte model: the ceiling of -log2 P(text), priced from the byte counts
    like every container section.  Coding the text with
    ``encode_block_adaptive`` writes a few bits more, for the coder's
    finishing bits and byte padding."""
    return math.ceil(_section_bits(text, 256))


def gzip_bits(text: bytes) -> int:
    """DEFLATE size of the text in bits; context only, not a contract."""
    return len(zlib.compress(text, 9)) * 8
