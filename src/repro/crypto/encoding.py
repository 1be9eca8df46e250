"""Deterministic TLV (tag-length-value) encoding.

Every structure that is hashed, signed, or measured in this reproduction
(certificates, CSRs, attestation payloads, filesystem images) is serialised
through this module.  The encoding is *canonical*: a given Python value has
exactly one byte representation, so hashes and signatures over encoded
values are well defined.  This plays the role that DER/ASN.1 plays in the
real Revelio prototype, without the historical baggage.

Supported values: ``None``, ``bool``, ``int`` (arbitrary precision,
signed), ``bytes``, ``str`` (UTF-8), ``list``/``tuple`` (encoded
identically), and ``dict`` with string keys (encoded with keys sorted by
their UTF-8 bytes).

Wire format: a single tag byte, a big-endian 4-byte length, then the body.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple, Union

Encodable = Union[None, bool, int, bytes, str, list, tuple, dict]

TAG_NONE = 0x00
TAG_FALSE = 0x01
TAG_TRUE = 0x02
TAG_INT_POS = 0x03
TAG_INT_NEG = 0x04
TAG_BYTES = 0x05
TAG_STR = 0x06
TAG_LIST = 0x07
TAG_DICT = 0x08

_LEN = struct.Struct(">I")

#: Deepest list/dict nesting :func:`decode` accepts.  Canonical
#: structures nest a handful of levels; hostile bytes nested deeper
#: would otherwise exhaust the interpreter stack (``RecursionError``,
#: which callers catching ``ValueError`` would let escape).
MAX_DEPTH = 64


class EncodingError(ValueError):
    """Raised when a value cannot be canonically encoded."""


class DecodingError(ValueError):
    """Raised when a byte string is not a valid canonical encoding."""


def _frame(tag: int, body: bytes) -> bytes:
    if len(body) > 0xFFFFFFFF:
        raise EncodingError("value too large to frame")
    return bytes([tag]) + _LEN.pack(len(body)) + body


def _int_body(value: int) -> bytes:
    # Minimal big-endian magnitude; zero encodes as the empty body.
    magnitude = abs(value)
    length = (magnitude.bit_length() + 7) // 8
    return magnitude.to_bytes(length, "big")


def encode(value: Encodable) -> bytes:
    """Canonically encode *value* to bytes.

    Raises :class:`EncodingError` for unsupported types and for dicts with
    non-string or duplicate keys.
    """
    if value is None:
        return _frame(TAG_NONE, b"")
    if value is True:
        return _frame(TAG_TRUE, b"")
    if value is False:
        return _frame(TAG_FALSE, b"")
    if isinstance(value, int):
        tag = TAG_INT_NEG if value < 0 else TAG_INT_POS
        return _frame(tag, _int_body(value))
    if isinstance(value, bytes):
        return _frame(TAG_BYTES, value)
    if isinstance(value, bytearray):
        return _frame(TAG_BYTES, bytes(value))
    if isinstance(value, str):
        return _frame(TAG_STR, value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        body = b"".join(encode(item) for item in value)
        return _frame(TAG_LIST, body)
    if isinstance(value, dict):
        return _frame(TAG_DICT, _dict_body(value))
    raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def _dict_body(mapping: Dict[str, Encodable]) -> bytes:
    items: List[Tuple[bytes, bytes]] = []
    for key, item in mapping.items():
        if not isinstance(key, str):
            raise EncodingError("dict keys must be str")
        items.append((key.encode("utf-8"), encode(item)))
    items.sort(key=lambda pair: pair[0])
    parts = []
    previous = None
    for key_bytes, encoded in items:
        if key_bytes == previous:
            raise EncodingError(f"duplicate dict key {key_bytes!r}")
        previous = key_bytes
        parts.append(_frame(TAG_STR, key_bytes))
        parts.append(encoded)
    return b"".join(parts)


def decode(data: bytes) -> Encodable:
    """Decode a canonical encoding produced by :func:`encode`.

    Raises :class:`DecodingError` on malformed or non-canonical input,
    including trailing bytes and nesting deeper than :data:`MAX_DEPTH`.
    """
    value, consumed = _decode_at(data, 0, 0)
    if consumed != len(data):
        raise DecodingError("trailing bytes after encoded value")
    return value


def _decode_at(data: bytes, offset: int, depth: int) -> Tuple[Encodable, int]:
    if offset + 5 > len(data):
        raise DecodingError("truncated frame header")
    tag = data[offset]
    (length,) = _LEN.unpack_from(data, offset + 1)
    body_start = offset + 5
    body_end = body_start + length
    if body_end > len(data):
        raise DecodingError("truncated frame body")
    body = data[body_start:body_end]

    if tag == TAG_NONE:
        _expect_empty(body)
        return None, body_end
    if tag == TAG_TRUE:
        _expect_empty(body)
        return True, body_end
    if tag == TAG_FALSE:
        _expect_empty(body)
        return False, body_end
    if tag in (TAG_INT_POS, TAG_INT_NEG):
        return _decode_int(tag, body), body_end
    if tag == TAG_BYTES:
        return body, body_end
    if tag == TAG_STR:
        try:
            return body.decode("utf-8"), body_end
        except UnicodeDecodeError as exc:
            raise DecodingError("invalid UTF-8 in string") from exc
    if tag == TAG_LIST:
        return _decode_list(body, depth + 1), body_end
    if tag == TAG_DICT:
        return _decode_dict(body, depth + 1), body_end
    raise DecodingError(f"unknown tag 0x{tag:02x}")


def _expect_empty(body: bytes) -> None:
    if body:
        raise DecodingError("unexpected body for singleton tag")


def _decode_int(tag: int, body: bytes) -> int:
    if body and body[0] == 0:
        raise DecodingError("non-minimal integer encoding")
    magnitude = int.from_bytes(body, "big")
    if tag == TAG_INT_NEG:
        if magnitude == 0:
            raise DecodingError("negative zero is not canonical")
        return -magnitude
    return magnitude


def _decode_list(body: bytes, depth: int) -> list:
    if depth > MAX_DEPTH:
        raise DecodingError(f"nesting deeper than {MAX_DEPTH} levels")
    items = []
    offset = 0
    while offset < len(body):
        value, offset = _decode_at(body, offset, depth)
        items.append(value)
    return items


def _decode_dict(body: bytes, depth: int) -> dict:
    if depth > MAX_DEPTH:
        raise DecodingError(f"nesting deeper than {MAX_DEPTH} levels")
    result: Dict[str, Encodable] = {}
    offset = 0
    previous_key: bytes = b""
    first = True
    while offset < len(body):
        key, offset = _decode_at(body, offset, depth)
        if not isinstance(key, str):
            raise DecodingError("dict key is not a string")
        key_bytes = key.encode("utf-8")
        if not first and key_bytes <= previous_key:
            raise DecodingError("dict keys not in canonical order")
        first = False
        previous_key = key_bytes
        if offset >= len(body):
            raise DecodingError("dict key without value")
        value, offset = _decode_at(body, offset, depth)
        result[key] = value
    return result
