"""Unit tests for the canonical TLV encoding."""

import pytest

from repro.crypto import encoding


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**200,
            -(2**200),
            b"",
            b"\x00\xff",
            "",
            "hello",
            "unicodé ☃",
            [],
            [1, 2, 3],
            [None, [True, [b"nested"]]],
            {},
            {"a": 1},
            {"z": [1], "a": {"k": b"v"}},
        ],
    )
    def test_round_trip(self, value):
        assert encoding.decode(encoding.encode(value)) == value

    def test_tuple_encodes_as_list(self):
        assert encoding.encode((1, 2)) == encoding.encode([1, 2])
        assert encoding.decode(encoding.encode((1, 2))) == [1, 2]

    def test_bytearray_encodes_as_bytes(self):
        assert encoding.encode(bytearray(b"ab")) == encoding.encode(b"ab")


class TestCanonicality:
    def test_dict_key_order_is_irrelevant(self):
        first = encoding.encode({"a": 1, "b": 2})
        second = encoding.encode({"b": 2, "a": 1})
        assert first == second

    def test_distinct_values_encode_distinctly(self):
        values = [None, True, False, 0, 1, b"", b"\x00", "", "0", [], {}, [0], {"a": 0}]
        encodings = [encoding.encode(v) for v in values]
        assert len(set(encodings)) == len(encodings)

    def test_int_zero_is_minimal(self):
        # zero has an empty body: tag + 4-byte length only
        assert len(encoding.encode(0)) == 5


class TestErrors:
    def test_unsupported_type_raises(self):
        with pytest.raises(encoding.EncodingError):
            encoding.encode(1.5)

    def test_non_string_dict_key_raises(self):
        with pytest.raises(encoding.EncodingError):
            encoding.encode({1: "x"})

    def test_trailing_bytes_rejected(self):
        data = encoding.encode(1) + b"\x00"
        with pytest.raises(encoding.DecodingError):
            encoding.decode(data)

    def test_truncated_rejected(self):
        data = encoding.encode(b"hello")
        with pytest.raises(encoding.DecodingError):
            encoding.decode(data[:-1])

    def test_unknown_tag_rejected(self):
        with pytest.raises(encoding.DecodingError):
            encoding.decode(b"\x7f\x00\x00\x00\x00")

    def test_non_minimal_int_rejected(self):
        # Craft an int with a leading zero byte in the magnitude.
        bad = bytes([encoding.TAG_INT_POS]) + (2).to_bytes(4, "big") + b"\x00\x01"
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)

    def test_negative_zero_rejected(self):
        bad = bytes([encoding.TAG_INT_NEG]) + (0).to_bytes(4, "big")
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)

    def test_unsorted_dict_keys_rejected(self):
        key_b = bytes([encoding.TAG_STR]) + (1).to_bytes(4, "big") + b"b"
        key_a = bytes([encoding.TAG_STR]) + (1).to_bytes(4, "big") + b"a"
        one = encoding.encode(1)
        body = key_b + one + key_a + one
        bad = bytes([encoding.TAG_DICT]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)

    def test_invalid_utf8_rejected(self):
        bad = bytes([encoding.TAG_STR]) + (1).to_bytes(4, "big") + b"\xff"
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)

    def test_singleton_with_body_rejected(self):
        bad = bytes([encoding.TAG_NONE]) + (1).to_bytes(4, "big") + b"\x00"
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)

    def test_dict_key_without_value_rejected(self):
        key = bytes([encoding.TAG_STR]) + (1).to_bytes(4, "big") + b"a"
        bad = bytes([encoding.TAG_DICT]) + len(key).to_bytes(4, "big") + key
        with pytest.raises(encoding.DecodingError):
            encoding.decode(bad)


def nested_lists(levels: int) -> bytes:
    """*levels* empty-bodied lists wrapped inside each other, built as
    raw frames (the encoder would recurse just as deep)."""
    data = encoding.encode([])
    for _ in range(levels - 1):
        data = bytes([encoding.TAG_LIST]) + len(data).to_bytes(4, "big") + data
    return data


class TestNestingBound:
    def test_deep_nesting_is_a_decoding_error(self):
        # ~3 KB of nested list headers: past the interpreter's stack
        # without the bound, a typed error with it.
        data = nested_lists(600)
        assert len(data) == 3000
        with pytest.raises(encoding.DecodingError, match="nesting"):
            encoding.decode(data)

    def test_dicts_count_towards_the_bound(self):
        value = []
        for _ in range(encoding.MAX_DEPTH):
            value = {"k": value}
        with pytest.raises(encoding.DecodingError, match="nesting"):
            encoding.decode(encoding.encode(value))

    def test_nesting_at_the_bound_round_trips(self):
        value = []
        for _ in range(encoding.MAX_DEPTH - 1):
            value = [value]
        assert encoding.decode(encoding.encode(value)) == value
        with pytest.raises(encoding.DecodingError):
            encoding.decode(nested_lists(encoding.MAX_DEPTH + 1))
