"""CRC-32 / CRC-16-CCITT known-answer and property tests."""

import binascii

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.crc import _crc16_scalar, _crc32_scalar, crc16_ccitt, crc32


@pytest.mark.parametrize("data", [
    b"", b"a", b"123456789", b"hello world", bytes(range(256)),
])
def test_crc32_matches_binascii(data):
    assert crc32(data) == binascii.crc32(data)


def test_crc32_check_value():
    # the standard CRC-32 check value for "123456789"
    assert crc32(b"123456789") == 0xCBF43926


def test_crc16_ccitt_check_value():
    # CRC-16/CCITT-FALSE check value for "123456789"
    assert crc16_ccitt(b"123456789") == 0x29B1


def test_crc16_empty():
    assert crc16_ccitt(b"") == 0xFFFF  # init value untouched


def test_crc32_detects_single_bit_flip():
    data = bytearray(b"The quick brown fox jumps over the lazy dog")
    reference = crc32(bytes(data))
    for byte_index in (0, 10, len(data) - 1):
        for bit in (0, 3, 7):
            mutated = bytearray(data)
            mutated[byte_index] ^= 1 << bit
            assert crc32(bytes(mutated)) != reference


def test_crc16_detects_single_bit_flip():
    data = bytearray(b"sector header")
    reference = crc16_ccitt(bytes(data))
    for byte_index in range(len(data)):
        mutated = bytearray(data)
        mutated[byte_index] ^= 0x01
        assert crc16_ccitt(bytes(mutated)) != reference


def test_crc32_range():
    assert 0 <= crc32(b"anything") <= 0xFFFFFFFF


def test_crc16_range():
    assert 0 <= crc16_ccitt(b"anything") <= 0xFFFF


def test_crc32_deterministic():
    assert crc32(b"same") == crc32(b"same")


def test_crc32_seed_continuation_differs_from_fresh():
    first = crc32(b"part1")
    continued = crc32(b"part2", first)
    assert continued != crc32(b"part2")


# -- the library engines against the from-scratch table loops ------------------


def _crc32_reference(data: bytes, crc: int = 0) -> int:
    return _crc32_scalar(data, crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


_MESSAGES = st.binary(min_size=0, max_size=600)


@settings(max_examples=150, deadline=None)
@given(_MESSAGES, _MESSAGES, st.integers(0, 0xFFFFFFFF))
def test_crc32_matches_scalar_reference(a, b, seed):
    assert crc32(a) == _crc32_reference(a)
    assert crc32(a, seed) == _crc32_reference(a, seed)
    assert crc32(b, crc32(a)) == crc32(a + b) == _crc32_reference(a + b)


@settings(max_examples=150, deadline=None)
@given(_MESSAGES, _MESSAGES, st.integers(0, 0xFFFF))
def test_crc16_matches_scalar_reference(a, b, seed):
    assert crc16_ccitt(a) == _crc16_scalar(a, 0xFFFF)
    assert crc16_ccitt(a, seed) == _crc16_scalar(a, seed)
    assert crc16_ccitt(b, crc16_ccitt(a)) == crc16_ccitt(a + b) \
        == _crc16_scalar(a + b, 0xFFFF)
