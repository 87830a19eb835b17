"""Tests for the pure-Python SHA-256 against hashlib and NIST vectors."""

import hashlib

import pytest

from repro.crypto import sha256 as mod
from repro.crypto.sha256 import SHA256, sha256_digest

# NIST FIPS 180-4 example vectors
VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    (b"a" * 1_000_000,
     "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]


@pytest.mark.parametrize("message, expected", VECTORS)
def test_nist_vectors(message, expected):
    assert SHA256(message).hexdigest() == expected


@pytest.mark.parametrize("size", [0, 1, 55, 56, 57, 63, 64, 65, 127, 128, 1000])
def test_matches_hashlib_across_block_boundaries(size):
    data = bytes(range(256)) * (size // 256 + 1)
    data = data[:size]
    assert SHA256(data).digest() == hashlib.sha256(data).digest()


def test_incremental_equals_oneshot():
    h = SHA256()
    for chunk in (b"hello ", b"wor", b"ld", b"!" * 100):
        h.update(chunk)
    assert h.digest() == SHA256(b"hello world" + b"!" * 100).digest()


def test_digest_does_not_finalise():
    h = SHA256(b"abc")
    first = h.digest()
    assert h.digest() == first  # repeatable
    h.update(b"def")
    assert h.digest() == SHA256(b"abcdef").digest()


def test_copy_is_independent():
    h = SHA256(b"abc")
    clone = h.copy()
    clone.update(b"def")
    assert h.digest() == SHA256(b"abc").digest()
    assert clone.digest() == SHA256(b"abcdef").digest()


def test_update_accepts_bytearray_and_memoryview():
    h = SHA256()
    h.update(bytearray(b"abc"))
    h2 = SHA256()
    h2.update(memoryview(b"abc"))
    assert h.digest() == h2.digest() == SHA256(b"abc").digest()


def test_digest_size_and_block_size():
    assert SHA256().digest_size == 32
    assert SHA256().block_size == 64
    assert len(SHA256(b"x").digest()) == 32


def test_sha256_digest_multiple_chunks():
    assert sha256_digest(b"ab", b"c") == hashlib.sha256(b"abc").digest()


def test_sha256_iter_streaming():
    chunks = [b"a" * 100, b"b" * 100, b"c"]
    assert mod.sha256_iter(iter(chunks)) == hashlib.sha256(b"".join(chunks)).digest()


def test_hexdigest_format():
    hx = SHA256(b"abc").hexdigest()
    assert len(hx) == 64 and all(c in "0123456789abcdef" for c in hx)
