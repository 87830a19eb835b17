"""Hamming(72,64) SECDED codec tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import ecc
from repro.errors import ReadError


def test_roundtrip_no_errors():
    data = bytes(range(64))
    bits = ecc.encode(data)
    result = ecc.decode(bits)
    assert result.data == data
    assert result.corrected == 0


def test_codeword_length():
    assert ecc.codeword_length(8) == 72
    assert ecc.codeword_length(536) == 4824
    with pytest.raises(ValueError):
        ecc.codeword_length(7)


def test_encode_rejects_partial_words():
    with pytest.raises(ValueError):
        ecc.encode(b"short")


def test_single_bit_error_corrected_every_position():
    data = b"\xa5" * 8
    clean = ecc.encode(data)
    for position in range(ecc.CODE_BITS):
        corrupted = clean.copy()
        corrupted[position] ^= 1
        result = ecc.decode(corrupted)
        assert result.data == data
        assert result.corrected == 1


def test_single_error_per_word_in_multiword_frame():
    data = bytes(range(256)) * 2  # 64 words
    clean = ecc.encode(data)
    corrupted = clean.copy()
    # one flipped bit in each of three different words
    for word in (0, 30, 63):
        corrupted[word * ecc.CODE_BITS + 17] ^= 1
    result = ecc.decode(corrupted)
    assert result.data == data
    assert result.corrected == 3


def test_double_bit_error_detected_not_miscorrected():
    data = b"\x37" * 8
    clean = ecc.encode(data)
    corrupted = clean.copy()
    corrupted[5] ^= 1
    corrupted[40] ^= 1
    with pytest.raises(ReadError):
        ecc.decode(corrupted)


def test_overall_parity_bit_flip_is_benign():
    data = b"\x00" * 8
    clean = ecc.encode(data)
    corrupted = clean.copy()
    corrupted[0] ^= 1  # the overall-parity position
    result = ecc.decode(corrupted)
    assert result.data == data


def test_random_payloads_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(20):
        data = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
        assert ecc.decode(ecc.encode(data)).data == data


def test_decode_requires_whole_codewords():
    with pytest.raises(ValueError):
        ecc.decode(np.zeros(71, dtype=np.uint8))


def test_all_ones_payload():
    data = b"\xff" * 64
    assert ecc.decode(ecc.encode(data)).data == data


# -- the table-driven kernels against the matrix/loop oracle -------------------
#
# The oracle is the codec as it was before the per-byte check table:
# encode by a (64, 7) parity-mask product, decode by seven index-list
# parity sums.  It lives here, not in src/, as the executable reference.


def _oracle_layout():
    parity_positions = [1, 2, 4, 8, 16, 32, 64]
    data_positions = [p for p in range(1, ecc.CODE_BITS)
                      if p not in parity_positions]
    masks = np.zeros((ecc.DATA_BITS, 7), dtype=np.uint8)
    for i, pos in enumerate(data_positions):
        for j in range(7):
            if pos & (1 << j):
                masks[i, j] = 1
    return parity_positions, data_positions, masks


_PARITY_POS, _DATA_POS, _MASKS = _oracle_layout()


def _oracle_encode(data: bytes) -> np.ndarray:
    words = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).reshape(-1, 64)
    code = np.zeros((words.shape[0], ecc.CODE_BITS), dtype=np.uint8)
    code[:, _DATA_POS] = words
    code[:, _PARITY_POS] = (words @ _MASKS) % 2
    code[:, 0] = code[:, 1:].sum(axis=1) % 2
    return code.reshape(-1)


def _oracle_decode(bits: np.ndarray):
    """``(data, corrected)`` by the seven-mask syndrome loop; counts an
    overall-parity-only flip as one correction in every frame."""
    arr = np.asarray(bits, dtype=np.uint8).reshape(-1, ecc.CODE_BITS)
    syndromes = np.zeros(arr.shape[0], dtype=np.int64)
    for j in range(7):
        positions = [p for p in range(1, ecc.CODE_BITS) if p & (1 << j)]
        parity = arr[:, positions].sum(axis=1) % 2
        syndromes |= parity.astype(np.int64) << j
    overall = arr.sum(axis=1) % 2
    bad = syndromes != 0
    if (bad & (overall == 0)).any():
        raise ReadError("uncorrectable")
    arr = arr.copy()
    rows = np.nonzero(bad)[0]
    arr[rows, syndromes[rows]] ^= 1
    corrected = len(rows) + int(((syndromes == 0) & (overall == 1)).sum())
    return np.packbits(arr[:, _DATA_POS].reshape(-1)).tobytes(), corrected


def _random_payload(rng, nwords=64) -> bytes:
    return rng.integers(0, 256, size=8 * nwords, dtype=np.uint8).tobytes()


def test_encode_matches_matrix_oracle():
    rng = np.random.default_rng(72)
    for nwords in (1, 2, 64, 67, 536):
        data = _random_payload(rng, nwords)
        encoded = ecc.encode(data)
        assert encoded.dtype == np.uint8
        assert np.array_equal(encoded, _oracle_encode(data))


def test_every_single_flip_matches_oracle_on_random_frames():
    rng = np.random.default_rng(64)
    for position in range(ecc.CODE_BITS):
        data = _random_payload(rng)
        corrupted = ecc.encode(data)
        # the same codeword position in a random subset of the words
        words = np.flatnonzero(rng.integers(0, 2, size=64))
        corrupted[words * ecc.CODE_BITS + position] ^= 1
        result = ecc.decode(corrupted)
        assert (result.data, result.corrected) == _oracle_decode(corrupted)
        assert (result.data, result.corrected) == (data, len(words))


def test_every_double_flip_in_one_word_is_refused():
    data = _random_payload(np.random.default_rng(2556), nwords=3)
    clean = ecc.encode(data)
    pairs = 0
    for first in range(ecc.CODE_BITS):
        for second in range(first + 1, ecc.CODE_BITS):
            corrupted = clean.copy()
            corrupted[ecc.CODE_BITS + first] ^= 1   # word 1 of 3
            corrupted[ecc.CODE_BITS + second] ^= 1
            with pytest.raises(ReadError):
                ecc.decode(corrupted)
            pairs += 1
    assert pairs == 2556


def test_overall_parity_flip_counts_beside_a_data_flip():
    """A word whose only flip is the overall-parity bit used to drop
    out of ``corrected`` whenever another word of the frame needed a
    real correction."""
    data = _random_payload(np.random.default_rng(0), nwords=2)
    corrupted = ecc.encode(data)
    corrupted[17] ^= 1                  # a data bit of word 0
    corrupted[ecc.CODE_BITS + 0] ^= 1   # position 0 of word 1
    result = ecc.decode(corrupted)
    assert result.data == data
    assert result.corrected == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70).flatmap(lambda n: st.tuples(
    st.binary(min_size=8 * n, max_size=8 * n),
    st.lists(st.one_of(st.none(), st.integers(0, ecc.CODE_BITS - 1)),
             min_size=n, max_size=n))))
def test_frames_with_at_most_one_flip_per_word_match_oracle(case):
    data, flips = case
    corrupted = ecc.encode(data)
    for word, position in enumerate(flips):
        if position is not None:
            corrupted[word * ecc.CODE_BITS + position] ^= 1
    result = ecc.decode(corrupted)
    assert (result.data, result.corrected) == _oracle_decode(corrupted)
    assert result.data == data
    assert result.corrected == sum(p is not None for p in flips)
