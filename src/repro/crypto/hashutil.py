"""Line-hash computation for the heat operation.

Section 3 ("Heat a line") prescribes hashing "the blocks and their
addresses just read"; Section 5.2 relies on the physical addresses
being part of the hash to defeat copy-masking ("a copy can always be
distinguished from an original").  This module fixes the exact byte
layout so device and verifier agree:

``H = SHA-256( DOMAIN || u64(pba_0) || block_0 || u64(pba_1) || ... )``

where ``pba_i`` are the *physical* block addresses (big-endian 64-bit)
of the data blocks of the line (block 0 — the hash block itself — is
excluded) and ``DOMAIN`` is a fixed tag preventing cross-protocol
collisions.
"""

from __future__ import annotations

import struct
from typing import Sequence

from .sha256 import DIGEST_SIZE, sha256_iter

LINE_HASH_DOMAIN = b"sero-line-hash-v1"
"""Domain-separation prefix for line hashes."""

HASH_SIZE = DIGEST_SIZE
"""Line-hash length in bytes (SHA-256)."""


def line_hash(
    addresses: Sequence[int],
    blocks: Sequence[bytes],
    include_addresses: bool = True,
) -> bytes:
    """Hash of a line's data blocks bound to their physical addresses.

    Args:
        addresses: physical block addresses of the data blocks.
        blocks: the corresponding block payloads.
        include_addresses: when False the addresses are omitted — this
            deliberately weakened mode exists only so the security
            tests can demonstrate that copy-masking succeeds without
            address binding (the ``include_addresses`` ablation of
            ``repro.security.analysis.scenario_copy_mask``).

    Returns:
        The 32-byte SHA-256 digest.
    """
    if len(addresses) != len(blocks):
        raise ValueError("addresses and blocks must have equal length")

    def chunks():
        yield LINE_HASH_DOMAIN
        for address, block in zip(addresses, blocks):
            if include_addresses:
                if address < 0:
                    raise ValueError("physical block address must be >= 0")
                yield struct.pack(">Q", address)
            yield bytes(block)

    return sha256_iter(chunks())
