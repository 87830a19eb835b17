"""Venti-style content-addressed archival storage on a SERO device.

Section 4.2: "Venti uses a secure hash as the address of a node ...
Venti builds a hierarchy of nodes from the leaves upwards ... As long
as the hash of the root is stored securely, tampering can be detected.
A SERO device would be appropriate to keep the hash of a node secure."

This module implements that combination:

* a content-addressed block store (``put``/``get`` by SHA-256 *score*),
* hash trees over large byte streams (leaves -> pointer nodes -> root),
* :meth:`VentiStore.seal` — copy a node into a fresh 2-block line and
  heat it, making that score's content physically write-once, and
* snapshots: named, sealed roots ("one for every working day").

Checking a node "uses the hash of the node as its address, then
re-computes the hash ... a computed hash that does not match the
address presents evidence of tampering" — that is :meth:`verify_tree`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..crypto.hashutil import HASH_SIZE
from ..crypto.sha256 import sha256_digest
from ..device.sector import BLOCK_SIZE
from ..device.sero import SERODevice, VerificationResult
from ..errors import IntegrityError, ReadError, UnknownScoreError

_NODE_MAGIC = b"VN"
_TYPE_LEAF = 1
_TYPE_POINTER = 2
_HEAD = ">2sBH"  # magic, type, payload length
_HEAD_SIZE = struct.calcsize(_HEAD)

#: Usable payload bytes per node block.
NODE_PAYLOAD = BLOCK_SIZE - _HEAD_SIZE

#: Child scores per pointer node.
FANOUT = NODE_PAYLOAD // HASH_SIZE  # 15


def node_score(ntype: int, payload: bytes) -> bytes:
    """Content address of a node: SHA-256 over its type and payload."""
    return sha256_digest(bytes([ntype]), payload)


@dataclass
class VentiStore:
    """Content-addressed store over a contiguous device arena.

    Args:
        device: the SERO device.
        arena_start: first PBA the store may use (must be even so
            2-block seal lines can be aligned).
        arena_blocks: arena length in blocks.
    """

    device: SERODevice
    arena_start: int
    arena_blocks: int
    batched: bool = True
    _index: Dict[bytes, Tuple[int, int]] = field(default_factory=dict)
    _next: int = 0
    _sealed: Dict[bytes, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.arena_start % 2:
            raise IntegrityError("arena must start on an even block")
        self._next = self.arena_start

    # -- basic store -----------------------------------------------------------

    def _alloc(self, nblocks: int = 1, aligned: bool = False) -> int:
        if aligned and self._next % nblocks:
            self._next += nblocks - (self._next % nblocks)
        pba = self._next
        if pba + nblocks > self.arena_start + self.arena_blocks:
            raise IntegrityError("venti arena exhausted")
        self._next += nblocks
        return pba

    def _write_node(self, ntype: int, payload: bytes) -> bytes:
        if len(payload) > NODE_PAYLOAD:
            raise IntegrityError(
                f"node payload too large: {len(payload)} > {NODE_PAYLOAD}")
        score = node_score(ntype, payload)
        if score in self._index:
            return score  # dedup: same content, same address
        pba = self._alloc()
        self.device.write_block(pba, self._pack_node(ntype, payload))
        self._index[score] = (pba, ntype)
        return score

    def put(self, data: bytes) -> bytes:
        """Store a leaf node; returns its score."""
        return self._write_node(_TYPE_LEAF, data)

    def _read_node(self, score: bytes) -> Tuple[int, bytes]:
        entry = self._index.get(score)
        if entry is None:
            raise UnknownScoreError(f"unknown score {score.hex()[:16]}")
        pba, _ = entry
        block = self.device.read_block(pba)
        magic, ntype, length = struct.unpack(_HEAD, block[:_HEAD_SIZE])
        if magic != _NODE_MAGIC:
            raise ReadError("not a venti node")
        payload = block[_HEAD_SIZE:_HEAD_SIZE + length]
        return ntype, payload

    def get(self, score: bytes, verify: bool = True) -> bytes:
        """Fetch a leaf's payload by score.

        With ``verify`` (default) the payload is re-hashed and compared
        to the score — the Venti tamper check.
        """
        ntype, payload = self._read_node(score)
        if verify and node_score(ntype, payload) != score:
            raise IntegrityError(
                f"score mismatch for {score.hex()[:16]}: evidence of tampering")
        return payload

    def _pack_node(self, ntype: int, payload: bytes) -> bytes:
        block = struct.pack(_HEAD, _NODE_MAGIC, ntype, len(payload)) + payload
        return block + b"\x00" * (BLOCK_SIZE - len(block))

    def _write_nodes(self, ntype: int, payloads: List[bytes]) -> List[bytes]:
        """Level-at-a-time node write: score every payload of a tree
        level in one pass, dedup against the store, and write all new
        node blocks as one contiguous block run.

        Allocation order matches the sequential :meth:`_write_node`
        loop exactly, so the resulting scores, index layout and arena
        occupancy are byte-identical.
        """
        for payload in payloads:
            if len(payload) > NODE_PAYLOAD:
                raise IntegrityError(
                    f"node payload too large: {len(payload)} > {NODE_PAYLOAD}")
        scores = [node_score(ntype, p) for p in payloads]
        new: List[Tuple[bytes, bytes]] = []
        batch_seen = set()
        for score, payload in zip(scores, payloads):
            if score in self._index or score in batch_seen:
                continue  # dedup: same content, same address
            batch_seen.add(score)
            new.append((score, payload))
        if new:
            first = self._alloc(len(new))
            self.device.write_block_run(
                first, [self._pack_node(ntype, p) for _s, p in new])
            for offset, (score, _payload) in enumerate(new):
                self._index[score] = (first + offset, ntype)
        return scores

    # -- hash trees --------------------------------------------------------------

    def put_stream(self, data: bytes) -> bytes:
        """Store arbitrary-size ``data`` as a hash tree; returns the
        root score.

        With ``batched`` (the default) each tree level — leaves, then
        every pointer level — is hashed and written in one
        :meth:`_write_nodes` pass over a preassembled buffer; the
        sequential node-at-a-time build remains as the reference path
        and produces byte-identical scores and layout.
        """
        if self.batched:
            return self._put_stream_batched(data)
        leaves: List[bytes] = []
        if not data:
            leaves.append(self.put(b""))
        for offset in range(0, len(data), NODE_PAYLOAD):
            leaves.append(self.put(data[offset:offset + NODE_PAYLOAD]))
        level = leaves
        while len(level) > 1:
            parents: List[bytes] = []
            for i in range(0, len(level), FANOUT):
                group = level[i:i + FANOUT]
                payload = b"".join(group)
                parents.append(self._write_node(_TYPE_POINTER, payload))
            level = parents
        return level[0]

    def _put_stream_batched(self, data: bytes) -> bytes:
        """Level-at-a-time hash-tree build (see :meth:`put_stream`)."""
        if data:
            payloads = [data[offset:offset + NODE_PAYLOAD]
                        for offset in range(0, len(data), NODE_PAYLOAD)]
        else:
            payloads = [b""]
        level = self._write_nodes(_TYPE_LEAF, payloads)
        while len(level) > 1:
            buffer = b"".join(level)
            parent_payloads = [
                buffer[i * HASH_SIZE:(i + FANOUT) * HASH_SIZE]
                for i in range(0, len(level), FANOUT)]
            level = self._write_nodes(_TYPE_POINTER, parent_payloads)
        return level[0]

    def read_stream(self, root: bytes, verify: bool = True) -> bytes:
        """Reassemble a hash tree's contents from its root score."""
        ntype, payload = self._read_node(root)
        if verify and node_score(ntype, payload) != root:
            raise IntegrityError(
                f"score mismatch at {root.hex()[:16]}: evidence of tampering")
        if ntype == _TYPE_LEAF:
            return payload
        if len(payload) % HASH_SIZE:
            raise IntegrityError("malformed pointer node")
        out = bytearray()
        for i in range(0, len(payload), HASH_SIZE):
            out += self.read_stream(payload[i:i + HASH_SIZE], verify=verify)
        return bytes(out)

    def verify_tree(self, root: bytes) -> List[bytes]:
        """Walk a tree verifying every node; returns scores of nodes
        whose recomputed hash mismatches (empty list = intact)."""
        bad: List[bytes] = []
        stack = [root]
        seen = set()
        while stack:
            score = stack.pop()
            if score in seen:
                continue
            seen.add(score)
            try:
                ntype, payload = self._read_node(score)
            except (ReadError, UnknownScoreError):
                bad.append(score)
                continue
            if node_score(ntype, payload) != score:
                bad.append(score)
                continue
            if ntype == _TYPE_POINTER:
                for i in range(0, len(payload), HASH_SIZE):
                    stack.append(payload[i:i + HASH_SIZE])
        return bad

    # -- sealing (the SERO step) -------------------------------------------------

    def seal(self, score: bytes, timestamp: int = 0) -> int:
        """Copy the node into a fresh 2-block line and heat it.

        "The most relevant node to be heated is the root node, because
        this protects the entire hierarchy."  Returns the line start.
        """
        if score in self._sealed:
            return self._sealed[score]
        ntype, payload = self._read_node(score)
        block = self._pack_node(ntype, payload)
        start = self._alloc(2, aligned=True)
        self.device.write_block(start + 1, block)
        self.device.heat_line(start, 2, timestamp=timestamp)
        # the sealed copy becomes the authoritative location
        self._index[score] = (start + 1, ntype)
        self._sealed[score] = start
        return start

    def verify_sealed(self, score: bytes):
        """Verify the heated line guarding a sealed node."""
        start = self._sealed.get(score)
        if start is None:
            raise IntegrityError(f"score {score.hex()[:16]} is not sealed")
        return self.device.verify_line(start)

    def audit(self) -> Dict[bytes, VerificationResult]:
        """Verify every sealed node's heated line in one batched sweep
        (:meth:`~repro.device.sero.SERODevice.verify_lines`)."""
        scores = sorted(self._sealed, key=lambda s: self._sealed[s])
        results = self.device.verify_lines(
            [self._sealed[score] for score in scores])
        return dict(zip(scores, results))

    # -- snapshots ------------------------------------------------------------------

    def snapshot(self, name: str, data: bytes, timestamp: int = 0) -> bytes:
        """Archive ``data`` under ``name``: build the tree, then seal a
        snapshot record (name + root score).  Returns the root score."""
        root = self.put_stream(data)
        record = struct.pack(">H", len(name.encode())) + name.encode() + root
        rec_score = self._write_node(_TYPE_LEAF, record)
        self.seal(rec_score, timestamp=timestamp)
        self.seal(root, timestamp=timestamp)
        return root

    @property
    def sealed_scores(self) -> Dict[bytes, int]:
        """Mapping of sealed scores to their line starts."""
        return dict(self._sealed)

    def blocks_used(self) -> int:
        """Arena blocks consumed so far."""
        return self._next - self.arena_start
