"""Keyed primitives for pseudonymous routing: pairwise key derivation,
PRF-based alias chains, the destination trapdoor table and message tags.

All keyed operations are HMAC-SHA-256.  Node identifiers enter the PRF as
8-byte big-endian integers; aliases are fed back in raw.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Optional

NodeId = int

DIGEST_LEN = 32


def encode_node_id(node_id: NodeId) -> bytes:
    return node_id.to_bytes(8, "big")


@dataclass(frozen=True)
class MasterKey:
    bytes: bytes

    def __post_init__(self):
        if len(self.bytes) != DIGEST_LEN:
            raise ValueError("master key must be 32 bytes")

    @classmethod
    def from_seed(cls, seed: int, node_id: NodeId) -> "MasterKey":
        """Deterministic per-node master key for reproducible scenarios."""
        material = hashlib.sha256(
            b"master" + seed.to_bytes(8, "big") + encode_node_id(node_id)
        ).digest()
        return cls(material)


@dataclass(frozen=True)
class PairwiseKey:
    bytes: bytes

    def __post_init__(self):
        if len(self.bytes) != DIGEST_LEN:
            raise ValueError("pairwise key must be 32 bytes")


@dataclass(frozen=True)
class Pseudonym:
    digest: bytes

    def __post_init__(self):
        if len(self.digest) != DIGEST_LEN:
            raise ValueError("pseudonym must be 32 bytes")

    def __repr__(self):
        return f"Pseudonym({self.digest.hex()[:12]}..)"


def derive_pairwise_key(receiver_master: MasterKey,
                        sender: NodeId) -> PairwiseKey:
    """Pairwise key between a sender and the holder of `receiver_master`."""
    raw = hmac.new(receiver_master.bytes, encode_node_id(sender),
                   hashlib.sha256).digest()
    return PairwiseKey(raw)


def prf(key, data: bytes) -> Pseudonym:
    """Keyed PRF over raw bytes; accepts a PairwiseKey or raw key bytes."""
    key_bytes = key.bytes if isinstance(key, PairwiseKey) else key
    return Pseudonym(hmac.new(key_bytes, data, hashlib.sha256).digest())


def hmac_tag(key, message: bytes) -> bytes:
    key_bytes = key.bytes if isinstance(key, PairwiseKey) else key
    return hmac.new(key_bytes, message, hashlib.sha256).digest()


def verify_hmac(key, message: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(hmac_tag(key, message), tag)


@dataclass(frozen=True)
class PseudonymChain:
    """Alias chain seeded from a real identity: element i+1 = PRF(key, element i)."""

    key: PairwiseKey
    index: int
    current: Pseudonym

    @classmethod
    def start(cls, key: PairwiseKey,
              seed_identity: NodeId) -> "PseudonymChain":
        first = prf(key, encode_node_id(seed_identity))
        return cls(key, 1, first)

    def advanced(self) -> "PseudonymChain":
        return PseudonymChain(self.key, self.index + 1,
                              prf(self.key, self.current.digest))


class TrapdoorIndex:
    """Precomputed window of the next `window` aliases of one chain, so its
    true endpoint recognizes itself in constant time.  Refilled once
    half-consumed."""

    def __init__(self, chain: PseudonymChain, window: int):
        self.window = window
        self.entries: dict[bytes, int] = {}
        self._low = chain.index
        self._next = chain  # next alias still to be indexed
        self._extend(window)

    def _extend(self, count: int) -> None:
        chain = self._next
        for _ in range(count):
            self.entries[chain.current.digest] = chain.index
            chain = chain.advanced()
        self._next = chain


def trapdoor_check(index: TrapdoorIndex,
                   candidate: Pseudonym) -> Optional[int]:
    """Chain index of `candidate`, or None if it is not indexed.  A match
    slides the window: once half of it is spent, it is extended past the
    matched alias."""
    match = index.entries.get(candidate.digest)
    if match is not None and match - index._low >= index.window // 2:
        index._extend(match - index._low)
        index._low = match
    return match
