"""Keyed primitives for pseudonymous routing: pairwise key derivation,
PRF-based alias chains, the destination trapdoor table and message tags.

All keyed operations are HMAC-SHA-256.  Every key and alias is a plain
`DIGEST_LEN`-byte SHA-256 or HMAC-SHA-256 digest, so none is checked for
length.  Node identifiers enter the PRF as 8-byte big-endian integers;
aliases are fed back in raw.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import NamedTuple, Optional

NodeId = int

DIGEST_LEN = 32


def encode_node_id(node_id: NodeId) -> bytes:
    return node_id.to_bytes(8, "big")


def master_key(seed: int, node_id: NodeId) -> bytes:
    """Deterministic per-node master key for reproducible scenarios."""
    return hashlib.sha256(
        b"master" + seed.to_bytes(8, "big") + encode_node_id(node_id)
    ).digest()


def derive_pairwise_key(receiver_master: bytes, sender: NodeId) -> bytes:
    """Pairwise key between a sender and the holder of `receiver_master`."""
    return hmac.new(receiver_master, encode_node_id(sender),
                    hashlib.sha256).digest()


def prf(key: bytes, data: bytes) -> bytes:
    """Keyed PRF over raw bytes: the next alias of a chain."""
    return hmac.new(key, data, hashlib.sha256).digest()


def hmac_tag(key: bytes, message: bytes) -> bytes:
    return hmac.new(key, message, hashlib.sha256).digest()


def verify_hmac(key: bytes, message: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(hmac_tag(key, message), tag)


class PseudonymChain(NamedTuple):
    """Alias chain seeded from a real identity: element i+1 = PRF(key, element i)."""

    key: bytes
    index: int
    current: bytes

    @classmethod
    def start(cls, key: bytes, seed_identity: NodeId) -> "PseudonymChain":
        first = prf(key, encode_node_id(seed_identity))
        return cls(key, 1, first)

    def advanced(self) -> "PseudonymChain":
        return PseudonymChain(self.key, self.index + 1,
                              prf(self.key, self.current))


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
            self.entries[chain.current] = chain.index
            chain = chain.advanced()
        self._next = chain


def trapdoor_check(index: TrapdoorIndex,
                   candidate: bytes) -> Optional[int]:
    """Chain index of `candidate`, or None if it is not indexed.  A match
    slides the window: once half of it is spent, it is extended past the
    matched alias."""
    match = index.entries.get(candidate)
    if match is not None and match - index._low >= index.window // 2:
        index._extend(match - index._low)
        index._low = match
    return match
