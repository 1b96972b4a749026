"""Keyed primitives for pseudonymous routing: pairwise key derivation,
PRF-based alias chains, the destination trapdoor table and message tags.

All keyed operations are HMAC-SHA-256.  Node identifiers enter the PRF as
8-byte big-endian integers; aliases are fed back in raw.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from enum import Enum
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


class ChainDirection(Enum):
    FORWARD_OF_SOURCE = "source"
    FORWARD_OF_DESTINATION = "destination"


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
    direction: ChainDirection
    index: int
    current: Pseudonym

    @classmethod
    def start(cls, key: PairwiseKey, seed_identity: NodeId,
              direction: ChainDirection) -> "PseudonymChain":
        first = prf(key, encode_node_id(seed_identity))
        return cls(key, direction, 1, first)

    def advanced(self) -> "PseudonymChain":
        return PseudonymChain(self.key, self.direction, self.index + 1,
                              prf(self.key, self.current.digest))


class TrapdoorIndex:
    """Precomputed window of upcoming aliases so the true endpoint can
    recognize itself in constant time.  Refilled once half-consumed."""

    def __init__(self, window: int = 16):
        self.window = window
        self.entries: dict[bytes, tuple[ChainDirection, int]] = {}
        self._chains: dict[ChainDirection, PseudonymChain] = {}
        self._low: dict[ChainDirection, int] = {}

    def track(self, chain: PseudonymChain) -> None:
        """Register a chain and precompute `window` aliases from its position."""
        self._chains[chain.direction] = chain
        self._low[chain.direction] = chain.index
        c = chain
        for _ in range(self.window):
            self.entries[c.current.digest] = (c.direction, c.index)
            c = c.advanced()
        self._chains[chain.direction] = c  # next alias still to be indexed

    def lookup(self, candidate: Pseudonym) -> Optional[tuple[ChainDirection, int]]:
        return self.entries.get(candidate.digest)

    def consume(self, direction: ChainDirection, index: int) -> None:
        """Note that `index` was matched; extend the window when half is spent."""
        low = self._low.get(direction, 1)
        if index - low < self.window // 2:
            return
        chain = self._chains[direction]
        for _ in range(index - low):
            self.entries[chain.current.digest] = (chain.direction, chain.index)
            chain = chain.advanced()
        self._chains[direction] = chain
        self._low[direction] = index


def trapdoor_check(index: TrapdoorIndex,
                   candidate: Pseudonym) -> Optional[tuple[ChainDirection, int]]:
    match = index.lookup(candidate)
    if match is not None:
        index.consume(*match)
    return match
