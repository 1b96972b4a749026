"""Per-node forwarding logs, Merkle commitments and route audits.

Every node keeps an append-only log of the packets it handled and commits
it to a Merkle root.  A source audits a route from its own log: for every
packet it Forwarded, the destination must prove Received and Replied, and
a relay must prove Received plus Forwarded (or, in the passive scan, a
Dropped record for a broken link).  Each required record is one
(packet id, event) lookup in the published log and one inclusion proof
against its root.  Three checks compose: destination verification,
reverse-scan active-attacker location, and forward-scan passive-dropper
listing.  The simulator's live audits and the replay of a trace both run
`audit_route`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .crypto import Pseudonym

LEAF_TAG = b"\x00"
NODE_TAG = b"\x01"
EMPTY_TAG = b"\x02"


class EventKind(Enum):
    RECEIVED = 1
    FORWARDED = 2
    REPLIED = 3
    DROPPED = 4


@dataclass(frozen=True)
class LogEntry:
    node_alias: Pseudonym
    packet_id: int
    event: EventKind
    sseq: int
    oseq: int
    dseq: int
    prev_hop_alias: Pseudonym
    timestamp: float


def serialize_entry(entry: LogEntry) -> bytes:
    """Canonical byte encoding: fixed field order, 8-byte big-endian
    integers, 32-byte aliases, 1-byte event code."""
    return b"".join((
        entry.node_alias.digest,
        entry.packet_id.to_bytes(8, "big"),
        bytes([entry.event.value]),
        struct.pack(">q", entry.sseq),
        struct.pack(">q", entry.oseq),
        struct.pack(">q", entry.dseq),
        entry.prev_hop_alias.digest,
        struct.pack(">d", entry.timestamp),
    ))


def leaf_hash(entry: LogEntry) -> bytes:
    return hashlib.sha256(LEAF_TAG + serialize_entry(entry)).digest()


def _interior(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(NODE_TAG + left + right).digest()


EMPTY_ROOT = hashlib.sha256(EMPTY_TAG).digest()


class MerkleTree:
    """Binary hash tree over ordered leaves; odd node promoted unhashed."""

    def __init__(self, leaves: Sequence[bytes]):
        self.levels = [list(leaves)]
        level = self.levels[0]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(_interior(level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            self.levels.append(nxt)
            level = nxt
        self.root = level[0] if level else EMPTY_ROOT

    def proof(self, index: int) -> list[tuple[bytes, bool]]:
        """Inclusion proof: (sibling, sibling_is_left) pairs, leaf to root."""
        out = []
        for level in self.levels[:-1]:
            sib = index ^ 1
            if sib < len(level):
                out.append((level[sib], sib < index))
            index //= 2
        return out

    @staticmethod
    def verify(root: bytes, leaf: bytes,
               proof: Sequence[tuple[bytes, bool]]) -> bool:
        node = leaf
        try:
            for sibling, is_left in proof:
                node = _interior(sibling, node) if is_left else _interior(node, sibling)
        except (TypeError, ValueError):
            return False
        return node == root


@dataclass(frozen=True)
class MerkleCommitment:
    root: bytes


class Expected(NamedTuple):
    """A record the audited node must prove: one (packet id, event) key."""
    packet_id: int
    event: EventKind


@dataclass
class PublishedLog:
    """What an audited node hands the auditor: its committed root plus the
    entries it claims, keyed by (packet id, event), each with an inclusion
    proof."""
    commitment: MerkleCommitment
    claimed: dict[tuple[int, EventKind],
                  tuple[LogEntry, list[tuple[bytes, bool]]]]

    def proves(self, packet_id: int, event: EventKind) -> bool:
        """True iff a claimed (packet_id, event) entry verifies against the
        published root."""
        hit = self.claimed.get((packet_id, event))
        if hit is None:
            return False
        entry, proof = hit
        return MerkleTree.verify(self.commitment.root, leaf_hash(entry), proof)


class DuplicateEntryError(Exception):
    pass


class TimestampRegressionError(Exception):
    pass


class NodeLog:
    """Append-only evidence log; leaf hashes are kept so commitments are
    recomputed only when asked for."""

    def __init__(self):
        self.entries: list[LogEntry] = []
        self._leaves: list[bytes] = []
        self._keys: set[tuple[bytes, int, EventKind]] = set()
        self._last_ts = float("-inf")

    def append(self, entry: LogEntry) -> None:
        if entry.timestamp < self._last_ts:
            raise TimestampRegressionError(
                f"timestamp {entry.timestamp} precedes {self._last_ts}")
        key = (entry.node_alias.digest, entry.packet_id, entry.event)
        if key in self._keys:
            raise DuplicateEntryError(f"duplicate entry {key}")
        self._keys.add(key)
        self._last_ts = entry.timestamp
        self.entries.append(entry)
        self._leaves.append(leaf_hash(entry))

    def commitment(self) -> MerkleCommitment:
        return MerkleCommitment(MerkleTree(self._leaves).root)

    def publish(self) -> PublishedLog:
        tree = MerkleTree(self._leaves)
        claimed = {(e.packet_id, e.event): (e, tree.proof(i))
                   for i, e in enumerate(self.entries)}
        return PublishedLog(MerkleCommitment(tree.root), claimed)


# Records each role must prove for every packet the auditor forwarded.
DESTINATION_EVENTS = (EventKind.RECEIVED, EventKind.REPLIED)
RELAY_EVENTS = (EventKind.RECEIVED, EventKind.FORWARDED)


def _forwarded_pids(observed: Sequence[LogEntry]) -> list[int]:
    return sorted({e.packet_id for e in observed
                   if e.event is EventKind.FORWARDED})


def apply_rules(events: Sequence[EventKind],
                observed: Sequence[LogEntry]) -> list[Expected]:
    """One expected record per event and per packet id the auditor's own
    log shows as Forwarded, in event order then packet-id order."""
    pids = _forwarded_pids(observed)
    return [Expected(pid, event) for event in events for pid in pids]


FELLOW = "FELLOW"
NOT_FELLOW = "NOT_FELLOW"
TARGET = "Target"


# Stands in for a node that published nothing: it proves no record.
_SILENT = PublishedLog(MerkleCommitment(EMPTY_ROOT), {})


def _proves_all(published: Optional[PublishedLog],
                expected: Sequence[Expected]) -> bool:
    proves = (published or _SILENT).proves
    return all(proves(*record) for record in expected)


def check_destination(tau_c: Sequence[LogEntry], events: Sequence[EventKind],
                      dest_published: Optional[PublishedLog]) -> str:
    if _proves_all(dest_published, apply_rules(events, tau_c)):
        return FELLOW
    return NOT_FELLOW


def detect_active_attacker(route_logs: Sequence[Optional[PublishedLog]],
                           tau_c: Sequence[LogEntry]):
    """Reverse scan of the intermediaries.  The deepest node whose records
    all verify locates the forger immediately downstream of it; if even the
    last intermediary verifies the destination itself lied."""
    n = len(route_logs)
    if n == 0:
        raise ValueError("no intermediaries")
    expected = apply_rules(RELAY_EVENTS, tau_c)
    for m in range(n, 0, -1):
        if _proves_all(route_logs[m - 1], expected):
            return TARGET if m == n else m + 1
    return 1


def detect_passive_attackers(route_logs: Sequence[Optional[PublishedLog]],
                             tau_c: Sequence[LogEntry]) -> list[int]:
    """Forward scan; a relay is fake when, for some packet its verified
    upstream passed on, it cannot prove Received plus either Forwarded or
    a Dropped (link-failure) record.  Each hop is only held to the packets
    its upstream Forwarded, so droppers do not taint honest nodes
    downstream of them."""
    pids = _forwarded_pids(tau_c)
    fake: list[int] = []
    for j, published in enumerate(route_logs, start=1):
        proves = (published or _SILENT).proves
        if not all(proves(pid, EventKind.RECEIVED)
                   and (proves(pid, EventKind.FORWARDED)
                        or proves(pid, EventKind.DROPPED)) for pid in pids):
            fake.append(j)
        pids = [pid for pid in pids if proves(pid, EventKind.FORWARDED)]
    return fake


@dataclass
class AuditReport:
    verdict: str
    active_attacker: Optional[int] = None
    target_lied: bool = False
    passive_attackers: list[int] = field(default_factory=list)

    def csv_row(self, flow_id) -> str:
        active = "" if self.active_attacker is None else str(self.active_attacker)
        if self.target_lied:
            active = "target"
        passive = ";".join(str(p) for p in self.passive_attackers)
        return f"{flow_id},{self.verdict},{active},{passive}"


def audit_route(route_logs: Sequence[Optional[PublishedLog]],
                dest_published: Optional[PublishedLog],
                tau_c_control: Sequence[LogEntry],
                tau_c_data: Sequence[LogEntry]) -> AuditReport:
    """Destination check first; its verdict dispatches to the active-attack
    scan (reverse) or the passive-dropper scan (forward)."""
    verdict = check_destination(tau_c_control, DESTINATION_EVENTS,
                                dest_published)
    if verdict != FELLOW:
        if not route_logs:
            return AuditReport(NOT_FELLOW, target_lied=True)
        result = detect_active_attacker(route_logs, tau_c_control)
        if result == TARGET:
            return AuditReport(NOT_FELLOW, target_lied=True)
        return AuditReport(NOT_FELLOW, active_attacker=result)
    passive = detect_passive_attackers(route_logs, tau_c_data)
    return AuditReport(FELLOW, passive_attackers=passive)


def entry_to_list(entry: LogEntry) -> list:
    """Plain-data form of a log entry for trace export."""
    return [entry.node_alias.digest.hex(), entry.packet_id, entry.event.value,
            entry.sseq, entry.oseq, entry.dseq,
            entry.prev_hop_alias.digest.hex(), entry.timestamp]


def entry_from_list(data: Sequence) -> LogEntry:
    return LogEntry(Pseudonym(bytes.fromhex(data[0])), int(data[1]),
                    EventKind(int(data[2])), int(data[3]), int(data[4]),
                    int(data[5]), Pseudonym(bytes.fromhex(data[6])),
                    float(data[7]))
