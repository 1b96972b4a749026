"""Per-node forwarding logs, Merkle commitments and route audits.

Every node keeps an append-only log of the packets it handled and commits
it to a Merkle root.  The entries appended since the last publish are
hashed at the next one, in one pass, so an entry is committed at its first
publish.  A source audits a route from its own records: for every packet
it Forwarded, the destination must prove Received and Replied, and a relay
must prove Received plus Forwarded (or, in the passive scan, a Dropped
record for a broken link).  The audit functions take those packets as
their ids, sorted and distinct; choosing the Forwarded records is the
caller's job (the simulator's source records only what it Forwarded, and
`cli.forwarded_pids` filters the records a trace holds).  Each required
record is one (packet id, event) lookup in the published snapshot and one
proof walk to the snapshot's root, made when the auditor asks for it.
Three checks compose: destination verification, reverse-scan
active-attacker location, and forward-scan passive-dropper listing.  The
simulator's live audits and the replay of a trace both run `audit_route`.

An audit asks one snapshot for many records, and their proofs share the
upper part of the tree.  Each snapshot therefore keeps the committed nodes
that its successful walks read (RFC 9162 section 2.1.3: a proof need only
reach a node the verifier already trusts): the interior nodes a walk
computed or read as siblings, in a set, and its level-0 sibling by leaf
index.  A later walk stops at the first known interior node, reading no
sibling above it, and a claim at a known leaf's index is one leaf hash
and one compare.  Under SHA-256 collision resistance this is sound:

- Leaf and interior hashes carry distinct domain tags, so a leaf never
  stands in for an interior node.  The set holds interior nodes only: a
  right-edge sibling, which may be a promoted leaf, is not kept.
- Nodes are kept only from a walk that reached the root or a known node.
  A computed node equal to a committed one has that node's committed
  subtree below it, so the entry hashed is committed, each sibling read
  is the committed node at its place in that subtree, and only committed
  nodes are ever known.
- The entry is re-hashed from the log on every check, so an entry edited
  after publication fails, and it must carry the claim's packet id and
  event.  A claim names one committed entry, at the index the log's
  claim index holds, so the walk's places are the committed ones and a
  leaf is kept at its own index.  Without that check, a log that copies
  another committed entry and its sibling over the claimed index proves
  the claim from the copied pair's known parent.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import sys
from enum import IntEnum
from typing import NamedTuple, Optional, Sequence

from .crypto import DIGEST_LEN

LEAF_TAG = b"\x00"
NODE_TAG = b"\x01"
EMPTY_TAG = b"\x02"


class EventKind(IntEnum):
    """An entry's event; its value is the 1-byte code `leaf_hash`
    packs.  An int member hashes and packs in C, where a plain `Enum`
    member hashes its name in Python."""
    RECEIVED = 1
    FORWARDED = 2
    REPLIED = 3
    DROPPED = 4


# The members, read once: on CPython 3.11 an attribute read on an enum
# class costs about ten times a module-global read.
RECEIVED = EventKind.RECEIVED
FORWARDED = EventKind.FORWARDED
REPLIED = EventKind.REPLIED
DROPPED = EventKind.DROPPED


class LogEntry(NamedTuple):
    """One evidence-log record: immutable, and equal to any entry with
    the same fields.  The aliases are raw 32-byte digests and the fields
    are in `_LEAF`'s order, so `_LEAF.pack(*entry)` is the leaf."""
    node_alias: bytes
    packet_id: int
    event: EventKind
    sseq: int
    oseq: int
    dseq: int
    prev_hop_alias: bytes
    timestamp: float


# One pad byte, which packs as LEAF_TAG, then the entry's canonical
# encoding: alias, packet id, event code, sseq, oseq, dseq, previous-hop
# alias, time; 8-byte big-endian numbers, 32-byte aliases, 1-byte event.
_LEAF = struct.Struct(">x32sQBqqq32sd")


def leaf_hash(entry: LogEntry) -> bytes:
    """SHA-256 of LEAF_TAG + the entry's encoding, packed in one call."""
    return hashlib.sha256(_LEAF.pack(*entry)).digest()


def _interior(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(NODE_TAG + left + right).digest()


EMPTY_ROOT = hashlib.sha256(EMPTY_TAG).digest()


class MerkleTree:
    """Append-only binary hash tree over ordered leaves; odd node promoted
    unhashed.  The hash of every complete 2^k-leaf block is cached once,
    when its last leaf arrives, and never changes afterwards; `extend`, the
    one fold, hashes each level's newly completed blocks in one pass.  The
    root and any inclusion proof of the first n leaves are rebuilt from
    those blocks plus the O(log n) nodes on the right edge of the size-n
    tree, so they equal what a tree built from scratch over those n leaves
    gives."""

    def __init__(self, leaves: Sequence[bytes] = ()):
        # blocks[k][j] hashes leaves [j * 2^k, (j + 1) * 2^k)
        self.blocks: list[list[bytes]] = [[]]
        # the right edge of the last size asked for (see `_edges`)
        self._edge_size = 0
        self._edge_nodes: list[Optional[bytes]] = [None]
        self.extend(leaves)

    def __len__(self) -> int:
        return len(self.blocks[0])

    def extend(self, leaves: Sequence[bytes]) -> None:
        """Append `leaves` in order.  Level k + 1 always holds one node per
        complete pair of level k, so the pairs a level completes are those
        from its old length, rounded down to even, to its new one."""
        sha256 = hashlib.sha256
        blocks = self.blocks
        level = blocks[0]
        start = len(level)
        level.extend(leaves)
        k = 0
        while True:
            lo, hi = start & ~1, len(level) & ~1
            if lo == hi:
                return
            nodes = [sha256(NODE_TAG + level[i] + level[i + 1]).digest()
                     for i in range(lo, hi, 2)]
            k += 1
            if k == len(blocks):
                blocks.append([])
            level = blocks[k]
            start = len(level)
            level.extend(nodes)

    def _edges(self, size: int) -> list[Optional[bytes]]:
        """Entry k is the last node of level k of the size-`size` tree when
        it is incomplete: the complete blocks of size's low k bits, folded
        from the right; the last entry is the root.  All of them come from
        one fold, kept for the last size asked for.  The blocks never change
        once complete, so the kept fold stays valid as leaves are appended."""
        if size != self._edge_size:
            nodes: list[Optional[bytes]] = [None]
            node = None
            for b in range(size.bit_length()):
                if size >> b & 1:
                    block = self.blocks[b][(size >> b) - 1]
                    node = block if node is None else _interior(block, node)
                nodes.append(node)
            self._edge_size, self._edge_nodes = size, nodes
        return self._edge_nodes

    def root_at(self, size: int) -> bytes:
        """Root of the tree over the first `size` leaves."""
        if not 0 <= size <= len(self):
            raise IndexError(f"size {size} outside 0..{len(self)}")
        return self._edges(size)[-1] if size else EMPTY_ROOT

    @property
    def root(self) -> bytes:
        return self.root_at(len(self))

    def proof(self, index: int,
              size: Optional[int] = None) -> list[tuple[bytes, bool]]:
        """Inclusion proof of leaf `index` in the tree over the first `size`
        leaves (all of them by default): (sibling, sibling_is_left) pairs,
        leaf to root."""
        n = len(self) if size is None else size
        if not 0 <= index < n <= len(self):
            raise IndexError(f"leaf {index} outside a tree of {n}")
        out = []
        k = 0
        while n > 1 << k:
            node = index >> k
            sib = node ^ 1
            if (sib + 1) << k <= n:
                out.append((self.blocks[k][sib], sib < node))
            elif sib << k < n:
                out.append((self._edges(n)[k], False))
            k += 1
        return out

    @staticmethod
    def verify(root: bytes, leaf: bytes,
               proof: Sequence[tuple[bytes, bool]]) -> bool:
        """True iff the proof walk from `leaf` reaches `root`; a malformed
        proof is False."""
        node = leaf
        try:
            for sibling, is_left in proof:
                node = _interior(sibling, node) if is_left else _interior(node, sibling)
        except (TypeError, ValueError):
            return False
        return node == root


class Expected(NamedTuple):
    """A record the audited node must prove: one (packet id, event) key."""
    packet_id: int
    event: EventKind


class PublishedLog:
    """What an audited node hands the auditor: its root over the first
    `size` entries of its log.  The auditor then asks for one record at a
    time, by (packet id, event); the node answers with the entry and its
    inclusion proof at that size.  Entries appended later are not part of
    the snapshot.  Publishing hashed every entry of the snapshot into the
    log's tree, and the proofs come from that tree, so an entry edited
    since then fails.

    Every check that succeeds keeps the committed nodes its walk read (see
    the module docstring for why that is sound): `verified` holds interior
    nodes, where a later walk stops, and `leaves` maps a leaf index to the
    committed leaf there.  Both live as long as the snapshot."""

    def __init__(self, root: bytes, log: NodeLog, size: int):
        self.root = root
        self.log = log
        self.size = size
        self.verified: set[bytes] = set()
        self.leaves: dict[int, bytes] = {}

    def proves(self, packet_id: int, event: EventKind) -> bool:
        """True iff the snapshot holds a (packet_id, event) entry whose
        inclusion proof verifies against the published root.  The entry
        shown must carry the claim's packet id and event.  The walk is
        `MerkleTree.proof` and `MerkleTree.verify` fused: each sibling is
        read where `proof` reads it, and the walk stops at the first node
        in `verified`, or at the root.  A malformed sibling is False."""
        log, n = self.log, self.size
        index = log._claims.get((packet_id, event))
        if index is None or index >= n:
            return False
        entry = log.entries[index]
        # the claim binds the entry: a verified node or a known leaf says
        # that the hashed entry is committed, not that it is this claim's
        if entry[1] != packet_id or entry[2] != event:
            return False
        node = leaf_hash(entry)
        known = self.leaves.get(index)
        if known is not None:
            return node == known
        sha256 = hashlib.sha256
        tree = log._tree        # publishing hashed the snapshot's entries
        blocks, verified = tree.blocks, self.verified
        first = None            # the level-0 sibling, kept on success
        path = []
        try:
            for k in range((n - 1).bit_length()):
                at = index >> k
                sib = at ^ 1
                if (sib + 1) << k <= n:
                    sibling = blocks[k][sib]
                    if k:
                        path.append(sibling)
                    else:
                        first = sibling
                elif sib << k < n:
                    # a right-edge node, which may be a promoted leaf: it
                    # is hashed but not kept
                    sibling = tree._edges(n)[k]
                else:           # the last node of its level, promoted
                    continue
                node = sha256(NODE_TAG + sibling + node if at & 1
                              else NODE_TAG + node + sibling).digest()
                if node in verified:
                    break
                path.append(node)
            else:
                if node != self.root:
                    return False
        except (TypeError, ValueError):
            return False
        verified.update(path)
        if first is not None:
            self.leaves[index ^ 1] = first
        return True


class DuplicateEntryError(Exception):
    pass


class TimestampRegressionError(Exception):
    pass


class NodeLog:
    """Append-only evidence log committed to an append-only Merkle tree.
    Each (packet id, event) claim names exactly one entry.  `append` only
    checks and records an entry; reading `tree`, which `publish` does,
    hashes every entry appended since the last read.  So an entry is
    committed at its first publish, and editing it afterwards fails every
    check of a snapshot that holds it."""

    def __init__(self):
        self.entries: list[LogEntry] = []
        self._tree = MerkleTree()
        self._claims: dict[tuple[int, EventKind], int] = {}
        self._last_ts = float("-inf")

    def append(self, entry: LogEntry) -> None:
        _, pid, event, _, _, _, _, ts = entry
        if ts < self._last_ts:
            raise TimestampRegressionError(
                f"timestamp {ts} precedes {self._last_ts}")
        claim = (pid, event)
        if claim in self._claims:
            raise DuplicateEntryError(f"duplicate entry {claim}")
        self._claims[claim] = len(self.entries)
        self._last_ts = ts
        self.entries.append(entry)

    @property
    def tree(self) -> MerkleTree:
        """The tree over every entry appended so far.  The new leaves are
        hashed as `leaf_hash` hashes them, without a Python call per leaf."""
        tree = self._tree
        if len(tree) < len(self.entries):
            sha256 = hashlib.sha256
            tree.extend([sha256(leaf).digest() for leaf in itertools.starmap(
                _LEAF.pack, self.entries[len(tree):])])
        return tree

    def claim_index(self, packet_id: int, event: EventKind,
                    size: int) -> Optional[int]:
        """Index of the (packet_id, event) entry if it is among the first
        `size`, or None."""
        index = self._claims.get((packet_id, event))
        return index if index is not None and index < size else None

    def publish(self) -> PublishedLog:
        size = len(self.entries)
        return PublishedLog(self.tree.root_at(size), self, size)


# Records each role must prove for every packet the auditor forwarded.
DESTINATION_EVENTS = (RECEIVED, REPLIED)
RELAY_EVENTS = (RECEIVED, FORWARDED)


def apply_rules(events: Sequence[EventKind],
                pids: Sequence[int]) -> list[Expected]:
    """One expected record per event and per packet id the auditor
    Forwarded, in event order then in the order of `pids`."""
    return [Expected(pid, event) for event in events for pid in pids]


FELLOW = "FELLOW"
NOT_FELLOW = "NOT_FELLOW"


# Stands in for a node that published nothing: it proves no record.
_SILENT = NodeLog().publish()


def _proves_all(published: Optional[PublishedLog],
                expected: Sequence[Expected]) -> bool:
    proves = (published or _SILENT).proves
    return all(proves(*record) for record in expected)


def check_destination(tau_c: Sequence[int],
                      dest_published: Optional[PublishedLog]) -> str:
    if _proves_all(dest_published, apply_rules(DESTINATION_EVENTS, tau_c)):
        return FELLOW
    return NOT_FELLOW


def detect_active_attacker(route_logs: Sequence[Optional[PublishedLog]],
                           tau_c: Sequence[int]) -> int:
    """Reverse scan of the n intermediaries: the forger's route position.
    The deepest node whose records all verify locates the forger
    immediately downstream of it, at 1..n; if even the last intermediary
    verifies (or there is none) it is the destination, at n + 1."""
    expected = apply_rules(RELAY_EVENTS, tau_c)
    for m in range(len(route_logs), 0, -1):
        if _proves_all(route_logs[m - 1], expected):
            return m + 1
    return 1


def detect_passive_attackers(route_logs: Sequence[Optional[PublishedLog]],
                             pids: Sequence[int]) -> list[int]:
    """Forward scan over the ids of the packets the auditor Forwarded; a
    relay is fake when, for some packet its verified upstream passed on,
    it cannot prove Received plus either Forwarded or a Dropped
    (link-failure) record.  Each hop is only held to the packets its
    upstream Forwarded, so droppers do not taint honest nodes downstream
    of them."""
    fake: list[int] = []
    for j, published in enumerate(route_logs, start=1):
        proves = (published or _SILENT).proves
        forwarded = {pid for pid in pids if proves(pid, FORWARDED)}
        if not all(proves(pid, RECEIVED)
                   and (pid in forwarded or proves(pid, DROPPED))
                   for pid in pids):
            fake.append(j)
        pids = [pid for pid in pids if pid in forwarded]
    return fake


class AuditReport(NamedTuple):
    """One audit's outcome; equal to a report with the same fields, so a
    replayed audit can be checked against the live one."""
    verdict: str
    active_attacker: Optional[int] = None
    target_lied: bool = False
    passive_attackers: Sequence[int] = ()

    def csv_row(self, flow_id) -> str:
        active = "" if self.active_attacker is None else str(self.active_attacker)
        if self.target_lied:
            active = "target"
        passive = ";".join(str(p) for p in self.passive_attackers)
        return f"{flow_id},{self.verdict},{active},{passive}"


def audit_route(route_logs: Sequence[Optional[PublishedLog]],
                dest_published: Optional[PublishedLog],
                control_pids: Sequence[int],
                data_pids: Sequence[int]) -> AuditReport:
    """Destination check first; its verdict dispatches to the active-attack
    scan (reverse) or the passive-dropper scan (forward).  The two
    arguments are the sorted, distinct ids of the control and the data
    packets the source Forwarded on the route."""
    verdict = check_destination(control_pids, dest_published)
    if verdict != FELLOW:
        pos = detect_active_attacker(route_logs, control_pids)
        if pos > len(route_logs):
            return AuditReport(NOT_FELLOW, target_lied=True)
        return AuditReport(NOT_FELLOW, active_attacker=pos)
    passive = detect_passive_attackers(route_logs, data_pids)
    return AuditReport(FELLOW, passive_attackers=passive)


def entry_to_list(entry: LogEntry) -> list:
    """A log entry's form in a trace's audit log, which `cli._ENTRY`
    writes; the event is its plain int code."""
    return [entry.node_alias.hex(), entry.packet_id, int(entry.event),
            entry.sseq, entry.oseq, entry.dseq,
            entry.prev_hop_alias.hex(), entry.timestamp]


_EVENT_BY_CODE = {int(e): e for e in EventKind}


def _new_alias(aliases: dict[str, bytes], text: str) -> bytes:
    alias = bytes.fromhex(text)
    # `_LEAF` would pad a short alias and cut a long one without a word
    if len(alias) != DIGEST_LEN:
        raise ValueError("pseudonym must be 32 bytes")
    aliases[text] = alias
    return alias


def entry_from_list(data: Sequence, aliases: dict[str, bytes]) -> LogEntry:
    """The entry whose `entry_to_list` form, read back from JSON, is
    `data`.  The packet id, event code and counters must be JSON integers
    (a bool is not one), the timestamp a finite JSON number and each alias
    the hex of 32 bytes; any other value raises TypeError or ValueError.
    `aliases` maps alias hex to its digest and gains every alias not in it
    yet, so that one replay builds one `bytes` per alias."""
    node_hex, pid, code, sseq, oseq, dseq, prev_hex, ts = data
    # exact type tests: int() would truncate 1.9 and take "12" or True
    if not (type(pid) is type(code) is type(sseq) is type(oseq)
            is type(dseq) is int):
        raise TypeError(f"packet id, event code and counters "
                        f"{[pid, code, sseq, oseq, dseq]!r} must be integers")
    # an int compares exactly: 10**400 fails, where isfinite overflows
    if type(ts) not in (float, int) or not abs(ts) <= sys.float_info.max:
        raise ValueError(f"timestamp {ts!r} is not a finite number")
    event = _EVENT_BY_CODE.get(code)
    if event is None:
        raise ValueError(f"event code {code} is not one of 1-4")
    # the C call that the generated `LogEntry.__new__` wraps
    return tuple.__new__(LogEntry, (
        aliases.get(node_hex) or _new_alias(aliases, node_hex),
        pid, event, sseq, oseq, dseq,
        aliases.get(prev_hex) or _new_alias(aliases, prev_hex), float(ts)))
