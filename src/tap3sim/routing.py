"""Wire formats and path-selection policy for the three protocols.

TAP3 and S-MPRF address control packets by fellow aliases and carry an
integrity tag under the endpoint pairwise key; MPRF carries plaintext
source/destination addresses.  TAP3 alone runs the trust layer (suspect
exclusion and round-robin dispersal over the usable path set).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .crypto import NodeId, Pseudonym, encode_node_id


class ProtocolKind(Enum):
    TAP3 = "tap3"
    S_MPRF = "smprf"
    MPRF = "mprf"

    @property
    def uses_pseudonyms(self) -> bool:
        return self is not ProtocolKind.MPRF

    @property
    def rotates_aliases(self) -> bool:
        return self is ProtocolKind.TAP3

    @property
    def verifies_tags(self) -> bool:
        return self is not ProtocolKind.MPRF

    @property
    def trust_layer(self) -> bool:
        return self is ProtocolKind.TAP3


class PacketKind(Enum):
    RREQ = "RREQ"
    RREP = "RREP"
    RREP_ACK = "RREP_ACK"
    DATA = "DATA"
    RERR = "RERR"


@dataclass
class Packet:
    """One frame.  Once handed to `Simulation.transmit` a frame is
    read-only: every receiver of a broadcast gets the same object, and a
    handler that changes a field (hop count, route record, an attacker's
    sequence number) does so on its own `copy()`.  A broadcast (always a
    route request) is not delivered to a node that already holds its key
    and is not the flow's destination: that node would drop the copy
    unread, and it still holds the key when the copy would arrive, so
    leaving the copy out changes nothing (see `SimNode.ignores_rreq`)."""
    kind: PacketKind
    flow_id: int
    packet_id: int
    round: int = 0
    forward_alias: Optional[Pseudonym] = None
    reverse_alias: Optional[Pseudonym] = None
    src_addr: Optional[NodeId] = None
    dst_addr: Optional[NodeId] = None
    sseq: int = 0
    oseq: int = 0
    dseq: int = 0
    req_oseq: int = 0
    hop_count: int = 0
    path_id: int = 0
    payload_size: int = 0
    origin_time: float = 0.0
    route_record: list[NodeId] = field(default_factory=list)
    tag: bytes = b""

    def copy(self) -> "Packet":
        c = object.__new__(Packet)
        c.__dict__.update(self.__dict__)
        c.route_record = list(self.route_record)
        return c


# Field tags for header serialization.  Every tag byte is >= 0x80 and no
# scalar field spans more than 4 bytes, so the 8-byte big-endian encoding
# of a small node id (7 zero bytes + value) can never occur in a header
# unless an address field literally contains it.
_T_KIND = 0x80
_T_FWD = 0x81
_T_REV = 0x82
_T_SRC = 0x83
_T_DST = 0x84
_T_SEQ = 0x85
_T_MISC = 0x86
_T_ROUTE = 0x87
_T_TAG = 0x88

_KIND_CODE = {k: i + 1 for i, k in enumerate(PacketKind)}
# the eight tagged 32-bit sequence fields, the misc byte (hop count) and the
# route-record header (length); then one tagged 16-bit id per route entry
_FIXED = struct.Struct(">" + "BI" * 8 + "BB" + "BB")
_ROUTE_ENTRY = struct.Struct(">BH")
_U32 = 0xFFFFFFFF


def header_bytes(pkt: Packet, include_tag: bool = True) -> bytes:
    """Canonical control-header encoding, used for tagging, privacy checks
    and size accounting.  Sequence fields keep their low 32 bits, the hop
    count and the route-record length their low 8 and each route entry its
    low 16."""
    parts = [bytes([_T_KIND, _KIND_CODE[pkt.kind]])]
    if pkt.forward_alias is not None:
        parts.append(bytes([_T_FWD]) + pkt.forward_alias.digest)
    if pkt.reverse_alias is not None:
        parts.append(bytes([_T_REV]) + pkt.reverse_alias.digest)
    if pkt.src_addr is not None:
        parts.append(bytes([_T_SRC]) + encode_node_id(pkt.src_addr))
    if pkt.dst_addr is not None:
        parts.append(bytes([_T_DST]) + encode_node_id(pkt.dst_addr))
    route = pkt.route_record
    parts.append(_FIXED.pack(
        _T_SEQ, pkt.sseq & _U32, _T_SEQ, pkt.oseq & _U32,
        _T_SEQ, pkt.dseq & _U32, _T_SEQ, pkt.req_oseq & _U32,
        _T_SEQ, pkt.packet_id & _U32, _T_SEQ, pkt.flow_id & _U32,
        _T_SEQ, pkt.round & _U32, _T_SEQ, pkt.path_id & _U32,
        _T_MISC, pkt.hop_count & 0xFF, _T_ROUTE, len(route) & 0xFF))
    if route:
        entry = _ROUTE_ENTRY.pack
        parts.extend([entry(_T_ROUTE, nid & 0xFFFF) for nid in route])
    if include_tag and pkt.tag:
        parts.append(bytes([_T_TAG]) + pkt.tag)
    return b"".join(parts)


def packet_size(pkt: Packet) -> int:
    return len(header_bytes(pkt)) + pkt.payload_size


@dataclass
class RouteEntry:
    """Per-node forwarding state for one flow round and path."""
    next_hop: NodeId
    prev_hop: NodeId
    path_id: int
    established_at: float


@dataclass
class PathInfo:
    """A discovered path as known to the source."""
    path_id: int
    round: int
    relays: list[NodeId]
    dseq: int
    established_at: float
    next_hop: Optional[NodeId] = None
    broken: bool = False

    @property
    def hop_count(self) -> int:
        return len(self.relays) + 1


def select_paths(paths: list[PathInfo], flagged: set[NodeId],
                 protocol: ProtocolKind) -> list[PathInfo]:
    """Usable ordered path set.  TAP3 excludes paths through flagged nodes
    and orders by hop count then discovery time; the baselines have no
    trust layer and prefer destination-sequence freshness (classic AODV),
    then hop count."""
    alive = [p for p in paths if not p.broken]
    if protocol.trust_layer:
        usable = [p for p in alive
                  if not any(r in flagged for r in p.relays)]
        usable.sort(key=lambda p: (p.hop_count, p.established_at, p.path_id))
        return usable
    alive.sort(key=lambda p: (-p.dseq, p.hop_count, p.established_at, p.path_id))
    return alive


def pick_disjoint_paths(candidates: list[tuple[int, float, list[NodeId]]],
                        max_paths: int, hop_slack: int = 1
                        ) -> list[list[NodeId]]:
    """Greedy link-disjoint selection from (hop_count, arrival, relays)
    route-request arrivals: shortest/earliest first, admitting only routes
    node-disjoint from those already chosen and within `hop_slack` hops of
    the best."""
    ordered = sorted(candidates, key=lambda c: (c[0], c[1]))
    chosen: list[list[NodeId]] = []
    used: set[NodeId] = set()
    best = ordered[0][0] if ordered else 0
    for hops, _, relays in ordered:
        if len(chosen) >= max_paths:
            break
        if hops > best + hop_slack:
            break
        if any(r in used for r in relays):
            continue
        chosen.append(relays)
        used.update(relays)
    return chosen
