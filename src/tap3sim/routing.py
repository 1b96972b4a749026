"""Wire formats and path-selection policy for the three protocols.

TAP3 and S-MPRF address control packets by fellow aliases and carry an
integrity tag under the endpoint pairwise key; MPRF carries plaintext
source/destination addresses.  TAP3 alone runs the trust layer: alias
rotation, the destination trapdoor, the sequence monitor, evidence logs
and their audits, suspect exclusion and round-robin dispersal over the
usable path set.  `ProtocolKind.uses_pseudonyms` and
`ProtocolKind.trust_layer` are the only two protocol facts the simulator
asks for.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import Optional

from .crypto import NodeId, encode_node_id


class ProtocolKind(Enum):
    TAP3 = "tap3"
    S_MPRF = "smprf"
    MPRF = "mprf"

    def __init__(self, value: str):
        # plain member attributes: on CPython 3.11 a property read on an
        # enum member costs about 15 times an instance-attribute read
        self.uses_pseudonyms = value != "mprf"
        self.trust_layer = value == "tap3"


class PacketKind(Enum):
    """A frame's kind: its 1-byte header code and its trace text."""
    RREQ = 1, "RREQ"
    RREP = 2, "RREP"
    RREP_ACK = 3, "RREP_ACK"
    DATA = 4, "DATA"
    RERR = 5, "RERR"

    def __init__(self, code: int, text: str):
        # plain member attributes, as on `ProtocolKind`: on CPython 3.11
        # hashing a plain `Enum` member or reading `.value` runs Python code
        self.code = code
        self.text = text


class Packet:
    """One frame.  Once handed to `Simulation.transmit` a frame is
    read-only: every receiver of a broadcast gets the same object, and a
    relay forwards a received DATA, RREP, RREP_ACK or RERR frame as it is.
    Only two handlers change a field of a received frame, each on its own
    `copy()`: a route-request relay appends itself to `route_record`, and
    a sequence-inflating attacker raises a reply's `dseq`.  A
    pseudonymous control frame carries its `header_bytes` in `header`,
    set at its first tag or its first send, so no hop encodes it again;
    a route-request relay's copy derives its own from its parent's
    (`relayed_header`).  A broadcast (always a route request) is
    delivered only to the nodes in its round's listener record
    (`sim.Round.listeners`): a node that already holds the
    request and is not the flow's destination would drop the copy
    unread, and it still holds the request when the copy would arrive,
    so leaving the copy out changes nothing."""

    def __init__(self, kind: PacketKind, flow_id: int, packet_id: int,
                 round: int = 0, forward_alias: Optional[bytes] = None,
                 reverse_alias: Optional[bytes] = None,
                 src_addr: Optional[NodeId] = None,
                 dst_addr: Optional[NodeId] = None, sseq: int = 0,
                 oseq: int = 0, dseq: int = 0, req_oseq: int = 0,
                 path_id: int = 0, payload_size: int = 0,
                 origin_time: float = 0.0,
                 route_record: Optional[list[NodeId]] = None,
                 tag: bytes = b""):
        self.kind = kind
        self.flow_id = flow_id
        self.packet_id = packet_id
        self.round = round
        self.forward_alias = forward_alias
        self.reverse_alias = reverse_alias
        self.src_addr = src_addr
        self.dst_addr = dst_addr
        self.sseq = sseq
        self.oseq = oseq
        self.dseq = dseq
        self.req_oseq = req_oseq
        self.path_id = path_id
        self.payload_size = payload_size
        self.origin_time = origin_time
        self.route_record = [] if route_record is None else route_record
        # the endpoints' HMAC over `header_bytes`; it travels as the
        # header's last field, which `header_size` counts and
        # `header_bytes` leaves out
        self.tag = tag
        # `packet_size`, set by the frame's first `Simulation.transmit`
        self.size: Optional[int] = None
        # `header_bytes`, set by the endpoint that tags the frame or by its
        # first `Simulation.transmit`; only pseudonymous RREQ, RREP and
        # RREP_ACK frames carry it
        self.header: Optional[bytes] = None

    def copy(self) -> "Packet":
        c = object.__new__(Packet)
        c.__dict__.update(self.__dict__)
        c.route_record = list(self.route_record)
        # the copy may change, so it is sized and encoded afresh
        c.size = c.header = None
        return c


# Field tags for header serialization.  Every tag byte is >= 0x80 and no
# scalar field spans more than 4 bytes, so outside the alias digests the
# 8-byte big-endian encoding of a small node id (7 zero bytes + value)
# occurs only where an address field literally contains it.  The encoding
# leaves out the integrity tag, which is opaque and may hold such bytes: a
# blackhole forges 32 zero bytes, which contain node 0's encoding.
# `_T_MISC` fences the hop-count byte, a sized slot written as 0.
_T_KIND = 0x80
_T_FWD = 0x81
_T_REV = 0x82
_T_SRC = 0x83
_T_DST = 0x84
_T_SEQ = 0x85
_T_MISC = 0x86
_T_ROUTE = 0x87

# the eight tagged 32-bit sequence fields, the misc byte (always 0) and the
# route-record header (length); then one tagged 16-bit id per route entry
_FIXED = struct.Struct(">" + "BI" * 8 + "BB" + "BB")
_ROUTE_ENTRY = struct.Struct(">BH")
_U32 = 0xFFFFFFFF
_NODE_ID_SIZE = len(encode_node_id(0))


def header_bytes(pkt: Packet) -> bytes:
    """Canonical control-header encoding without the tag field: the bytes
    the endpoints tag and the privacy scan reads.  Sequence fields keep
    their low 32 bits, the route-record length its low 8 and each route
    entry its low 16.  The hop-count byte is a sized slot written as 0: no
    handler reads a hop count, so a relay forwards a tagged reply
    unchanged."""
    parts = [bytes([_T_KIND, pkt.kind.code])]
    if pkt.forward_alias is not None:
        parts.append(bytes([_T_FWD]) + pkt.forward_alias)
    if pkt.reverse_alias is not None:
        parts.append(bytes([_T_REV]) + pkt.reverse_alias)
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
        _T_MISC, 0, _T_ROUTE, len(route) & 0xFF))
    if route:
        entry = _ROUTE_ENTRY.pack
        parts.extend([entry(_T_ROUTE, nid & 0xFFFF) for nid in route])
    return b"".join(parts)


def relayed_header(header: bytes, route: list[NodeId]) -> bytes:
    """`header_bytes` of a route request whose route record is `route`,
    built from `header`, the encoding of the request it copies, whose
    route record is `route` without its last entry.  The route record is
    the encoding's tail, so the copy rewrites the length byte before it
    and appends one entry."""
    n = len(route)
    at = len(header) - _ROUTE_ENTRY.size * (n - 1) - 1
    return b"".join((header[:at], bytes((n & 0xFF,)), header[at + 1:],
                     _ROUTE_ENTRY.pack(_T_ROUTE, route[-1] & 0xFFFF)))


def header_size(pkt: Packet) -> int:
    """Size of the header on the air: `len(header_bytes(pkt))` plus a
    trailing tag field (one field byte and the tag) when there is a tag,
    counted without encoding the header."""
    # the kind field, the fixed fields and one entry per route hop
    size = 2 + _FIXED.size + _ROUTE_ENTRY.size * len(pkt.route_record)
    if pkt.forward_alias is not None:
        size += 1 + len(pkt.forward_alias)
    if pkt.reverse_alias is not None:
        size += 1 + len(pkt.reverse_alias)
    if pkt.src_addr is not None:
        size += 1 + _NODE_ID_SIZE
    if pkt.dst_addr is not None:
        size += 1 + _NODE_ID_SIZE
    if pkt.tag:
        size += 1 + len(pkt.tag)
    return size


def packet_size(pkt: Packet) -> int:
    return header_size(pkt) + pkt.payload_size


class PathInfo:
    """A discovered path as known to the source."""

    def __init__(self, path_id: int, round: int, relays: list[NodeId],
                 dseq: int, established_at: float,
                 next_hop: Optional[NodeId] = None, broken: bool = False):
        self.path_id = path_id
        self.round = round
        self.relays = relays
        self.dseq = dseq
        self.established_at = established_at
        self.next_hop = next_hop
        self.broken = broken


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
        usable.sort(key=lambda p: (len(p.relays), p.established_at,
                                   p.path_id))
        return usable
    alive.sort(key=lambda p: (-p.dseq, len(p.relays), p.established_at,
                               p.path_id))
    return alive


def pick_disjoint_paths(candidates: list[tuple[int, float, list[NodeId]]],
                        max_paths: int, hop_slack: int
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
