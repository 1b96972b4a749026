"""Reference implementations, the naive halves of the differential tests:
each is the plain form of a computation that the simulator speeds up.
`NaiveSimulation` runs a scenario with every speed-up of `Simulation` off
at once; a later speed-up adds its naive half there."""

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, replace

from tap3sim.crypto import encode_node_id
from tap3sim.logaudit import EMPTY_ROOT, MerkleTree, NodeLog, leaf_hash
from tap3sim.routing import PacketKind, select_paths
from tap3sim.sim import (
    DRAIN_WINDOW,
    IN_FLIGHT,
    LINK_RATE_BPS,
    SPEED_OF_LIGHT,
    Mobility,
    Simulation,
    _stream,
)


def loop_header_bytes(pkt, include_tag=True):
    """The header as sent written out field by field, one byte string per
    field, with the masks spelled out, the tag field last.  `header_bytes`
    is this without the tag field; `header_size` is the length of all of
    it."""
    parts = [bytes([0x80, list(PacketKind).index(pkt.kind) + 1])]
    if pkt.forward_alias is not None:
        parts.append(bytes([0x81]) + pkt.forward_alias)
    if pkt.reverse_alias is not None:
        parts.append(bytes([0x82]) + pkt.reverse_alias)
    if pkt.src_addr is not None:
        parts.append(bytes([0x83]) + encode_node_id(pkt.src_addr))
    if pkt.dst_addr is not None:
        parts.append(bytes([0x84]) + encode_node_id(pkt.dst_addr))
    seqs = b""
    for v in (pkt.sseq, pkt.oseq, pkt.dseq, pkt.req_oseq, pkt.packet_id,
              pkt.flow_id, pkt.round, pkt.path_id):
        seqs += bytes([0x85]) + (v & 0xFFFFFFFF).to_bytes(4, "big")
    parts.append(seqs)
    parts.append(bytes([0x86, 0]))
    route = bytes([0x87, len(pkt.route_record) & 0xFF])
    for nid in pkt.route_record:
        route += bytes([0x87]) + (nid & 0xFFFF).to_bytes(2, "big")
    parts.append(route)
    if include_tag and pkt.tag:
        parts.append(bytes([0x88]) + pkt.tag)
    return b"".join(parts)


def field_by_field_encoding(e):
    """The entry encoding `leaf_hash` packs, one pack per field, joined."""
    return b"".join((
        e.node_alias,
        e.packet_id.to_bytes(8, "big"),
        bytes([e.event.value]),
        struct.pack(">q", e.sseq),
        struct.pack(">q", e.oseq),
        struct.pack(">q", e.dseq),
        e.prev_hop_alias,
        struct.pack(">d", e.timestamp),
    ))


def reference_tree(leaves):
    """From-scratch level-by-level construction: hash neighbour pairs and
    promote an odd last node unhashed.  Returns the root and every proof."""
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        level = levels[-1]
        nxt = [hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest()
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        levels.append(nxt)
    root = levels[-1][0] if leaves else EMPTY_ROOT
    proofs = []
    for index in range(len(leaves)):
        proof, i = [], index
        for level in levels[:-1]:
            if i ^ 1 < len(level):
                proof.append((level[i ^ 1], i ^ 1 < i))
            i //= 2
        proofs.append(proof)
    return root, proofs


def interior_nodes(leaves):
    """Every hashed node of the tree over `leaves`; promoted nodes are
    copied up unhashed and are not counted again."""
    level, nodes = list(leaves), set()
    while len(level) > 1:
        nxt = [hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest()
               for i in range(0, len(level) - 1, 2)]
        nodes.update(nxt)
        level = nxt + level[len(nxt) * 2:]
    return nodes


class ReferenceMobility:
    """The walker as it was kept before `Mobility` held one leg: an
    immutable state per leg, replaced by `random_waypoint_step`, and a
    separate first-leg draw."""

    @dataclass
    class State:
        position: tuple[float, float]
        waypoint: tuple[float, float]
        speed: float
        leg_start: float
        pause_until: float
        area: tuple[float, float]
        max_speed: float
        pause_time: float

    @staticmethod
    def random_waypoint_step(state, now, rng):
        wx = rng.uniform(0.0, state.area[0])
        wy = rng.uniform(0.0, state.area[1])
        speed = state.max_speed * (1.0 - rng.random())
        return replace(state, position=state.waypoint, waypoint=(wx, wy),
                       speed=speed, leg_start=now, pause_until=now)

    def __init__(self, rng, start, area, max_speed, pause_time):
        self.rng = rng
        self.static = max_speed <= 0.0
        wx = rng.uniform(0.0, area[0])
        wy = rng.uniform(0.0, area[1])
        speed = max_speed * (1.0 - rng.random()) if not self.static else 0.0
        self.state = self.State(start, (wx, wy), speed, 0.0, 0.0,
                                area, max_speed, pause_time)
        self._begin_leg()

    def _begin_leg(self):
        s = self.state
        d = math.dist(s.position, s.waypoint)
        self._length = max(d, 1e-12)
        self._arrive = (math.inf if s.speed <= 0.0
                        else s.leg_start + d / s.speed)
        self._leave = self._arrive + s.pause_time
        self._dx = s.waypoint[0] - s.position[0]
        self._dy = s.waypoint[1] - s.position[1]

    def position(self, t):
        if self.static:
            return self.state.position
        while True:
            s = self.state
            if t < self._arrive:
                frac = (t - s.leg_start) * s.speed / self._length
                if frac < 0.0:
                    frac = 0.0
                elif frac > 1.0:
                    frac = 1.0
                x, y = s.position
                return (x + frac * self._dx, y + frac * self._dy)
            if t <= self._leave:
                return s.waypoint
            self.state = self.random_waypoint_step(s, self._leave, self.rng)
            self._begin_leg()


def leg_position(m: Mobility, t: float) -> tuple[float, float]:
    """Reference: position at `t` on the current leg of `m`, recomputed
    from scratch."""
    length = math.dist(m.origin, m.waypoint)
    if t >= m.leg_start + length / m.speed:
        return m.waypoint
    frac = (t - m.leg_start) * m.speed / max(length, 1e-12)
    frac = min(max(frac, 0.0), 1.0)
    return (m.origin[0] + frac * (m.waypoint[0] - m.origin[0]),
            m.origin[1] + frac * (m.waypoint[1] - m.origin[1]))


class _DirectionIndex:
    """The per-direction trapdoor index this package used to have, kept as
    the reference for the one-chain `TrapdoorIndex`: state keyed by a
    direction label, matches reported as (direction, chain index)."""

    def __init__(self, window):
        self.window = window
        self.entries = {}
        self._chains = {}
        self._low = {}

    def track(self, chain, direction):
        self._low[direction] = chain.index
        c = chain
        for _ in range(self.window):
            self.entries[c.current] = (direction, c.index)
            c = c.advanced()
        self._chains[direction] = c

    def check(self, candidate):
        match = self.entries.get(candidate)
        if match is None:
            return None
        direction, index = match
        low = self._low.get(direction, 1)
        if index - low >= self.window // 2:
            chain = self._chains[direction]
            for _ in range(index - low):
                self.entries[chain.current] = (direction, chain.index)
                chain = chain.advanced()
            self._chains[direction] = chain
            self._low[direction] = index
        return match


class NaiveSnapshot:
    """A published log that proves each claim by `MerkleTree.proof` and a
    full `MerkleTree.verify` walk: no fused walk, no verified nodes."""

    def __init__(self, log, size):
        self.log, self.size, self.root = log, size, log.tree.root_at(size)

    def proves(self, packet_id, event):
        index = self.log.claim_index(packet_id, event, self.size)
        return index is not None and MerkleTree.verify(
            self.root, leaf_hash(self.log.entries[index]),
            self.log.tree.proof(index, self.size))


class NaiveLog(NodeLog):
    def publish(self):
        return NaiveSnapshot(self, len(self.entries))


class NaiveSimulation(Simulation):
    """`Simulation` with every speed-up off: every node in range gets every
    route-request copy; every frame is sized from its encoded header at
    every hop, and a pseudonymous control frame's `Packet.header`, which
    the privacy scan and the source's tag check read, is encoded afresh
    at every hop, never derived from a parent's; receptions and CBR sends
    go through `schedule`, all of a flow's sends at its start; usable
    paths are selected afresh; nodes walk `ReferenceMobility`; and the
    evidence logs publish `NaiveSnapshot`s."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        cfg = self.config
        for node in self.nodes:
            node.mobility = ReferenceMobility(
                _stream(cfg.rng_seed, f"mob{node.id}"), node.mobility.origin,
                (cfg.area_x, cfg.area_y), cfg.max_speed, cfg.pause_time)
            if node.log is not None:
                node.log = NaiveLog()

    def transmit(self, sender, to, pkt, control):
        nodes, now = self.nodes, self.now
        node, here = nodes[sender], nodes[sender].mobility.position(now)
        heard = [(n, d) for n in (range(len(nodes)) if to is None else [to])
                 if n != sender and (d := math.dist(
                     here, nodes[n].mobility.position(now)))
                 <= self.config.radio_range]
        if to is not None and not heard:
            return False
        start = max(self.now, node.busy_until)
        size = len(loop_header_bytes(pkt)) + pkt.payload_size
        ttx = size * 8.0 / LINK_RATE_BPS
        node.busy_until = start + ttx
        if control:
            self.result.control_tx += 1
        else:
            self.result.data_tx += 1
        if (control and self.uses_pseudonyms
                and pkt.kind is not PacketKind.RERR):
            pkt.header = loop_header_bytes(pkt, include_tag=False)
        if control and self.check_privacy:
            self._privacy_scan(pkt)
        if self.trace:
            self._trace(start, pkt, sender, -1 if to is None else to, size)
        for n, d in heard:
            self.schedule(start + ttx + d / SPEED_OF_LIGHT,
                          functools.partial(self.dispatch, n, pkt, sender))
        return True

    def schedule_cbr(self, flow, t):
        while t < self.config.sim_duration - DRAIN_WINDOW:
            self.schedule(t, functools.partial(self.app_send, flow))
            t += 1.0 / self.config.pkt_rate

    def app_send(self, flow):
        pid = self.new_pid()
        self.packet_state[pid] = IN_FLIGHT
        self._send_or_buffer(flow, pid, self.now)

    def _usable_paths(self, flow):
        return select_paths(flow.paths, flow.suspects, self.config.protocol)
