"""Deterministic discrete-event simulation of mobile nodes running TAP3
or one of the two baseline multipath protocols, with attack injection.

Model: unit-disk links with a 2 Mb/s shared per-node transmit queue,
propagation at c, random-waypoint mobility, CBR/UDP flows.  One run is
single-threaded and fully determined by (config, seed).
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

from . import logaudit, seqmon
from .crypto import (
    ChainDirection,
    MasterKey,
    Pseudonym,
    PseudonymChain,
    TrapdoorIndex,
    derive_pairwise_key,
    encode_node_id,
    hmac_tag,
    trapdoor_check,
    verify_hmac,
)
from .logaudit import EventKind, LogEntry, NodeLog
from .routing import (
    Packet,
    PacketKind,
    PathInfo,
    ProtocolKind,
    RouteEntry,
    header_bytes,
    packet_size,  # noqa: F401 -- benchmarks/probes.py wraps it here
    pick_disjoint_paths,
    select_paths,
)

LINK_RATE_BPS = 2_000_000.0
SPEED_OF_LIGHT = 3.0e8
REBROADCAST_JITTER = 0.005
RREP_COLLECT_WINDOW = 0.03
RREP_WAIT = 0.5
ROUTE_REFRESH = 30.0          # pseudonym-rotation schedule (TAP3)
BASELINE_ROUTE_TIMEOUT = 10.0  # classic AODV active-route timeout
BACKOFF_START = 1.0
BACKOFF_CAP = 8.0
AUDIT_PERIOD = 25.0
AUDIT_SETTLE = 1.0
TRAIN_FRACTION = 0.10
MAX_PATHS = 3
HOP_SLACK = 1
SEND_BUFFER_CAP = 50
MIN_TRAIN_SAMPLES = 6
DRAIN_WINDOW = 2.0
TRAPDOOR_WINDOW = 16


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class AttackKind(Enum):
    BLACK_HOLE = "blackhole"
    SEQ_INFLATION = "seqinflation"
    PASSIVE_DROP = "passivedrop"
    LOG_FORGERY = "logforgery"


ACTIVE_ATTACKS = {AttackKind.BLACK_HOLE, AttackKind.SEQ_INFLATION,
                  AttackKind.LOG_FORGERY}


@dataclass(frozen=True)
class AttackerSpec:
    node_id: int
    kind: AttackKind
    param: float


@dataclass
class ScenarioConfig:
    area_x: float = 300.0
    area_y: float = 300.0
    node_count: int = 30
    max_speed: float = 25.0
    pause_time: float = 0.0
    sim_duration: float = 200.0
    flows: int = 4
    pkt_rate: float = 4.0
    pkt_size: int = 256
    radio_range: float = 250.0
    protocol: ProtocolKind = ProtocolKind.TAP3
    rng_seed: int = 1
    attackers: list[AttackerSpec] = field(default_factory=list)

    def validate(self) -> None:
        bad = [f"{name} must be finite" for name in _NUMERIC_FIELDS
               if not _finite(getattr(self, name))]
        for name in ("area_x", "area_y", "node_count", "max_speed",
                     "sim_duration", "pkt_rate", "pkt_size", "radio_range"):
            v = getattr(self, name)
            if _finite(v) and (v < 0 or (v == 0 and name != "max_speed")):
                bad.append(f"{name} must be positive")
        if self.flows < 0:
            bad.append("flows must be non-negative")
        if (_finite(self.pause_time) and _finite(self.sim_duration)
                and not 0 <= self.pause_time <= self.sim_duration):
            bad.append("pause_time must lie in [0, sim_duration]")
        if self.node_count < 2:
            bad.append("node_count must be at least 2")
        ids = [a.node_id for a in self.attackers]
        if len(set(ids)) != len(ids):
            bad.append("attackers must name distinct nodes")
        for a in self.attackers:
            if not 0 <= a.node_id < self.node_count:
                bad.append(f"attacker {a.node_id} outside node set")
            if not _finite(a.param):
                bad.append(f"attacker {a.node_id} parameter must be finite")
            elif a.kind is AttackKind.PASSIVE_DROP and not 0 < a.param <= 1:
                bad.append("passivedrop fraction must be in (0, 1]")
            elif a.kind is not AttackKind.PASSIVE_DROP and a.param <= 0:
                bad.append(f"{a.kind.value} parameter must be > 0")
        if self.node_count - len(self.attackers) < 2 * self.flows:
            bad.append("not enough honest nodes for the requested flows")
        if self.rng_seed < 0 or self.rng_seed >= 2 ** 64:
            bad.append("rng_seed must be a 64-bit unsigned integer")
        if bad:
            raise ConfigError(bad)


_NUMERIC_FIELDS = ("area_x", "area_y", "node_count", "max_speed",
                   "pause_time", "sim_duration", "flows", "pkt_rate",
                   "pkt_size", "radio_range", "rng_seed")


def _finite(v) -> bool:
    """False for an infinite or NaN float: `float()` parses "inf" and
    "nan", which no range check catches (NaN compares false to anything)
    and which make a run loop forever or fail mid-way."""
    return not isinstance(v, float) or math.isfinite(v)


_PROTO_BY_NAME = {p.value: p for p in ProtocolKind}


def parse_config(text: str) -> ScenarioConfig:
    """Line-based `key = value` scenario file; unknown keys are errors."""
    cfg = ScenarioConfig()
    problems = []
    fields = {f: type(getattr(cfg, f)) for f in _NUMERIC_FIELDS}
    cfg.attackers = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value")
            continue
        key, _, value = (s.strip() for s in line.partition("="))
        if key == "protocol":
            if value not in _PROTO_BY_NAME:
                problems.append(f"line {lineno}: unknown protocol {value!r}")
            else:
                cfg.protocol = _PROTO_BY_NAME[value]
        elif key == "attacker":
            try:
                nid, kind, param = value.split(":")
                cfg.attackers.append(AttackerSpec(int(nid), AttackKind(kind),
                                                  float(param)))
            except ValueError:
                problems.append(f"line {lineno}: attacker must be id:kind:param")
        elif key in fields:
            try:
                setattr(cfg, key, fields[key](value))
            except ValueError:
                problems.append(f"line {lineno}: bad value for {key}")
        else:
            problems.append(f"line {lineno}: unknown key {key!r}")
    if problems:
        raise ConfigError(problems)
    return cfg


# ---------------------------------------------------------------------------
# mobility

@dataclass
class MobilityState:
    position: tuple[float, float]
    waypoint: tuple[float, float]
    speed: float
    leg_start: float
    pause_until: float
    area: tuple[float, float]
    max_speed: float
    pause_time: float


def random_waypoint_step(state: MobilityState, now: float,
                         rng: random.Random) -> MobilityState:
    """Begin the next movement leg: the node sits at its waypoint, draws a
    fresh uniform waypoint and a speed in (0, max_speed]."""
    wx = rng.uniform(0.0, state.area[0])
    wy = rng.uniform(0.0, state.area[1])
    speed = state.max_speed * (1.0 - rng.random())  # (0, max_speed]
    return replace(state, position=state.waypoint, waypoint=(wx, wy),
                   speed=speed, leg_start=now, pause_until=now)


class Mobility:
    """Random-waypoint movement of one node.  `position(t)` must be asked
    for non-decreasing `t`; the legs a node walks depend only on its rng,
    never on which times are asked for."""

    def __init__(self, rng: random.Random, start: tuple[float, float],
                 area: tuple[float, float], max_speed: float,
                 pause_time: float):
        self.rng = rng
        self.static = max_speed <= 0.0
        wx = rng.uniform(0.0, area[0])
        wy = rng.uniform(0.0, area[1])
        speed = max_speed * (1.0 - rng.random()) if not self.static else 0.0
        self.state = MobilityState(start, (wx, wy), speed, 0.0, 0.0,
                                   area, max_speed, pause_time)
        self._begin_leg()

    def _begin_leg(self) -> None:
        """Constants of the current leg: its length (floored to keep the
        interpolation finite), the arrival time and the end of the pause."""
        s = self.state
        d = math.dist(s.position, s.waypoint)
        self._length = max(d, 1e-12)
        self._arrive = (math.inf if s.speed <= 0.0
                        else s.leg_start + d / s.speed)
        self._leave = self._arrive + s.pause_time
        self._dx = s.waypoint[0] - s.position[0]
        self._dy = s.waypoint[1] - s.position[1]

    def position(self, t: float) -> tuple[float, float]:
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
            self.state = random_waypoint_step(s, self._leave, self.rng)
            self._begin_leg()


# ---------------------------------------------------------------------------
# per-node / per-flow state

@dataclass
class RevEntry:
    prev_hop: int
    rreq_dseq: int
    rreq_pid: int


@dataclass
class DestFlowState:
    trapdoor: Optional[TrapdoorIndex]
    static_pd: Optional[Pseudonym]
    dseq: int = 0
    candidates: dict[int, list] = field(default_factory=dict)
    reply_scheduled: set[int] = field(default_factory=set)
    rreq_info: dict[int, Packet] = field(default_factory=dict)


class SimNode:
    def __init__(self, nid: int, mobility: Mobility, log_alias: Pseudonym,
                 attacker: Optional[AttackerSpec]):
        self.id = nid
        self.mobility = mobility
        self.log_alias = log_alias
        self.attacker = attacker
        self.busy_until = 0.0
        self.oseq = 0
        self.max_dseq_seen = 0
        self.freshest_dseq: dict[int, int] = {}
        self.seen_rreq: set[tuple] = set()
        self.rev_routes: dict[tuple, RevEntry] = {}
        self.fwd_routes: dict[tuple, RouteEntry] = {}
        self.dest_flows: dict[int, DestFlowState] = {}
        self.log = NodeLog()
        self.window = seqmon.TrainingWindow()
        self.batch: list[seqmon.SeqVector] = []
        self.next_merge = math.inf
        self.prev_counters: dict[tuple, tuple[int, int]] = {}
        self.log_duplicates = 0

    def ignores_rreq(self, key: tuple, flow_id: int) -> bool:
        """True when a route request with this key would change nothing
        here: the node already holds the key and is not the flow's
        destination, so it drops the copy (RFC 3561 section 6.5).  The
        set of held keys only grows, so a copy that is inert when it is
        sent is still inert when it arrives.  Skipping the copy also
        skips raising `max_dseq_seen` to its `dseq`, which is sound
        because every copy of one key carries the same `dseq` and a node
        raised the field to it when it took the key."""
        return key in self.seen_rreq and flow_id not in self.dest_flows

    def log_event(self, pid: int, event: EventKind, pkt: Packet, now: float,
                  prev_alias: Pseudonym, forge: bool = False) -> None:
        real_pid = pid + 1_000_000 if forge else pid
        entry = LogEntry(self.log_alias, real_pid, event, pkt.sseq, pkt.oseq,
                         pkt.dseq, prev_alias, now)
        try:
            self.log.append(entry)
        except logaudit.DuplicateEntryError:
            self.log_duplicates += 1


@dataclass
class Flow:
    flow_id: int
    src: int
    dst: int
    key: object
    start_time: float
    ps_chain: PseudonymChain
    pd_chain: PseudonymChain
    sseq: int = 0
    round: int = 0
    last_known_dseq: int = 0
    paths: list[PathInfo] = field(default_factory=list)
    rr_index: int = 0
    pending: deque = field(default_factory=deque)
    backoff: float = BACKOFF_START
    discovery_outstanding: Optional[int] = None
    suspects: set[int] = field(default_factory=set)
    tau_c_control: dict[int, list[LogEntry]] = field(default_factory=dict)
    audit_queue: dict[tuple, dict] = field(default_factory=dict)
    sent: int = 0
    delivered: int = 0


@dataclass
class RunResult:
    config: ScenarioConfig
    sent: int = 0
    delivered: int = 0
    lost_link: int = 0
    dropped_attack: int = 0
    dropped_noroute: int = 0
    buffered_end: int = 0
    in_flight_end: int = 0
    control_tx: int = 0
    data_tx: int = 0
    delays: list[float] = field(default_factory=list)
    packet_rows: list[str] = field(default_factory=list)
    verdict_rows: list[str] = field(default_factory=list)
    audit_rows: list[str] = field(default_factory=list)
    privacy_checks: int = 0
    privacy_violations: int = 0
    classifier_flags: set[tuple[int, int]] = field(default_factory=set)
    audit_active: set[int] = field(default_factory=set)
    audit_passive: set[int] = field(default_factory=set)
    positions_ok: bool = True
    audit_export: Optional[dict] = None
    log_duplicates: int = 0     # evidence-log appends refused as duplicates


def _stream(seed: int, tag: str) -> random.Random:
    digest = hashlib.sha256(seed.to_bytes(8, "big") + tag.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class Simulation:
    """One deterministic scenario run."""

    def __init__(self, config: ScenarioConfig, trace: bool = False,
                 positions: Optional[list[tuple[float, float]]] = None,
                 check_privacy: bool = False):
        config.validate()
        self.config = config
        self.trace = trace
        self.check_privacy = check_privacy and config.protocol.uses_pseudonyms
        self.now = 0.0
        self._positions_at = -math.inf
        self._positions: list[Optional[tuple[float, float]]] = []
        self._events: list = []
        self._event_seq = 0
        self._next_pid = 0
        self.result = RunResult(config)
        self.train_end = TRAIN_FRACTION * config.sim_duration
        self.attack_start = self.train_end
        seed = config.rng_seed
        self.rng_attack = _stream(seed, "attack")
        self.rng_jitter = _stream(seed, "jitter")

        rng_pos = _stream(seed, "positions")
        if positions is None:
            positions = [(rng_pos.uniform(0, config.area_x),
                          rng_pos.uniform(0, config.area_y))
                         for _ in range(config.node_count)]
        attackers = {a.node_id: a for a in config.attackers}
        self.nodes: list[SimNode] = []
        for i in range(config.node_count):
            alias = Pseudonym(hashlib.sha256(
                b"node-alias" + seed.to_bytes(8, "big") + encode_node_id(i)
            ).digest())
            mob = Mobility(_stream(seed, f"mob{i}"), positions[i],
                           (config.area_x, config.area_y),
                           config.max_speed, config.pause_time)
            self.nodes.append(SimNode(i, mob, alias, attackers.get(i)))

        self.masters = [MasterKey.from_seed(seed, i)
                        for i in range(config.node_count)]
        self.flows: list[Flow] = []
        self._setup_flows(positions, set(attackers))
        self.packet_state: dict[int, str] = {}
        self._flow_of_pid: dict[int, int] = {}
        self._audit_records: list[dict] = []

    # -- setup --------------------------------------------------------------

    def _setup_flows(self, positions, attacker_ids):
        cfg = self.config
        eligible = [i for i in range(cfg.node_count) if i not in attacker_ids]
        pairs = sorted(
            ((math.dist(positions[a], positions[b]), a, b)
             for i, a in enumerate(eligible) for b in eligible[i + 1:]),
            key=lambda t: (-t[0], t[1], t[2]))
        used: set[int] = set()
        chosen = []
        for _, a, b in pairs:
            if a in used or b in used:
                continue
            chosen.append((a, b))
            used.update((a, b))
            if len(chosen) == cfg.flows:
                break
        for fid, (src, dst) in enumerate(chosen):
            key = derive_pairwise_key(self.masters[dst], src, dst)
            ps = PseudonymChain.start(key, src, ChainDirection.FORWARD_OF_SOURCE)
            pd = PseudonymChain.start(key, dst, ChainDirection.FORWARD_OF_DESTINATION)
            flow = Flow(fid, src, dst, key, 1.0 + 0.25 * fid, ps, pd)
            self.flows.append(flow)
            dest_state = DestFlowState(trapdoor=None, static_pd=None)
            if cfg.protocol is ProtocolKind.TAP3:
                dest_state.trapdoor = TrapdoorIndex(TRAPDOOR_WINDOW)
                dest_state.trapdoor.track(pd)
            elif cfg.protocol is ProtocolKind.S_MPRF:
                dest_state.static_pd = pd.current
            self.nodes[dst].dest_flows[fid] = dest_state

    # -- event machinery ----------------------------------------------------

    def schedule(self, t: float, fn: Callable[[], None]) -> None:
        self._event_seq += 1
        heapq.heappush(self._events, (t, self._event_seq, fn))

    def new_pid(self) -> int:
        self._next_pid += 1
        return self._next_pid

    def position(self, nid: int) -> tuple[float, float]:
        """Where node `nid` is at `self.now`.  Positions are kept until the
        clock moves, which is sound because it never moves back (see
        `run`)."""
        if self._positions_at != self.now:
            self._positions_at = self.now
            self._positions = [None] * len(self.nodes)
        pos = self._positions[nid]
        if pos is None:
            pos = self._positions[nid] = \
                self.nodes[nid].mobility.position(self.now)
        return pos

    def link(self, a: int, b: int) -> tuple[bool, float]:
        d = math.dist(self.position(a), self.position(b))
        return d <= self.config.radio_range, d

    def _privacy_scan(self, pkt: Packet, hdr: bytes) -> None:
        if pkt.kind not in (PacketKind.RREQ, PacketKind.RREP,
                            PacketKind.RREP_ACK):
            return
        flow = self.flows[pkt.flow_id]
        self.result.privacy_checks += 1
        for nid in (flow.src, flow.dst):
            if encode_node_id(nid) in hdr:
                self.result.privacy_violations += 1

    def _trace(self, t: float, pkt: Packet, frm: int, to: int,
               size: int) -> None:
        if self.trace:
            self.result.packet_rows.append(
                f"{t:.6f},{pkt.kind.value},{frm},{to},{pkt.packet_id},"
                f"{pkt.path_id},{size}")

    def transmit(self, sender: int, to: Optional[int], pkt: Packet,
                 control: bool) -> bool:
        """Queue a frame on the sender's radio.  Unicast returns False when
        the next hop is out of range (link-layer sensing).  A broadcast is
        always a route request; it reaches every in-range neighbor except
        one that would ignore it (`SimNode.ignores_rreq`), whose position
        is then not even looked up.  Such a copy would only be dropped on
        arrival, so leaving it unscheduled changes no state, and every
        other event keeps its time and its order.  Every receiver gets
        `pkt` itself: frames are read-only once transmitted (see
        `Packet`).  The header is encoded once, for the size, the privacy
        scan and the trace."""
        if to is None and pkt.kind is not PacketKind.RREQ:
            raise ValueError(f"cannot broadcast a {pkt.kind.value} frame")
        node = self.nodes[sender]
        start = max(self.now, node.busy_until)
        hdr = header_bytes(pkt)
        size = len(hdr) + pkt.payload_size
        ttx = size * 8.0 / LINK_RATE_BPS
        if to is not None:
            ok, dist = self.link(sender, to)
            if not ok:
                return False
        node.busy_until = start + ttx
        if control:
            self.result.control_tx += 1
        else:
            self.result.data_tx += 1
        if self.check_privacy:
            self._privacy_scan(pkt, hdr)
        self._trace(start, pkt, sender, -1 if to is None else to, size)
        if to is None:
            key = self._rreq_key(pkt)
            flow_id = pkt.flow_id
            here = self.position(sender)
            radio_range = self.config.radio_range
            for other, rx in enumerate(self.nodes):
                if other == sender or rx.ignores_rreq(key, flow_id):
                    continue
                dist = math.dist(here, self.position(other))
                if dist <= radio_range:
                    arrival = start + ttx + dist / SPEED_OF_LIGHT
                    self.schedule(arrival, self._receiver(other, pkt, sender))
        else:
            arrival = start + ttx + dist / SPEED_OF_LIGHT
            self.schedule(arrival, self._receiver(to, pkt, sender))
        return True

    def _receiver(self, nid: int, pkt: Packet, frm: int):
        def handler():
            self.dispatch(nid, pkt, frm)
        return handler

    def dispatch(self, nid: int, pkt: Packet, frm: int) -> None:
        node = self.nodes[nid]
        if pkt.kind is PacketKind.RREQ:
            self.on_rreq(node, pkt, frm)
        elif pkt.kind is PacketKind.RREP:
            self.on_rrep(node, pkt, frm)
        elif pkt.kind is PacketKind.RREP_ACK:
            self.on_rrep_ack(node, pkt, frm)
        elif pkt.kind is PacketKind.DATA:
            self.on_data(node, pkt, frm)
        elif pkt.kind is PacketKind.RERR:
            self.on_rerr(node, pkt, frm)

    # -- sequence monitor ---------------------------------------------------

    def monitor_sample(self, node: SimNode, flow_id: int, kind: PacketKind,
                       sseq: int, oseq: int, delta: float
                       ) -> Optional[seqmon.Verdict]:
        """Monitor features are the increments of the header counters over
        the previous control packet of the same flow and kind, which keeps
        the training distribution stationary while an inflated sequence
        number still shows up as a large jump."""
        key = (flow_id, kind)
        prev = node.prev_counters.get(key)
        node.prev_counters[key] = (sseq, oseq)
        if prev is None:
            return None
        sample = seqmon.SeqVector(sseq - prev[0], oseq - prev[1], delta)
        return self.observe_sample(node, sample)

    def observe_sample(self, node: SimNode, sample: seqmon.SeqVector
                       ) -> Optional[seqmon.Verdict]:
        """Feed one control-packet sample to a node's detector.  Returns a
        verdict once the window is trained, None while still learning."""
        if self.config.protocol is not ProtocolKind.TAP3:
            return None
        if self.now < self.train_end:
            node.window.samples.append(sample)
            return None
        if not node.window.trained:
            if len(node.window.samples) < MIN_TRAIN_SAMPLES:
                node.window.samples.append(sample)
                return None
            node.window.train()
            node.next_merge = self.now + self.train_end
        verdict = seqmon.classify(sample, node.window)
        if self.trace:
            self.result.verdict_rows.append(seqmon.verdict_csv_row(
                node.id, sample, verdict, node.window.threshold))
        if verdict.label is seqmon.Label.NORMAL:
            node.batch.append(sample)
        if self.now >= node.next_merge and node.batch:
            node.window = seqmon.advance_window(node.window, node.batch)
            node.batch = []
            node.next_merge = self.now + self.train_end
        return verdict

    def flag(self, flagger: int, suspect: int) -> None:
        if self.config.protocol.trust_layer:
            self.result.classifier_flags.add((flagger, suspect))

    # -- route discovery ----------------------------------------------------

    @property
    def refresh_period(self) -> float:
        if self.config.protocol is ProtocolKind.TAP3:
            return ROUTE_REFRESH
        return BASELINE_ROUTE_TIMEOUT

    def start_flow(self, flow: Flow) -> None:
        self.start_discovery(flow)
        self.schedule_cbr(flow, flow.start_time)
        self.schedule(flow.start_time + self.refresh_period,
                      lambda: self.refresh_route(flow))
        if self.config.protocol is ProtocolKind.TAP3:
            self.schedule(flow.start_time + AUDIT_PERIOD,
                          lambda: self.audit_tick(flow))

    def refresh_route(self, flow: Flow) -> None:
        if self.now + DRAIN_WINDOW < self.config.sim_duration:
            self.start_discovery(flow)
            self.schedule(self.now + self.refresh_period,
                          lambda: self.refresh_route(flow))

    def start_discovery(self, flow: Flow) -> None:
        cfg = self.config
        flow.round += 1
        rnd = flow.round
        flow.sseq += 1
        src_node = self.nodes[flow.src]
        src_node.oseq += 1
        if cfg.protocol.rotates_aliases and rnd > 1:
            flow.ps_chain = flow.ps_chain.advanced()
            flow.pd_chain = flow.pd_chain.advanced()
        pid = self.new_pid()
        pkt = Packet(PacketKind.RREQ, flow.flow_id, pid, round=rnd,
                     sseq=flow.sseq, oseq=src_node.oseq,
                     dseq=flow.last_known_dseq)
        if cfg.protocol.uses_pseudonyms:
            pkt.forward_alias = flow.pd_chain.current
            pkt.reverse_alias = flow.ps_chain.current
        else:
            pkt.src_addr = flow.src
            pkt.dst_addr = flow.dst
        flow.tau_c_control[rnd] = [LogEntry(
            src_node.log_alias, pid, EventKind.FORWARDED, pkt.sseq, pkt.oseq,
            pkt.dseq, src_node.log_alias, self.now)]
        src_node.seen_rreq.add(self._rreq_key(pkt))
        src_node.max_dseq_seen = max(src_node.max_dseq_seen, pkt.dseq)
        flow.discovery_outstanding = rnd
        self.transmit(flow.src, None, pkt, control=True)
        self.schedule(self.now + RREP_WAIT, lambda: self.discovery_check(flow, rnd))

    def discovery_check(self, flow: Flow, rnd: int) -> None:
        if flow.round != rnd or flow.discovery_outstanding != rnd:
            return
        if any(p.round == rnd for p in flow.paths):
            return
        # this round produced nothing; retry with backoff if traffic waits
        if flow.pending or not [p for p in flow.paths if not p.broken]:
            delay = flow.backoff
            flow.backoff = min(flow.backoff * 2.0, BACKOFF_CAP)
            if self.now + delay < self.config.sim_duration:
                self.schedule(self.now + delay,
                              lambda: self.start_discovery(flow))

    def _rreq_key(self, pkt: Packet) -> tuple:
        token = (pkt.reverse_alias.digest if pkt.reverse_alias is not None
                 else pkt.src_addr)
        return (token, pkt.oseq)

    def _is_destination(self, node: SimNode, pkt: Packet) -> bool:
        if pkt.dst_addr is not None:
            return node.id == pkt.dst_addr
        ds = node.dest_flows.get(pkt.flow_id)
        if ds is None:
            return False
        if ds.trapdoor is not None:
            return trapdoor_check(ds.trapdoor, pkt.forward_alias) is not None
        return ds.static_pd == pkt.forward_alias

    def on_rreq(self, node: SimNode, pkt: Packet, frm: int) -> None:
        key = self._rreq_key(pkt)
        if node.ignores_rreq(key, pkt.flow_id):
            return
        first_copy = key not in node.seen_rreq
        node.max_dseq_seen = max(node.max_dseq_seen, pkt.dseq)
        flow = self.flows[pkt.flow_id]
        if self._is_destination(node, pkt):
            ds = node.dest_flows[pkt.flow_id]
            cands = ds.candidates.setdefault(pkt.round, [])
            cands.append((pkt.hop_count, self.now, list(pkt.route_record)))
            ds.rreq_info.setdefault(pkt.round, pkt)
            if pkt.round not in ds.reply_scheduled:
                ds.reply_scheduled.add(pkt.round)
                self.schedule(self.now + RREP_COLLECT_WINDOW,
                              lambda: self.dest_reply(node, flow, pkt.round))
            return
        if not first_copy:
            return
        node.seen_rreq.add(key)
        node.rev_routes[(pkt.flow_id, pkt.round)] = RevEntry(
            frm, pkt.dseq, pkt.packet_id)
        atk = node.attacker
        if (atk and atk.kind is AttackKind.BLACK_HOLE
                and self.now >= self.attack_start):
            self._blackhole_reply(node, pkt, frm)
        fwd = pkt.copy()
        fwd.hop_count += 1
        fwd.route_record.append(node.id)
        jitter = self.rng_jitter.uniform(0.0, REBROADCAST_JITTER)
        self.schedule(self.now + jitter,
                      lambda: self.transmit(node.id, None, fwd, control=True))

    def _blackhole_reply(self, node: SimNode, rreq: Packet, frm: int) -> None:
        """Claim to be the target with a fresher-than-anything sequence
        number and a short hop count."""
        node.oseq += 1
        forged = Packet(PacketKind.RREP, rreq.flow_id, self.new_pid(),
                        round=rreq.round, sseq=rreq.sseq, oseq=node.oseq,
                        dseq=node.max_dseq_seen + int(node.attacker.param),
                        req_oseq=rreq.oseq, path_id=90 + node.id,
                        route_record=list(rreq.route_record))
        if rreq.reverse_alias is not None:
            forged.forward_alias = rreq.reverse_alias
            forged.reverse_alias = rreq.forward_alias
            forged.tag = b"\x00" * 32
        else:
            forged.src_addr = rreq.src_addr
            forged.dst_addr = rreq.dst_addr
        self.transmit(node.id, frm, forged, control=True)

    def _rrep_tag_payload(self, pkt: Packet) -> bytes:
        c = pkt.copy()
        c.hop_count = 0
        c.tag = b""
        return header_bytes(c, include_tag=False)

    def dest_reply(self, node: SimNode, flow: Flow, rnd: int) -> None:
        ds = node.dest_flows.get(flow.flow_id) if flow.dst == node.id else None
        if ds is None:
            return
        cands = ds.candidates.pop(rnd, [])
        if not cands:
            return
        rreq = ds.rreq_info[rnd]
        chosen = pick_disjoint_paths(cands, MAX_PATHS, HOP_SLACK)
        replied_pid = rreq.packet_id
        if self.config.protocol is ProtocolKind.TAP3:
            node.log_event(replied_pid, EventKind.RECEIVED, rreq, self.now,
                           node.log_alias)
            node.log_event(replied_pid, EventKind.REPLIED, rreq, self.now,
                           node.log_alias)
        for idx, relays in enumerate(chosen):
            ds.dseq += 1
            node.oseq += 1
            rrep = Packet(PacketKind.RREP, flow.flow_id, self.new_pid(),
                          round=rnd, sseq=rreq.sseq, oseq=node.oseq,
                          dseq=ds.dseq, req_oseq=rreq.oseq, path_id=idx,
                          route_record=list(relays))
            if self.config.protocol.uses_pseudonyms:
                rrep.forward_alias = rreq.reverse_alias
                rrep.reverse_alias = rreq.forward_alias
                rrep.tag = hmac_tag(flow.key, self._rrep_tag_payload(rrep))
            else:
                rrep.src_addr = rreq.src_addr
                rrep.dst_addr = rreq.dst_addr
            nxt = relays[-1] if relays else flow.src
            self.transmit(node.id, nxt, rrep, control=True)

    def on_rrep(self, node: SimNode, pkt: Packet, frm: int) -> None:
        flow = self.flows[pkt.flow_id]
        if node.id == flow.src:
            self._source_accept(flow, node, pkt, frm)
            return
        rev = node.rev_routes.get((pkt.flow_id, pkt.round))
        if rev is None:
            return
        baseline = max(rev.rreq_dseq, node.freshest_dseq.get(pkt.flow_id, 0))
        delta = pkt.dseq - baseline
        verdict = self.monitor_sample(node, pkt.flow_id, PacketKind.RREP,
                                      pkt.sseq, pkt.oseq, delta)
        if verdict is not None and verdict.label is seqmon.Label.MALICIOUS:
            self.flag(node.id, frm)
            return
        node.freshest_dseq[pkt.flow_id] = max(
            node.freshest_dseq.get(pkt.flow_id, 0), pkt.dseq)
        atk = node.attacker
        if (atk and atk.kind is AttackKind.SEQ_INFLATION
                and self.now >= self.attack_start):
            pkt = pkt.copy()
            pkt.dseq += int(atk.param)
        node.fwd_routes[(pkt.flow_id, pkt.round, pkt.path_id)] = RouteEntry(
            frm, rev.prev_hop, pkt.path_id, self.now)
        fwd = pkt.copy()
        fwd.hop_count += 1
        self.transmit(node.id, rev.prev_hop, fwd, control=True)

    def _source_accept(self, flow: Flow, node: SimNode, pkt: Packet,
                       frm: int) -> None:
        if pkt.round != flow.round:
            return
        if self.config.protocol.verifies_tags:
            if not verify_hmac(flow.key, self._rrep_tag_payload(pkt), pkt.tag):
                self.flag(flow.src, frm)
                return
        delta = pkt.dseq - flow.last_known_dseq
        if self.config.protocol.verifies_tags:
            # the tag proves the value came from the true destination, so it
            # refreshes the baseline even if the classifier rejects the path
            flow.last_known_dseq = max(flow.last_known_dseq, pkt.dseq)
        verdict = self.monitor_sample(node, pkt.flow_id, PacketKind.RREP,
                                      pkt.sseq, pkt.oseq, delta)
        if verdict is not None and verdict.label is seqmon.Label.MALICIOUS:
            self.flag(flow.src, frm)
            return
        if flow.discovery_outstanding == pkt.round:
            flow.discovery_outstanding = None
            flow.paths = [p for p in flow.paths if p.round == pkt.round]
            flow.backoff = BACKOFF_START
        path = PathInfo(pkt.path_id, pkt.round, list(pkt.route_record),
                        pkt.dseq, self.now, next_hop=frm)
        if any(p.path_id == path.path_id and p.round == path.round
               for p in flow.paths):
            return
        flow.paths.append(path)
        flow.last_known_dseq = max(flow.last_known_dseq, pkt.dseq)
        ack = Packet(PacketKind.RREP_ACK, flow.flow_id, self.new_pid(),
                     round=pkt.round, path_id=pkt.path_id,
                     forward_alias=pkt.reverse_alias if
                     self.config.protocol.uses_pseudonyms else None,
                     dst_addr=None if self.config.protocol.uses_pseudonyms
                     else flow.dst)
        if self.config.protocol.uses_pseudonyms:
            ack.tag = hmac_tag(flow.key, header_bytes(ack, include_tag=False))
        self.transmit(flow.src, frm, ack, control=True)
        self._flush_pending(flow)

    def on_rrep_ack(self, node: SimNode, pkt: Packet, frm: int) -> None:
        flow = self.flows[pkt.flow_id]
        if node.id == flow.dst:
            return
        entry = node.fwd_routes.get((pkt.flow_id, pkt.round, pkt.path_id))
        if entry is not None:
            self.transmit(node.id, entry.next_hop, pkt, control=True)

    # -- data plane ---------------------------------------------------------

    def schedule_cbr(self, flow: Flow, t: float) -> None:
        period = 1.0 / self.config.pkt_rate
        while t < self.config.sim_duration - DRAIN_WINDOW:
            self.schedule(t, lambda f=flow: self.app_send(f))
            t += period

    def app_send(self, flow: Flow) -> None:
        pid = self.new_pid()
        flow.sent += 1
        self.result.sent += 1
        self.packet_state[pid] = "in_flight"
        self._flow_of_pid[pid] = flow.flow_id
        self._send_or_buffer(flow, pid, self.now)

    def _usable_paths(self, flow: Flow) -> list[PathInfo]:
        return select_paths(flow.paths, flow.suspects, self.config.protocol)

    def _send_or_buffer(self, flow: Flow, pid: int, origin: float) -> None:
        usable = self._usable_paths(flow)
        while usable:
            if self.config.protocol.trust_layer:
                path = usable[flow.rr_index % len(usable)]
                flow.rr_index += 1
            else:
                path = usable[0]
            if self._send_data(flow, pid, origin, path):
                return
            path.broken = True
            usable = self._usable_paths(flow)
        # no usable route: buffer and rediscover
        if len(flow.pending) >= SEND_BUFFER_CAP:
            old_pid, _ = flow.pending.popleft()
            self.packet_state[old_pid] = "dropped_noroute"
            self.result.dropped_noroute += 1
        flow.pending.append((pid, origin))
        if flow.discovery_outstanding is None:
            self.start_discovery(flow)

    def _send_data(self, flow: Flow, pid: int, origin: float,
                   path: PathInfo) -> bool:
        pkt = Packet(PacketKind.DATA, flow.flow_id, pid, round=path.round,
                     path_id=path.path_id, payload_size=self.config.pkt_size,
                     origin_time=origin)
        if self.config.protocol.uses_pseudonyms:
            pkt.forward_alias = flow.pd_chain.current
        else:
            pkt.dst_addr = flow.dst
        nxt = path.next_hop if path.next_hop is not None else flow.dst
        if not self.transmit(flow.src, nxt, pkt, control=False):
            return False
        if self.config.protocol is ProtocolKind.TAP3:
            src_node = self.nodes[flow.src]
            entry = LogEntry(src_node.log_alias, pid, EventKind.FORWARDED,
                             pkt.sseq, pkt.oseq, pkt.dseq, src_node.log_alias,
                             self.now)
            slot = flow.audit_queue.setdefault(
                (path.round, path.path_id),
                {"relays": list(path.relays), "pids": [], "tau_c": [],
                 "times": {}})
            slot["pids"].append(pid)
            slot["tau_c"].append(entry)
            slot["times"][pid] = self.now
        return True

    def _flush_pending(self, flow: Flow) -> None:
        pending = list(flow.pending)
        flow.pending.clear()
        for pid, origin in pending:
            self._send_or_buffer(flow, pid, origin)

    def on_data(self, node: SimNode, pkt: Packet, frm: int) -> None:
        flow = self.flows[pkt.flow_id]
        prev_alias = self.nodes[frm].log_alias
        if node.id == flow.dst:
            self.packet_state[pkt.packet_id] = "delivered"
            flow.delivered += 1
            self.result.delivered += 1
            self.result.delays.append(self.now - pkt.origin_time)
            if self.config.protocol is ProtocolKind.TAP3:
                node.log_event(pkt.packet_id, EventKind.RECEIVED, pkt,
                               self.now, prev_alias)
            return
        atk = node.attacker
        active = atk is not None and self.now >= self.attack_start
        if active and atk.kind is AttackKind.BLACK_HOLE:
            self.packet_state[pkt.packet_id] = "dropped_attack"
            self.result.dropped_attack += 1
            return
        if active and atk.kind is AttackKind.PASSIVE_DROP:
            if self.rng_attack.random() < atk.param:
                self.packet_state[pkt.packet_id] = "dropped_attack"
                self.result.dropped_attack += 1
                return
        entry = node.fwd_routes.get((pkt.flow_id, pkt.round, pkt.path_id))
        if entry is None:
            self.packet_state[pkt.packet_id] = "dropped_noroute"
            self.result.dropped_noroute += 1
            return
        forge = active and atk.kind is AttackKind.LOG_FORGERY
        if self.config.protocol is ProtocolKind.TAP3:
            node.log_event(pkt.packet_id, EventKind.RECEIVED, pkt, self.now,
                           prev_alias, forge=forge)
        fwd = pkt.copy()
        fwd.hop_count += 1
        if self.transmit(node.id, entry.next_hop, fwd, control=False):
            if self.config.protocol is ProtocolKind.TAP3:
                node.log_event(pkt.packet_id, EventKind.FORWARDED, pkt,
                               self.now, prev_alias, forge=forge)
        else:
            self.packet_state[pkt.packet_id] = "lost_link"
            self.result.lost_link += 1
            if self.config.protocol is ProtocolKind.TAP3:
                node.log_event(pkt.packet_id, EventKind.DROPPED, pkt,
                               self.now, prev_alias)
            rerr = Packet(PacketKind.RERR, pkt.flow_id, self.new_pid(),
                          round=pkt.round, path_id=pkt.path_id)
            self.transmit(node.id, entry.prev_hop, rerr, control=True)

    def on_rerr(self, node: SimNode, pkt: Packet, frm: int) -> None:
        flow = self.flows[pkt.flow_id]
        if node.id == flow.src:
            for p in flow.paths:
                if p.round == pkt.round and p.path_id == pkt.path_id:
                    p.broken = True
            if not self._usable_paths(flow) and flow.discovery_outstanding is None:
                self.start_discovery(flow)
            return
        entry = node.fwd_routes.get((pkt.flow_id, pkt.round, pkt.path_id))
        if entry is not None:
            self.transmit(node.id, entry.prev_hop, pkt, control=True)

    # -- audits -------------------------------------------------------------

    def audit_tick(self, flow: Flow) -> None:
        if self.config.protocol is ProtocolKind.TAP3:
            self.run_audits(flow)
            if self.now + AUDIT_PERIOD < self.config.sim_duration:
                self.schedule(self.now + AUDIT_PERIOD,
                              lambda: self.audit_tick(flow))

    def _charge_audit_traffic(self, flow: Flow, relays: list[int]) -> None:
        """Control cost of one path audit: the request travels down the
        path once; every participant's commitment+proof response travels
        back up hop by hop."""
        n = len(relays)
        hops_down = n + 1
        hops_up = n * (n + 1) // 2 + (n + 1)
        self.result.control_tx += hops_down + hops_up
        if self.trace:
            req = f"{self.now:.6f},AUDIT_REQ,{flow.src},-1,0,0,64"
            self.result.packet_rows.extend([req] * hops_down)
            resp = f"{self.now:.6f},COMMIT,-1,{flow.src},0,0,96"
            self.result.packet_rows.extend([resp] * hops_up)

    def run_audits(self, flow: Flow) -> None:
        cutoff = self.now - AUDIT_SETTLE
        cache: dict[int, logaudit.PublishedLog] = {}

        def published(nid: int) -> logaudit.PublishedLog:
            if nid not in cache:
                cache[nid] = self.nodes[nid].log.publish()
            return cache[nid]

        for key in sorted(flow.audit_queue):
            slot = flow.audit_queue[key]
            audit_pids = [p for p in slot["pids"] if slot["times"][p] < cutoff]
            if not audit_pids:
                continue
            relays = slot["relays"]
            self._charge_audit_traffic(flow, relays)
            tau_ctl = flow.tau_c_control.get(key[0], [])
            audited_set = set(audit_pids)
            tau_data = [e for e in slot["tau_c"] if e.packet_id in audited_set]
            if self.trace:
                self._audit_records.append({
                    "flow": flow.flow_id, "dst": flow.dst, "relays": relays,
                    "control": [logaudit.entry_to_list(e) for e in tau_ctl],
                    "data": [logaudit.entry_to_list(e) for e in tau_data]})
            report = logaudit.audit_route(
                [published(r) for r in relays], published(flow.dst),
                tau_ctl, tau_data)
            if report.verdict != logaudit.FELLOW:
                nid = (flow.dst if report.target_lied
                       else relays[report.active_attacker - 1])
                flow.suspects.add(nid)
                self.result.audit_active.add(nid)
            else:
                accused = {relays[pos - 1] for pos in report.passive_attackers}
                flow.suspects.difference_update(relays)
                flow.suspects.update(accused)
                self.result.audit_passive.update(accused)
            if self.trace:
                self.result.audit_rows.append(report.csv_row(flow.flow_id))
            keep = [p for p in slot["pids"] if slot["times"][p] >= cutoff]
            slot["pids"] = keep
            keep_set = set(keep)
            slot["tau_c"] = [e for e in slot["tau_c"]
                             if e.packet_id in keep_set]
        flow.audit_queue = {k: v for k, v in flow.audit_queue.items()
                            if v["pids"]}
        if any(r in flow.suspects for p in flow.paths for r in p.relays):
            if flow.discovery_outstanding is None:
                self.start_discovery(flow)

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.config
        for flow in self.flows:
            self.schedule(flow.start_time, self._starter(flow))
        while self._events:
            t, _, fn = heapq.heappop(self._events)
            if t > cfg.sim_duration:
                break
            if t < self.now:
                raise RuntimeError(
                    f"event scheduled at {t!r} precedes the clock {self.now!r}")
            self.now = t
            fn()
        # Events past the end never run.  Their closures refer back to the
        # simulation, so dropping them lets a finished run be freed at once
        # instead of at the cycle collector's next full pass.
        self._events.clear()
        self.now = cfg.sim_duration
        for node in self.nodes:
            x, y = node.mobility.position(cfg.sim_duration)
            if not (-1e-9 <= x <= cfg.area_x + 1e-9
                    and -1e-9 <= y <= cfg.area_y + 1e-9):
                self.result.positions_ok = False
        for flow in self.flows:
            for pid, _ in flow.pending:
                self.packet_state[pid] = "buffered_end"
                self.result.buffered_end += 1
        self.result.in_flight_end = sum(
            1 for s in self.packet_state.values() if s == "in_flight")
        self.result.log_duplicates = sum(n.log_duplicates for n in self.nodes)
        if self.trace and cfg.protocol is ProtocolKind.TAP3:
            self.result.audit_export = {
                "nodes": {str(n.id): [logaudit.entry_to_list(e)
                                      for e in n.log.entries]
                          for n in self.nodes if n.log.entries},
                "paths": self._audit_records,
            }
        return self.result

    def _starter(self, flow: Flow):
        def go():
            self.start_flow(flow)
        return go


def desk_profile(protocol: ProtocolKind = ProtocolKind.TAP3,
                 pause_time: float = 0.0, seed: int = 1) -> ScenarioConfig:
    """The reference small-scale evaluation scenario: 30 nodes on
    300 x 300 m for 200 s, 4 CBR flows, and one attacker of each kind
    activating after the training epoch."""
    return ScenarioConfig(protocol=protocol, pause_time=pause_time,
                          rng_seed=seed, attackers=[
                              AttackerSpec(0, AttackKind.BLACK_HOLE, 1000),
                              AttackerSpec(1, AttackKind.SEQ_INFLATION, 500),
                              AttackerSpec(2, AttackKind.PASSIVE_DROP, 0.8)])


DESK_CONFIG_TEXT = """\
# reference small-scale scenario
node_count = 30
area_x = 300
area_y = 300
sim_duration = 200
flows = 4
pkt_rate = 4
pkt_size = 256
radio_range = 250
max_speed = 25
pause_time = 0
protocol = tap3
rng_seed = 1
attacker = 0:blackhole:1000
attacker = 1:seqinflation:500
attacker = 2:passivedrop:0.8
"""


def run_scenario(config: ScenarioConfig, trace: bool = False,
                 positions=None, check_privacy: bool = False) -> RunResult:
    return Simulation(config, trace=trace, positions=positions,
                      check_privacy=check_privacy).run()
