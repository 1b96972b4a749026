"""Deterministic discrete-event simulation of mobile nodes running TAP3
or one of the two baseline multipath protocols, with attack injection.

Model: unit-disk links with a 2 Mb/s shared per-node transmit queue,
propagation at c, random-waypoint mobility, CBR/UDP flows.  One run is
single-threaded and fully determined by (config, seed).
"""

from __future__ import annotations

import functools
import gc
import hashlib
import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Optional, Sequence

from . import logaudit, seqmon
from .crypto import (
    PseudonymChain,
    TrapdoorIndex,
    derive_pairwise_key,
    encode_node_id,
    hmac_tag,
    master_key,
    trapdoor_check,
    verify_hmac,
)
from .logaudit import (
    DROPPED,
    FORWARDED,
    RECEIVED,
    REPLIED,
    EventKind,
    LogEntry,
    NodeLog,
)
from .routing import (
    Packet,
    PacketKind,
    PathInfo,
    ProtocolKind,
    header_bytes,
    packet_size,
    pick_disjoint_paths,
    relayed_header,
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

# The packet kinds, read once: on CPython 3.11 each `PacketKind.RREQ`
# read costs about ten times a module-global read.
RREQ = PacketKind.RREQ
RREP = PacketKind.RREP
RREP_ACK = PacketKind.RREP_ACK
DATA = PacketKind.DATA
RERR = PacketKind.RERR
# `tuple.__new__` read once, as above: it builds a `LogEntry` in C
_tuple_new = tuple.__new__
# the event code that a traced audit's data records carry
_FORWARDED_CODE = int(FORWARDED)

# a data packet's ledger state until `Simulation._settle` gives it a fate
IN_FLIGHT = "in_flight"
FATES = ("delivered", "lost_link", "dropped_attack", "dropped_noroute",
         "buffered_end")      # each named as its RunResult counter


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class AttackKind(Enum):
    BLACK_HOLE = "blackhole"
    SEQ_INFLATION = "seqinflation"
    PASSIVE_DROP = "passivedrop"
    LOG_FORGERY = "logforgery"


class AttackerSpec(NamedTuple):
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


def parse_config(text: str) -> ScenarioConfig:
    """Line-based `key = value` scenario file; unknown keys are errors."""
    cfg = ScenarioConfig()
    problems = []
    fields = {f: type(getattr(cfg, f)) for f in _NUMERIC_FIELDS}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value")
            continue
        key, _, value = (s.strip() for s in line.partition("="))
        if key == "protocol":
            try:
                cfg.protocol = ProtocolKind(value)
            except ValueError:
                problems.append(f"line {lineno}: unknown protocol {value!r}")
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

class Mobility:
    """Random-waypoint movement of one node.  `position(t)` must be asked
    for non-decreasing `t`, which the simulation clock guarantees (see
    `Simulation.run`); the legs a node walks depend only on its rng, never
    on which times are asked for, or how often.  Only the current leg is
    kept: the node walks from `origin` to `waypoint` at `speed` from
    `leg_start`, then pauses there for `pause_time`."""

    def __init__(self, rng: random.Random, start: tuple[float, float],
                 area: tuple[float, float], max_speed: float,
                 pause_time: float):
        self.rng = rng
        self.area = area
        self.max_speed = max_speed
        self.pause_time = pause_time
        # a static node (speed 0) never arrives, so it stays at `start`
        self._begin_leg(start, 0.0)

    def _begin_leg(self, origin: tuple[float, float], now: float) -> None:
        """Draw a fresh uniform waypoint and a speed in (0, max_speed] and
        fix the leg's constants: its length (floored to keep the
        interpolation finite), the arrival time and the end of the pause."""
        self.origin = origin
        self.waypoint = (self.rng.uniform(0.0, self.area[0]),
                         self.rng.uniform(0.0, self.area[1]))
        self.speed = self.max_speed * (1.0 - self.rng.random())
        self.leg_start = now
        d = math.dist(origin, self.waypoint)
        self._length = max(d, 1e-12)
        self._arrive = (math.inf if self.speed <= 0.0
                        else now + d / self.speed)
        self._leave = self._arrive + self.pause_time
        self._dx = self.waypoint[0] - origin[0]
        self._dy = self.waypoint[1] - origin[1]

    def position(self, t: float) -> tuple[float, float]:
        while True:
            if t < self._arrive:
                frac = (t - self.leg_start) * self.speed / self._length
                if frac < 0.0:
                    frac = 0.0
                elif frac > 1.0:
                    frac = 1.0
                x, y = self.origin
                return (x + frac * self._dx, y + frac * self._dy)
            if t <= self._leave:
                return self.waypoint
            self._begin_leg(self.waypoint, self._leave)


# ---------------------------------------------------------------------------
# per-node / per-flow state

class RevEntry(NamedTuple):
    prev_hop: int
    rreq_dseq: int


class Monitor:
    """A TAP3 node's sequence-monitor state (`Simulation.monitor_sample`)."""

    def __init__(self):
        self.window = seqmon.TrainingWindow()
        self.batch: list[seqmon.SeqVector] = []
        self.next_merge = math.inf
        # flow id -> (sseq, oseq) of the last reply of the flow seen here
        self.prev_counters: dict[int, tuple[int, int]] = {}
        # flow id -> freshest dseq relayed here, the relay's reply baseline
        self.freshest_dseq: dict[int, int] = {}


class SimNode:
    def __init__(self, nid: int, mobility: Mobility, log_alias: bytes,
                 attacker: Optional[AttackerSpec], trust_layer: bool):
        self.id = nid
        self.mobility = mobility
        self.log_alias = log_alias
        self.attacker = attacker
        self.busy_until = 0.0
        self.oseq = 0
        self.max_dseq_seen = 0
        # (flow, round) -> the hop back, written once; (flow, round, path
        # id) -> the hop on, whose hop back is the round's reverse route
        self.rev_routes: dict[tuple, RevEntry] = {}
        self.fwd_routes: dict[tuple, int] = {}
        # evidence log and sequence monitor: TAP3 nodes only
        self.log = NodeLog() if trust_layer else None
        self.monitor = Monitor() if trust_layer else None

    def log_entry(self, pid: int, event: EventKind, pkt: Packet, now: float,
                  prev_alias: Optional[bytes] = None) -> LogEntry:
        """The record of `event` on `pkt` here; the previous hop defaults
        to this node, as on a packet it originates or answers.  Built by
        the C call that the generated `LogEntry.__new__` wraps, which
        takes half its time."""
        alias = self.log_alias
        return _tuple_new(LogEntry, (
            alias, pid, event, pkt.sseq, pkt.oseq, pkt.dseq,
            alias if prev_alias is None else prev_alias, now))

    def log_event(self, pid: int, event: EventKind, pkt: Packet, now: float,
                  prev_alias: Optional[bytes] = None,
                  forge: bool = False) -> None:
        """Append the record to a TAP3 node's evidence log.  A claim made
        twice raises `logaudit.DuplicateEntryError` and fails the run."""
        if self.log is None:
            return
        real_pid = pid + 1_000_000 if forge else pid
        self.log.append(self.log_entry(real_pid, event, pkt, now, prev_alias))


class Flow:
    def __init__(self, flow_id: int, src: int, dst: int, key: bytes,
                 start_time: float, ps_chain: PseudonymChain,
                 pd_chain: PseudonymChain,
                 trapdoor: Optional[TrapdoorIndex]):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.key = key
        self.start_time = start_time
        self.ps_chain = ps_chain
        self.pd_chain = pd_chain
        self.round = 0
        self.last_known_dseq = 0
        self.paths: list[PathInfo] = []
        self.rr_index = 0
        self.pending: deque = deque()
        self.backoff = BACKOFF_START
        # round `round` is outstanding: none of its replies accepted yet
        self.discovering = False
        self.suspects: set[int] = set()
        # `select_paths` over `paths` and `suspects`, or None once
        # `update_routes` has dropped it (see `Simulation._usable_paths`)
        self.usable: Optional[list[PathInfo]] = None
        # round -> the source's Forwarded entry for its route request;
        # filled under the trust layer only, for `Simulation.run_audits`
        self.tau_c_control: dict[int, LogEntry] = {}
        # (round, path id) -> (relays, a (packet id, send time) record of
        # every data packet the source Forwarded on that path and has not
        # audited yet, oldest first)
        self.audit_queue: dict[tuple, tuple[
            list[int], list[tuple[int, float]]]] = {}
        # the event number of the flow's first CBR send, which keys
        # every send of the flow (see `Simulation.schedule_cbr`)
        self.cbr_seq = 0
        # the destination's state for this flow: its trapdoor index (TAP3
        # only), its reply counter, and round -> (the first copy of the
        # round's route request, whose arrival schedules the round's
        # reply; the candidate paths heard so far)
        self.trapdoor = trapdoor
        self.dest_dseq = 0
        self.rounds: dict[int, tuple[Packet, list]] = {}

    def update_routes(self, paths: Optional[list[PathInfo]] = None,
                      broken: Sequence[PathInfo] = (),
                      suspects: Optional[set[int]] = None) -> None:
        """Replace the path list, mark paths broken, or replace the
        suspects: the one writer of the three once the flow runs.  Each
        can change which paths are usable, so the memo goes here."""
        if paths is not None:
            self.paths = paths
        for path in broken:
            path.broken = True
        if suspects is not None:
            self.suspects = suspects
        self.usable = None


class RunResult:
    """What one run reports.  Every sent data packet has exactly one of
    six fates: delivered, lost_link (a relay's next hop was out of range),
    dropped_attack, dropped_noroute (send-buffer overflow at the source),
    buffered_end (still waiting for a route when the run ended) or
    in_flight_end (still on its way).  The six counters are filled once,
    at the end of `Simulation.run`, from the packet ledger, so they always
    sum to `sent`."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.sent = 0
        self.delivered = 0
        self.lost_link = 0
        self.dropped_attack = 0
        self.dropped_noroute = 0
        self.buffered_end = 0
        self.in_flight_end = 0
        self.control_tx = 0
        self.data_tx = 0
        self.delays: list[float] = []
        self.packet_rows: list[str] = []
        self.verdict_rows: list[str] = []
        self.audit_rows: list[str] = []
        self.privacy_checks = 0
        self.privacy_violations = 0
        self.classifier_flags: set[tuple[int, int]] = set()
        self.audit_active: set[int] = set()
        self.audit_passive: set[int] = set()
        self.audit_export: Optional[dict] = None


class collector_paused:
    """`with collector_paused():` runs its body with CPython's automatic
    cycle collection paused.  For a phase that allocates many short-lived
    containers and makes no reference cycles, whose collections would
    find nothing.  The pause is process-wide while it lasts; the caller's
    `gc.isenabled()` is restored however the body ends.  Not a generator:
    its exit would raise a StopIteration just after collection resumes,
    and that allocation would start a collection over everything the
    body left alive."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.enabled:
            gc.enable()


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
        # the two protocol facts the simulator asks for, read once
        self.trust_layer = config.protocol.trust_layer
        self.uses_pseudonyms = config.protocol.uses_pseudonyms
        self.refresh_period = (ROUTE_REFRESH if self.trust_layer
                               else BASELINE_ROUTE_TIMEOUT)
        self.check_privacy = check_privacy and self.uses_pseudonyms
        self.now = 0.0
        self._events: list = []
        self._event_seq = 0
        self._next_pid = 0
        # a route request's (flow, round) -> its listener record
        self.rreq_listeners: dict[tuple, dict[int, None]] = {}
        self.result = RunResult(config)
        # the training epoch; attacks activate when it ends (`_attack`)
        self.train_end = TRAIN_FRACTION * config.sim_duration
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
            alias = hashlib.sha256(
                b"node-alias" + seed.to_bytes(8, "big") + encode_node_id(i)
            ).digest()
            mob = Mobility(_stream(seed, f"mob{i}"), positions[i],
                           (config.area_x, config.area_y),
                           config.max_speed, config.pause_time)
            self.nodes.append(SimNode(i, mob, alias, attackers.get(i),
                                      self.trust_layer))

        self.flows: list[Flow] = []
        self._setup_flows(positions, set(attackers))
        # flow id -> the encodings of its two endpoint ids, which the
        # privacy scan looks for in every scanned header
        self._endpoint_ids = [(encode_node_id(f.src), encode_node_id(f.dst))
                              for f in self.flows]
        # data packet id -> IN_FLIGHT or its fate: the only record of them
        self.packet_state: dict[int, str] = {}
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
            if len(chosen) == cfg.flows:
                break
            if a in used or b in used:
                continue
            chosen.append((a, b))
            used.update((a, b))
        for fid, (src, dst) in enumerate(chosen):
            key = derive_pairwise_key(master_key(cfg.rng_seed, dst), src)
            ps = PseudonymChain.start(key, src)
            pd = PseudonymChain.start(key, dst)
            trapdoor = (TrapdoorIndex(pd, TRAPDOOR_WINDOW)
                        if self.trust_layer else None)
            self.flows.append(Flow(fid, src, dst, key, 1.0 + 0.25 * fid,
                                   ps, pd, trapdoor))

    # -- event machinery ----------------------------------------------------

    def schedule(self, t: float, fn: Callable[[], None]) -> None:
        """Push a timer.  Every heap entry is `(time, number, fn, args)`
        and runs as `fn(*args)`; every push, here or in `transmit`,
        `on_rreq` and `_push_send`, takes the next event number, so the
        entries pop in time order and, at equal times, in push order (a
        CBR send counts as pushed with its flow's first send)."""
        self._event_seq += 1
        heappush(self._events, (t, self._event_seq, fn, ()))

    def new_pid(self) -> int:
        self._next_pid += 1
        return self._next_pid

    def link(self, a: int, b: int) -> tuple[bool, float]:
        nodes, now = self.nodes, self.now
        d = math.dist(nodes[a].mobility.position(now),
                      nodes[b].mobility.position(now))
        return d <= self.config.radio_range, d

    def _privacy_scan(self, pkt: Packet) -> None:
        # the frame's `header_bytes`, set at its first send; a route error,
        # which carries no alias, has none
        fields = pkt.header
        if fields is None:
            return
        self.result.privacy_checks += 1
        # `header_bytes` leaves out the tag, an opaque digest (a forged one
        # is all zero bytes); only the fields it encodes can carry an address
        for encoded in self._endpoint_ids[pkt.flow_id]:
            if encoded in fields:
                self.result.privacy_violations += 1

    def _trace(self, t: float, pkt: Packet, frm: int, to: int,
               size: int) -> None:
        self.result.packet_rows.append(
            f"{t:.6f},{pkt.kind.text},{frm},{to},{pkt.packet_id},"
            f"{pkt.path_id},{size}")

    def transmit(self, sender: int, to: Optional[int], pkt: Packet,
                 control: bool) -> bool:
        """Queue a frame on the sender's radio.  Unicast returns False when
        the next hop is out of range (link-layer sensing).  A broadcast is
        always a route request; it reaches the in-range nodes of its
        (flow, round) listener record (`rreq_listeners`), visited in id
        order, and no other node's position is looked up.  A node outside
        the record would only drop the copy on arrival, so leaving it
        unscheduled changes no state, and every other event keeps its time
        and its order.  Every receiver gets `pkt` itself: frames are read-only
        once transmitted (see `Packet`), so a frame is sized at its first
        send, without being encoded, and keeps that size on every later
        hop.  A pseudonymous RREQ, RREP or RREP_ACK frame that no endpoint
        tagged and no relay derived is encoded there too, once: the
        privacy scan and the source's tag check read `Packet.header`."""
        if to is None and pkt.kind is not RREQ:
            raise ValueError(f"cannot broadcast a {pkt.kind.text} frame")
        node = self.nodes[sender]
        start = max(self.now, node.busy_until)
        size = pkt.size
        if size is None:
            size = pkt.size = packet_size(pkt)
            if (control and self.uses_pseudonyms and pkt.header is None
                    and pkt.kind is not RERR):
                pkt.header = header_bytes(pkt)
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
        if control and self.check_privacy:
            self._privacy_scan(pkt)
        if self.trace:
            self._trace(start, pkt, sender, -1 if to is None else to, size)
        events, dispatch = self._events, self.dispatch
        if to is None:
            nodes, now = self.nodes, self.now
            here = node.mobility.position(now)
            radio_range = self.config.radio_range
            for other in self.rreq_listeners[pkt.flow_id, pkt.round]:
                if other == sender:
                    continue
                dist = math.dist(here, nodes[other].mobility.position(now))
                if dist <= radio_range:
                    self._event_seq += 1
                    heappush(events, (start + ttx + dist / SPEED_OF_LIGHT,
                                      self._event_seq, dispatch,
                                      (other, pkt, sender)))
        else:
            self._event_seq += 1
            heappush(events, (start + ttx + dist / SPEED_OF_LIGHT,
                              self._event_seq, dispatch, (to, pkt, sender)))
        return True

    def dispatch(self, nid: int, pkt: Packet, frm: int) -> None:
        node = self.nodes[nid]
        if pkt.kind is RREQ:
            self.on_rreq(node, pkt, frm)
        elif pkt.kind is RREP:
            self.on_rrep(node, pkt, frm)
        elif pkt.kind is RREP_ACK:
            self.on_rrep_ack(node, pkt, frm)
        elif pkt.kind is DATA:
            self.on_data(node, pkt, frm)
        elif pkt.kind is RERR:
            self.on_rerr(node, pkt, frm)

    # -- sequence monitor ---------------------------------------------------

    def monitor_sample(self, node: SimNode, flow_id: int, sseq: int,
                       oseq: int, delta: float) -> Optional[seqmon.Verdict]:
        """Feed one route reply of a flow to a node's detector.  The
        features are the increments of the header counters over the
        previous reply of the same flow, which keeps the training
        distribution stationary while an inflated sequence number still
        shows up as a large jump.  Returns a verdict once the window is
        trained, None while it is still learning or on a baseline node,
        which has no monitor."""
        mon = node.monitor
        if mon is None:
            return None
        prev = mon.prev_counters.get(flow_id)
        mon.prev_counters[flow_id] = (sseq, oseq)
        if prev is None:
            return None
        sample = seqmon.SeqVector(sseq - prev[0], oseq - prev[1], delta)
        window = mon.window
        if self.now < self.train_end or (
                not window.trained and len(window.samples) < MIN_TRAIN_SAMPLES):
            window.samples.append(sample)
            return None
        if not window.trained:
            window.train()
            mon.next_merge = self.now + self.train_end
        verdict = seqmon.classify(sample, window)
        if self.trace:
            self.result.verdict_rows.append(seqmon.verdict_csv_row(
                node.id, sample, verdict, window.threshold))
        # the batch holds only samples this window judged normal, and the
        # window changes only here, when the batch is merged and emptied
        if verdict.label is seqmon.Label.NORMAL:
            mon.batch.append(sample)
        if self.now >= mon.next_merge and mon.batch:
            mon.window = seqmon.advance_window(window, mon.batch)
            mon.batch = []
            mon.next_merge = self.now + self.train_end
        return verdict

    def flag(self, flagger: int, suspect: int) -> None:
        if self.trust_layer:
            self.result.classifier_flags.add((flagger, suspect))

    # -- route discovery ----------------------------------------------------

    def start_flow(self, flow: Flow) -> None:
        self.start_discovery(flow)
        self.schedule_cbr(flow, flow.start_time)
        self.schedule(flow.start_time + self.refresh_period,
                      lambda: self.refresh_route(flow))
        if self.trust_layer:
            self.schedule(flow.start_time + AUDIT_PERIOD,
                          lambda: self.audit_tick(flow))

    def refresh_route(self, flow: Flow) -> None:
        if self.now + DRAIN_WINDOW < self.config.sim_duration:
            self.start_discovery(flow)
            self.schedule(self.now + self.refresh_period,
                          lambda: self.refresh_route(flow))

    def start_discovery(self, flow: Flow) -> None:
        flow.round += 1
        rnd = flow.round
        src_node = self.nodes[flow.src]
        src_node.oseq += 1
        if self.trust_layer and rnd > 1:
            flow.ps_chain = flow.ps_chain.advanced()
            flow.pd_chain = flow.pd_chain.advanced()
        pid = self.new_pid()
        pkt = Packet(RREQ, flow.flow_id, pid, round=rnd, sseq=rnd,
                     oseq=src_node.oseq, dseq=flow.last_known_dseq)
        if self.uses_pseudonyms:
            pkt.forward_alias = flow.pd_chain.current
            pkt.reverse_alias = flow.ps_chain.current
        else:
            pkt.src_addr = flow.src
            pkt.dst_addr = flow.dst
        if self.trust_layer:
            flow.tau_c_control[rnd] = src_node.log_entry(pid, FORWARDED, pkt,
                                                         self.now)
        # The request's listener record, under its (flow, round), which
        # `flow.round` rising on every call keeps unique: the ids of the
        # nodes that would still act on a copy, in ascending order.  Every
        # node but the source starts in it.  A node leaves when it takes the
        # request in `on_rreq`, except the flow's destination: a trapdoor
        # miss makes it take the request as a relay, but it stays and
        # checks later copies.
        self.rreq_listeners[flow.flow_id, rnd] = dict.fromkeys(
            nid for nid in range(len(self.nodes)) if nid != flow.src)
        flow.discovering = True
        self.transmit(flow.src, None, pkt, control=True)
        self.schedule(self.now + RREP_WAIT, lambda: self.discovery_check(flow, rnd))

    def discovery_check(self, flow: Flow, rnd: int) -> None:
        # `_source_accept` clears the flag before it keeps a path of the round
        if flow.round != rnd or not flow.discovering:
            return
        # this round produced nothing; retry with backoff if traffic waits
        if flow.pending or not [p for p in flow.paths if not p.broken]:
            delay = flow.backoff
            flow.backoff = min(flow.backoff * 2.0, BACKOFF_CAP)
            if self.now + delay < self.config.sim_duration:
                self.schedule(self.now + delay,
                              lambda: self.start_discovery(flow))
        else:
            # older paths still carry the traffic: the round is over, so a
            # later path break or buffered packet may start the next one
            flow.discovering = False

    def _rediscover(self, flow: Flow) -> None:
        """Start a round unless one is outstanding: the one rediscovery
        rule of `_send_or_buffer`, `on_rerr` and `run_audits`."""
        if not flow.discovering:
            self.start_discovery(flow)

    def _is_destination(self, node: SimNode, flow: Flow, pkt: Packet) -> bool:
        """The node id, and under the trust layer the trapdoor.  The id is
        tested first: a trapdoor match slides the window, so only the
        flow's destination may run the check."""
        return node.id == flow.dst and (
            flow.trapdoor is None
            or trapdoor_check(flow.trapdoor, pkt.forward_alias) is not None)

    def on_rreq(self, node: SimNode, pkt: Packet, frm: int) -> None:
        """A copy's (flow, round) names its request in both the listener
        record and the reverse routes.  A node outside the record already
        holds the request and drops the copy (RFC 3561 section 6.5).  The
        record only shrinks, so a copy that is inert when it is sent is
        still inert when it arrives.  Dropping it also skips raising
        `max_dseq_seen` to its `dseq`, which is sound because every copy of
        one request carries the same `dseq` and a node raised the field to
        it when it took the request.  A destination that took the request
        as a relay stays in the record, since a late copy of an older round
        can slide its trapdoor window over this round's alias; its reverse
        route marks it taken."""
        key = (pkt.flow_id, pkt.round)
        listeners = self.rreq_listeners[key]
        if node.id not in listeners:
            return
        node.max_dseq_seen = max(node.max_dseq_seen, pkt.dseq)
        flow = self.flows[pkt.flow_id]
        if self._is_destination(node, flow, pkt):
            rounds = flow.rounds
            if pkt.round not in rounds:
                rounds[pkt.round] = (pkt, [])
                self.schedule(self.now + RREP_COLLECT_WINDOW,
                              lambda: self.dest_reply(node, flow, pkt.round))
            rounds[pkt.round][1].append(
                (len(pkt.route_record), self.now, list(pkt.route_record)))
            return
        if key in node.rev_routes:
            return
        if node.id != flow.dst:
            del listeners[node.id]
        node.rev_routes[key] = RevEntry(frm, pkt.dseq)
        atk = self._attack(node)
        if atk and atk.kind is AttackKind.BLACK_HOLE:
            # claim to be the target: fresher than anything, fewer hops
            dseq = node.max_dseq_seen + int(atk.param)
            forged = self._reply(node, pkt, dseq, 90 + node.id,
                                 pkt.route_record)
            if self.uses_pseudonyms:
                forged.tag = b"\x00" * 32
            self.transmit(node.id, frm, forged, control=True)
        fwd = pkt.copy()
        fwd.route_record.append(node.id)
        if pkt.header is not None:
            fwd.header = relayed_header(pkt.header, fwd.route_record)
        jitter = self.rng_jitter.uniform(0.0, REBROADCAST_JITTER)
        self._event_seq += 1
        heappush(self._events, (self.now + jitter, self._event_seq,
                                self.transmit, (node.id, None, fwd, True)))

    def _attack(self, node: SimNode) -> Optional[AttackerSpec]:
        """The node's attack once attacks are on, else None."""
        return node.attacker if self.now >= self.train_end else None

    def _reply(self, node: SimNode, rreq: Packet, dseq: int, path_id: int,
               relays: list[int]) -> Packet:
        """`node`'s reply to `rreq`, addressed back over `relays`; the
        caller sets its tag."""
        node.oseq += 1
        rrep = Packet(RREP, rreq.flow_id, self.new_pid(),
                      round=rreq.round, sseq=rreq.sseq, oseq=node.oseq,
                      dseq=dseq, req_oseq=rreq.oseq, path_id=path_id,
                      route_record=list(relays))
        if rreq.reverse_alias is not None:
            rrep.forward_alias = rreq.reverse_alias
            rrep.reverse_alias = rreq.forward_alias
        else:
            rrep.src_addr = rreq.src_addr
            rrep.dst_addr = rreq.dst_addr
        return rrep

    def dest_reply(self, node: SimNode, flow: Flow, rnd: int) -> None:
        """Answer round `rnd` at the flow's destination.  `on_rreq`
        schedules it on the round's first candidate path; the round's record
        stays, so no later copy schedules it again."""
        rreq, cands = flow.rounds[rnd]
        chosen = pick_disjoint_paths(cands, MAX_PATHS, HOP_SLACK)
        replied_pid = rreq.packet_id
        node.log_event(replied_pid, RECEIVED, rreq, self.now)
        node.log_event(replied_pid, REPLIED, rreq, self.now)
        for idx, relays in enumerate(chosen):
            flow.dest_dseq += 1
            rrep = self._reply(node, rreq, flow.dest_dseq, idx, relays)
            if self.uses_pseudonyms:
                rrep.header = header_bytes(rrep)
                rrep.tag = hmac_tag(flow.key, rrep.header)
            nxt = relays[-1] if relays else flow.src
            self.transmit(node.id, nxt, rrep, control=True)

    def on_rrep(self, node: SimNode, pkt: Packet, frm: int) -> None:
        """A reply reaches only the source or a node that took its request
        (the destination sends it to the last relay, a blackhole to the hop
        it heard, a relay along its reverse route), so the route is there."""
        flow = self.flows[pkt.flow_id]
        if node.id == flow.src:
            self._source_accept(flow, node, pkt, frm)
            return
        rev = node.rev_routes[pkt.flow_id, pkt.round]
        if node.monitor is not None:
            freshest = node.monitor.freshest_dseq.get(pkt.flow_id, 0)
            verdict = self.monitor_sample(
                node, pkt.flow_id, pkt.sseq, pkt.oseq,
                pkt.dseq - max(rev.rreq_dseq, freshest))
            if verdict is not None and verdict.label is seqmon.Label.MALICIOUS:
                self.flag(node.id, frm)
                return
            node.monitor.freshest_dseq[pkt.flow_id] = max(freshest, pkt.dseq)
        atk = self._attack(node)
        if atk and atk.kind is AttackKind.SEQ_INFLATION:
            pkt = pkt.copy()
            pkt.dseq += int(atk.param)
        node.fwd_routes[pkt.flow_id, pkt.round, pkt.path_id] = frm
        self.transmit(node.id, rev.prev_hop, pkt, control=True)

    def _source_accept(self, flow: Flow, node: SimNode, pkt: Packet,
                       frm: int) -> None:
        """Keep the reply's path.  No kept path has its (round, path id):
        each reply is sent once per (round, path id) and travels one
        loop-free reverse chain, so the source takes it at most once."""
        if pkt.round != flow.round:
            return
        delta = pkt.dseq - flow.last_known_dseq
        if self.uses_pseudonyms:
            if not verify_hmac(flow.key, pkt.header, pkt.tag):
                self.flag(flow.src, frm)
                return
        # a tagged value comes from the true destination, so it refreshes
        # the baseline before the classifier, which only TAP3 nodes run
        flow.last_known_dseq = max(flow.last_known_dseq, pkt.dseq)
        verdict = self.monitor_sample(node, pkt.flow_id, pkt.sseq, pkt.oseq,
                                      delta)
        if verdict is not None and verdict.label is seqmon.Label.MALICIOUS:
            self.flag(flow.src, frm)
            return
        paths = flow.paths
        if flow.discovering:
            # the round's first reply: every kept path is of an older round,
            # so the new round's list starts empty
            flow.discovering = False
            paths = []
            flow.backoff = BACKOFF_START
        path = PathInfo(pkt.path_id, pkt.round, list(pkt.route_record),
                        pkt.dseq, self.now, next_hop=frm)
        flow.update_routes(paths=paths + [path])
        ack = Packet(RREP_ACK, flow.flow_id, self.new_pid(),
                     round=pkt.round, path_id=pkt.path_id)
        if self.uses_pseudonyms:
            ack.forward_alias = pkt.reverse_alias
            ack.header = header_bytes(ack)
            ack.tag = hmac_tag(flow.key, ack.header)
        else:
            ack.dst_addr = flow.dst
        self.transmit(flow.src, frm, ack, control=True)
        self._flush_pending(flow)

    def on_rrep_ack(self, node: SimNode, pkt: Packet, frm: int) -> None:
        flow = self.flows[pkt.flow_id]
        if node.id == flow.dst:
            return
        nxt = node.fwd_routes.get((pkt.flow_id, pkt.round, pkt.path_id))
        if nxt is not None:
            self.transmit(node.id, nxt, pkt, control=True)

    # -- data plane ---------------------------------------------------------

    def schedule_cbr(self, flow: Flow, t: float) -> None:
        """Start the flow's CBR sends: one at `t`, then one 1 / pkt_rate
        s after each send, while `t < sim_duration - DRAIN_WINDOW`.  Each
        `app_send` pushes the next send, so the heap holds at most one
        send per flow.  Every send is keyed by the event number its
        flow's first send took: it pops after every event pushed before
        the flow started and before every event pushed after, as if
        every send were pushed now."""
        flow.cbr_seq = self._event_seq + 1
        self._push_send(flow, t)

    def _push_send(self, flow: Flow, t: float) -> None:
        """Push the flow's send at `t` unless `t` is past its last send."""
        if t < self.config.sim_duration - DRAIN_WINDOW:
            self._event_seq += 1
            heappush(self._events, (t, flow.cbr_seq, self.app_send, (flow,)))

    def app_send(self, flow: Flow) -> None:
        self._push_send(flow, self.now + 1.0 / self.config.pkt_rate)
        pid = self.new_pid()
        self.packet_state[pid] = IN_FLIGHT
        self._send_or_buffer(flow, pid, self.now)

    def _settle(self, pid: int, fate: str) -> None:
        """Give an in-flight data packet its final fate; the ledger's only
        writer after `app_send`.  A packet has exactly one fate, so
        settling one that is not in flight is an error."""
        state = self.packet_state.get(pid)
        if state != IN_FLIGHT:
            raise RuntimeError(f"data packet {pid} cannot become {fate}: "
                               f"it is {state or 'unknown'}")
        self.packet_state[pid] = fate

    def _usable_paths(self, flow: Flow) -> list[PathInfo]:
        """`select_paths` over the flow's paths and suspects, kept on the
        flow until `Flow.update_routes` changes either.  Callers only read
        the list."""
        usable = flow.usable
        if usable is None:
            usable = flow.usable = select_paths(flow.paths, flow.suspects,
                                                self.config.protocol)
        return usable

    def _send_or_buffer(self, flow: Flow, pid: int, origin: float) -> None:
        usable = self._usable_paths(flow)
        while usable:
            if self.trust_layer:
                path = usable[flow.rr_index % len(usable)]
                flow.rr_index += 1
            else:
                path = usable[0]
            if self._send_data(flow, pid, origin, path):
                return
            flow.update_routes(broken=(path,))
            usable = self._usable_paths(flow)
        # no usable route: buffer and rediscover
        if len(flow.pending) >= SEND_BUFFER_CAP:
            old_pid, _ = flow.pending.popleft()
            self._settle(old_pid, "dropped_noroute")
        flow.pending.append((pid, origin))
        self._rediscover(flow)

    def _send_data(self, flow: Flow, pid: int, origin: float,
                   path: PathInfo) -> bool:
        pkt = Packet(DATA, flow.flow_id, pid, round=path.round,
                     path_id=path.path_id, payload_size=self.config.pkt_size,
                     origin_time=origin)
        if self.uses_pseudonyms:
            pkt.forward_alias = flow.pd_chain.current
        else:
            pkt.dst_addr = flow.dst
        if not self.transmit(flow.src, path.next_hop, pkt, control=False):
            return False
        if self.trust_layer:
            key = (path.round, path.path_id)
            queued = flow.audit_queue.get(key)
            if queued is None:
                queued = flow.audit_queue[key] = (list(path.relays), [])
            queued[1].append((pid, self.now))
        return True

    def _flush_pending(self, flow: Flow) -> None:
        pending = list(flow.pending)
        flow.pending.clear()
        for pid, origin in pending:
            self._send_or_buffer(flow, pid, origin)

    def on_data(self, node: SimNode, pkt: Packet, frm: int) -> None:
        """A relay's forwarding entry is there: a DATA frame reaches a
        relay only from the node that the relay sent the path's reply to
        (the source's next hop is the reply's sender, a relay's is the hop
        it heard the reply from), and each reply is sent once per (round,
        path id) along one loop-free reverse chain.  A blackhole drops the
        frame before the lookup; it forged the path's reply and holds no
        entry."""
        flow = self.flows[pkt.flow_id]
        prev_alias = self.nodes[frm].log_alias
        if node.id == flow.dst:
            self._settle(pkt.packet_id, "delivered")
            self.result.delays.append(self.now - pkt.origin_time)
            node.log_event(pkt.packet_id, RECEIVED, pkt, self.now,
                           prev_alias)
            return
        atk = self._attack(node)
        if atk and (atk.kind is AttackKind.BLACK_HOLE
                    or (atk.kind is AttackKind.PASSIVE_DROP
                        and self.rng_attack.random() < atk.param)):
            self._settle(pkt.packet_id, "dropped_attack")
            return
        nxt = node.fwd_routes[pkt.flow_id, pkt.round, pkt.path_id]
        forge = atk is not None and atk.kind is AttackKind.LOG_FORGERY
        node.log_event(pkt.packet_id, RECEIVED, pkt, self.now, prev_alias,
                       forge=forge)
        if self.transmit(node.id, nxt, pkt, control=False):
            node.log_event(pkt.packet_id, FORWARDED, pkt, self.now,
                           prev_alias, forge=forge)
        else:
            self._settle(pkt.packet_id, "lost_link")
            node.log_event(pkt.packet_id, DROPPED, pkt, self.now,
                           prev_alias)
            rerr = Packet(RERR, pkt.flow_id, self.new_pid(),
                          round=pkt.round, path_id=pkt.path_id)
            prev = node.rev_routes[pkt.flow_id, pkt.round].prev_hop
            self.transmit(node.id, prev, rerr, control=True)

    def on_rerr(self, node: SimNode, pkt: Packet, frm: int) -> None:
        """A relay forwards the error over its reverse route, which is
        there: the error comes from a hop that lost the path's next link
        and sent it over its own reverse route, where it had sent the
        path's one reply, so this relay relayed that reply."""
        flow = self.flows[pkt.flow_id]
        if node.id == flow.src:
            flow.update_routes(broken=[
                p for p in flow.paths
                if p.round == pkt.round and p.path_id == pkt.path_id])
            if not self._usable_paths(flow):
                self._rediscover(flow)
            return
        prev = node.rev_routes[pkt.flow_id, pkt.round].prev_hop
        self.transmit(node.id, prev, pkt, control=True)

    # -- audits -------------------------------------------------------------

    def audit_tick(self, flow: Flow) -> None:
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
        """Audit every path with data records older than the settle time.
        The audit reads only the packet ids; a traced run exports each
        record as the source's Forwarded entry for it."""
        cutoff = self.now - AUDIT_SETTLE
        cache: dict[int, logaudit.PublishedLog] = {}

        def published(nid: int) -> logaudit.PublishedLog:
            if nid not in cache:
                cache[nid] = self.nodes[nid].log.publish()
            return cache[nid]

        queue, flow.audit_queue = flow.audit_queue, {}
        for key in sorted(queue):
            relays, sent = queue[key]
            tau_data = [r for r in sent if r[1] < cutoff]
            keep = [r for r in sent if r[1] >= cutoff]
            if keep:
                flow.audit_queue[key] = (relays, keep)
            if not tau_data:
                continue
            self._charge_audit_traffic(flow, relays)
            control = flow.tau_c_control[key[0]]
            if self.trace:
                # the `entry_to_list` form of the source's Forwarded entry
                # for each record: a DATA frame carries zero counters, and
                # the source is its own previous hop
                alias = self.nodes[flow.src].log_alias.hex()
                self._audit_records.append({
                    "flow": flow.flow_id, "dst": flow.dst, "relays": relays,
                    "control": [logaudit.entry_to_list(control)],
                    "data": [[alias, pid, _FORWARDED_CODE, 0, 0, 0, alias, t]
                             for pid, t in tau_data]})
            report = logaudit.audit_route(
                [published(r) for r in relays], published(flow.dst),
                [control.packet_id], sorted(pid for pid, _ in tau_data))
            if report.verdict != logaudit.FELLOW:
                nid = (flow.dst if report.target_lied
                       else relays[report.active_attacker - 1])
                suspects = flow.suspects | {nid}
                self.result.audit_active.add(nid)
            else:
                accused = {relays[pos - 1] for pos in report.passive_attackers}
                suspects = flow.suspects.difference(relays) | accused
                self.result.audit_passive.update(accused)
            flow.update_routes(suspects=suspects)
            if self.trace:
                self.result.audit_rows.append(report.csv_row(flow.flow_id))
        if any(r in flow.suspects for p in flow.paths for r in p.relays):
            self._rediscover(flow)

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunResult:
        """Run the event loop to the end and fill in the result.  A run
        makes no reference cycles that outlive it, so the cycle collector
        is paused for it (`collector_paused`): its collections would only
        walk the run's many live containers and find nothing."""
        with collector_paused():
            cfg = self.config
            for flow in self.flows:
                self.schedule(flow.start_time,
                              functools.partial(self.start_flow, flow))
            events, pop, end = self._events, heappop, cfg.sim_duration
            try:
                while events:
                    t, _, fn, args = pop(events)
                    if t > end:
                        break
                    if t < self.now:
                        raise RuntimeError(f"event scheduled at {t!r} "
                                           f"precedes the clock {self.now!r}")
                    self.now = t
                    fn(*args)
            finally:
                # Events past the end, or after a failure, never run.
                # Their functions and arguments refer back to the
                # simulation, so dropping them lets a finished or failed
                # run be freed at once: with them gone, the run leaves no
                # cycle for the paused collector.
                events.clear()
            self.now = cfg.sim_duration
            for node in self.nodes:
                x, y = node.mobility.position(cfg.sim_duration)
                if not (-1e-9 <= x <= cfg.area_x + 1e-9
                        and -1e-9 <= y <= cfg.area_y + 1e-9):
                    raise RuntimeError(f"node {node.id} left the area: "
                                       f"it is at ({x!r}, {y!r})")
            for flow in self.flows:
                for pid, _ in flow.pending:
                    self._settle(pid, "buffered_end")
            fates = Counter(self.packet_state.values())
            self.result.sent = len(self.packet_state)
            for fate in FATES:
                setattr(self.result, fate, fates[fate])
            self.result.in_flight_end = fates[IN_FLIGHT]
            if self.trace and self.trust_layer:
                # each entry's `entry_to_list` form, with every alias's
                # hex computed once per run
                hexes = {n.log_alias: n.log_alias.hex() for n in self.nodes}
                self.result.audit_export = {
                    "nodes": {str(n.id): [
                        [hexes[alias], pid, int(event), sseq, oseq, dseq,
                         hexes[prev], t]
                        for alias, pid, event, sseq, oseq, dseq, prev, t
                        in n.log.entries]
                        for n in self.nodes if n.log.entries},
                    "paths": self._audit_records,
                }
            return self.result


def desk_profile(protocol: ProtocolKind = ProtocolKind.TAP3,
                 pause_time: float = 0.0, seed: int = 1) -> ScenarioConfig:
    """The reference small-scale evaluation scenario, `DESK_CONFIG_TEXT`:
    30 nodes on 300 x 300 m for 200 s, 4 CBR flows, and one attacker of
    each kind activating after the training epoch."""
    return replace(parse_config(DESK_CONFIG_TEXT), protocol=protocol,
                   pause_time=pause_time, rng_seed=seed)


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
