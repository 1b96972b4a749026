"""Closed-form oracles: static chains whose every count and delay follows
from the simulator's constants, not from a recorded output.

A chain of k nodes lies on a line, 200 m apart, with a 250 m radio range,
so each node hears only its neighbours and the one route is the chain
itself.  The one flow runs between the two farthest nodes, the chain's
ends, with no movement: with no attacker, with a passive dropper that
drops every data packet at the first relay, or with a log forger there.
Every expected number below is derived from the schedule constants and
the frame format."""

import functools
import itertools
import math
from dataclasses import replace

import pytest

from tap3sim.crypto import DIGEST_LEN
from tap3sim.logaudit import FORWARDED, NOT_FELLOW, RECEIVED, AuditReport
from tap3sim.metrics import report_from_result
from tap3sim.routing import Packet, PacketKind, ProtocolKind, packet_size
from tap3sim.sim import (
    AUDIT_PERIOD,
    AUDIT_SETTLE,
    BASELINE_ROUTE_TIMEOUT,
    DRAIN_WINDOW,
    LINK_RATE_BPS,
    ROUTE_REFRESH,
    SEND_BUFFER_CAP,
    SPEED_OF_LIGHT,
    TRAIN_FRACTION,
    AttackerSpec,
    AttackKind,
    ScenarioConfig,
    Simulation,
    SimNode,
    run_scenario,
)

from test_cli import live_rows, replayed_rows

SPACING = 200.0
DURATION = 120.0
FLOW_START = 1.0            # `_setup_flows` starts flow 0 at 1 s
CHAINS = range(2, 9)


def chain_config(protocol: ProtocolKind, k: int) -> ScenarioConfig:
    return ScenarioConfig(node_count=k, area_x=SPACING * (k - 1),
                          area_y=1.0, max_speed=0.0, sim_duration=DURATION,
                          flows=1, radio_range=250.0, protocol=protocol,
                          rng_seed=3)


def send_times(cfg: ScenarioConfig) -> list[float]:
    """The CBR sends: from flow start, every 1 / pkt_rate s, accumulated,
    while before `sim_duration - DRAIN_WINDOW` (`schedule_cbr`)."""
    times, t = [], FLOW_START
    while t < cfg.sim_duration - DRAIN_WINDOW:
        times.append(t)
        t += 1.0 / cfg.pkt_rate
    return times


def round_starts(cfg: ScenarioConfig) -> list[float]:
    """Flow start opens round 1; a refresh runs every period after it and
    opens a round while it is more than DRAIN_WINDOW before the end
    (`Simulation.start_round`).  TAP3 refreshes on its pseudonym
    rotation, the baselines on AODV's route timeout."""
    period = (ROUTE_REFRESH if cfg.protocol is ProtocolKind.TAP3
              else BASELINE_ROUTE_TIMEOUT)
    refreshes = itertools.takewhile(
        lambda t: t + DRAIN_WINDOW < cfg.sim_duration,
        itertools.count(FLOW_START + period, period))
    return [FLOW_START, *refreshes]


def audit_count(cfg: ScenarioConfig) -> int:
    """Path audits over the run.  Ticks run every AUDIT_PERIOD from flow
    start + AUDIT_PERIOD while they fall inside the run (`audit_tick`).  A tick audits each round's path that holds sends
    older than AUDIT_SETTLE not yet audited.  A send belongs to the
    latest round opened strictly before it: a send and a refresh at the
    same instant run in that order, and a round's reply comes back within
    milliseconds, long before the next send."""
    starts = round_starts(cfg)
    ticks = itertools.takewhile(
        lambda t: t < cfg.sim_duration,
        itertools.count(FLOW_START + AUDIT_PERIOD, AUDIT_PERIOD))
    audits, lo = 0, -math.inf
    for tick in ticks:
        hi = tick - AUDIT_SETTLE
        rounds = {max(sum(1 for r in starts if r < s), 1)
                  for s in send_times(cfg) if lo <= s < hi}
        audits += len(rounds)
        lo = hi
    return audits


def hop_delay(cfg: ScenarioConfig) -> float:
    """One store-and-forward hop of a data frame: serialization at the
    link rate plus propagation over the spacing.  The frame carries the
    destination's alias under pseudonyms, its address otherwise."""
    pkt = Packet(PacketKind.DATA, 0, 1, payload_size=cfg.pkt_size)
    if cfg.protocol.uses_pseudonyms:
        pkt.forward_alias = bytes(DIGEST_LEN)
    else:
        pkt.dst_addr = cfg.node_count - 1
    return packet_size(pkt) * 8.0 / LINK_RATE_BPS + SPACING / SPEED_OF_LIGHT


@pytest.mark.parametrize("k", CHAINS)
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_static_chain_matches_closed_form(protocol, k):
    cfg = chain_config(protocol, k)
    positions = [(SPACING * i, 0.0) for i in range(k)]
    res = run_scenario(cfg, trace=True, positions=positions)
    hops = k - 1

    sends = len(send_times(cfg))
    assert sends == (DURATION - DRAIN_WINDOW - FLOW_START) * cfg.pkt_rate
    assert (res.sent, res.delivered) == (sends, sends)

    # the first packet waits for round 1's route; no later one waits
    expected_delay = hops * hop_delay(cfg)
    assert all(d == pytest.approx(expected_delay, abs=1e-9)
               for d in res.delays[1:])
    assert res.delays[0] > expected_delay

    kinds = [row[1] for row in res.packet_rows]
    rounds = len(round_starts(cfg))
    assert rounds == (4 if protocol is ProtocolKind.TAP3 else 12)
    for kind in ("RREQ", "RREP", "RREP_ACK"):
        assert kinds.count(kind) == rounds * hops, kind
    assert kinds.count("RERR") == 0

    # each audit of a path with n = k - 2 relays charges n + 1 request
    # hops and n(n + 1)/2 + (n + 1) response hops
    audits = audit_count(cfg) if protocol is ProtocolKind.TAP3 else 0
    assert audits == (7 if protocol is ProtocolKind.TAP3 else 0)
    requests = audits * hops
    responses = audits * (hops * (hops - 1) // 2 + hops)
    assert kinds.count("AUDIT_REQ") == requests
    assert kinds.count("COMMIT") == responses

    control = 3 * rounds * hops + requests + responses
    assert res.control_tx == control
    assert res.data_tx == sends * hops
    assert report_from_result(res).overhead == control / sends


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_static_chain_with_passive_dropper_matches_closed_form(protocol, k):
    """Node 1, the first relay, drops every data packet once attacks turn
    on at the end of the training epoch.  The flow still runs between the
    chain's ends: the dropper is not eligible for a flow."""
    cfg = replace(chain_config(protocol, k), attackers=[
        AttackerSpec(1, AttackKind.PASSIVE_DROP, 1.0)])
    positions = [(SPACING * i, 0.0) for i in range(k)]
    res = run_scenario(cfg, positions=positions)
    hops = k - 1

    # a data hop takes under a millisecond and sends are 1 / pkt_rate
    # apart, so a send before the epoch's end passes the dropper in time
    train_end = TRAIN_FRACTION * DURATION
    sends = send_times(cfg)
    before = [s for s in sends if s < train_end]
    assert res.sent == len(sends)
    assert res.delivered == len(before)
    expected_delay = hops * hop_delay(cfg)
    assert all(d == pytest.approx(expected_delay, abs=1e-9)
               for d in res.delays[1:])
    assert (res.lost_link, res.in_flight_end) == (0, 0)

    if protocol is not ProtocolKind.TAP3:
        # no trust layer: every later send takes the one path and dies at
        # the dropper, one data frame in; control traffic is unchanged
        dropped = len(sends) - len(before)
        assert res.dropped_attack == dropped
        assert (res.dropped_noroute, res.buffered_end) == (0, 0)
        assert res.data_tx == len(before) * hops + dropped
        assert res.control_tx == 3 * len(round_starts(cfg)) * hops
        assert not res.audit_passive and not res.audit_active
        return

    # The first audit tick reads the sends older than AUDIT_SETTLE.  Those
    # from the epoch's end on reached node 1, which proves no Forwarded
    # entry for them, so the audit accuses node 1, the only path's first
    # relay.  A send at the tick's instant runs before the tick, so the
    # sends from the epoch's end through the tick die at the dropper.
    # From then on every path runs through the suspect: later sends wait
    # in the send buffer, which keeps the last SEND_BUFFER_CAP of them and
    # drops the older ones.  Control traffic is not checked: each reply
    # the source accepts runs through the suspect and starts the next
    # round at once (the rediscovery storm in ROADMAP.md).
    first_tick = FLOW_START + AUDIT_PERIOD
    assert train_end < first_tick - AUDIT_SETTLE
    dropped = [s for s in sends if train_end <= s <= first_tick]
    waiting = len(sends) - len(before) - len(dropped)
    assert waiting > SEND_BUFFER_CAP
    assert res.dropped_attack == len(dropped)
    assert res.buffered_end == SEND_BUFFER_CAP
    assert res.dropped_noroute == waiting - SEND_BUFFER_CAP
    assert res.data_tx == len(before) * hops + len(dropped)
    assert res.audit_passive == {1}
    assert not res.audit_active


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_static_chain_with_log_forger_matches_closed_form(protocol, k):
    """Node 1, the first relay, forwards every data packet but, once
    attacks turn on, logs each under a forged packet id.  Without the
    trust layer nothing reads the log, so the chain behaves as with no
    attacker."""
    cfg = replace(chain_config(protocol, k), attackers=[
        AttackerSpec(1, AttackKind.LOG_FORGERY, 1.0)])
    positions = [(SPACING * i, 0.0) for i in range(k)]
    res = run_scenario(cfg, positions=positions)
    hops = k - 1
    sends = send_times(cfg)
    assert res.sent == len(sends)
    assert (res.lost_link, res.dropped_attack, res.in_flight_end) == (0, 0, 0)

    if protocol is not ProtocolKind.TAP3:
        assert res.delivered == len(sends)
        assert res.data_tx == len(sends) * hops
        assert res.control_tx == 3 * len(round_starts(cfg)) * hops
        assert not res.audit_passive and not res.audit_active
        return

    # The first audit tick asks node 1 to prove its Forwarded entries for
    # the sends older than AUDIT_SETTLE.  Those from the epoch's end on
    # are logged under forged ids, so the audit accuses node 1.  Every
    # send through the tick's instant was delivered; from then on every
    # path runs through the suspect and later sends wait in the send
    # buffer, which keeps the last SEND_BUFFER_CAP of them.  Control
    # traffic is not checked, as with the dropper.
    first_tick = FLOW_START + AUDIT_PERIOD
    assert TRAIN_FRACTION * DURATION < first_tick - AUDIT_SETTLE
    delivered = [s for s in sends if s <= first_tick]
    waiting = len(sends) - len(delivered)
    assert len(delivered) == 101 and waiting > SEND_BUFFER_CAP
    assert res.delivered == len(delivered)
    assert res.data_tx == len(delivered) * hops
    assert res.buffered_end == SEND_BUFFER_CAP
    assert res.dropped_noroute == waiting - SEND_BUFFER_CAP == 317
    assert res.audit_passive == {1}
    assert not res.audit_active


class ControlForgingChain(Simulation):
    """Each relay logs the route request it takes as Received and
    Forwarded, the records the reverse scan asks every relay to prove
    for the source's control packets.  The chain's last relay logs them
    under forged ids, and so does the destination with its own records,
    so the destination check fails and the scan stops at the last
    relay."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        dst = self.nodes[self.flows[0].dst]
        dst.log_event = functools.partial(SimNode.log_event, dst,
                                          forge=True)

    def on_rreq(self, node, pkt, frm):
        key = (pkt.flow_id, pkt.round)
        held = key in node.rev_routes
        super().on_rreq(node, pkt, frm)
        dst = self.flows[pkt.flow_id].dst
        if node.id != dst and not held and key in node.rev_routes:
            for event in (RECEIVED, FORWARDED):
                node.log_event(pkt.packet_id, event, pkt, self.now,
                               self.nodes[frm].log_alias,
                               forge=node.id == dst - 1)


@pytest.mark.parametrize("k", [3, 4, 8])
def test_live_active_verdict_names_the_last_relay(k):
    """The first audit tick finds the destination unable to prove its
    records of the route request, and the reverse scan stops at the last
    relay, whose records are forged: position k - 2 on the chain's
    relays 1 … k - 2, which is node k - 2.  Every later path runs
    through the suspect, so no later data is sent and nothing else is
    audited.  The replay of the trace gives the same row."""
    cfg = replace(chain_config(ProtocolKind.TAP3, k), sim_duration=40.0)
    sim = ControlForgingChain(cfg, trace=True,
                              positions=[(SPACING * i, 0.0)
                                         for i in range(k)])
    res = sim.run()
    assert res.audit_rows == [(0, AuditReport(NOT_FELLOW,
                                              active_attacker=k - 2))]
    assert res.audit_active == {k - 2}
    assert not res.audit_passive
    assert replayed_rows(res) == live_rows(res)
