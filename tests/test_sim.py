import collections
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from tap3sim.cli import write_trace_file
from tap3sim.logaudit import EventKind
from tap3sim.metrics import report_from_result
from tap3sim.routing import Packet, PacketKind, ProtocolKind, header_bytes
from tap3sim.sim import (
    DESK_CONFIG_TEXT,
    LINK_RATE_BPS,
    SPEED_OF_LIGHT,
    AttackerSpec,
    AttackKind,
    ConfigError,
    Mobility,
    MobilityState,
    ScenarioConfig,
    Simulation,
    desk_profile,
    parse_config,
    random_waypoint_step,
    run_scenario,
)


# ---------------------------------------------------------------------------
# configuration

def test_parse_reference_config():
    cfg = parse_config(DESK_CONFIG_TEXT)
    assert cfg.node_count == 30
    assert cfg.protocol is ProtocolKind.TAP3
    assert cfg.pkt_rate == 4.0
    kinds = {a.node_id: a.kind for a in cfg.attackers}
    assert kinds == {0: AttackKind.BLACK_HOLE, 1: AttackKind.SEQ_INFLATION,
                     2: AttackKind.PASSIVE_DROP}
    cfg.validate()


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("node_count = 10\nbogus_key = 3\n")
    assert any("line 2" in p and "bogus_key" in p for p in exc.value.problems)


def test_parse_rejects_malformed_attacker():
    with pytest.raises(ConfigError) as exc:
        parse_config("attacker = 0:blackhole\n")
    assert any("id:kind:param" in p for p in exc.value.problems)


def test_validate_names_offending_fields():
    cfg = ScenarioConfig(node_count=1, pkt_rate=-1.0)
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    text = " ".join(exc.value.problems)
    assert "node_count" in text and "pkt_rate" in text


NON_FINITE = [("sim_duration", math.inf), ("area_x", math.nan),
              ("area_y", -math.inf), ("radio_range", math.inf),
              ("pkt_rate", math.nan), ("pause_time", math.nan),
              ("max_speed", math.inf)]


@pytest.mark.parametrize("name,value", NON_FINITE)
def test_validate_rejects_non_finite_values(name, value):
    """inf and nan slip past every range check (`nan < 0` is false); an
    infinite duration would make the traffic schedule endless."""
    with pytest.raises(ConfigError) as exc:
        replace(desk_profile(), **{name: value}).validate()
    assert exc.value.problems == [f"{name} must be finite"]


@pytest.mark.parametrize("name,value", NON_FINITE)
def test_parsed_non_finite_values_are_rejected(name, value):
    cfg = parse_config(DESK_CONFIG_TEXT + f"{name} = {value}\n")
    assert repr(getattr(cfg, name)) == repr(value)
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert f"{name} must be finite" in exc.value.problems


@pytest.mark.parametrize("kind", list(AttackKind))
@pytest.mark.parametrize("param", [math.inf, math.nan])
def test_validate_rejects_non_finite_attacker_parameter(kind, param):
    cfg = replace(desk_profile(), attackers=[AttackerSpec(0, kind, param)])
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert exc.value.problems == ["attacker 0 parameter must be finite"]


def test_validate_requires_honest_endpoints():
    cfg = ScenarioConfig(node_count=4, flows=2,
                         attackers=desk_profile().attackers[:1])
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert any("honest" in p for p in exc.value.problems)


# ---------------------------------------------------------------------------
# mobility

def test_static_node_never_moves():
    mob = Mobility(random.Random(1), (50.0, 60.0), (300.0, 300.0),
                   max_speed=0.0, pause_time=0.0)
    for t in (0.0, 10.0, 500.0):
        assert mob.position(t) == (50.0, 60.0)


def test_positions_stay_inside_area():
    mob = Mobility(random.Random(2), (10.0, 10.0), (300.0, 300.0),
                   max_speed=25.0, pause_time=0.0)
    for t in range(0, 600, 7):
        x, y = mob.position(float(t))
        assert 0.0 <= x <= 300.0
        assert 0.0 <= y <= 300.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       pause=st.sampled_from([0.0, 0.5, 7.0]),
       steps=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=300),
       keep=st.integers(2, 9))
def test_mobility_is_independent_of_query_pattern(seed, pause, steps, keep):
    """A node walks the same legs whether it is asked for its position at
    every instant or only now and then: asking on a dense increasing grid
    and on a sparse subset of it gives bit-equal positions, and each one
    equals the interpolation written out from the current leg."""
    def walker():
        return Mobility(random.Random(seed), (10.0, 290.0), (300.0, 300.0),
                        max_speed=25.0, pause_time=pause)

    times = list(itertools.accumulate(steps))
    dense, sparse = walker(), walker()
    at_dense = []
    for t in times:
        at_dense.append(dense.position(t))
        assert at_dense[-1] == leg_position(dense.state, t)
    for i in range(0, len(times), keep):
        assert sparse.position(times[i]) == at_dense[i]
    for x, y in at_dense:
        assert 0.0 <= x <= 300.0 and 0.0 <= y <= 300.0


def leg_position(s: MobilityState, t: float) -> tuple[float, float]:
    """Reference: position at `t` on leg `s`, recomputed from scratch."""
    length = math.dist(s.position, s.waypoint)
    if t >= s.leg_start + length / s.speed:
        return s.waypoint
    frac = (t - s.leg_start) * s.speed / max(length, 1e-12)
    frac = min(max(frac, 0.0), 1.0)
    return (s.position[0] + frac * (s.waypoint[0] - s.position[0]),
            s.position[1] + frac * (s.waypoint[1] - s.position[1]))


def test_waypoint_step_draws_valid_leg():
    state = MobilityState((5.0, 5.0), (20.0, 30.0), 3.0, 0.0, 0.0,
                          (100.0, 100.0), 25.0, 2.0)
    nxt = random_waypoint_step(state, 12.0, random.Random(3))
    assert nxt.position == (20.0, 30.0)  # starts from the old waypoint
    assert 0.0 <= nxt.waypoint[0] <= 100.0
    assert 0.0 <= nxt.waypoint[1] <= 100.0
    assert 0.0 < nxt.speed <= 25.0
    assert nxt.leg_start == 12.0


# ---------------------------------------------------------------------------
# two static nodes in range: analytic delivery

def two_node_config(protocol):
    return ScenarioConfig(node_count=2, flows=1, max_speed=0.0,
                          sim_duration=30.0, protocol=protocol, rng_seed=5)


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_two_node_flow_delivers_everything(protocol):
    res = run_scenario(two_node_config(protocol), trace=True,
                       positions=[(0.0, 0.0), (100.0, 0.0)])
    assert res.sent > 0
    assert res.delivered == res.sent
    # steady-state delay is one store-and-forward hop: serialization at the
    # link rate plus propagation over 100 m
    data_sizes = {int(r.split(",")[-1]) for r in res.packet_rows
                  if r.split(",")[1] == "DATA"}
    assert len(data_sizes) == 1
    expected = data_sizes.pop() * 8.0 / LINK_RATE_BPS + 100.0 / SPEED_OF_LIGHT
    mode, count = collections.Counter(
        round(d, 12) for d in res.delays).most_common(1)[0]
    assert count > res.sent // 2
    assert mode == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# conservation, determinism, privacy

@pytest.mark.parametrize("protocol", list(ProtocolKind))
@pytest.mark.parametrize("seed", [1, 2])
def test_packet_conservation(protocol, seed):
    cfg = replace(desk_profile(protocol, pause_time=20.0, seed=seed),
                  sim_duration=100.0)
    res = run_scenario(cfg)
    assert res.positions_ok
    assert res.sent == (res.delivered + res.lost_link + res.dropped_attack
                        + res.dropped_noroute + res.buffered_end
                        + res.in_flight_end)


def test_runs_are_deterministic():
    cfg = replace(desk_profile(seed=3), sim_duration=80.0)
    a = run_scenario(cfg, trace=True)
    b = run_scenario(cfg, trace=True)
    assert a.packet_rows == b.packet_rows
    assert a.verdict_rows == b.verdict_rows
    assert a.delays == b.delays
    assert (a.sent, a.delivered, a.control_tx) == (b.sent, b.delivered,
                                                   b.control_tx)


def test_trace_rows_tie_out_with_counters():
    cfg = replace(desk_profile(seed=4), sim_duration=80.0)
    res = run_scenario(cfg, trace=True)
    kinds = [r.split(",")[1] for r in res.packet_rows]
    assert kinds.count("DATA") == res.data_tx
    assert len(kinds) - kinds.count("DATA") == res.control_tx


def test_pseudonymous_headers_leak_nothing():
    cfg = replace(desk_profile(seed=1), sim_duration=80.0)
    res = run_scenario(cfg, check_privacy=True)
    assert res.privacy_checks > 0
    assert res.privacy_violations == 0


def test_privacy_scan_only_applies_to_pseudonymous_protocols():
    cfg = replace(desk_profile(ProtocolKind.MPRF, seed=1), sim_duration=80.0)
    res = run_scenario(cfg, check_privacy=True)
    assert res.privacy_checks == 0


# ---------------------------------------------------------------------------
# attacker behavior on a forced-relay line topology
#
#   S(0,0) --- A(150,0) --- D(300,0)        range 160 m
#                \-- B(150,40) --/
#
# S and D are out of mutual range; every route runs through attacker A
# (node 1) or honest B (node 2).

LINE_POSITIONS = [(0.0, 0.0), (150.0, 0.0), (150.0, 40.0), (300.0, 0.0)]


def line_config(protocol, attacker):
    return ScenarioConfig(node_count=4, flows=1, max_speed=0.0,
                          sim_duration=90.0, radio_range=160.0,
                          protocol=protocol, rng_seed=7,
                          attackers=[attacker])


def test_blackhole_captures_plaintext_baseline():
    from tap3sim.sim import AttackerSpec
    atk = AttackerSpec(1, AttackKind.BLACK_HOLE, 1000)
    mprf = run_scenario(line_config(ProtocolKind.MPRF, atk),
                        positions=LINE_POSITIONS)
    tap3 = run_scenario(line_config(ProtocolKind.TAP3, atk),
                        positions=LINE_POSITIONS)
    # the forged high-freshness reply wins AODV route selection
    assert mprf.dropped_attack > mprf.sent // 2
    assert tap3.delivered > mprf.delivered
    accused = ({s for _, s in tap3.classifier_flags}
               | tap3.audit_active | tap3.audit_passive)
    assert 1 in accused


def test_passive_dropper_is_audited_out():
    from tap3sim.sim import AttackerSpec
    atk = AttackerSpec(1, AttackKind.PASSIVE_DROP, 0.9)
    res = run_scenario(line_config(ProtocolKind.TAP3, atk),
                       positions=LINE_POSITIONS)
    assert res.dropped_attack > 0
    assert 1 in res.audit_passive
    # the honest alternate relay is never accused
    accused = ({s for _, s in res.classifier_flags}
               | res.audit_active | res.audit_passive)
    assert 2 not in accused


def test_desk_scenario_detects_all_attacker_kinds():
    res = run_scenario(desk_profile(seed=1))
    accused = ({s for _, s in res.classifier_flags}
               | res.audit_active | res.audit_passive)
    assert {0, 1, 2} <= accused


# ---------------------------------------------------------------------------
# broadcast elision: skipping inert route-request copies changes nothing

class FullFloodSimulation(Simulation):
    """Reference radio: a broadcast schedules a reception at every node in
    range, including those that already hold the request and will drop
    it on arrival."""

    def transmit(self, sender, to, pkt, control):
        if to is not None:
            return super().transmit(sender, to, pkt, control)
        node = self.nodes[sender]
        start = max(self.now, node.busy_until)
        hdr = header_bytes(pkt)
        size = len(hdr) + pkt.payload_size
        ttx = size * 8.0 / LINK_RATE_BPS
        node.busy_until = start + ttx
        if control:
            self.result.control_tx += 1
        else:
            self.result.data_tx += 1
        if self.check_privacy:
            self._privacy_scan(pkt, hdr)
        self._trace(start, pkt, sender, -1, size)
        here = self.position(sender)
        for other in range(len(self.nodes)):
            if other == sender:
                continue
            dist = math.dist(here, self.position(other))
            if dist <= self.config.radio_range:
                arrival = start + ttx + dist / SPEED_OF_LIGHT
                self.schedule(arrival, self._receiver(other, pkt, sender))
        return True


def observed(sim_class, cfg, trace_path):
    sim = sim_class(cfg, trace=True, check_privacy=True)
    res = sim.run()
    write_trace_file(str(trace_path), res)
    return sim._event_seq, {
        "csv": report_from_result(res).csv_row(),
        "trace": trace_path.read_bytes(),
        "ledger": sim.packet_state,
        "flags": res.classifier_flags,
        "audits": res.audit_rows,
    }


DESK_SHAPE = {"sim_duration": 40.0}
SPARSE_SHAPE = {"node_count": 60, "area_x": 600.0, "area_y": 600.0,
                "sim_duration": 40.0}


@settings(max_examples=6, deadline=None)
@given(protocol=st.sampled_from([ProtocolKind.TAP3, ProtocolKind.S_MPRF,
                                 ProtocolKind.MPRF]),
       seed=st.integers(0, 2 ** 32 - 1),
       pause=st.sampled_from([0.0, 10.0, 40.0]),
       sparse=st.booleans())
@example(protocol=ProtocolKind.TAP3, seed=1, pause=0.0, sparse=False)
@example(protocol=ProtocolKind.S_MPRF, seed=1, pause=0.0, sparse=False)
def test_skipping_inert_receptions_changes_no_output(
        tmp_path_factory, protocol, seed, pause, sparse):
    """The radio leaves out only receptions that `on_rreq` would drop
    untouched: the CSV row, the trace bytes, the fate of every packet, the
    classifier flags and the audit rows equal those of a radio that
    delivers every copy."""
    cfg = replace(desk_profile(protocol, pause, seed),
                  **(SPARSE_SHAPE if sparse else DESK_SHAPE))
    tmp = tmp_path_factory.mktemp("elision")
    full_events, full = observed(FullFloodSimulation, cfg, tmp / "full")
    events, got = observed(Simulation, cfg, tmp / "elided")
    assert got == full
    assert events <= full_events
    if seed == 1 and not sparse:
        # the desk flood reaches many nodes that already hold the request
        assert events < full_events


def test_broadcast_of_a_reply_is_an_error():
    sim = Simulation(replace(desk_profile(), sim_duration=10.0))
    with pytest.raises(ValueError, match="broadcast"):
        sim.transmit(3, None, Packet(PacketKind.RREP, 0, 1), control=True)
    assert sim.result.control_tx == 0 and not sim._events


# ---------------------------------------------------------------------------
# frames, clock and evidence-log invariants


@pytest.mark.parametrize("protocol", [ProtocolKind.TAP3, ProtocolKind.MPRF])
def test_received_frames_are_never_mutated(monkeypatch, protocol):
    """Every receiver is handed the very frame that was transmitted (one
    object per broadcast), and no handler changes it."""
    sent = {}
    fanout = collections.Counter()
    transmit, dispatch = Simulation.transmit, Simulation.dispatch

    def recording_transmit(self, sender, to, pkt, control):
        sent[id(pkt)] = pkt     # keeps the frame alive, so ids stay unique
        return transmit(self, sender, to, pkt, control)

    def checked_dispatch(self, nid, pkt, frm):
        assert sent.get(id(pkt)) is pkt
        fanout[id(pkt)] += 1
        before = dict(pkt.__dict__, route_record=tuple(pkt.route_record))
        dispatch(self, nid, pkt, frm)
        assert dict(pkt.__dict__, route_record=tuple(pkt.route_record)) \
            == before

    monkeypatch.setattr(Simulation, "transmit", recording_transmit)
    monkeypatch.setattr(Simulation, "dispatch", checked_dispatch)
    run_scenario(desk_profile(protocol, seed=1))
    assert max(fanout.values()) > 1


def test_event_in_the_past_is_an_error():
    cfg = replace(desk_profile(seed=1), sim_duration=10.0)
    sim = Simulation(cfg)
    sim.schedule(5.0, lambda: sim.schedule(4.0, lambda: None))
    with pytest.raises(RuntimeError, match="precedes the clock"):
        sim.run()


def test_log_duplicates_are_counted():
    assert run_scenario(desk_profile(seed=1)).log_duplicates == 0
    sim = Simulation(replace(desk_profile(seed=1), sim_duration=60.0))
    node = sim.nodes[5]
    pkt = Packet(PacketKind.DATA, 0, 10 ** 9)  # no real packet has this id
    for _ in range(2):
        node.log_event(pkt.packet_id, EventKind.RECEIVED, pkt, 0.0,
                       node.log_alias)
    assert sim.run().log_duplicates == 1
