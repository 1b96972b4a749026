import collections
import functools
import gc
import hashlib
import inspect
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from tap3sim.crypto import encode_node_id
from tap3sim.logaudit import DuplicateEntryError, EventKind
from tap3sim.metrics import report_from_result
from tap3sim.routing import (
    Packet,
    PacketKind,
    ProtocolKind,
    packet_size,
)
from tap3sim.sim import (
    DESK_CONFIG_TEXT,
    DRAIN_WINDOW,
    FATES,
    IN_FLIGHT,
    LINK_RATE_BPS,
    SPEED_OF_LIGHT,
    AttackerSpec,
    AttackKind,
    ConfigError,
    Mobility,
    RoundCause,
    ScenarioConfig,
    Simulation,
    collector_paused,
    desk_profile,
    parse_config,
    run_scenario,
)
from oracles import (
    NaiveSimulation,
    ReferenceMobility,
    leg_position,
    loop_header_bytes,
)
from test_cli import live_rows, replayed_rows


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


@pytest.mark.parametrize("flows", [0, 1, 4])
def test_setup_builds_exactly_the_requested_flows(flows):
    sim = Simulation(replace(desk_profile(), flows=flows, sim_duration=10.0))
    assert len(sim.flows) == flows


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


def test_run_fails_when_a_node_leaves_the_area(monkeypatch):
    monkeypatch.setattr(Mobility, "position", lambda self, t: (-1.0, 0.0))
    sim = Simulation(two_node_config(ProtocolKind.MPRF), positions=TWO_NODES)
    with pytest.raises(RuntimeError, match=r"node 0 left the area.*-1\.0"):
        sim.run()


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
        assert at_dense[-1] == leg_position(dense, t)
    for i in range(0, len(times), keep):
        assert sparse.position(times[i]) == at_dense[i]
    for x, y in at_dense:
        assert 0.0 <= x <= 300.0 and 0.0 <= y <= 300.0


def test_waypoint_step_draws_valid_leg():
    mob = Mobility(random.Random(3), (5.0, 5.0), (100.0, 100.0),
                   max_speed=25.0, pause_time=2.0)
    old_waypoint = mob.waypoint
    mob._begin_leg(old_waypoint, 12.0)
    assert mob.origin == old_waypoint  # starts from the old waypoint
    assert 0.0 <= mob.waypoint[0] <= 100.0
    assert 0.0 <= mob.waypoint[1] <= 100.0
    assert 0.0 < mob.speed <= 25.0
    assert mob.leg_start == 12.0


# The statistical tests below draw legs with fixed seeds.  Each bound
# follows from the sampling error alone: a one-sample
# Kolmogorov-Smirnov distance below sqrt(ln(2 / alpha) / 2n), a chi-square
# below its 0.999 quantile, and a sample mean within 4 standard errors.
ALPHA = 1e-3
LEGS = 20_000


def drawn_legs(seed, area, max_speed, n=LEGS):
    """(origin, waypoint, speed) of `n` consecutive legs of one node after
    its first, each drawn from the waypoint where the one before ended."""
    mob = Mobility(random.Random(seed), (0.0, 0.0), area, max_speed, 0.0)
    legs = []
    for _ in range(n):
        mob._begin_leg(mob.waypoint, 0.0)
        legs.append((mob.origin, mob.waypoint, mob.speed))
    return legs


def ks_distance_from_uniform(values):
    """Kolmogorov-Smirnov distance of `values` in [0, 1] from U(0, 1)."""
    xs = sorted(values)
    n = len(xs)
    return max(max((i + 1) / n - x, x - i / n) for i, x in enumerate(xs))


def ks_bound(n):
    return math.sqrt(math.log(2 / ALPHA) / (2 * n))


def test_waypoints_are_uniform_over_the_area():
    """Each coordinate is uniform on its side, and the two together fill
    a 10 x 10 grid of the area evenly (chi-square, 99 degrees of freedom).
    The area is not square, so a coordinate drawn on the wrong side shows."""
    area = (300.0, 200.0)
    points = [w for _, w, _ in drawn_legs(11, area, 25.0)]
    for axis in (0, 1):
        d = ks_distance_from_uniform([p[axis] / area[axis] for p in points])
        assert d < ks_bound(len(points))
    cells = collections.Counter(
        (min(int(10 * x / area[0]), 9), min(int(10 * y / area[1]), 9))
        for x, y in points)
    expected = len(points) / 100
    chi2 = sum((cells[(i, j)] - expected) ** 2 / expected
               for i in range(10) for j in range(10))
    # Wilson-Hilferty: the 1 - ALPHA quantile of chi-square with k dof
    k, z = 99, 3.090232
    assert chi2 < k * (1 - 2 / (9 * k) + z * math.sqrt(2 / (9 * k))) ** 3


def test_mean_leg_length_is_the_mean_distance_in_a_square():
    """A leg joins two independent uniform points, so on a square of side
    L its mean length is L (2 + sqrt 2 + 5 ln(1 + sqrt 2)) / 15, about
    0.5214 L, with variance L^2 / 3 - mean^2.  Every other leg is used, so
    the lengths averaged share no waypoint and are independent."""
    side = 300.0
    legs = drawn_legs(12, (side, side), 25.0)[::2]
    mean = sum(math.dist(o, w) for o, w, _ in legs) / (len(legs) * side)
    exact = (2 + math.sqrt(2) + 5 * math.log(1 + math.sqrt(2))) / 15
    assert abs(exact - 0.5214) < 1e-4
    stderr = math.sqrt(1 / 3 - exact ** 2) / math.sqrt(len(legs))
    assert abs(mean - exact) < 4 * stderr


def test_leg_speeds_are_uniform_up_to_max_speed():
    """Speeds lie in (0, max_speed], are uniform there, and average
    max_speed / 2 (standard deviation max_speed / sqrt 12)."""
    max_speed = 25.0
    speeds = [v for _, _, v in drawn_legs(13, (300.0, 300.0), max_speed)]
    assert all(0.0 < v <= max_speed for v in speeds)
    n = len(speeds)
    assert ks_distance_from_uniform([v / max_speed for v in speeds]) \
        < ks_bound(n)
    mean = sum(speeds) / n
    assert abs(mean - max_speed / 2) < 4 * max_speed / math.sqrt(12 * n)


def test_mean_speed_decays_from_max_speed_over_two():
    """With leg speeds drawn down to zero, random waypoint has no
    stationary regime: slow legs last longer, so the ensemble's mean speed
    starts at max_speed / 2 and keeps falling (Yoon, Liu & Noble, INFOCOM
    2003).  Over the 600 desk nodes of seeds 1-20 it is about 12.9, 8.2
    and 5.7 m/s at 0, 25 and 200 s; each fall must exceed 4 combined
    standard errors."""
    mobs = [node.mobility for seed in range(1, 21)
            for node in Simulation(desk_profile(seed=seed)).nodes]
    stats = []
    for t in (0.0, 25.0, 200.0):
        speeds = []
        for mob in mobs:
            mob.position(t)
            speeds.append(mob.speed)
        mean = sum(speeds) / len(speeds)
        var = sum((v - mean) ** 2 for v in speeds) / (len(speeds) - 1)
        stats.append((mean, math.sqrt(var / len(speeds))))
    max_speed = mobs[0].max_speed
    assert abs(stats[0][0] - max_speed / 2) < 4 * stats[0][1]
    for (m0, se0), (m1, se1) in zip(stats, stats[1:]):
        assert m0 - m1 > 4 * math.hypot(se0, se1)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       area=st.tuples(st.floats(1.0, 1000.0), st.floats(1.0, 1000.0)),
       start=st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0)),
       max_speed=st.one_of(st.just(0.0), st.floats(0.01, 50.0)),
       pause=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
       steps=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=200))
@example(seed=1, area=(300.0, 300.0), start=(0.0, 0.0), max_speed=0.0,
         pause=0.0, steps=[0.0, 1.0, 500.0])
@example(seed=2, area=(300.0, 300.0), start=(150.0, 150.0), max_speed=25.0,
         pause=30.0, steps=[0.5] * 200)
def test_one_leg_walker_matches_reference(seed, area, start, max_speed,
                                          pause, steps):
    """The one-leg `Mobility` walks the same legs as the reference walker,
    with the same rng draws, and every position is bit-equal: moving and
    static nodes, with and without pauses."""
    new = Mobility(random.Random(seed), start, area, max_speed, pause)
    old = ReferenceMobility(random.Random(seed), start, area, max_speed,
                            pause)
    for t in itertools.accumulate(steps):
        assert new.position(t) == old.position(t)
        s = old.state
        assert (new.origin, new.waypoint, new.speed, new.leg_start) \
            == (s.position, s.waypoint, s.speed, s.leg_start)


# ---------------------------------------------------------------------------
# two static nodes in range: analytic delivery

TWO_NODES = [(0.0, 0.0), (100.0, 0.0)]


def two_node_config(protocol):
    return ScenarioConfig(node_count=2, flows=1, max_speed=0.0,
                          sim_duration=30.0, protocol=protocol, rng_seed=5)


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_two_node_flow_delivers_everything(protocol):
    res = run_scenario(two_node_config(protocol), trace=True,
                       positions=TWO_NODES)
    assert res.sent > 0
    assert res.delivered == res.sent
    # steady-state delay is one store-and-forward hop: serialization at the
    # link rate plus propagation over 100 m
    data_sizes = {r[6] for r in res.packet_rows if r[1] == "DATA"}
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
    kinds = [r[1] for r in res.packet_rows]
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


def test_forged_zero_tag_is_not_an_address_leak():
    """A blackhole forges its reply tag as 32 zero bytes, which hold the
    8-byte encoding of node 0, so the header as sent holds it.  The tag
    carries no address, so with node 0 as a flow endpoint the scan counts
    no violation; an address field that names node 0 still counts one."""
    sim = Simulation(two_node_config(ProtocolKind.TAP3), positions=TWO_NODES,
                     check_privacy=True)
    flow = sim.flows[0]
    assert 0 in (flow.src, flow.dst)
    forged = Packet(PacketKind.RREP, flow.flow_id, sim.new_pid(),
                    forward_alias=flow.ps_chain.current,
                    reverse_alias=flow.pd_chain.current, tag=bytes(32))
    assert encode_node_id(0) in loop_header_bytes(forged)
    sim.transmit(1, 0, forged, control=True)
    assert (sim.result.privacy_checks, sim.result.privacy_violations) == (1, 0)
    leaky = forged.copy()
    leaky.src_addr = 0
    sim.transmit(1, 0, leaky, control=True)
    assert (sim.result.privacy_checks, sim.result.privacy_violations) == (2, 1)


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_a_data_packet_has_exactly_one_fate(protocol):
    """Handing an already-delivered data packet to its destination again
    is an error, not a second delivery."""
    sim = Simulation(two_node_config(protocol), positions=TWO_NODES)
    sim.run()
    flow = sim.flows[0]
    pid = next(p for p, s in sim.packet_state.items() if s == "delivered")
    with pytest.raises(RuntimeError, match="it is delivered"):
        sim.dispatch(flow.dst, Packet(PacketKind.DATA, flow.flow_id, pid),
                     flow.src)
    assert sim.packet_state[pid] == "delivered"


def small_scenario(seed):
    """A short run of 2-40 nodes on an area from a fraction of the radio
    range to several ranges across, with up to four attackers of any kind
    and as many flows as the honest nodes allow.  Every field is drawn
    uniformly from `seed`: hypothesis' own draws favour the bounds, and in
    a trial 49 of 81 drawn scenarios had no flow at all."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    ids = rng.sample(range(n), rng.randint(0, min(4, n)))
    attackers = []
    for nid in ids:
        kind = rng.choice(list(AttackKind))
        param = (rng.uniform(0.01, 1.0) if kind is AttackKind.PASSIVE_DROP
                 else float(rng.randint(1, 1000)))
        attackers.append(AttackerSpec(nid, kind, param))
    duration = float(rng.randint(20, 60))
    return ScenarioConfig(
        node_count=n, attackers=attackers,
        flows=rng.randint(0, (n - len(ids)) // 2),
        area_x=float(rng.randint(20, 1000)),
        area_y=float(rng.randint(20, 1000)),
        max_speed=0.0 if rng.random() < 0.25 else rng.uniform(0.5, 30.0),
        pause_time=rng.uniform(0.0, duration), sim_duration=duration,
        pkt_rate=rng.choice([1.0, 4.0]),
        protocol=rng.choice(list(ProtocolKind)),
        rng_seed=rng.getrandbits(32))


class DiscoveryCheckedSimulation(Simulation):
    """Checks, each time a discovery round times out still outstanding and
    each time the source takes a reply while its round is outstanding,
    that the source kept no path of that round: `_source_accept` clears
    `discovering` before it appends one, which is why it starts the
    round's path list empty.  After every reply the source takes, checks
    that no two kept paths share a (round, path id), which `_source_accept`
    does not test.  Each time a data packet is sent or buffered, checks
    that no packet waits behind a round that timed out with no retry
    scheduled, unless that retry would have fallen after the run's end.
    Each time `start_round` is called, checks its cause: START opens a
    flow's first round at its start time; REFRESH opens a round exactly
    when DRAIN_WINDOW is left; RETRY opens one exactly when a retry that
    `discovery_check` scheduled for an outstanding round falls due; LOSS
    never opens one while a round is outstanding."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # (flow id, round) of each round that timed out outstanding ->
        # whether it stayed outstanding with no retry scheduled
        self.timed_out = {}
        # (flow id, time) of each retry scheduled and not yet due
        self.retries = collections.Counter()

    def discovery_check(self, flow, rnd):
        outstanding = flow.round == rnd and flow.discovering
        if outstanding:
            assert not any(p.round == rnd for p in flow.paths)
        seq, backoff = self._event_seq, flow.backoff
        super().discovery_check(flow, rnd)
        if outstanding:
            self.timed_out[flow.flow_id, rnd] = (
                flow.discovering and self._event_seq == seq
                and self.now + backoff < self.config.sim_duration)
            if self._event_seq != seq:
                self.retries[flow.flow_id, self.now + backoff] += 1

    def start_round(self, flow, cause):
        rnd, outstanding = flow.round, flow.discovering
        super().start_round(flow, cause)
        started = flow.round != rnd
        if started:
            assert flow.rounds[flow.round].cause is cause
        if cause is RoundCause.START:
            assert started and rnd == 0 and self.now == flow.start_time
        elif cause is RoundCause.REFRESH:
            assert started == (self.now + DRAIN_WINDOW
                               < self.config.sim_duration)
        elif cause is RoundCause.RETRY:
            assert started and self.retries[flow.flow_id, self.now] > 0
            self.retries[flow.flow_id, self.now] -= 1
        else:
            assert not (started and outstanding)

    def _send_or_buffer(self, flow, pid, origin):
        super()._send_or_buffer(flow, pid, origin)
        if flow.pending and flow.discovering:
            assert not self.timed_out.get((flow.flow_id, flow.round))

    def _source_accept(self, flow, node, pkt, frm):
        if flow.discovering and pkt.round == flow.round:
            assert not any(p.round == pkt.round for p in flow.paths)
        super()._source_accept(flow, node, pkt, frm)
        kept = [(p.round, p.path_id) for p in flow.paths]
        assert len(set(kept)) == len(kept)


CBR_SHAPES = {
    # flow 0 sends every 0.25 s from 1.0 s, so on its route refreshes
    # (11.0 s baselines, 31.0 s tap3) and audit ticks (26.0 s)
    "desk": {},
    # a period of 1/3 s: the accumulated send times drift from 1.0 + k/3
    "rate3": {"pkt_rate": 3.0, "sim_duration": 30.0},
    # the last send time is 1.5 s: flows 0 and 1 send, flows 2 and 3
    # start at 1.5 and 1.75 s and push no send
    "late": {"sim_duration": 3.5},
    # a period of 0.1 s: flow 0's accumulated send times reach
    # 17.99999999999999, within float error of the last send time 18 s
    "rate10": {"pkt_rate": 10.0, "sim_duration": 20.0},
}
SHAPES = {
    **CBR_SHAPES,
    "desk": {"sim_duration": 40.0},
    "sparse": {"node_count": 60, "area_x": 600.0, "area_y": 600.0,
               "sim_duration": 40.0},
    # at tap3 seed 15 a destination misses its trapdoor, takes the request
    # key as a relay and still hears the later copies (see test_golden)
    "wide": {"node_count": 40, "area_x": 1200.0, "area_y": 1200.0,
             "sim_duration": 100.0},
}


def shaped(protocol, seed, shape):
    return replace(desk_profile(protocol, seed=seed), **SHAPES[shape])


def observed(sim, res):
    """Every output of a traced, privacy-checked run."""
    return (report_from_result(res).csv_row(), res.packet_rows,
            res.verdict_rows, res.audit_rows, res.audit_export,
            sim.packet_state, res.classifier_flags, res.audit_active,
            res.audit_passive, res.privacy_checks, res.privacy_violations,
            res.delays)


@settings(max_examples=70, deadline=None, derandomize=True)
@given(cfg=st.integers(0, 2 ** 32 - 1).map(small_scenario))
# a blackhole forges an all-zero tag on a path to endpoint node 0
@example(cfg=ScenarioConfig(
    area_x=50, area_y=25, node_count=24, max_speed=0, sim_duration=40,
    flows=10, pkt_rate=1, rng_seed=1153807479, attackers=[
        AttackerSpec(17, AttackKind.BLACK_HOLE, 1),
        AttackerSpec(19, AttackKind.SEQ_INFLATION, 1000),
        AttackerSpec(10, AttackKind.SEQ_INFLATION, 1),
        AttackerSpec(14, AttackKind.PASSIVE_DROP, 0.129)]))
# the desk flood reaches many nodes that already hold the request
@example(cfg=shaped(ProtocolKind.TAP3, 1, "desk"))
@example(cfg=shaped(ProtocolKind.S_MPRF, 1, "desk"))
@example(cfg=shaped(ProtocolKind.TAP3, 15, "wide"))
@example(cfg=shaped(ProtocolKind.TAP3, 1, "rate3"))
@example(cfg=shaped(ProtocolKind.S_MPRF, 1, "late"))
@example(cfg=shaped(ProtocolKind.MPRF, 1, "rate10"))
def test_random_small_scenarios_keep_run_invariants(cfg):
    """Whole-run invariants: every sent data packet has exactly one fate,
    nodes stay in the area, pseudonymous headers name no endpoint, exactly
    `flows` flows run, the trace's audit logs replay to the live verdicts,
    and only the trust layer advances the alias chains.  The checks of
    `DiscoveryCheckedSimulation` hold throughout.  And the differential
    check: `NaiveSimulation`, every speed-up off, gives every output."""
    sim = DiscoveryCheckedSimulation(cfg, trace=True, check_privacy=True)
    res = sim.run()
    if not cfg.protocol.trust_layer:
        for flow in sim.flows:
            assert flow.ps_chain.index == flow.pd_chain.index == 1
    assert len(sim.flows) == cfg.flows
    assert set(sim.packet_state.values()) <= {IN_FLIGHT, *FATES}
    assert res.sent == len(sim.packet_state) == (
        res.delivered + res.lost_link + res.dropped_attack
        + res.dropped_noroute + res.buffered_end + res.in_flight_end)
    assert len(res.delays) == res.delivered
    if cfg.protocol.uses_pseudonyms:
        assert res.privacy_violations == 0
        assert res.privacy_checks > 0 or cfg.flows == 0
    if cfg.protocol is ProtocolKind.TAP3:
        assert replayed_rows(res) == live_rows(res)
    twin = NaiveSimulation(cfg, trace=True, check_privacy=True)
    assert observed(twin, twin.run()) == observed(sim, res)


@pytest.mark.parametrize("protocol", [ProtocolKind.TAP3, ProtocolKind.S_MPRF])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_runs_equal_the_naive_twin(protocol, seed):
    """The differential check on the benchmark's sparse shape (60 nodes on
    600 x 600 m, 100 s), whose route requests cross long relay chains and
    whose audits cover paths of several relays, which the small draws
    above rarely reach: every `RunResult` field and the packet ledger
    equal `NaiveSimulation`'s."""
    cfg = replace(shaped(protocol, seed, "sparse"), sim_duration=100.0)
    sim = Simulation(cfg, trace=True, check_privacy=True)
    res = sim.run()
    twin = NaiveSimulation(cfg, trace=True, check_privacy=True)
    assert vars(twin.run()) == vars(res)
    assert twin.packet_state == sim.packet_state
    # a destination heard a request over four relays or more, and an
    # audit covered a path of three relays or more
    assert max(len(relays) for flow in sim.flows
               for record in flow.rounds.values()
               for _, _, relays in record.candidates) >= 4
    if protocol.trust_layer:
        assert max(len(relays)
                   for _, _, relays, _, _ in res.audit_export[1]) >= 3


def test_timed_out_round_does_not_hold_back_rediscovery():
    """Tap3 at seed 19, pause 10: flow 3's source rejects every reply of a
    refresh round while its older paths still carry the traffic.  When
    those paths break later, the packets it buffers start a new round; they
    do not wait for the next refresh behind the timed-out one."""
    sim = DiscoveryCheckedSimulation(desk_profile(ProtocolKind.TAP3, 10.0,
                                                  19))
    sim.run()
    assert (3, 6) in sim.timed_out


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


def test_destination_that_relays_its_request_still_hears_it(monkeypatch):
    """A destination whose trapdoor misses the first copy of a request
    takes the key as a relay, but stays in the key's listener record, so
    later copies still reach it and are checked again."""
    relayed, heard_after = set(), []
    transmit, dispatch = Simulation.transmit, Simulation.dispatch

    def recording_transmit(self, sender, to, pkt, control):
        if to is None and sender == self.flows[pkt.flow_id].dst:
            relayed.add(pkt.packet_id)
        return transmit(self, sender, to, pkt, control)

    def recording_dispatch(self, nid, pkt, frm):
        if pkt.packet_id in relayed and nid == self.flows[pkt.flow_id].dst:
            heard_after.append(pkt.packet_id)
        return dispatch(self, nid, pkt, frm)

    monkeypatch.setattr(Simulation, "transmit", recording_transmit)
    monkeypatch.setattr(Simulation, "dispatch", recording_dispatch)
    run_scenario(shaped(ProtocolKind.TAP3, 22, "wide"))
    assert relayed and heard_after


def test_late_copy_of_an_older_round_makes_a_missed_round_match():
    """A destination stays in a request's listener record after its
    trapdoor misses the request: a late copy of an older round can slide
    the window over the missed round's alias, and the next copy of the
    missed round then matches."""
    sim = Simulation(two_node_config(ProtocolKind.TAP3), positions=TWO_NODES)
    flow = sim.flows[0]
    requests = {}
    sim.transmit = lambda sender, to, pkt, control: requests.setdefault(
        pkt.round, pkt)
    for _ in range(17):
        sim.start_round(flow, RoundCause.RETRY)
    assert sorted(requests) == list(range(1, 18))
    # round 17's alias lies past the window [1, 17): taken as a relay
    sim.dispatch(flow.dst, requests[17].copy(), flow.src)
    assert flow.rounds[17].request is None
    assert (flow.flow_id, 17) in sim.nodes[flow.dst].rev_routes
    # round 16 matches and slides the window to [16, 32)
    sim.dispatch(flow.dst, requests[16].copy(), flow.src)
    assert flow.rounds[16].request is not None
    sim.dispatch(flow.dst, requests[17].copy(), flow.src)
    assert flow.rounds[17].request is not None


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_late_request_copy_is_not_answered_again(protocol):
    """A copy of a request that reaches its destination after the round's
    reply is added to the round's record but schedules no second reply."""
    cfg = replace(two_node_config(protocol), sim_duration=1.5)
    sim = Simulation(cfg, positions=TWO_NODES)
    sim.run()
    flow = sim.flows[0]
    dst = sim.nodes[flow.dst]
    rreq, cands = flow.rounds[1].request, flow.rounds[1].candidates
    heard, oseq = len(cands), dst.oseq
    assert flow.paths and oseq > 0      # the round was answered
    sim.dispatch(dst.id, rreq, flow.src)
    assert len(cands) == heard + 1
    assert not sim._events and dst.oseq == oseq


def test_broadcast_of_a_reply_is_an_error():
    sim = Simulation(replace(desk_profile(), sim_duration=10.0))
    with pytest.raises(ValueError, match="broadcast"):
        sim.transmit(3, None, Packet(PacketKind.RREP, 0, 1), control=True)
    assert sim.result.control_tx == 0 and not sim._events


def test_leaving_the_collector_pause_starts_no_collection():
    """Leaving the pause allocates nothing, so the collection that the
    body's allocations are owed starts at the caller's next allocation,
    after a run has been dropped, not while all of it is still alive."""
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        with collector_paused():
            alive = [[] for _ in range(10_000)]
        started = len(starts)
    finally:
        gc.callbacks.remove(record)
        if not enabled:
            gc.disable()
    assert started == 0 and len(alive) == 10_000


# ---------------------------------------------------------------------------
# event order: every handler the loop runs, at its time, in its order

class Timeline(Simulation):
    """Records each reception, CBR send, route refresh, audit tick,
    discovery check and destination reply as `(repr(now), name, ids)`:
    a reception's ids are its frame kind, receiver, sender and packet id,
    every other event's its flow id.  Only handlers are overridden, so
    the record follows whatever the event machinery pushes and pops.
    Also keeps the most sends of one flow that the heap holds after a
    send, counting the `(time, number, app_send, (flow,))` entries."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.timeline = []
        self.most_pending_sends = 0

    def _record(self, name, ids):
        self.timeline.append((repr(self.now), name, ids))

    def dispatch(self, nid, pkt, frm):
        self._record("recv", (pkt.kind.text, nid, frm, pkt.packet_id))
        super().dispatch(nid, pkt, frm)

    def app_send(self, flow):
        self._record("send", flow.flow_id)
        super().app_send(flow)
        pending = collections.Counter(
            args[0].flow_id for _, _, fn, args in self._events
            if fn == self.app_send)
        self.most_pending_sends = max(self.most_pending_sends,
                                      *pending.values(), 0)

    def start_round(self, flow, cause):
        if cause is RoundCause.REFRESH:
            self._record("refresh", flow.flow_id)
        super().start_round(flow, cause)

    def audit_tick(self, flow):
        self._record("audit", flow.flow_id)
        super().audit_tick(flow)

    def discovery_check(self, flow, rnd):
        self._record("check", flow.flow_id)
        super().discovery_check(flow, rnd)

    def dest_reply(self, node, flow, rnd):
        self._record("reply", flow.flow_id)
        super().dest_reply(node, flow, rnd)


# sha256 of the repr of each run's timeline, and its final event number
EVENT_ORDER = {
    ("desk", ProtocolKind.TAP3): (
        "25c4dc4497996ef2d5ff666bcfd5d54c7c42b9e92a1696bc129059f024d4df3a",
        2666),
    ("desk", ProtocolKind.S_MPRF): (
        "c7e9a048df8a6210919acf6e13e636ba229cd4873a2aa7dff40b169a44f86345",
        3521),
    ("desk", ProtocolKind.MPRF): (
        "1cb4bec265e56ede5f24ca2209b84f225e8229a1ad02fb750814faff3f35d5e7",
        3393),
    ("sparse", ProtocolKind.TAP3): (
        "4613f8f7332b40ae66f8ccaf6cc6dee3832e093b5123d8b3212dc6e6260db3e3",
        5956),
    ("rate3", ProtocolKind.TAP3): (
        "6ed20395c7deb142f66824c48a4d1d92c046faecc467907c76534087aec37c53",
        1483),
    ("late", ProtocolKind.TAP3): (
        "ce37cecc976b3f6e9fe9a8fa6655c15affb4294dbc678cada74802b0bd31e758",
        426),
    ("rate10", ProtocolKind.TAP3): (
        "32539d74389e51f75d782df3e8d51367bf74107c5e8db6603a8af1152a0628ed",
        2520),
}


@pytest.mark.parametrize("shape, protocol", sorted(
    EVENT_ORDER, key=lambda k: (k[0], k[1].name)))
def test_event_order_golden(shape, protocol):
    """Every handler runs at the same time, in the same order, with the
    same arguments, and the run pushes the same number of events.  The
    pins do not depend on how an entry holds its call, only on the
    order in which the `(time, number)` keys pop."""
    sim = Timeline(shaped(protocol, 1, shape))
    sim.run()
    digest = hashlib.sha256(repr(sim.timeline).encode()).hexdigest()
    assert (digest, sim._event_seq) == EVENT_ORDER[shape, protocol]


@pytest.mark.parametrize("shape", sorted(CBR_SHAPES))
@pytest.mark.parametrize("protocol", [ProtocolKind.TAP3, ProtocolKind.S_MPRF,
                                      ProtocolKind.MPRF])
def test_one_pending_send_per_flow(protocol, shape):
    """Each flow's next CBR send is pushed only when its last one runs,
    so the heap holds one send per flow, under the event number that the
    flow's first send took: a send runs before a refresh or audit tick of
    its flow at the same instant."""
    cfg = replace(desk_profile(protocol), **CBR_SHAPES[shape])
    sim = Timeline(cfg)
    sim.run()
    assert sim.most_pending_sends == 1
    timeline = [(float(t), event, fid) for t, event, fid in sim.timeline
                if event in ("send", "refresh", "audit")]
    if shape == "desk":
        # a flow's send and its refresh or audit tick at one instant: the
        # send, numbered at flow start, runs first
        first = {}
        for i, (t, event, fid) in enumerate(timeline):
            first.setdefault((t, event == "send", fid), i)
        tied = [(t, fid) for t, is_send, fid in first
                if not is_send and (t, True, fid) in first]
        assert tied
        assert all(first[(t, True, fid)] < first[(t, False, fid)]
                   for t, fid in tied)
    elif shape == "rate3":
        sends = [t for t, event, fid in timeline
                 if event == "send" and fid == 0]
        assert any(t != 1.0 + k / 3.0 for k, t in enumerate(sends))
    elif shape == "late":
        assert {fid for _, event, fid in timeline if event == "send"} \
            == {0, 1}
    else:
        last = cfg.sim_duration - DRAIN_WINDOW
        assert any(0 < last - t < 1e-9 for t, event, _ in timeline
                   if event == "send")


CALLS = {("dispatch", 3), ("transmit", 4), ("app_send", 1)}


def test_receptions_sends_and_rebroadcasts_are_pushed_as_calls():
    """Receptions, route-request rebroadcasts and CBR sends go on the heap
    as the simulation's own bound methods with their arguments; every
    other entry is a timer, with no arguments, whose callable neither is
    nor calls one of those three."""
    seen = collections.Counter()

    class Scanned(Simulation):
        def on_rreq(self, node, pkt, frm):
            super().on_rreq(node, pkt, frm)
            for _, _, fn, args in self._events:
                if args:
                    assert fn.__self__ is self
                    seen[fn.__name__, len(args)] += 1
                    continue
                if isinstance(fn, functools.partial):
                    fn = fn.func
                names = {fn.__name__, *fn.__code__.co_names}
                assert not names & {name for name, _ in CALLS}
                seen["timer"] += 1

    Scanned(replace(desk_profile(seed=1), sim_duration=20.0)).run()
    assert set(seen) == CALLS | {"timer"}


# ---------------------------------------------------------------------------
# frames, clock and evidence-log invariants


@pytest.mark.parametrize("protocol", [ProtocolKind.TAP3, ProtocolKind.S_MPRF,
                                      ProtocolKind.MPRF])
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


CHAIN = 5                   # nodes 200 m apart; the flow runs end to end
CUT_AT = 40.0               # from then on the link 2 <-> 3 is out of range


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_every_hop_carries_its_frames_own_size(monkeypatch, protocol):
    """A frame is sized at its first send and keeps that size.  On a
    static chain whose middle link is cut during the run, every frame row
    of the trace carries `packet_size` of a freshly built frame of the
    same content: each route-request copy counts its own route record, and
    each hop of a reply, ack, DATA frame or route error carries the size
    its origin sent."""
    fields = list(inspect.signature(Packet).parameters)
    sent = []
    transmit, link = Simulation.transmit, Simulation.link

    def cut_link(self, a, b):
        ok, dist = link(self, a, b)
        return ok and not ({a, b} == {2, 3} and self.now >= CUT_AT), dist

    def recording_transmit(self, sender, to, pkt, control):
        size = packet_size(Packet(**{f: getattr(pkt, f) for f in fields}))
        ok = transmit(self, sender, to, pkt, control)
        if ok:
            sent.append((pkt.kind.text, pkt.packet_id, size))
        return ok

    monkeypatch.setattr(Simulation, "link", cut_link)
    monkeypatch.setattr(Simulation, "transmit", recording_transmit)
    cfg = ScenarioConfig(node_count=CHAIN, area_x=200.0 * (CHAIN - 1),
                         area_y=1.0, max_speed=0.0, sim_duration=60.0,
                         flows=1, protocol=protocol, rng_seed=3)
    res = run_scenario(cfg, trace=True,
                       positions=[(200.0 * i, 0.0) for i in range(CHAIN)])
    kinds = {k.text for k in PacketKind}
    rows = [(kind, pid, size) for _, kind, _, _, pid, _, size
            in res.packet_rows if kind in kinds]
    assert rows == sent
    # every kind is there, and each crosses more than one hop
    hops = collections.Counter((kind, pid) for kind, pid, _ in rows)
    assert {kind for kind, _ in hops} == kinds
    assert {kind for (kind, _), n in hops.items() if n > 1} == kinds
    # a route request's relayed copies are longer than its first send
    sizes = collections.defaultdict(set)
    for kind, pid, size in rows:
        sizes[kind, pid].add(size)
    assert all(len(s) == 1 for (kind, _), s in sizes.items()
               if kind != "RREQ")
    assert any(len(s) > 1 for s in sizes.values())


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_every_frame_carries_its_own_header(monkeypatch, protocol):
    """From its first send on, a pseudonymous RREQ, RREP or RREP_ACK frame
    carries its own encoding, whether an endpoint tagged it, a relay
    derived it from its parent's or `transmit` encoded it, also with the
    privacy scan off; no other frame, and no MPRF frame, is encoded."""
    scanned = {PacketKind.RREQ, PacketKind.RREP, PacketKind.RREP_ACK}
    seen = collections.Counter()
    transmit = Simulation.transmit

    def checked_transmit(self, sender, to, pkt, control):
        ok = transmit(self, sender, to, pkt, control)
        if protocol.uses_pseudonyms and pkt.kind in scanned:
            assert pkt.header == loop_header_bytes(pkt, include_tag=False)
            seen[pkt.kind] += 1
        else:
            assert pkt.header is None
        return ok

    monkeypatch.setattr(Simulation, "transmit", checked_transmit)
    run_scenario(shaped(protocol, 1, "sparse"))
    assert set(seen) == (scanned if protocol.uses_pseudonyms else set())


def test_event_in_the_past_is_an_error():
    cfg = replace(desk_profile(seed=1), sim_duration=10.0)
    sim = Simulation(cfg)
    sim.schedule(5.0, lambda: sim.schedule(4.0, lambda: None))
    with pytest.raises(RuntimeError, match="precedes the clock"):
        sim.run()


@pytest.mark.parametrize("protocol", [ProtocolKind.S_MPRF, ProtocolKind.MPRF])
def test_baseline_runs_build_no_trust_layer_state(protocol):
    """Only TAP3 runs the trust layer, so a baseline run keeps no sequence
    monitor, no source audit records and no evidence log."""
    sim = Simulation(desk_profile(protocol, seed=1))
    sim.run()
    for node in sim.nodes:
        assert node.monitor is None
        assert node.log is None
    for flow in sim.flows:
        assert flow.rounds
        assert all(r.control is None for r in flow.rounds.values())
        assert flow.audit_queue == {}


def test_second_log_event_of_a_claim_raises():
    """A duplicate evidence-log claim is an error that fails the run, not
    a refused append."""
    sim = Simulation(desk_profile(seed=1))
    node = sim.nodes[5]
    pkt = Packet(PacketKind.DATA, 0, 10 ** 9)  # no real packet has this id
    node.log_event(pkt.packet_id, EventKind.RECEIVED, pkt, 0.0,
                   node.log_alias)
    with pytest.raises(DuplicateEntryError):
        node.log_event(pkt.packet_id, EventKind.RECEIVED, pkt, 0.0,
                       node.log_alias)
    assert len(node.log.entries) == 1
