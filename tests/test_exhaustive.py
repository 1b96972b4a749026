"""Bounded-exhaustive checks: every small static topology, run to the end.

Nodes sit on cells of a 3 x 3 lattice, 200 m apart, with a 250 m radio
range, so the links are the lattice edges (a diagonal is 283 m).  The
inputs are every connected set of 3 to 6 cells, through the `positions`
seam, each run under every protocol with no attacker: static, one flow
between the farthest pair (`_setup_flows`), 40 s, seed 3.  Every
expectation comes from the graph and the schedule, never from a recorded
output."""

import itertools
import math

import pytest

from tap3sim.routing import ProtocolKind
from tap3sim.sim import RoundCause, ScenarioConfig, Simulation

from test_closed_form import SPACING, round_starts

RANGE = 250.0
CELLS = [(SPACING * col, SPACING * row)
         for row in range(3) for col in range(3)]
SIZES = range(3, 7)


def linked(a, b) -> bool:
    return math.dist(a, b) <= RANGE


def connected(cells) -> bool:
    reached, frontier = {cells[0]}, [cells[0]]
    while frontier:
        here = frontier.pop()
        for other in cells:
            if other not in reached and linked(here, other):
                reached.add(other)
                frontier.append(other)
    return len(reached) == len(cells)


TOPOLOGIES = [cells for k in SIZES
              for cells in itertools.combinations(CELLS, k)
              if connected(cells)]


def test_lattice_has_155_connected_topologies():
    sizes = [len(cells) for cells in TOPOLOGIES]
    assert [sizes.count(k) for k in SIZES] == [22, 36, 49, 48]


@pytest.mark.parametrize("protocol", list(ProtocolKind))
@pytest.mark.parametrize("cells", TOPOLOGIES,
                         ids=lambda cells: "+".join(
                             str(CELLS.index(c)) for c in cells))
def test_static_topology_without_attacker_runs_clean(protocol, cells):
    """Every packet is delivered, no one is flagged or accused, the flow
    starts exactly the rounds of its refresh schedule (its START round and
    one REFRESH round per later start), and every path the source keeps
    is a simple path from the source to the destination over the
    lattice's links."""
    cfg = ScenarioConfig(node_count=len(cells), area_x=2 * SPACING,
                         area_y=2 * SPACING, max_speed=0.0,
                         sim_duration=40.0, flows=1, radio_range=RANGE,
                         protocol=protocol, rng_seed=3)
    sim = Simulation(cfg, positions=list(cells))
    res = sim.run()
    assert res.sent > 0 and res.delivered == res.sent
    assert not res.classifier_flags
    assert not (res.audit_active or res.audit_passive)
    (flow,) = sim.flows
    starts = len(round_starts(cfg))
    assert flow.round == starts
    assert [r.cause for r in flow.rounds.values()] == (
        [RoundCause.START] + [RoundCause.REFRESH] * (starts - 1))
    assert flow.paths
    for path in flow.paths:
        hops = [flow.src, *path.relays, flow.dst]
        assert len(set(hops)) == len(hops)
        assert all(linked(cells[a], cells[b])
                   for a, b in itertools.pairwise(hops))
