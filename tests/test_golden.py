"""Byte-identity gate: the metrics CSV row and the `--trace` file of a few
desk runs are pinned by sha256.  The CSV row of the same run untraced,
the way the sweeps run, must hash to the same pinned value.  A refactor
or speed-up must leave them unchanged; a change that alters them on
purpose updates the table and says why."""

import hashlib
from dataclasses import replace

import pytest

from tap3sim.cli import write_trace_file
from tap3sim.metrics import CSV_COLUMNS, report_from_result
from tap3sim.routing import ProtocolKind
from tap3sim.sim import Simulation, desk_profile, run_scenario

# (protocol, seed, pause) -> (csv sha256, trace sha256)
GOLDEN = {
    ("tap3", 1, 0.0): (
        "b88f54fcecfac928d4666b00dcc42d069e177ef82e5fc9314369a3f8e2cd6e96",
        "89b9953141e5e0f8e151ac2e49ef2b786ebfae94ccc23a83c6c3ac3b33e2577e"),
    ("tap3", 1, 30.0): (
        "fbee1a79dbec493587310088aedfb4b7d94fbaa4e3d383372b80578cde21b585",
        "838935eb6f8aa8f02fa363de43157f53d70c31506721fb1882a7df16160ed245"),
    ("tap3", 2, 0.0): (
        "7fa6f59a696fc0ceb400fa15c779a8dc4448e5e2b2933770bb79d4e801b1b033",
        "586a0f91ed9eb81b55fe65af4046bfd03f4bd1216ac097e7d5a9ff46e50bf3a1"),
    ("tap3", 2, 30.0): (
        "faed0bda8449f480fa6f5aba54f58a1cc95f1c425111208a15fd87be912ebe21",
        "84aff3d96778f9127c8a59d84b2a0fdc6185528d70eda64f0d61ffe874194bf0"),
    ("tap3", 3, 0.0): (
        "01f0e09f8041262cf693a2326d4b32e0dd9252f4b1613426fc54f5c4152c16e2",
        "eeafde88774d58802c1b57dc94bd65f7af930c7e71579d15ef076701340f4d64"),
    ("tap3", 3, 30.0): (
        "78cd78eab6b567869f342b61c59fb76a2b2730e9388271b0d8cd9d0b693f84ba",
        "2e653383d97eddfd0b1c198dee7ea1f32154c13f72b5c6c36fd250e7f7b20a7e"),
    ("smprf", 1, 0.0): (
        "5bb2fa98674caf68a9787138eb85510648222d3fdc74eede9e9fa07a0b233117",
        "1922bc927b1b93f70ced23f442999e0d9c67486cf5943aa9e90c527206d58bcc"),
    ("mprf", 1, 0.0): (
        "3cd4528fb69fbee38a3c15fa92a920fddc7a173ff57b6565b34ea98beb5ad936",
        "40ba4bb36c5171e713f3426882ff26cfc0556aee56516a7dbe09a875974f7e54"),
}

# The desk profile on 60 nodes over 600 x 600 m for 100 s.  About half of
# its link queries are out of range, against about 3 % on the desk, so it
# pins the radio's out-of-range branch and longer multi-hop paths.
SPARSE = {"node_count": 60, "area_x": 600.0, "area_y": 600.0,
          "sim_duration": 100.0}
SPARSE_GOLDEN = {
    ("tap3", 1, 0.0): (
        "4f6a770d2489841b5f6bc3d277151994ee5c3e6eeeb0c3c1df36ff9000615ccf",
        "2cbd7470bbe232eff9a9046ba64818f353cd102900abd6e5526ba46a238dc441"),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_hash(result) -> str:
    return sha((CSV_COLUMNS + "\n" + report_from_result(result).csv_row()
                + "\n").encode())


def output_hashes(tmp_path, cfg) -> tuple[str, str]:
    result = run_scenario(cfg, trace=True, check_privacy=True)
    trace = tmp_path / "run.trace"
    write_trace_file(str(trace), result)
    return csv_hash(result), sha(trace.read_bytes())


def untraced_csv_hash(cfg) -> str:
    return csv_hash(run_scenario(cfg, check_privacy=True))


@pytest.mark.parametrize("protocol,seed,pause", sorted(GOLDEN))
def test_desk_outputs_byte_identical(tmp_path, protocol, seed, pause):
    cfg = desk_profile(ProtocolKind(protocol), pause, seed)
    assert output_hashes(tmp_path, cfg) == GOLDEN[(protocol, seed, pause)]
    assert untraced_csv_hash(cfg) == GOLDEN[(protocol, seed, pause)][0]


@pytest.mark.parametrize("protocol,seed,pause", sorted(SPARSE_GOLDEN))
def test_sparse_outputs_byte_identical(tmp_path, protocol, seed, pause):
    cfg = replace(desk_profile(ProtocolKind(protocol), pause, seed), **SPARSE)
    assert output_hashes(tmp_path, cfg) == \
        SPARSE_GOLDEN[(protocol, seed, pause)]
    assert untraced_csv_hash(cfg) == SPARSE_GOLDEN[(protocol, seed, pause)][0]


# The desk profile on 40 nodes over 1200 x 1200 m for 100 s.  In the tap3
# run at seed 15 a flow's true destination misses its trapdoor check on
# the first copy of a route request seven times.  It then takes the
# request's key as a relay and rebroadcasts it, but still hears the later
# copies as the destination.
WIDE = {"node_count": 40, "area_x": 1200.0, "area_y": 1200.0,
        "sim_duration": 100.0}
WIDE_GOLDEN = {
    ("tap3", 15, 0.0): (
        "84db6e43fef75d646b36a7cb3fdfbff5e449733979c307f3b402a58a7161c376",
        "76c3714c9abf79580b5a9aa5300f9e3fb45b4aafa987983bc8a43c023b0719b5"),
}


@pytest.mark.parametrize("protocol,seed,pause", sorted(WIDE_GOLDEN))
def test_trapdoor_miss_outputs_byte_identical(tmp_path, monkeypatch,
                                              protocol, seed, pause):
    relayed_by_destination = []
    transmit = Simulation.transmit

    def recording_transmit(self, sender, to, pkt, control):
        if to is None and sender == self.flows[pkt.flow_id].dst:
            relayed_by_destination.append(pkt.packet_id)
        return transmit(self, sender, to, pkt, control)

    monkeypatch.setattr(Simulation, "transmit", recording_transmit)
    cfg = replace(desk_profile(ProtocolKind(protocol), pause, seed), **WIDE)
    assert output_hashes(tmp_path, cfg) == \
        WIDE_GOLDEN[(protocol, seed, pause)]
    # the run still takes the branch it pins
    assert relayed_by_destination
    assert untraced_csv_hash(cfg) == WIDE_GOLDEN[(protocol, seed, pause)][0]
