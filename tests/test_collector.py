"""The cycle-collector pause.  `Simulation.run` and every command of
`cli.main` run with CPython's automatic cycle collection paused, which
is sound only while a run, its report and trace and a replay make no
reference cycle: these tests pin that invariant, and that the pause
always hands the caller's collector state back."""

import gc
import json
from dataclasses import replace

import pytest

from tap3sim.cli import build_parser, main, replay_audits, write_trace_file
from tap3sim.metrics import report_from_result
from tap3sim.routing import ProtocolKind
from tap3sim.sim import (
    DESK_CONFIG_TEXT,
    AttackerSpec,
    AttackKind,
    Mobility,
    Simulation,
    desk_profile,
    run_scenario,
)

SHAPES = {
    "desk": {"sim_duration": 60.0},
    "sparse": {"node_count": 60, "area_x": 600.0, "area_y": 600.0,
               "sim_duration": 30.0},
}


@pytest.fixture
def collector():
    """Leave the collector as it was found, whatever a test does to it."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()


def scenario(protocol: ProtocolKind, shape: str):
    cfg = replace(desk_profile(protocol, 0.0, 3), **SHAPES[shape])
    if protocol is ProtocolKind.TAP3:
        # a live log forger, so the evidence path's forged branch runs too
        cfg.attackers.append(AttackerSpec(3, AttackKind.LOG_FORGERY, 1.0))
    return cfg


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_runs_and_replays_leave_no_cycles(collector, tmp_path, protocol,
                                         shape):
    """With collection paused throughout, every run, traced or not, with
    its report and trace file, and the replay of every written audit log
    leave nothing for a collection to free once their results are
    dropped."""
    cfg = scenario(protocol, shape)
    path = tmp_path / "run.trace"
    gc.disable()
    gc.collect()
    for trace in (False, True):
        result = run_scenario(cfg, trace=trace, check_privacy=True)
        report_from_result(result)
        write_trace_file(str(path), result)
        exported = result.audit_export is not None
        assert result.sent > 0
        del result
        assert gc.collect() == 0, f"run, trace={trace}"
        if exported:
            reports = replay_audits(json.loads(
                path.read_text().splitlines()[-1]))
            assert reports
            del reports
            assert gc.collect() == 0, "replay"
        assert exported == (trace and protocol.trust_layer)


class FailingReception(Simulation):
    """Fails on its 50th DATA reception, inside a handler that the event
    loop called with the receptions still queued behind it."""

    received = 0

    def on_data(self, node, pkt, frm):
        self.received += 1
        if self.received == 50:
            raise RuntimeError(f"reception at {self.now!r}")
        super().on_data(node, pkt, frm)


@pytest.mark.parametrize("failure", ["clock", "reception"])
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_failed_run_leaves_no_cycles(collector, protocol, failure):
    """A run that raises inside the event loop, at its clock check or
    inside a reception handler, drops its pending events, whose functions
    and arguments refer back to the simulation, so it is freed at once
    too, and so is the exception, whose traceback reaches into the run's
    frames."""
    gc.disable()
    gc.collect()
    cfg = replace(desk_profile(protocol, seed=1), sim_duration=10.0)
    if failure == "clock":
        sim = Simulation(cfg)
        sim.schedule(5.0, lambda: sim.schedule(4.0, lambda: None))
        match = "precedes the clock"
    else:
        sim = FailingReception(cfg)
        match = "reception at"
    with pytest.raises(RuntimeError, match=match) as failed:
        sim.run()
    assert sim.result.control_tx > 0 and not sim._events
    del sim, failed
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_collector_state(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    run_scenario(replace(desk_profile(seed=2), sim_duration=20.0))
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_failing_run_restores_the_callers_collector_state(
        collector, monkeypatch, enabled):
    monkeypatch.setattr(Mobility, "position", lambda self, t: (-1.0, 0.0))
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError, match="left the area"):
        run_scenario(replace(desk_profile(seed=2), sim_duration=20.0))
    assert gc.isenabled() is enabled


@pytest.fixture(scope="module")
def desk_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("collector") / "desk.trace"
    write_trace_file(str(path), run_scenario(
        replace(desk_profile(seed=2), sim_duration=60.0), trace=True))
    return path


@pytest.mark.parametrize("enabled", [True, False])
def test_audit_restores_the_callers_collector_state(
        collector, capsys, tmp_path, desk_trace, enabled):
    """After a replay, and after one that fails on a malformed log."""
    lines = desk_trace.read_text().splitlines()
    bad = tmp_path / "bad.trace"
    bad.write_text("\n".join(lines[:-1] + ['{"nodes": []}']) + "\n")
    (gc.enable if enabled else gc.disable)()
    assert main(["audit", "--trace", str(desk_trace)]) == 0
    assert gc.isenabled() is enabled
    assert main(["audit", "--trace", str(bad)]) == 1
    assert gc.isenabled() is enabled
    assert "'nodes' is not a JSON object" in capsys.readouterr().err


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "desk.conf"
    path.write_text(DESK_CONFIG_TEXT.replace("sim_duration = 200",
                                             "sim_duration = 60"))
    return str(path)


def test_cli_round_trip_starts_no_collection(collector, capsys, tmp_path,
                                             desk_config):
    """`tap3sim run --trace` and `tap3sim audit` each run paused from end
    to end, so no collection starts inside either call, however much they
    allocate."""
    trace = str(tmp_path / "desk.trace")
    calls = {"run": ["run", "--config", desk_config, "--out",
                     str(tmp_path / "desk.csv"), "--trace", trace],
             "audit": ["audit", "--trace", trace]}
    inside = [None]
    started = []

    def record(phase, info):
        if phase == "start" and inside[0] is not None:
            started.append((inside[0], info["generation"]))

    gc.enable()
    gc.callbacks.append(record)
    try:
        for name, argv in calls.items():
            # from an empty young generation, so that a collection owed
            # to the allocations before the call cannot start inside it
            gc.collect()
            inside[0] = name
            rc = main(argv)
            inside[0] = None
            assert rc == 0, name
    finally:
        gc.callbacks.remove(record)
    assert started == []
    assert "flow_id,verdict" in capsys.readouterr().out


def test_a_paused_sweep_leaves_only_the_parsers_cycles(collector, tmp_path,
                                                       desk_config):
    """A sweep runs under `cli.main`'s pause from its first run to its
    last, so its runs must leave nothing for a collection but the cycles
    of the argparse parser that each call builds."""
    gc.disable()
    gc.collect()
    build_parser()
    parser_cycles = gc.collect()
    assert main(["sweep", "--config", desk_config, "--pause", "0,30",
                 "--protocols", "tap3,smprf", "--seeds", "1,2", "--out",
                 str(tmp_path / "s.csv"), "--plots",
                 str(tmp_path / "plots")]) == 0
    assert gc.collect() == parser_cycles


@pytest.mark.parametrize("command", ["run", "sweep", "failing run"])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_collector_state(
        collector, monkeypatch, capsys, tmp_path, desk_config, command,
        enabled):
    """After a run, a sweep, and a run that fails inside (exit 2)."""
    if command == "failing run":
        monkeypatch.setattr(Mobility, "position", lambda self, t: (-1.0, 0.0))
    argv = (["sweep", "--config", desk_config, "--pause", "0",
             "--protocols", "smprf", "--seeds", "1", "--out",
             str(tmp_path / "s.csv")] if command == "sweep"
            else ["run", "--config", desk_config])
    (gc.enable if enabled else gc.disable)()
    assert main(argv) == (2 if command == "failing run" else 0)
    assert gc.isenabled() is enabled
    if command == "failing run":
        assert "left the area" in capsys.readouterr().err
