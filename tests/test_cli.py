import functools
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tap3sim
from tap3sim import metrics, sim
from tap3sim.cli import (
    AUDIT_COLUMNS,
    TRACE_HEADER,
    _entries_text,
    _parse_pauses,
    _parse_seeds,
    _path_text,
    forwarded_pids,
    main,
    replay_audits,
    write_trace_file,
)
from tap3sim.logaudit import (
    FELLOW,
    FORWARDED,
    EventKind,
    LogEntry,
    NodeLog,
    audit_route,
    entry_to_list,
)
from tap3sim.metrics import CSV_COLUMNS
from tap3sim.routing import PacketKind, ProtocolKind
from tap3sim.sim import (
    DESK_CONFIG_TEXT,
    Simulation,
    desk_profile,
    run_scenario,
)


def write_config(tmp_path, text=DESK_CONFIG_TEXT):
    path = tmp_path / "scenario.conf"
    path.write_text(text)
    return str(path)


def small_config_text():
    return DESK_CONFIG_TEXT.replace("sim_duration = 200", "sim_duration = 60")


def test_run_writes_csv_and_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config_text())
    out = tmp_path / "run.csv"
    trace = tmp_path / "run.trace"
    rc = main(["run", "--config", cfg, "--seed", "3",
               "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert lines[1].startswith("tap3,0,3,")
    text = trace.read_text()
    assert text.startswith("# tap3sim trace v1")
    assert "# audit-log" in text


def test_zero_flow_run_sends_nothing(tmp_path, capsys):
    text = small_config_text().replace("flows = 4", "flows = 0")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "run.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    # pdr and delay have no packet to average over
    assert out.read_text().splitlines()[1].startswith("tap3,0,1,nan,nan,")
    assert run_scenario(replace(desk_profile(), flows=0,
                                sim_duration=60.0)).sent == 0


def test_audit_replays_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config_text())
    trace = tmp_path / "run.trace"
    assert main(["run", "--config", cfg, "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["audit", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "verdict" in out.splitlines()[0]
    assert len(out.splitlines()) > 1


def test_audit_rejects_trace_without_log(tmp_path, capsys):
    trace = tmp_path / "bare.trace"
    trace.write_text("# tap3sim trace v1\n# packets\n")
    assert main(["audit", "--trace", str(trace)]) == 1


def _repeat_claim(export):
    entries = next(iter(export["nodes"].values()))
    entries.append(list(entries[-1]))
    return export, "recorded log of node"


def _clock_goes_back(export):
    entries = next(iter(export["nodes"].values()))
    back = list(entries[-1])
    back[1] = 10 ** 9                   # a packet id no entry has
    back[7] = entries[0][7] - 1.0
    entries.append(back)
    return export, "recorded log of node"


def _null_relays(export):
    export["paths"][0]["relays"] = None
    return export, "recorded path 0"


def _path_without_flow(export):
    del export["paths"][0]["flow"]
    return export, "recorded path 0"


def _nodes_as_list(export):
    export["nodes"] = list(export["nodes"].values())
    return export, "'nodes' is not a JSON object"


def _export_as_list(export):
    return [], "recorded audit log is not a JSON object"


def _first_entry(export, field, value):
    """Set one field of the first entry of the first recorded log."""
    entries = next(iter(export["nodes"].values()))
    entries[0][field] = value
    return export, "recorded log of node"


def _float_packet_id(export):
    # int() would truncate it to a valid id
    return _first_entry(export, 1, 12.0)


def _string_counter(export):
    return _first_entry(export, 3, "12")


def _fractional_event(export):
    # int() would read it as RECEIVED
    return _first_entry(export, 2, 1.9)


def _nan_timestamp(export):
    # NaN compares false to every other timestamp, so the regression
    # check alone lets it through, on the last entry as on any other
    entries = next(iter(export["nodes"].values()))
    entries[-1][7] = "nan"
    return export, "recorded log of node"


def _huge_timestamp(export):
    # a JSON integer too large for a float
    return _first_entry(export, 7, 10 ** 400)


def _huge_path_timestamp(export):
    i, path = next((i, p) for i, p in enumerate(export["paths"]) if p["data"])
    path["data"][0][7] = 10 ** 400
    return export, f"recorded path {i}"


def _bool_flow(export):
    export["paths"][0]["flow"] = True
    return export, "recorded path 0"


def _negative_packet_id(export):
    # fits no unsigned 64-bit field of the entry encoding
    return _first_entry(export, 1, -5)


def _bool_relay(export):
    # True == 1, so it would audit node 1's log
    export["paths"][0]["relays"] = [True]
    return export, "recorded path 0"


def _float_destination(export):
    export["paths"][0]["dst"] = float(export["paths"][0]["dst"])
    return export, "recorded path 0"


def _relays_as_string(export):
    path = export["paths"][0]
    path["relays"] = "".join(str(r) for r in path["relays"])
    return export, "recorded path 0"


def _first_alias(export, field, value):
    """Set one alias field of the first entry of the first recorded log
    to `value(old)`; the error must name that node."""
    nid, entries = next(iter(export["nodes"].items()))
    entries[0][field] = value(entries[0][field])
    return export, f"recorded log of node {nid}: "


def _short_alias(export):
    # `struct`'s 32s would pad it with a zero byte
    export, where = _first_alias(export, 0, lambda old: old[:-2])
    return export, where + "ValueError('pseudonym must be 32 bytes')"


def _long_alias(export):
    # `struct`'s 32s would cut the extra byte
    export, where = _first_alias(export, 6, lambda old: old + "ab")
    return export, where + "ValueError('pseudonym must be 32 bytes')"


def _non_hex_alias(export):
    return _first_alias(export, 6, lambda old: "zz" * 32)


def _integer_alias(export):
    return _first_alias(export, 0, lambda old: 7)


def _padded_node_key(export):
    nid = next(iter(export["nodes"]))
    export["nodes"]["0" + nid] = export["nodes"].pop(nid)
    return export, f"recorded log of node 0{nid}"


@pytest.fixture(scope="module")
def desk_trace_lines(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk40")
    cfg = write_config(tmp, DESK_CONFIG_TEXT.replace("sim_duration = 200",
                                                     "sim_duration = 40"))
    trace = tmp / "run.trace"
    assert main(["run", "--config", cfg, "--out", str(tmp / "run.csv"),
                 "--trace", str(trace)]) == 0
    return trace.read_text().splitlines()


@pytest.mark.parametrize("malform", [_repeat_claim, _clock_goes_back,
                                     _null_relays, _path_without_flow,
                                     _nodes_as_list, _export_as_list,
                                     _float_packet_id, _string_counter,
                                     _fractional_event, _nan_timestamp,
                                     _huge_timestamp, _huge_path_timestamp,
                                     _bool_flow, _negative_packet_id,
                                     _bool_relay, _float_destination,
                                     _relays_as_string, _padded_node_key,
                                     _short_alias, _long_alias,
                                     _non_hex_alias, _integer_alias],
                         ids=["repeated-claim", "timestamp-back",
                              "null-relays", "path-without-flow",
                              "nodes-list", "export-list",
                              "float-packet-id", "string-counter",
                              "fractional-event", "nan-timestamp",
                              "huge-timestamp", "huge-path-timestamp",
                              "bool-flow", "negative-packet-id",
                              "bool-relay", "float-destination",
                              "relays-as-string", "padded-node-key",
                              "31-byte-alias", "33-byte-alias",
                              "non-hex-alias", "integer-alias"])
def test_audit_rejects_malformed_trace(tmp_path, capsys, desk_trace_lines,
                                       malform):
    """A trace whose recorded logs or paths cannot be rebuilt, or whose
    recorded export has the wrong shape, is bad input: exit 1, naming the
    part, node or path, not a run failure."""
    lines = list(desk_trace_lines)
    at = lines.index("# audit-log") + 1
    export = json.loads(lines[at])
    assert export["paths"]
    export, where = malform(export)
    lines[at] = json.dumps(export)
    trace = tmp_path / "bad.trace"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["audit", "--trace", str(trace)]) == 1
    assert where in capsys.readouterr().err


SWEEP_ARGS = ["--pause", "0", "--protocols", "tap3", "--seeds", "1"]


@pytest.mark.parametrize("command,text,extra", [
    ("run", "node_count = 1\nmystery = 2\n", []),
    ("run", "node_count = 1\n", []),
    ("sweep", "node_count = 1\nmystery = 2\n", SWEEP_ARGS),
    ("sweep", "node_count = 1\n", SWEEP_ARGS),
    # pauses 0-60 are valid; 80 lies past the 60 s run
    ("sweep", small_config_text(),
     ["--pause", "0:80:20", "--protocols", "tap3", "--seeds", "1"]),
], ids=["run-parse", "run-invalid", "sweep-parse", "sweep-invalid",
        "sweep-pause-past-end"])
def test_bad_config_exits_one(tmp_path, capsys, monkeypatch, command, text,
                              extra):
    """A configuration error, in the file or in any cell of a sweep grid,
    exits 1 before any run starts and writes no output."""
    runs = []

    def counted_run(*args, **kwargs):
        runs.append(args)
        return run_scenario(*args, **kwargs)

    monkeypatch.setattr(metrics, "run_scenario", counted_run)
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(out)] + extra) == 1
    assert not out.exists()
    assert runs == []
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("pauses", ["0:inf:10", "0:60:inf", "0:60:nan"],
                         ids=["inf-stop", "inf-step", "nan-step"])
def test_non_finite_pause_range_exits_one(tmp_path, capsys, pauses):
    """A pause range with a non-finite bound or step is a usage error.  An
    infinite stop used to loop forever, and an infinite or NaN step used
    to give the one pause 0."""
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, small_config_text())
    assert main(["sweep", "--config", cfg, "--out", str(out), "--pause",
                 pauses, "--protocols", "tap3", "--seeds", "1"]) == 1
    assert not out.exists()
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("pauses, expected", [
    ("0:60:10", [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]),
    ("0:1:0.1", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
    ("0.5:2:0.25", [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]),
    ("5:1:1", []),
])
def test_pause_range_lists(pauses, expected):
    assert _parse_pauses(pauses, 60.0) == expected


def _limit_memory():
    # a range that is built before it is bounded fails fast here
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def _in_child(code, *args):
    """Run `code` with `args` in a child with a time and memory limit, so
    that a range that is built or walked before it is checked fails the
    test instead of growing or running without bound."""
    src = str(Path(tap3sim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=_limit_memory)


def _sweep_in_child(tmp_path, pauses, seeds):
    """`tap3sim sweep` on a 30 s desk config, run by `_in_child`.  Returns
    the child and the CSV path."""
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, DESK_CONFIG_TEXT.replace(
        "sim_duration = 200", "sim_duration = 30"))
    proc = _in_child(
        "import sys; from tap3sim.cli import main; sys.exit(main())",
        "sweep", "--config", cfg, "--out", str(out), f"--pause={pauses}",
        "--protocols", "tap3", f"--seeds={seeds}")
    return proc, out


@pytest.mark.parametrize("pauses, message", [
    ("0:1e12:1", "leaves [0, 30] s"),
    ("1:2:1e-17", "does not change a pause"),
    ("-10:20:10", "leaves [0, 30] s"),
], ids=["past-end", "step-below-resolution", "negative-start"])
def test_unbuildable_pause_range_exits_one(tmp_path, pauses, message):
    """A range whose pauses cannot all be valid exits 1 before its list is
    built."""
    proc, out = _sweep_in_child(tmp_path, pauses, "1")
    assert proc.returncode == 1, proc.stderr
    assert message in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0..18446744073709551616",
                                   "-1..3"], ids=["past-end", "negative"])
def test_seed_range_outside_64_bits_exits_one(tmp_path, seeds):
    """A `lo..hi` seed range with an end outside [0, 2**64) exits 1 at
    the grid check, before the range is walked or any CSV is written."""
    proc, out = _sweep_in_child(tmp_path, "0", seeds)
    assert proc.returncode == 1, proc.stderr
    assert "rng_seed must be a 64-bit unsigned integer" in proc.stderr
    assert not out.exists()


def test_sweep_grid_check_never_walks_the_seeds():
    """The grid check of a valid range of 2**64 seeds takes its two ends
    only; walking the range would run into the child's time limit."""
    proc = _in_child(
        "from tap3sim.metrics import SweepSpec\n"
        "from tap3sim.sim import desk_profile\n"
        "cfg = desk_profile()\n"
        "SweepSpec(cfg, [0.0], [cfg.protocol], range(2 ** 64)).validate()")
    assert proc.returncode == 0, proc.stderr


def test_seed_range_is_lazy_and_inclusive(tmp_path, capsys):
    assert _parse_seeds("1..3") == range(1, 4)
    assert _parse_seeds("3,1") == [3, 1]
    # a backward range is empty, and an empty grid exits 1 with no CSV
    assert not _parse_seeds("3..1")
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, small_config_text())
    assert main(["sweep", "--config", cfg, "--out", str(out), "--pause",
                 "0", "--protocols", "tap3", "--seeds", "3..1"]) == 1
    assert not out.exists()
    assert "non-empty" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, extra, message", [
    ("run", "protocol = olsr\n", [], "line 1: unknown protocol 'olsr'"),
    ("sweep", small_config_text(), ["--pause", "0", "--protocols",
                                    "tap3, olsr", "--seeds", "1"],
     "unknown protocol 'olsr'"),
], ids=["config", "sweep-flag"])
def test_unknown_protocol_exits_one(tmp_path, capsys, command, text, extra,
                                    message):
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(out)] + extra) == 1
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_sweep_run_failure_exits_two(tmp_path, capsys, monkeypatch):
    def failing_run(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(metrics, "run_scenario", failing_run)
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, small_config_text())
    assert main(["sweep", "--config", cfg, "--out", str(out)]
                + SWEEP_ARGS) == 2
    assert not out.exists()
    assert "run failed" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [("run", []),
                                           ("sweep", SWEEP_ARGS)],
                         ids=["run", "sweep"])
def test_value_error_inside_a_run_exits_two(tmp_path, capsys, monkeypatch,
                                            command, extra):
    """A fault inside a valid run is a run failure under both commands,
    even when it is a ValueError, which is otherwise a usage error."""
    def failing_run(self):
        raise ValueError("boom")

    monkeypatch.setattr(Simulation, "run", failing_run)
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, small_config_text())
    assert main([command, "--config", cfg, "--out", str(out)] + extra) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "boom" in err


def test_bad_usage_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.conf")]) == 1


@pytest.fixture
def runs(monkeypatch):
    """The runs that a command starts, recorded instead of run."""
    started = []
    for owner in ("tap3sim.cli", "tap3sim.metrics"):
        monkeypatch.setattr(f"{owner}.run_scenario",
                            lambda *args, **kwargs: started.append(args))
    return started


@pytest.mark.parametrize("flag", ["--trace", "--out"])
def test_empty_output_path_exits_one(tmp_path, capsys, runs, flag):
    """An empty path names no file: a usage error before any run, not a
    run whose output is silently skipped."""
    cfg = write_config(tmp_path, small_config_text())
    assert main(["run", "--config", cfg, flag, ""]) == 1
    assert runs == []
    assert f"argument {flag}: empty path" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, path", [
    ("run", "--out", "missing/x.csv"),
    ("run", "--trace", "missing/x.trace"),
    ("sweep", "--out", "missing/s.csv"),
    ("sweep", "--plots", "scenario.conf"),
], ids=["run-out", "run-trace", "sweep-out", "sweep-plots"])
def test_unwritable_output_path_exits_one(tmp_path, capsys, runs,
                                          command, flag, path):
    """An output file in a directory that does not exist, or a plot
    directory that is a file, is a usage error before any run, not a run
    failure after it."""
    cfg = write_config(tmp_path, small_config_text())
    target = str(tmp_path / path)
    args = [command, "--config", cfg, flag, target]
    if command == "sweep":
        args += SWEEP_ARGS
        if flag != "--out":
            args += ["--out", str(tmp_path / "s.csv")]
    assert main(args) == 1
    assert runs == []
    assert f"argument {flag}: cannot write {target}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command, out, flag, other", [
    ("run", "same.out", "--trace", "same.out"),
    ("run", "same.out", "--trace", "sub/../same.out"),
    ("sweep", "pdr_percent.svg", "--plots", "."),
], ids=["run", "run-resolved", "sweep"])
def test_two_outputs_in_one_file_exit_one(tmp_path, capsys, runs,
                                          command, out, flag, other):
    """Two outputs that resolve to one file are a usage error before any
    run, since the later write would overwrite the earlier one."""
    cfg = write_config(tmp_path, small_config_text())
    (tmp_path / "sub").mkdir()
    before = sorted(tmp_path.rglob("*"))
    args = [command, "--config", cfg, "--out", str(tmp_path / out),
            flag, str(tmp_path / other)]
    assert main(args + (SWEEP_ARGS if command == "sweep" else [])) == 1
    assert runs == [] and sorted(tmp_path.rglob("*")) == before
    assert f"--out and {flag} name one file" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("run", "--out"), ("run", "--trace"), ("sweep", "--out")])
def test_output_over_the_config_exits_one(tmp_path, capsys, runs,
                                          command, flag):
    """An output that resolves to the `--config` file is a usage error
    before any run: the write would replace the scenario with the
    output, and the next run would fail to parse it."""
    cfg = write_config(tmp_path, small_config_text())
    (tmp_path / "sub").mkdir()
    args = [command, "--config", cfg, flag,
            str(tmp_path / "sub" / ".." / "scenario.conf")]
    assert main(args + (SWEEP_ARGS if command == "sweep" else [])) == 1
    assert runs == [] and Path(cfg).read_text() == small_config_text()
    assert f"--config and {flag} name one file" in capsys.readouterr().err


def test_sweep_cli_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config_text())
    out = tmp_path / "sweep.csv"
    plots = tmp_path / "plots"
    rc = main(["sweep", "--config", cfg, "--pause", "0:20:20",
               "--protocols", "tap3,mprf", "--seeds", "1..2",
               "--out", str(out), "--plots", str(plots)])
    assert rc == 0
    lines = out.read_text().splitlines()
    # header + 2 protocols * 2 pauses * 2 seeds + 4 averaged rows
    assert len(lines) == 13
    assert (plots / "pdr_percent.svg").exists()


def fresh_alias_reports(export):
    """The replay of `export` with one new `bytes` for every alias field
    of every entry: the reference that `replay_audits`, which shares one
    `bytes` per alias, must match."""
    def entry(data):
        return LogEntry(bytes.fromhex(data[0]), data[1],
                        EventKind(data[2]), data[3], data[4], data[5],
                        bytes.fromhex(data[6]), data[7])

    published = {}
    for nid, entries in export["nodes"].items():
        log = NodeLog()
        for data in entries:
            log.append(entry(data))
        published[int(nid)] = log.publish()
    return [audit_route([published.get(r) for r in record["relays"]],
                        published.get(record["dst"]),
                        forwarded_pids([entry(e) for e in record["control"]]),
                        forwarded_pids([entry(e) for e in record["data"]]))
            for record in export["paths"]]


def test_replay_with_shared_aliases_matches_fresh_aliases():
    export = run_scenario(desk_profile(seed=3), trace=True).audit_export
    reports = replay_audits(export)
    assert reports
    assert reports == fresh_alias_reports(export)


def replayed_rows(result):
    paths = result.audit_export["paths"]
    return [report.csv_row(record["flow"]) for record, report
            in zip(paths, replay_audits(result.audit_export), strict=True)]


def test_replayed_audits_match_honest_runs():
    # static topology without attackers: every recorded path audit is clean
    cfg = replace(desk_profile(seed=2), sim_duration=80.0, attackers=[],
                  max_speed=0.0)
    result = run_scenario(cfg, trace=True)
    assert result.audit_export is not None
    reports = replay_audits(result.audit_export)
    assert reports
    assert all(r.verdict == FELLOW for r in reports)
    assert not any(r.passive_attackers for r in reports)
    assert replayed_rows(result) == result.audit_rows
    # mobile desk runs with all three attackers: relays that lose a link
    # log Dropped, and the replay reproduces every live audit row
    for seed in range(1, 6):
        result = run_scenario(desk_profile(seed=seed), trace=True)
        assert result.audit_rows
        assert "\n".join(replayed_rows(result)) == \
            "\n".join(result.audit_rows), seed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replayed_audits_match_runs_with_a_log_forger(seed):
    """Desk tap3 with a live log forger as node 3: the forger's exported
    log holds its forged claims (ids shifted by 1,000,000), and the replay
    still reproduces every live audit row."""
    cfg = replace(sim.parse_config(DESK_CONFIG_TEXT
                                   + "attacker = 3:logforgery:1\n"),
                  rng_seed=seed)
    result = run_scenario(cfg, trace=True)
    assert result.audit_rows
    assert replayed_rows(result) == result.audit_rows
    assert any(e[1] >= 1_000_000 for e in result.audit_export["nodes"]["3"])


def _audit_rows(lines):
    start = lines.index("# audits") + 2
    return lines[start:lines.index("# audit-log")]


@pytest.mark.parametrize("code, ignored", [(int(EventKind.RECEIVED), True),
                                           (int(FORWARDED), False)],
                         ids=["received", "forwarded"])
def test_audit_reads_only_forwarded_data_records(tmp_path, capsys,
                                                 desk_trace_lines, code,
                                                 ignored):
    """`tap3sim audit` holds a relay only to the data packets the source's
    recorded entries show as Forwarded: a record of another event for a
    packet no relay logged leaves every row as the live audit wrote it,
    and the same record as Forwarded accuses the first relay."""
    lines = list(desk_trace_lines)
    at = lines.index("# audit-log") + 1
    export = json.loads(lines[at])
    live = _audit_rows(lines)
    i = next(i for i, (record, row) in enumerate(zip(export["paths"], live))
             if record["relays"] and row.endswith(",FELLOW,,"))
    extra = list(export["paths"][i]["data"][-1])
    extra[1], extra[2] = 10 ** 9, code        # a packet id no node logged
    export["paths"][i]["data"].append(extra)
    lines[at] = json.dumps(export)
    trace = tmp_path / "extra.trace"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["audit", "--trace", str(trace)]) == 0
    replayed = capsys.readouterr().out.splitlines()[1:]
    if ignored:
        assert replayed == live
    else:
        assert replayed[i] != live[i] and replayed[i].endswith(",FELLOW,,1")
        assert replayed[:i] + replayed[i + 1:] == live[:i] + live[i + 1:]


class SendRecordingSimulation(Simulation):
    """Keeps, for every data packet a flow's source sends, the source's
    Forwarded entry for it, built from the frame as the source sent it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent_entries = {}

    def transmit(self, sender, to, pkt, control):
        ok = super().transmit(sender, to, pkt, control)
        if (ok and pkt.kind is PacketKind.DATA
                and sender == self.flows[pkt.flow_id].src):
            self.sent_entries[pkt.packet_id] = self.nodes[sender].log_entry(
                pkt.packet_id, FORWARDED, pkt, self.now)
        return ok


def test_exported_data_records_are_the_sources_forwarded_entries():
    cfg = replace(desk_profile(seed=2), sim_duration=60.0)
    traced = SendRecordingSimulation(cfg, trace=True)
    export = traced.run().audit_export
    rows = [row for record in export["paths"] for row in record["data"]]
    assert rows
    assert rows == [entry_to_list(traced.sent_entries[row[1]])
                    for row in rows]


# ---------------------------------------------------------------------------
# the trace writer streams what the one-string writer wrote

def one_string_trace(result) -> str:
    """The trace as the writer once built it: every line and the whole
    audit log joined into one string."""
    lines = [TRACE_HEADER, "# packets",
             "time,kind,from,to,packet_id,path_id,bytes"]
    lines += result.packet_rows
    lines += ["# verdicts",
              "node_id,sseq,oseq,dseq_delta,distance,threshold,label"]
    lines += result.verdict_rows
    lines += ["# audits", AUDIT_COLUMNS]
    lines += result.audit_rows
    if result.audit_export is not None:
        lines += ["# audit-log",
                  json.dumps(result.audit_export, sort_keys=True,
                             separators=(",", ":"))]
    return "\n".join(lines) + "\n"


TRACED_RUNS = {
    "desk-tap3": desk_profile(),
    "sparse-tap3": replace(desk_profile(), node_count=60, area_x=600.0,
                           area_y=600.0, sim_duration=100.0),
    "desk-mprf": desk_profile(ProtocolKind.MPRF),
}


@pytest.fixture(scope="module")
def traced_result():
    results = {}

    def get(name):
        if name not in results:
            results[name] = run_scenario(TRACED_RUNS[name], trace=True,
                                         check_privacy=True)
        return results[name]
    return get


@pytest.mark.parametrize("name", sorted(TRACED_RUNS))
def test_streamed_trace_equals_one_string_trace(tmp_path, traced_result,
                                                name):
    result = traced_result(name)
    assert (result.audit_export is None) == (name == "desk-mprf")
    trace = tmp_path / "run.trace"
    write_trace_file(str(trace), result)
    assert trace.read_bytes() == one_string_trace(result).encode()


# what the writer's templates take: an exported entry's aliases are the
# hex of 32 bytes and its timestamp finite; ids, counters and times range
# past anything a run records
_HEX = st.binary(min_size=32, max_size=32).map(bytes.hex)
_IDS = st.integers(0, 2**64 - 1)
_ENTRIES = st.tuples(
    _HEX, _IDS, st.sampled_from(EventKind), st.integers(-2**80, 2**80),
    st.integers(-2**80, 2**80), st.integers(-2**80, 2**80), _HEX,
    st.floats(allow_nan=False, allow_infinity=False)).map(list)
_PATHS = st.fixed_dictionaries({
    "flow": _IDS, "dst": _IDS, "relays": st.lists(_IDS, max_size=4),
    "control": st.lists(_ENTRIES, min_size=1, max_size=2),
    "data": st.lists(_ENTRIES, max_size=3)})


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(_ENTRIES, max_size=3), record=_PATHS)
@example(entries=[], record={"flow": 0, "dst": 2**64 - 1, "relays": [],
                             "control": [[("ab" * 32), 1, EventKind.RECEIVED,
                                          -1, 2**80, 0, "cd" * 32, -0.0]],
                             "data": []})
def test_trace_templates_write_what_the_json_encoder_writes(entries, record):
    """The writer's entry and path-record text is the audit log's
    encoding, `json.dumps(x, sort_keys=True, separators=(",", ":"))`."""
    encode = functools.partial(json.dumps, sort_keys=True,
                               separators=(",", ":"))
    assert f"[{_entries_text(entries)}]" == encode(entries)
    assert _path_text(record) == encode(record)


def transient_peak(write, path, result) -> int:
    """The most memory `write(path, result)` holds at once beyond what
    was allocated when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write(str(path), result)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_trace_write_holds_less_than_the_trace(tmp_path, traced_result):
    result = traced_result("desk-tap3")
    trace = tmp_path / "run.trace"
    peak = transient_peak(write_trace_file, trace, result)
    size = trace.stat().st_size
    assert peak < size
    # the measure sees a writer that holds the whole trace
    one_string = transient_peak(
        lambda path, res: Path(path).write_text(one_string_trace(res)),
        tmp_path / "one-string.trace", result)
    assert one_string > size


def test_audit_reads_crlf_trace(tmp_path, capsys, traced_result):
    trace = tmp_path / "run.trace"
    write_trace_file(str(trace), traced_result("desk-tap3"))
    crlf = tmp_path / "crlf.trace"
    crlf.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
    assert main(["audit", "--trace", str(trace)]) == 0
    rows = capsys.readouterr().out
    assert main(["audit", "--trace", str(crlf)]) == 0
    assert capsys.readouterr().out == rows
    assert len(rows.splitlines()) > 1
