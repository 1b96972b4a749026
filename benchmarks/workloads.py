"""The benchmark's workloads: input generation, one pass over a workload,
and the output checks.

A workload is a fixed list of run inputs `(protocol, pause, rng_seed)`
generated from the benchmark seed.  One pass runs every input once, in
order, through the same public entry point a user would call:
`metrics.sweep` for the sweep workloads and `cli.main` for `trace_audit`.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from tap3sim import cli, metrics, sim
from tap3sim.routing import ProtocolKind

import reference

GRID_PAUSES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
SPARSE = (("node_count", 60), ("area_x", 600.0), ("area_y", 600.0))
PSEUDONYMOUS = ("tap3", "smprf")   # protocols whose headers are checked


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "sweep" or "cli"
    protocols: tuple[str, ...]
    pauses: tuple[float, ...]      # one run input per pause, per protocol
    overrides: tuple = ()          # ScenarioConfig fields that differ


WORKLOADS = {
    "desk_tap3": Workload("desk_tap3", "sweep", ("tap3",), GRID_PAUSES),
    "desk_baselines": Workload("desk_baselines", "sweep", ("smprf", "mprf"),
                               GRID_PAUSES[::2]),
    "trace_audit": Workload("trace_audit", "cli", ("tap3",),
                            GRID_PAUSES[::2]),
    # 100-s runs: the work of a sparse run varies by about 20 % between
    # topologies, so seven 100-s runs per pass spread less between seeds
    # than four 200-s runs in the same host time
    "sparse_tap3": Workload("sparse_tap3", "sweep", ("tap3",), (0.0,) * 7,
                            SPARSE + (("sim_duration", 100.0),)),
}


@dataclass(frozen=True)
class RunInput:
    protocol: str
    pause: float
    rng_seed: int


def generate_inputs(wl: Workload, seed: int) -> list[RunInput]:
    """One rng_seed per pause point, shared by every protocol of the
    workload, drawn from the benchmark seed only."""
    rng = random.Random(f"tap3sim-bench:{wl.name}:{seed}")
    seeds = [rng.randrange(1, 2 ** 32) for _ in wl.pauses]
    return [RunInput(proto, pause, s) for proto in wl.protocols
            for pause, s in zip(wl.pauses, seeds)]


def scenario(wl: Workload, inp: RunInput,
             sim_duration: float | None = None) -> sim.ScenarioConfig:
    cfg = sim.desk_profile(ProtocolKind(inp.protocol), inp.pause, inp.rng_seed)
    cfg = replace(cfg, **dict(wl.overrides))
    if sim_duration is not None:
        cfg = replace(cfg, sim_duration=sim_duration)
    return cfg


def config_text(cfg: sim.ScenarioConfig) -> str:
    """Scenario file for `cfg`: the desk file with the fields that differ
    appended (a later key overrides an earlier one)."""
    desk = sim.parse_config(sim.DESK_CONFIG_TEXT)
    lines = [sim.DESK_CONFIG_TEXT.rstrip("\n")]
    for name in ("node_count", "area_x", "area_y", "sim_duration",
                 "pause_time", "rng_seed"):
        if getattr(cfg, name) != getattr(desk, name):
            lines.append(f"{name} = {getattr(cfg, name)!r}")
    if cfg.protocol is not desk.protocol:
        lines.append(f"protocol = {cfg.protocol.value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# one pass


@dataclass
class RunRecord:
    """Outcome of one run input in one pass."""
    seconds: float
    sim_seconds: float
    csv_sha: str
    trace_sha: str = ""
    audit_seconds: float = 0.0
    csv_rows: list[str] = field(default_factory=list)
    replay_rows: int = 0
    replay_mismatches: int = 0
    problems: list[str] = field(default_factory=list)
    ref_s: float = 0.0             # reference loop time right after the run


class _Capture:
    """Keeps the packet ledger and privacy counters of every RunResult that
    `metrics.sweep` and `cli run` produce, without holding the result."""

    def __init__(self):
        self.ledgers: list[tuple[int, int, int, int]] = []

    def wrap(self, fn):
        def run_scenario(*args, **kwargs):
            r = fn(*args, **kwargs)
            accounted = (r.delivered + r.lost_link + r.dropped_attack
                         + r.dropped_noroute + r.buffered_end
                         + r.in_flight_end)
            self.ledgers.append((r.sent, accounted, r.privacy_checks,
                                 r.privacy_violations))
            return r
        return run_scenario


@contextlib.contextmanager
def capturing():
    cap = _Capture()
    saved = (metrics.run_scenario, cli.run_scenario)
    metrics.run_scenario = cap.wrap(saved[0])
    cli.run_scenario = cap.wrap(saved[1])
    try:
        yield cap
    finally:
        metrics.run_scenario, cli.run_scenario = saved


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _ledger_problems(cap: _Capture, protocol: str) -> list[str]:
    if len(cap.ledgers) != 1:
        return [f"expected one simulation run, saw {len(cap.ledgers)}"]
    sent, accounted, checks, violations = cap.ledgers.pop()
    problems = []
    if sent != accounted:
        problems.append(f"packet ledger: sent {sent} != accounted {accounted}")
    if protocol in PSEUDONYMOUS and (checks == 0 or violations):
        problems.append(f"privacy: {violations} violations in {checks} checks")
    return problems


class PassRunner:
    """Runs passes over one workload's inputs.  `sim_duration` shortens
    every run (used by the self-test only)."""

    def __init__(self, wl: Workload, inputs: list[RunInput], work: Path,
                 sim_duration: float | None = None):
        self.wl = wl
        self.inputs = inputs
        self.configs = [scenario(wl, inp, sim_duration) for inp in inputs]
        self.work = work
        self.before_run = lambda index: None
        if wl.kind == "cli":
            work.mkdir(parents=True, exist_ok=True)
            self.config_files = []
            for i, cfg in enumerate(self.configs):
                # the seed travels on the command line, as documented
                text = config_text(replace(cfg, rng_seed=1))
                if replace(sim.parse_config(text),
                           rng_seed=cfg.rng_seed) != cfg:
                    raise ValueError(f"config file does not round-trip: "
                                     f"{text!r}")
                path = work / f"run{i}.conf"
                path.write_text(text)
                self.config_files.append(path)

    def run_pass(self) -> tuple[float, list[RunRecord]]:
        """One pass; returns its host time (the sum of its run times, which
        leaves out the checks and the reference loops) and its records."""
        records = []
        with capturing() as cap:
            for i, (inp, cfg) in enumerate(zip(self.inputs, self.configs)):
                self.before_run(i)
                if self.wl.kind == "sweep":
                    rec = self._sweep_run(cap, inp, cfg)
                else:
                    rec = self._cli_run(cap, i, inp, cfg)
                rec.ref_s = reference.loop_seconds()
                records.append(rec)
        return sum(r.seconds for r in records), records

    def _sweep_run(self, cap, inp: RunInput, cfg) -> RunRecord:
        spec = metrics.SweepSpec(cfg, [inp.pause], [cfg.protocol],
                                 [inp.rng_seed])
        t0 = time.perf_counter()
        try:
            result = metrics.sweep(spec)
        except RuntimeError as exc:   # sweep wraps every run failure
            cap.ledgers.clear()
            return RunRecord(time.perf_counter() - t0, cfg.sim_duration, "",
                             problems=[str(exc)])
        seconds = time.perf_counter() - t0
        text = result.csv_text()
        return RunRecord(seconds, cfg.sim_duration, _sha(text.encode()),
                         csv_rows=result.run_rows,
                         problems=_ledger_problems(cap, inp.protocol))

    def _cli_run(self, cap, i: int, inp: RunInput, cfg) -> RunRecord:
        csv_path = self.work / f"run{i}.csv"
        trace_path = self.work / f"run{i}.trace"
        replay = io.StringIO()
        t0 = time.perf_counter()
        rc_run = cli.main(["run", "--config", str(self.config_files[i]),
                           "--seed", str(inp.rng_seed), "--out",
                           str(csv_path), "--trace", str(trace_path)])
        t1 = time.perf_counter()
        with contextlib.redirect_stdout(replay):
            rc_audit = cli.main(["audit", "--trace", str(trace_path)])
        t2 = time.perf_counter()
        problems = _ledger_problems(cap, inp.protocol)
        if rc_run or rc_audit:
            problems.append(f"cli exit codes run={rc_run} audit={rc_audit}")
            return RunRecord(t2 - t0, cfg.sim_duration, "", "", t2 - t1,
                             problems=problems)
        csv_text = csv_path.read_bytes()
        trace_text = trace_path.read_bytes()
        live, paths = _recorded_audits(trace_text.decode())
        replayed = replay.getvalue().splitlines()[1:]
        if len(replayed) != paths or paths == 0:
            problems.append(f"replay rows {len(replayed)} for {paths} "
                            "recorded paths")
        mismatches = sum(a != b for a, b in zip(live, replayed))
        rows = csv_text.decode().splitlines()[1:]
        return RunRecord(t2 - t0, cfg.sim_duration, _sha(csv_text),
                         _sha(trace_text), t2 - t1, rows, len(replayed),
                         mismatches, problems)


def _recorded_audits(trace: str) -> tuple[list[str], int]:
    """Live audit rows and the number of recorded paths in a trace file."""
    lines = trace.splitlines()
    start = lines.index("# audits") + 2
    end = lines.index("# audit-log")
    export = json.loads(lines[end + 1])
    return lines[start:end], len(export["paths"])


def pass_outputs(records: list[RunRecord], cfgs) -> dict:
    """Recorded (not gated) outputs of one pass: content hashes, mean PDR,
    honest-node false-positive share, replay mismatches."""
    pdrs, fp_shares = [], []
    for rec, cfg in zip(records, cfgs):
        honest = cfg.node_count - len(cfg.attackers)
        for row in rec.csv_rows:
            cols = row.split(",")
            pdrs.append(float(cols[3]))
            fp_shares.append(int(cols[8]) / honest)
    return {
        "csv_sha256": _sha("".join(r.csv_sha for r in records).encode()),
        "trace_sha256": _sha("".join(r.trace_sha for r in records).encode())
        if any(r.trace_sha for r in records) else None,
        "mean_pdr_percent": sum(pdrs) / len(pdrs) if pdrs else None,
        "honest_fp_share": (sum(fp_shares) / len(fp_shares)
                            if fp_shares else None),
        "replay_mismatches": sum(r.replay_mismatches for r in records),
        "replay_rows": sum(r.replay_rows for r in records),
    }
