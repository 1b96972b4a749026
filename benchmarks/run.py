"""tap3sim benchmark.

    python3 benchmarks/run.py --workload desk_tap3 --seed 1 --seconds 20 --trace 0

Runs one workload (see README.md) from the root of a checkout, against the
checkout's own `src/`.  With `--trace 0` it repeats passes over the
workload's inputs for `--seconds` (at least two passes), checks every
output, and reports the end-to-end metrics.  With `--trace 1` it does the
same untraced passes and then one traced pass, and reports the per-layer
metrics.  The last line of standard output is one JSON object; a results
file with the machine, the inputs and the recorded outputs is written to
`benchmarks/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_SAMPLES = 4                  # before the first pass and after each

# Time from a fresh interpreter to the first ready Simulation: the child
# prints the monotonic clock (shared across processes) once it is ready,
# then the time of the reference loop in that same interpreter.
SETUP_CHILD = """\
import sys, time
from tap3sim.sim import Simulation, parse_config
Simulation(parse_config(sys.argv[1]), check_privacy=True)
ready = time.monotonic()
import reference
print(repr(ready), repr(reference.loop_seconds()))
"""


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def measure_setup(config_text: str, count: int) -> list[list[float]]:
    """`count` pairs of (set-up time, reference loop time), each from a
    fresh child interpreter started only after the previous one exited."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH_DIR), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CHILD, config_text]
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        ready, ref = (float(v) for v in out.stdout.split())
        samples.append([ready - t0, ref])
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sim_duration: float | None = None):
    """Measure one workload.  Returns the results record and, with
    `trace`, the tracer that holds the traced pass's spans."""
    import probes
    import workloads
    from reference import REFERENCE_S

    wl = workloads.WORKLOADS[name]
    inputs = workloads.generate_inputs(wl, seed)
    work = RESULTS / f"work-{os.getpid()}"
    runner = workloads.PassRunner(wl, inputs, work, sim_duration)
    try:
        setup_text = workloads.config_text(runner.configs[0])
        measure_setup(setup_text, 1)        # fills __pycache__
        # set-up samples are spread over the run, between passes, so that
        # one slow spell of the host does not move all of them
        setup = measure_setup(setup_text, SETUP_SAMPLES)
        passes = []
        t_start = time.perf_counter()
        while True:
            passes.append(runner.run_pass())
            setup += measure_setup(setup_text, SETUP_SAMPLES)
            elapsed = time.perf_counter() - t_start
            if len(passes) >= 2 and elapsed + passes[-1][0] > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = tracer = None
        if trace:
            tracer = probes.Tracer()
            runner.before_run = lambda i: setattr(tracer, "run_id", i)
            with probes.installed(tracer):
                traced = runner.run_pass()
            runner.before_run = lambda i: None
            traced_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # output checks: every run's own checks, plus byte-identical outputs
    # for the same input in every pass (the traced pass included)
    all_passes = passes + ([traced] if traced else [])
    first = all_passes[0][1]
    attempted = failed = 0
    problems = []
    for k, (_, records) in enumerate(all_passes):
        for i, rec in enumerate(records):
            attempted += 1
            issues = list(rec.problems)
            if (rec.csv_sha, rec.trace_sha) != (first[i].csv_sha,
                                                first[i].trace_sha):
                issues.append("output bytes differ from pass 0")
            if issues:
                failed += 1
                problems.append({"pass": k, "input": i, "problems": issues})

    # Times are scaled to the reference host speed (see reference.py),
    # pass by pass, with the mean reference loop time of that pass.
    scales = [REFERENCE_S / statistics.mean(r.ref_s for r in recs)
              for _, recs in passes]
    walls = [w for w, _ in passes]
    runs = [r for _, recs in passes for r in recs]
    scaled_runs = [(r, r.seconds * k)
                   for k, (_, recs) in zip(scales, passes) for r in recs]
    sim_seconds = sum(r.sim_seconds for r in runs)
    end_to_end = {
        "wall_s": (statistics.median(w * k for w, k in zip(walls, scales)),
                   "s"),
        "sim_s_per_host_s": (sim_seconds / sum(t for _, t in scaled_runs),
                             "sim-s/s"),
        "setup_s": (statistics.median(t * REFERENCE_S / ref
                                      for t, ref in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    # printed and recorded, but not in the result line (see README.md)
    extra = {
        "run_s_p50": (statistics.median(t for _, t in scaled_runs), "s"),
        "error_rate": (failed / attempted, "share"),
        "raw.wall_s": (statistics.median(walls), "s"),
        "raw.sim_s_per_host_s": (sim_seconds / sum(walls), "sim-s/s"),
        "raw.setup_s": (statistics.median(t for t, _ in setup), "s"),
        "ref_loop_s": (statistics.median(r.ref_s for r in runs), "s"),
    }
    if wl.kind == "cli":
        extra["audit_replay_s"] = (statistics.median(
            r.audit_seconds * t / r.seconds for r, t in scaled_runs), "s")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(),
        "inputs": [[i.protocol, i.pause, i.rng_seed] for i in inputs],
        "sim_duration": runner.configs[0].sim_duration,
        "passes": len(passes), "pass_walls_s": walls,
        "run_times_s": [[r.seconds for r in recs] for _, recs in passes],
        "ref_loop_s": [[r.ref_s for r in recs] for _, recs in passes],
        "run_s_samples": len(runs), "setup_s_samples": setup,
        "attempted": attempted, "failed": failed, "problems": problems,
        "outputs": workloads.pass_outputs(first, runner.configs),
        "end_to_end": end_to_end, "extra": extra,
    }
    if traced:
        traced_wall, traced_records = traced
        traced_scale = REFERENCE_S / statistics.median(
            r.ref_s for r in traced_records)
        record["per_layer"] = probes.layer_metrics(
            tracer, len(inputs), traced_scale,
            traced_wall * traced_scale / end_to_end["wall_s"][0],
            sum(r.replay_mismatches for r in traced_records))
        record["spans"] = len(tracer.starts)
        record["traced_peak_rss_mb"] = traced_rss_mb
        record["layers_traced"] = sorted(tracer.layers_seen())
    return record, tracer


def result_line(record: dict) -> dict:
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def write_results(record: dict, tracer) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{int(record['trace'])}")
    if tracer is not None:
        # one spans file per workload, replaced by the next traced run
        spans = RESULTS / f"{record['workload']}.spans"
        tracer.write(spans)
        record["spans_file"] = spans.name
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tap3sim" / "__init__.py").is_file():
        print(f"error: no tap3sim sources under {SRC}; run from the root of "
              "a tap3sim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import tap3sim
    import workloads
    if Path(tap3sim.__file__).resolve().parent != SRC / "tap3sim":
        print(f"error: imported tap3sim from {tap3sim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record, tracer = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    path = write_results(record, tracer)
    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} passes={record['passes']} "
          f"runs/pass={len(record['inputs'])} nproc={m['nproc']} "
          f"python={m['python']} results={path.relative_to(ROOT)}")
    shown = dict(record["end_to_end"], **record["extra"])
    shown.update(record.get("per_layer", {}))
    for name, (value, unit) in shown.items():
        print(f"{name} {value:.6g} {unit}")
    for key, value in record["outputs"].items():
        print(f"output.{key} {value}")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
