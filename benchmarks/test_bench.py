"""Self-test of the benchmark at reduced length (60 simulated seconds per
run, the minimum of two untraced passes plus one traced pass).

    python3 -m pytest benchmarks/test_bench.py

It lives outside the package's `testpaths`, so the tier-1 suite does not
pay for it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import probes  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def records():
    return {name: bench.run_workload(name, seed=3, seconds=0, trace=True,
                                     sim_duration=60.0)[0]
            for name in workloads.WORKLOADS}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_every_metric_printed_with_unit(records, trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, record in records.items():
        line = bench.result_line(dict(record, trace=trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == want, name
        assert line["correct"] and line["failed"] == 0, record["problems"]
        assert line["attempted"] >= 3 * len(record["inputs"])
        printed = {"run_s_p50", "error_rate", "ref_loop_s"} | {
            f"raw.{m}" for m in ("wall_s", "sim_s_per_host_s", "setup_s")}
        if name == "trace_audit":
            printed.add("audit_replay_s")
        assert set(record["extra"]) == printed, name


def test_traced_pass_covers_every_layer(records):
    layers = set(probes.LAYERS)
    assert set(records["trace_audit"]["layers_traced"]) == layers
    assert set(records["desk_tap3"]["layers_traced"]) == layers - {"cli"}
    assert set(records["sparse_tap3"]["layers_traced"]) == layers - {"cli"}
    # the baselines run no classifier, evidence log or audit
    assert set(records["desk_baselines"]["layers_traced"]) == layers - {
        "cli", "logaudit", "seqmon"}


def test_logaudit_runs_only_on_tap3_workloads(records):
    for name, record in records.items():
        layer = record["per_layer"]
        calls = sum(layer[m][0] for m in ("logaudit.append_calls",
                                          "logaudit.publish_calls",
                                          "logaudit.proofs_verified"))
        if name == "desk_baselines":
            assert calls == 0 and layer["logaudit.self_s"][0] == 0
        else:
            assert calls > 0, name


def test_inputs_follow_the_seed():
    wl = workloads.WORKLOADS["desk_tap3"]
    assert workloads.generate_inputs(wl, 5) == workloads.generate_inputs(wl, 5)
    assert workloads.generate_inputs(wl, 5) != workloads.generate_inputs(wl, 6)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "desk_tap3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
