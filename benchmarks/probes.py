"""Per-layer spans and counters for the traced pass.

The probes wrap the public entry points of the seven tap3sim modules from
the outside, so the package itself carries no instrumentation.  Each
wrapped call records one span (name, start, end, parent span, run id) in
compact in-memory arrays; the spans are written out once, when the traced
pass ends.  A span's self time is its duration minus the durations of its
direct children (calls are strictly nested: the simulator is single
threaded).

Names are imported by value in places, so a function is patched in every
module that holds a reference to it:

* ``tap3sim.sim`` imports ``hmac_tag``, ``verify_hmac``, ``trapdoor_check``,
  ``header_bytes``, ``packet_size``, ``select_paths`` and
  ``pick_disjoint_paths`` by name;
* ``tap3sim.routing.packet_size`` looks ``header_bytes`` up in
  ``tap3sim.routing``;
* ``tap3sim.cli`` imports ``sweep``, ``report_from_result`` and
  ``run_scenario`` by name, ``tap3sim.metrics`` imports ``run_scenario``
  by name;
* ``MerkleTree.verify`` is a staticmethod and is re-wrapped as one.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("crypto", "seqmon", "logaudit", "routing", "sim", "metrics", "cli")

# span name -> layer; a name's prefix before the first dot is its layer
SPAN_NAMES = (
    "crypto.hmac_tag", "crypto.verify_hmac", "crypto.prf",
    "crypto.trapdoor_check",
    "seqmon.classify", "seqmon.advance_window", "seqmon.train",
    "logaudit.append", "logaudit.publish", "logaudit.proof",
    "logaudit.verify", "logaudit.apply_rules", "logaudit.check_destination",
    "logaudit.detect_active_attacker", "logaudit.detect_passive_attackers",
    "logaudit.audit_route", "logaudit.entry_to_list",
    "logaudit.entry_from_list",
    "routing.copy", "routing.header_bytes", "routing.packet_size",
    "routing.select_paths", "routing.pick_disjoint_paths",
    "sim.run_scenario", "sim.setup", "sim.run", "sim.dispatch",
    "sim.transmit", "sim.position", "sim.link", "sim.run_audits",
    "metrics.sweep", "metrics.report",
    "cli.main", "cli.write_trace_file", "cli.replay_audits",
)

RULE_SPANS = ("logaudit.apply_rules", "logaudit.check_destination",
              "logaudit.detect_active_attacker",
              "logaudit.detect_passive_attackers", "logaudit.audit_route")


class Tracer:
    """Span store plus the counters that need a look at arguments or
    results (link hits, malicious verdicts, broadcast fan-out, heap peak,
    trace bytes, replay rows)."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.names = array("H")
        self.runs = array("H")
        self.stack = [-1]
        self.run_id = 0
        self.counters = {
            "link_hits": 0, "malicious": 0, "broadcasts": 0,
            "broadcast_receivers": 0, "heap_peak_sum": 0, "events": 0,
            "trace_bytes": 0, "replay_rows": 0,
        }

    def span(self, name: str, fn):
        """Wrap `fn` so that each call records a span called `name`."""
        nid = self.name_ids[name]
        starts, ends = self.starts, self.ends
        parents, names, runs = self.parents, self.names, self.runs
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1])
            names.append(nid)
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- aggregation --------------------------------------------------------

    def layers_seen(self) -> set[str]:
        return {SPAN_NAMES[n].split(".", 1)[0] for n in set(self.names)}

    def aggregate(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time)."""
        n = len(self.starts)
        starts, ends, parents, names = (self.starts, self.ends, self.parents,
                                        self.names)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            k = names[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        return {name: (calls[i], self_s[i])
                for i, name in enumerate(SPAN_NAMES)}

    def write(self, path: Path) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {"names": list(SPAN_NAMES), "count": len(self.starts),
                  "arrays": [["start", "d"], ["end", "d"], ["parent", "i"],
                             ["name", "H"], ["run", "H"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.starts, self.ends, self.parents, self.names,
                        self.runs):
                arr.tofile(fh)


# ---------------------------------------------------------------------------
# patching


def _patch(patches, owner, attr, new):
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, new)


@contextmanager
def installed(tracer: Tracer):
    """Install every probe for the duration of the block."""
    from tap3sim import cli, crypto, logaudit, metrics, routing, seqmon, sim

    patches: list = []
    span = tracer.span
    counters = tracer.counters

    def same(owners, attr, name):
        fn = getattr(owners[0], attr)
        wrapped = span(name, fn)
        for owner in owners:
            _patch(patches, owner, attr, wrapped)

    # crypto
    same((crypto, sim), "hmac_tag", "crypto.hmac_tag")
    same((crypto, sim), "verify_hmac", "crypto.verify_hmac")
    same((crypto,), "prf", "crypto.prf")
    same((crypto, sim), "trapdoor_check", "crypto.trapdoor_check")

    # seqmon
    classify = span("seqmon.classify", seqmon.classify)
    malicious = seqmon.Label.MALICIOUS

    def counted_classify(sample, window):
        verdict = classify(sample, window)
        if verdict.label is malicious:
            counters["malicious"] += 1
        return verdict

    _patch(patches, seqmon, "classify", counted_classify)
    same((seqmon,), "advance_window", "seqmon.advance_window")
    _patch(patches, seqmon.TrainingWindow, "train",
           span("seqmon.train", seqmon.TrainingWindow.train))

    # logaudit
    _patch(patches, logaudit.NodeLog, "append",
           span("logaudit.append", logaudit.NodeLog.append))
    _patch(patches, logaudit.NodeLog, "publish",
           span("logaudit.publish", logaudit.NodeLog.publish))
    _patch(patches, logaudit.MerkleTree, "proof",
           span("logaudit.proof", logaudit.MerkleTree.proof))
    _patch(patches, logaudit.MerkleTree, "verify",
           staticmethod(span("logaudit.verify", logaudit.MerkleTree.verify)))
    for fn_name in ("apply_rules", "check_destination",
                    "detect_active_attacker", "detect_passive_attackers",
                    "audit_route", "entry_to_list", "entry_from_list"):
        same((logaudit,), fn_name, f"logaudit.{fn_name}")

    # routing
    _patch(patches, routing.Packet, "copy",
           span("routing.copy", routing.Packet.copy))
    same((routing, sim), "header_bytes", "routing.header_bytes")
    same((routing, sim), "packet_size", "routing.packet_size")
    same((routing, sim), "select_paths", "routing.select_paths")
    same((routing, sim), "pick_disjoint_paths", "routing.pick_disjoint_paths")

    # sim
    Simulation = sim.Simulation
    _patch(patches, Simulation, "__init__",
           span("sim.setup", Simulation.__init__))
    run = span("sim.run", Simulation.run)

    def counted_run(self):
        result = run(self)
        counters["events"] += self._event_seq
        counters["heap_peak_sum"] += self.__dict__.pop("_probe_heap_peak", 0)
        return result

    _patch(patches, Simulation, "run", counted_run)
    schedule = Simulation.schedule

    def peak_schedule(self, t, fn):
        schedule(self, t, fn)
        depth = len(self._events)
        if depth > self.__dict__.get("_probe_heap_peak", 0):
            self._probe_heap_peak = depth

    _patch(patches, Simulation, "schedule", peak_schedule)
    _patch(patches, Simulation, "dispatch",
           span("sim.dispatch", Simulation.dispatch))
    transmit = span("sim.transmit", Simulation.transmit)

    def counted_transmit(self, sender, to, pkt, control):
        if to is not None:
            return transmit(self, sender, to, pkt, control)
        before = self._event_seq
        ok = transmit(self, sender, to, pkt, control)
        counters["broadcasts"] += 1
        counters["broadcast_receivers"] += self._event_seq - before
        return ok

    _patch(patches, Simulation, "transmit", counted_transmit)
    _patch(patches, sim.Mobility, "position",
           span("sim.position", sim.Mobility.position))
    link = span("sim.link", Simulation.link)

    def counted_link(self, a, b):
        hit = link(self, a, b)
        if hit[0]:
            counters["link_hits"] += 1
        return hit

    _patch(patches, Simulation, "link", counted_link)
    _patch(patches, Simulation, "run_audits",
           span("sim.run_audits", Simulation.run_audits))
    # metrics and cli may already hold a wrapper of their own here
    for owner in (metrics, cli):
        _patch(patches, owner, "run_scenario",
               span("sim.run_scenario", owner.run_scenario))

    # metrics
    same((metrics, cli), "sweep", "metrics.sweep")
    same((metrics, cli), "report_from_result", "metrics.report")

    # cli
    same((cli,), "main", "cli.main")
    write_trace = span("cli.write_trace_file", cli.write_trace_file)

    def counted_write_trace(path, result):
        write_trace(path, result)
        counters["trace_bytes"] += os.path.getsize(path)

    _patch(patches, cli, "write_trace_file", counted_write_trace)
    replay = span("cli.replay_audits", cli.replay_audits)

    def counted_replay(export):
        reports = replay(export)
        counters["replay_rows"] += len(reports)
        return reports

    _patch(patches, cli, "replay_audits", counted_replay)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)


def layer_metrics(tracer: Tracer, runs: int, scale: float,
                  traced_ratio: float, replay_mismatches: int) -> dict:
    """Per-layer metrics of one traced pass.  Counts and self times are
    per run (a simulation run, or a run+audit round trip); ratios are over
    the whole pass.  Self times are multiplied by `scale`, the host-speed
    factor of the traced pass; `traced_ratio` is its scaled wall time over
    the scaled median wall time of the untraced passes."""
    agg = tracer.aggregate()
    c = tracer.counters
    traced_span = sum(agg[n][1] for n in SPAN_NAMES)

    def calls(name):
        return agg[name][0]

    def self_s(*names):
        return scale * sum(agg[n][1] for n in names)

    def layer_self(layer):
        return self_s(*(n for n in SPAN_NAMES if n.startswith(layer + ".")))

    def ratio(num, den):
        return num / den if den else 0.0

    per_run = 1.0 / runs
    out = {
        "crypto.hmac_calls": (calls("crypto.hmac_tag") * per_run, "count/run"),
        "crypto.prf_calls": (calls("crypto.prf") * per_run, "count/run"),
        "crypto.trapdoor_calls": (calls("crypto.trapdoor_check") * per_run,
                                  "count/run"),
        "seqmon.classify_calls": (calls("seqmon.classify") * per_run,
                                  "count/run"),
        "seqmon.advance_window_calls": (
            calls("seqmon.advance_window") * per_run, "count/run"),
        "seqmon.malicious_ratio": (
            ratio(c["malicious"], calls("seqmon.classify")), "ratio"),
        "logaudit.append_calls": (calls("logaudit.append") * per_run,
                                  "count/run"),
        "logaudit.publish_calls": (calls("logaudit.publish") * per_run,
                                   "count/run"),
        "logaudit.publish_self_s": (self_s("logaudit.publish") * per_run,
                                    "s/run"),
        "logaudit.proofs_built": (calls("logaudit.proof") * per_run,
                                  "count/run"),
        "logaudit.proofs_verified": (calls("logaudit.verify") * per_run,
                                     "count/run"),
        "logaudit.proof_use_ratio": (
            ratio(calls("logaudit.verify"), calls("logaudit.proof")), "ratio"),
        "logaudit.verify_self_s": (self_s("logaudit.verify") * per_run,
                                   "s/run"),
        "logaudit.rules_self_s": (self_s(*RULE_SPANS) * per_run, "s/run"),
        "routing.copy_calls": (calls("routing.copy") * per_run, "count/run"),
        "routing.copy_self_s": (self_s("routing.copy") * per_run, "s/run"),
        "routing.header_bytes_calls": (calls("routing.header_bytes") * per_run,
                                       "count/run"),
        "routing.header_bytes_self_s": (
            self_s("routing.header_bytes") * per_run, "s/run"),
        "routing.select_paths_calls": (calls("routing.select_paths") * per_run,
                                       "count/run"),
        "routing.pick_disjoint_calls": (
            calls("routing.pick_disjoint_paths") * per_run, "count/run"),
        "sim.events": (c["events"] * per_run, "count/run"),
        "sim.heap_peak": (c["heap_peak_sum"] * per_run, "count/run"),
        "sim.dispatch_calls": (calls("sim.dispatch") * per_run, "count/run"),
        "sim.dispatch_self_s": (self_s("sim.dispatch") * per_run, "s/run"),
        "sim.transmit_calls": (calls("sim.transmit") * per_run, "count/run"),
        "sim.transmit_self_s": (self_s("sim.transmit") * per_run, "s/run"),
        "sim.broadcast_fanout": (
            ratio(c["broadcast_receivers"], c["broadcasts"]), "ratio"),
        "sim.position_calls": (calls("sim.position") * per_run, "count/run"),
        "sim.position_self_s": (self_s("sim.position") * per_run, "s/run"),
        "sim.link_calls": (calls("sim.link") * per_run, "count/run"),
        "sim.link_hit_ratio": (ratio(c["link_hits"], calls("sim.link")),
                               "ratio"),
        "sim.link_self_s": (self_s("sim.link") * per_run, "s/run"),
        "sim.run_audits_self_s": (self_s("sim.run_audits") * per_run,
                                  "s/run"),
        "sim.setup_self_s": (self_s("sim.setup") * per_run, "s/run"),
        "metrics.report_self_s": (self_s("metrics.report") * per_run,
                                  "s/run"),
        "metrics.sweep_self_s": (self_s("metrics.sweep") * per_run, "s/run"),
        "cli.trace_write_self_s": (self_s("cli.write_trace_file") * per_run,
                                   "s/run"),
        "cli.trace_bytes": (c["trace_bytes"] * per_run, "B/run"),
        "cli.replay_self_s": (self_s("cli.replay_audits") * per_run, "s/run"),
        "cli.replay_rows": (c["replay_rows"] * per_run, "count/run"),
        "cli.replay_mismatches": (replay_mismatches * per_run, "count/run"),
        "trace.overhead_share": (traced_ratio - 1.0, "share"),
    }
    for layer in LAYERS:
        total = layer_self(layer)
        if layer in ("crypto", "seqmon", "logaudit", "routing", "sim"):
            out[f"{layer}.self_s"] = (total * per_run, "s/run")
        out[f"{layer}.self_share"] = (ratio(total, scale * traced_span),
                                      "share")
    return out
