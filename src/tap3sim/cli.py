"""Command-line front end.

Subcommands: `run` (single scenario, metrics CSV + optional trace file),
`sweep` (protocol x pause x seed grid with CSV and optional SVG plots) and
`audit`.  `audit` rebuilds the evidence logs recorded in a trace file and
re-runs every recorded path audit through `logaudit.audit_route`, the same
audit the simulation runs live.  The destination must prove Received and
Replied for the source's route request; each relay must prove Received
plus Forwarded (or Dropped, on a broken link) for every audited data
packet.  The replayed rows therefore equal the trace's live audit rows.

Exit codes: 0 success, 1 usage/configuration error, 2 run failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import struct
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import logaudit
from .metrics import (
    CSV_COLUMNS,
    PLOT_FILES,
    SweepSpec,
    render_plots,
    report_from_result,
    sweep,
)
from .routing import ProtocolKind
from .sim import (
    ConfigError,
    RunResult,
    collector_paused,
    parse_config,
    run_scenario,
)

TRACE_HEADER = "# tap3sim trace v1"
PACKET_COLUMNS = "time,kind,from,to,packet_id,path_id,bytes"
VERDICT_COLUMNS = "node_id,sseq,oseq,dseq_delta,distance,threshold,label"
AUDIT_COLUMNS = "flow_id,verdict,active_pos,passive_positions"
_PACKET = "%.6f,%s,%d,%d,%d,%d,%d\n"
_VERDICT = "%d,%g,%g,%g,%.9g,%.9g,%s\n"
# A log entry in its `logaudit.entry_to_list` form, and a path record, as
# `json.dumps(x, sort_keys=True, separators=(",", ":"))` writes them: the
# aliases are hex, `%d` and `%r` give `int.__repr__` and `float.__repr__`,
# and every timestamp is finite.  `tests/test_cli.py` pins the equality.
_ENTRY = '["%s",%d,%d,%d,%d,%d,"%s",%r]'
_PATH = '{"control":[%s],"data":[%s],"dst":%d,"flow":%d,"relays":[%s]}'


def _entries_text(entries: Iterable, hex_of: Callable) -> str:
    """The entries' JSON list without brackets; `hex_of` gives the hex."""
    return ",".join([
        _ENTRY % (hex_of(alias), pid, event, sseq, oseq, dseq, hex_of(prev), t)
        for alias, pid, event, sseq, oseq, dseq, prev, t in entries])


def _path_text(record: tuple, hex_of: Callable) -> str:
    """One path record's JSON object, its keys in sorted order."""
    flow, dst, relays, control, data = record
    return _PATH % (_entries_text((control,), hex_of),
                    _entries_text(data, hex_of), dst, flow,
                    ",".join(map(str, relays)))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _path(text: str) -> str:
    """The type of every path read, and the first check of every path
    written: an empty path names nothing, so it is a usage error rather
    than a skipped output."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _out_file(text: str) -> str:
    """The type of a file to write.  A path that cannot be written is a
    usage error before any run, not a run failure after it."""
    path = Path(_path(text))
    if path.is_dir() or not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"cannot write {text}: not a file in an existing directory")
    return text


def _out_dir(text: str) -> str:
    """The type of a directory to write, made with its missing parents:
    the nearest path on the way that exists must be a directory."""
    path = Path(_path(text))
    found = next(p for p in (path, *path.parents) if p.exists())
    if not found.is_dir():
        raise argparse.ArgumentTypeError(
            f"cannot write {text}: {found} is not a directory")
    return text


def _parse_pauses(text: str, duration: float) -> list[float]:
    """A comma list, or a `start:stop:step` range of pauses rounded to
    9 decimals.  A range is bounded before it is built: its count comes
    from `(stop - start) / step`, every pause must lie in [0, duration],
    and the step must change a rounded pause."""
    if ":" not in text:
        return [float(p) for p in text.split(",") if p]
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad pause range {text!r}, want start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError(f"bad pause range {text!r}: start, stop and "
                         "step must be finite")
    if step <= 0:
        raise UsageError("pause step must be positive")
    if round(start + step, 9) == round(start, 9):
        raise UsageError(f"pause step {step!r} does not change a pause "
                         "rounded to 9 decimals")
    span = (stop + 1e-9 - start) / step
    if span < 0:
        return []
    if not (math.isfinite(span) and 0 <= start
            and start + math.floor(span) * step <= duration):
        raise UsageError(f"pause range {text!r} leaves [0, {duration:g}] s, "
                         "the scenario's sim_duration")
    return [round(start + i * step, 9) for i in range(math.floor(span) + 1)]


def _parse_seeds(text: str) -> Sequence[int]:
    """A comma list, or an inclusive `lo..hi` range, returned as a lazy
    `range`; `SweepSpec.validate` checks its ends without building it."""
    if ".." not in text:
        return [int(s) for s in text.split(",") if s]
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi) + 1)


def _parse_protocols(text: str) -> list[ProtocolKind]:
    out = []
    for name in text.split(","):
        name = name.strip()
        try:
            out.append(ProtocolKind(name))
        except ValueError:
            raise UsageError(f"unknown protocol {name!r}") from None
    return out


def _load_config(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def write_trace_file(path: str, result: RunResult) -> None:
    """The one encoder of a trace, written a line at a time.  Its last
    line, a TAP3 run's audit log, is `json.dumps` (sorted keys, no
    spaces) of the `entry_to_list` form of its logs and path records,
    streamed a log and a record at a time, each alias's hex made once."""
    with open(path, "w") as out:
        out.write(f"{TRACE_HEADER}\n# packets\n{PACKET_COLUMNS}\n")
        out.writelines(map(_PACKET.__mod__, result.packet_rows))
        out.write(f"# verdicts\n{VERDICT_COLUMNS}\n")
        out.writelines(map(_VERDICT.__mod__, result.verdict_rows))
        out.write(f"# audits\n{AUDIT_COLUMNS}\n")
        out.writelines(f"{report.csv_row(flow)}\n"
                       for flow, report in result.audit_rows)
        if result.audit_export is not None:
            logs, paths = result.audit_export
            hex_of = functools.cache(bytes.hex)
            out.write('# audit-log\n{"nodes":{')
            out.writelines(
                f'{"," if i else ""}"{nid}":['
                f'{_entries_text(logs[nid], hex_of)}]'
                for i, nid in enumerate(sorted(logs, key=str)))
            out.write('},"paths":[')
            out.writelines(f"{',' if i else ''}{_path_text(record, hex_of)}"
                           for i, record in enumerate(paths))
            out.write("]}\n")


def _check_distinct(config: str,
                    outputs: Iterable[tuple[str, str | None]]) -> None:
    """Each `(flag, path)` output that is given (not None) must resolve
    to a file of its own, and none to the `--config` file: a later write
    would overwrite the earlier one, and an output over the config would
    replace the scenario with the output."""
    seen = {Path(config).resolve(): "--config"}
    for flag, path in outputs:
        if path is None:
            continue
        key = Path(path).resolve()
        if key in seen:
            raise UsageError(f"{seen[key]} and {flag} name one file: {path}")
        seen[key] = flag


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.rng_seed = args.seed
    cfg.validate()
    _check_distinct(args.config, [("--out", args.out),
                                  ("--trace", args.trace)])
    # a fault inside a valid run is a run failure, as under `sweep`, even
    # when it is a ValueError
    try:
        result = run_scenario(cfg, trace=args.trace is not None,
                              check_privacy=True)
    except Exception as exc:
        raise RuntimeError(
            f"run failed at ({cfg.protocol.value}, "
            f"pause={cfg.pause_time:g}, seed={cfg.rng_seed}): {exc}") from exc
    report = report_from_result(result)
    csv_text = CSV_COLUMNS + "\n" + report.csv_row() + "\n"
    if args.out is not None:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.trace is not None:
        write_trace_file(args.trace, result)
    return 0


def _cmd_sweep(args) -> int:
    base = _load_config(args.config)
    spec = SweepSpec(base, _parse_pauses(args.pause, base.sim_duration),
                     _parse_protocols(args.protocols),
                     _parse_seeds(args.seeds))
    _check_distinct(args.config, [("--out", args.out)] + [
        ("--plots", str(Path(args.plots, name)))
        for name in PLOT_FILES if args.plots is not None])
    result = sweep(spec)
    Path(args.out).write_text(result.csv_text())
    if args.plots is not None:
        plot_dir = Path(args.plots)
        plot_dir.mkdir(parents=True, exist_ok=True)
        for name, svg in render_plots(result).items():
            (plot_dir / name).write_text(svg)
    return 0


# what rebuilding a recorded log or path raises on a malformed trace;
# struct.error is an id or counter outside the 64 bits an entry packs
_MALFORMED = (logaudit.DuplicateEntryError, logaudit.TimestampRegressionError,
              KeyError, IndexError, TypeError, ValueError, struct.error)


def forwarded_pids(records: Iterable[logaudit.LogEntry]) -> list[int]:
    """The sorted, distinct ids of the packets that a recorded path's
    source entries show as Forwarded: what `logaudit.audit_route` takes.
    A record of any other event names nothing to audit."""
    return sorted({e.packet_id for e in records
                   if e.event is logaudit.FORWARDED})


def replay_audits(export: dict) -> list[logaudit.AuditReport]:
    """Rebuild the recorded evidence logs and re-run every recorded path
    audit through `logaudit.audit_route`, as the live simulation did.  A
    path's `control` and `data` records are the source's entries; the
    audit takes the ids of those it Forwarded (`forwarded_pids`).  A log
    or path record that cannot be rebuilt, or an export of the wrong
    shape, is the trace's fault, so it is a `UsageError` naming the part,
    node or path."""
    if not isinstance(export, dict):
        raise UsageError("recorded audit log is not a JSON object")
    nodes = _part(export, "nodes", dict, "object")
    paths = _part(export, "paths", list, "list")
    published = {}
    aliases: dict = {}      # alias hex -> its one digest in this replay
    for nid, entries in nodes.items():
        try:
            node = int(nid)
            if str(node) != nid:
                raise ValueError(f"node key {nid!r} is not a plain integer")
            log = logaudit.NodeLog()
            for data in entries:
                log.append(logaudit.entry_from_list(data, aliases))
            published[node] = log.publish()
        except _MALFORMED as exc:
            raise UsageError(f"recorded log of node {nid}: {exc!r}") from exc
    reports = []
    for i, record in enumerate(paths):
        try:
            relays, dst = record["relays"], record["dst"]
            # exact types: True or 8.0 would look up node 1 or 8
            if not all(type(v) is int for v in (record["flow"], dst, *relays)):
                raise TypeError("flow, destination and relay ids must be "
                                "integers")
            route_logs = [published.get(r) for r in relays]
            dest = published.get(dst)
            control = forwarded_pids([logaudit.entry_from_list(e, aliases)
                                      for e in record["control"]])
            data = forwarded_pids([logaudit.entry_from_list(e, aliases)
                                   for e in record["data"]])
        except _MALFORMED as exc:
            raise UsageError(f"recorded path {i}: {exc!r}") from exc
        reports.append(logaudit.audit_route(route_logs, dest, control, data))
    return reports


def _part(export: dict, key: str, kind: type, name: str):
    """The export's `key`, which must be there and be a JSON `name`."""
    if key not in export:
        raise UsageError(f"recorded audit log has no {key!r}")
    value = export[key]
    if not isinstance(value, kind):
        raise UsageError(f"recorded audit log: {key!r} is not a JSON {name}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of the audit log, whose keys must not repeat: plain
    `json.loads` keeps a repeated key's last value, another log."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(key for key, n in Counter(k for k, _ in pairs).items()
                   if n > 1)
        raise UsageError(f"recorded audit log repeats the key {key!r}")
    return obj


def _cmd_audit(args) -> int:
    # read up to the line after the first `# audit-log` marker, and keep
    # that one line only until it is decoded
    text = None
    try:
        with open(args.trace) as trace:
            for line in trace:
                if line.removesuffix("\n") == "# audit-log":
                    text = next(trace, None)
                    break
    except OSError as exc:
        raise UsageError(f"cannot read trace {args.trace}: {exc}") from exc
    if text is None:
        raise UsageError(f"{args.trace} contains no recorded audit logs")
    export = json.loads(text, object_pairs_hook=_unique_keys)
    del text
    if export is None:
        raise UsageError(f"{args.trace} contains no recorded audit logs")
    reports = replay_audits(export)
    sys.stdout.write(AUDIT_COLUMNS + "\n")
    for record, report in zip(export["paths"], reports):
        sys.stdout.write(report.csv_row(record["flow"]) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tap3sim",
                     description="Trust-aware anonymous MANET routing "
                                 "simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True, type=_path)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", type=_out_file)
    p_run.add_argument("--trace", type=_out_file)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a pause-time sweep")
    p_sweep.add_argument("--config", required=True, type=_path)
    p_sweep.add_argument("--pause", required=True,
                         help="start:stop:step or comma list, in seconds")
    p_sweep.add_argument("--protocols", default="tap3,smprf,mprf")
    p_sweep.add_argument("--seeds", default="1..5",
                         help="lo..hi or comma list")
    p_sweep.add_argument("--out", required=True, type=_out_file)
    p_sweep.add_argument("--plots", type=_out_dir)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_audit = sub.add_parser("audit", help="replay recorded audit logs")
    p_audit.add_argument("--trace", required=True, type=_path)
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    """Run one command with the cycle collector paused throughout
    (`collector_paused`): a run, its report and trace, a sweep and an
    audit's load and replay make no reference cycles, and by the time
    the pause ends the command's result has been dropped, so no
    collection walks it."""
    with collector_paused():
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except (UsageError, ConfigError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # run failure
            print(f"run failed: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
