"""Run metrics (PDR, average delay, routing overhead), the pause-time
sweep driver, CSV assembly and minimal SVG plotting.

CSV layout is fixed: one row per (protocol, pause, seed) run, followed by
one seed-averaged row per (protocol, pause) with `avg` in the seed column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

from .routing import ProtocolKind
from .sim import ConfigError, RunResult, ScenarioConfig, run_scenario

CSV_COLUMNS = ("protocol,pause_time_s,seed,pdr_percent,avg_delay_s,"
               "overhead_ratio,detected_active,detected_passive,"
               "false_positives")


class AccountingError(Exception):
    pass


def compute_pdr(delivered: int, sent: int) -> Optional[float]:
    if delivered > sent:
        raise AccountingError(f"delivered {delivered} exceeds sent {sent}")
    if sent == 0:
        return None
    return 100.0 * delivered / sent


def compute_avg_delay(delays: list[float]) -> Optional[float]:
    if not delays:
        return None
    return sum(delays) / len(delays)


def compute_overhead(control_tx: int, delivered_data: int) -> float:
    if delivered_data == 0:
        return math.inf if control_tx > 0 else 0.0
    return control_tx / delivered_data


def detection_counts(result: RunResult) -> tuple[int, int, int]:
    """(detected_active, detected_passive, false_positives): attacker nodes
    caught by the classifier or active audits, attacker nodes caught by the
    passive audit scan, and honest nodes ever flagged or audited guilty."""
    attackers = {a.node_id for a in result.config.attackers}
    flagged = {suspect for _, suspect in result.classifier_flags}
    active = (flagged | result.audit_active) & attackers
    passive = result.audit_passive & attackers
    accused = flagged | result.audit_active | result.audit_passive
    return len(active), len(passive), len(accused - attackers)


def _fmt(value: Optional[float], places: int = 6) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.{places}f}"


class MetricsReport(NamedTuple):
    protocol: ProtocolKind
    pause_time: float
    seed: int
    pdr: Optional[float]
    avg_delay: Optional[float]
    overhead: float
    detected_active: int
    detected_passive: int
    false_positives: int

    def csv_row(self) -> str:
        return (f"{self.protocol.value},{self.pause_time:g},{self.seed},"
                f"{_fmt(self.pdr)},{_fmt(self.avg_delay)},"
                f"{_fmt(self.overhead)},{self.detected_active},"
                f"{self.detected_passive},{self.false_positives}")


def report_from_result(result: RunResult) -> MetricsReport:
    cfg = result.config
    active, passive, fp = detection_counts(result)
    return MetricsReport(cfg.protocol, cfg.pause_time, cfg.rng_seed,
                         compute_pdr(result.delivered, result.sent),
                         compute_avg_delay(result.delays),
                         compute_overhead(result.control_tx, result.delivered),
                         active, passive, fp)


class SweepSpec:
    def __init__(self, base: ScenarioConfig, pause_times: list[float],
                 protocols: list[ProtocolKind], seeds: Sequence[int]):
        self.base = base
        self.pause_times = pause_times
        self.protocols = protocols
        # a list, or a lazy `range` from `--seeds lo..hi`
        self.seeds = seeds

    def config(self, protocol: ProtocolKind, pause: float,
               seed: int) -> ScenarioConfig:
        return replace(self.base, protocol=protocol, pause_time=pause,
                       rng_seed=seed, attackers=list(self.base.attackers))

    def validate(self) -> None:
        """Check the whole grid before any run, so that a bad cell is a
        configuration error, not a failure part-way through the sweep.  A
        seed is checked only against its 64-bit bound, so each (protocol,
        pause) cell is checked with the smallest and the largest seed, and
        the seeds, which may be a huge `range`, are never walked."""
        if not (self.pause_times and self.protocols and self.seeds):
            raise ValueError("sweep lists must be non-empty")
        seeds = self.seeds
        if isinstance(seeds, range):      # a range's extremes are its ends
            seeds = (seeds[0], seeds[-1])
        for protocol, pause in itertools.product(self.protocols,
                                                 self.pause_times):
            for seed in dict.fromkeys((min(seeds), max(seeds))):
                try:
                    self.config(protocol, pause, seed).validate()
                except ConfigError as exc:
                    raise ConfigError(
                        f"at ({protocol.value}, pause={pause:g}, "
                        f"seed={seed}): {p}" for p in exc.problems) from None


class SweepResult:
    def __init__(self):
        self.run_rows: list[str] = []
        self.avg_rows: list[str] = []
        self.privacy_checks = 0
        self.privacy_violations = 0

    def csv_text(self) -> str:
        return "\n".join([CSV_COLUMNS] + self.run_rows + self.avg_rows) + "\n"


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def sweep(spec: SweepSpec) -> SweepResult:
    """Full (protocol, pause, seed) grid.  Rows are emitted in grid order so
    identical specs always produce identical CSV bytes."""
    spec.validate()
    out = SweepResult()
    for protocol in spec.protocols:
        for pause in spec.pause_times:
            reports = []
            for seed in spec.seeds:
                try:
                    result = run_scenario(spec.config(protocol, pause, seed),
                                          check_privacy=True)
                except Exception as exc:
                    raise RuntimeError(
                        f"run failed at ({protocol.value}, pause={pause:g}, "
                        f"seed={seed}): {exc}") from exc
                out.privacy_checks += result.privacy_checks
                out.privacy_violations += result.privacy_violations
                report = report_from_result(result)
                reports.append(report)
                out.run_rows.append(report.csv_row())
            # averaged row, computed from the printed per-seed precision so
            # it matches a recomputation from the CSV itself
            parsed = [r.csv_row().split(",") for r in reports]
            avg = [_mean([float(p[i]) for p in parsed]) for i in range(3, 9)]
            out.avg_rows.append(
                f"{protocol.value},{pause:g},avg,"
                + ",".join(_fmt(v, 9) for v in avg))
    return out


# ---------------------------------------------------------------------------
# plotting

_SERIES_COLORS = {"tap3": "#1a6faf", "smprf": "#c27a1a", "mprf": "#a32525"}

_METRICS = (("pdr_percent", 3, "PDR (%)"),
            ("avg_delay_s", 4, "Average delay (s)"),
            ("overhead_ratio", 5, "Overhead (ctrl tx / delivered)"))
# the files `render_plots` names, one per metric
PLOT_FILES = tuple(f"{name}.svg" for name, _, _ in _METRICS)


def render_plots(result: SweepResult) -> dict[str, str]:
    """One SVG polyline chart per metric from the seed-averaged rows;
    returns {filename: svg_text}."""
    series: dict[str, list[tuple[float, list[float]]]] = {}
    for row in result.avg_rows:
        parts = row.split(",")
        series.setdefault(parts[0], []).append(
            (float(parts[1]), [float(v) for v in parts[3:6]]))
    charts = {}
    for name, (_, col, label) in zip(PLOT_FILES, _METRICS):
        idx = col - 3
        points = {proto: [(x, vals[idx]) for x, vals in sorted(vs)
                          if math.isfinite(vals[idx])]
                  for proto, vs in series.items()}
        charts[name] = _polyline_chart(points, label)
    return charts


def _polyline_chart(points: dict[str, list[tuple[float, float]]],
                    label: str) -> str:
    width, height = 480, 320
    all_pts = [p for pts in points.values() for p in pts]
    if not all_pts:
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                f'height="{height}"><text x="10" y="20">{label}: no data'
                f'</text></svg>')
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 40

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<text x="{pad}" y="18" font-size="13">{label}</text>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="#444"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
             f'stroke="#444"/>']
    for i, (proto, pts) in enumerate(sorted(points.items())):
        if not pts:
            continue
        color = _SERIES_COLORS.get(proto, "#333")
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - pad - 60}" y="{pad + 14 * i}" '
                     f'font-size="11" fill="{color}">{proto}</text>')
    parts.append(f'<text x="{width // 2 - 30}" y="{height - 8}" '
                 f'font-size="11">pause time (s)</text>')
    parts.append("</svg>")
    return "\n".join(parts)
