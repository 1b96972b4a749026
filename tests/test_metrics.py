import math

import pytest

from tap3sim.metrics import (
    CSV_COLUMNS,
    AccountingError,
    MetricsReport,
    SweepSpec,
    compute_avg_delay,
    compute_overhead,
    compute_pdr,
    render_plots,
    sweep,
)
from tap3sim.routing import ProtocolKind
from tap3sim.sim import ConfigError, ScenarioConfig


def test_pdr_arithmetic_and_sentinels():
    assert compute_pdr(50, 200) == 25.0
    assert compute_pdr(0, 10) == 0.0
    assert compute_pdr(0, 0) is None
    with pytest.raises(AccountingError):
        compute_pdr(5, 4)


def test_avg_delay():
    assert compute_avg_delay([]) is None
    assert compute_avg_delay([0.1, 0.3]) == pytest.approx(0.2)


def test_overhead_sentinels():
    assert compute_overhead(30, 10) == 3.0
    assert compute_overhead(0, 0) == 0.0
    assert math.isinf(compute_overhead(7, 0))


def test_csv_row_formatting():
    rep = MetricsReport(ProtocolKind.TAP3, 10.0, 3, 98.5, 0.00234,
                        0.61, 2, 1, 0)
    assert rep.csv_row() == "tap3,10,3,98.500000,0.002340,0.610000,2,1,0"
    empty = MetricsReport(ProtocolKind.MPRF, 0.0, 1, None, None, 0.0, 0, 0, 0)
    assert empty.csv_row() == "mprf,0,1,nan,nan,0.000000,0,0,0"


def tiny_spec():
    base = ScenarioConfig(node_count=10, flows=1, sim_duration=30.0,
                          area_x=200.0, area_y=200.0)
    return SweepSpec(base, [0.0, 10.0], [ProtocolKind.TAP3,
                                         ProtocolKind.MPRF], [1, 2])


def test_sweep_shape_and_average_consistency():
    res = sweep(tiny_spec())
    assert len(res.run_rows) == 8        # 2 protocols * 2 pauses * 2 seeds
    assert len(res.avg_rows) == 4
    assert res.csv_text().startswith(CSV_COLUMNS + "\n")
    # every averaged row must recompute exactly from its printed seed rows
    for avg in res.avg_rows:
        proto, pause, tag, *vals = avg.split(",")
        assert tag == "avg"
        group = [r.split(",") for r in res.run_rows
                 if r.startswith(f"{proto},{pause},")]
        assert len(group) == 2
        for i, printed in enumerate(vals):
            mean = sum(float(g[3 + i]) for g in group) / len(group)
            assert abs(float(printed) - mean) <= 1e-9


def test_sweep_is_reproducible():
    assert sweep(tiny_spec()).csv_text() == sweep(tiny_spec()).csv_text()


def test_sweep_validates_empty_grid():
    spec = tiny_spec()
    spec.seeds = []
    with pytest.raises(ValueError):
        sweep(spec)


def test_sweep_names_a_seed_past_64_bits():
    """The grid check tests each cell's smallest and largest seed, so a
    bad top seed of a range is named."""
    spec = tiny_spec()
    spec.seeds = range(2 ** 64 - 2, 2 ** 64 + 1)
    with pytest.raises(ConfigError, match="seed=18446744073709551616"):
        spec.validate()


def test_plots_render_polylines():
    plots = render_plots(sweep(tiny_spec()))
    assert set(plots) == {"pdr_percent.svg", "avg_delay_s.svg",
                          "overhead_ratio.svg"}
    for svg in plots.values():
        assert svg.startswith("<svg")
        assert "<polyline" in svg
