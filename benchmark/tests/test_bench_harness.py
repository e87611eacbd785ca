"""Tests of the benchmark itself: generated inputs, span arithmetic, and
that tracing changes no simulated result.

Run from the checkout root:  python -m pytest -q benchmark/tests
"""

import itertools
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH_DIR.parent
for path in (CHECKOUT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from vanetsim import engine, metrics, protocols  # noqa: E402

# A small grid with buildings: exercises sight, gateways, fog and the cloud.
SMALL_GRID = dict(
    workloads.config_dict("grid_obstacles", 7),
    densities=[40],
    sim_duration_s=2.0,
)


def test_same_seed_gives_same_inputs_and_another_seed_does_not():
    assert workloads.fcd_bytes(3) == workloads.fcd_bytes(3)
    assert workloads.fcd_bytes(3) != workloads.fcd_bytes(4)
    for name in workloads.WORKLOADS:
        same = json.dumps(workloads.config_dict(name, 3), sort_keys=True)
        assert same == json.dumps(workloads.config_dict(name, 3), sort_keys=True)
        assert same != json.dumps(workloads.config_dict(name, 4), sort_keys=True)


def test_generated_trace_parses_with_the_configured_vehicle_count(tmp_path):
    from vanetsim.mobility import TraceProvider, parse_fcd

    trace = tmp_path / "t.fcd.xml"
    trace.write_bytes(workloads.fcd_bytes(5))
    provider = TraceProvider(parse_fcd(str(trace)))
    assert provider.vehicle_count == workloads.TRACE_VEHICLES
    x0, y0, x1, y1 = provider.bounds()
    assert 0.0 <= x0 <= x1 <= workloads.TRACE_SIDE_M
    assert 0.0 <= y0 <= y1 <= workloads.TRACE_SIDE_M


def test_self_times_are_exact_on_a_nested_span_tree():
    # A[0,10] holds B[1,4] (which holds C[2,3]) and B[5,9]; D[11,12] is a root.
    names = ["A", "B", "C", "B", "D"]
    parents = [tracing.ROOT, 0, 1, 0, tracing.ROOT]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    got = tracing.self_times(names, parents, starts, ends)
    assert got == {
        "A": [1, 10.0, 3.0],
        "B": [2, 7.0, 6.0],
        "C": [1, 1.0, 1.0],
        "D": [1, 1.0, 1.0],
    }


def test_tracer_records_nesting_through_its_wrappers():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda x: x * 2)
    mid = tracer.wrap("mid", lambda x: leaf(x) + leaf(x))
    top = tracer.wrap("top", lambda x: mid(x) + 1)
    assert top(5) == 21
    tracer.fold()
    # Clock reads: top 0, mid 1, leaf 2-3, leaf 4-5, mid end 6, top end 7.
    assert tracer.totals == {
        "top": [1, 7.0, 2.0],
        "mid": [1, 5.0, 3.0],
        "leaf": [2, 2.0, 2.0],
    }
    assert len(tracer.span_name) == 0


def test_reference_seconds_scale_each_stretch_by_the_probes_beside_it(monkeypatch):
    monkeypatch.setattr(hostspeed, "REFERENCE_PROBE_S", 0.25)
    # Probes at 1.0 (reference speed) and 3.0 (half speed) inside [0, 5].
    spans = [(1.0, 1.25), (3.0, 3.5)]
    got = hostspeed.reference_seconds(0.0, 5.0, spans)
    assert abs(got - (1.0 * 1.0 + 1.75 / 1.5 + 1.5 * 0.5)) < 1e-12
    # An interval with no probe inside uses the nearest one.
    assert abs(hostspeed.reference_seconds(4.0, 4.5, spans) - 0.25) < 1e-12


def test_speed_meter_probes_while_active_and_then_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedMeter() as meter:
        deadline = time.perf_counter() + 5 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(meter.spans) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_patches_are_undone_even_for_inherited_attributes():
    original_run = engine.Simulator.run
    with tracing.patched() as set_attr:
        tracing.instrument(tracing.Tracer(), set_attr)
        assert engine.Simulator.run is not original_run
        assert "on_tick" in vars(protocols.BaselineFlood)
    assert engine.Simulator.run is original_run
    assert "on_tick" not in vars(protocols.BaselineFlood)


def test_traced_run_reports_exactly_what_the_untraced_run_does(tmp_path):
    plain = harness.run_batch(SMALL_GRID, tmp_path)
    traced, tracer = harness.traced_batch(SMALL_GRID, tmp_path)
    assert traced.identity_line() == plain.identity_line()
    assert [r.identity() for r in traced.runs] == [r.identity() for r in plain.runs]
    assert all(not r.errors for r in plain.runs + traced.runs)

    layers = harness.layer_metrics(tracer, overhead=1.0)
    assert layers["engine.events"] == plain.events
    assert layers["records"] == plain.n_sent
    assert layers["line_of_sight.calls"] > 0 and layers["select_gateways.calls"] > 0
    assert layers["dfcv.maintain.calls"] == layers["run_maintenance.calls"] > 0


def test_benchmark_json_lists_every_reported_metric(tmp_path):
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for _, name, unit in harness.PER_LAYER
    ]
    _, tracer = harness.traced_batch(SMALL_GRID, tmp_path)
    assert set(harness.layer_metrics(tracer, 1.0)) == {n for _, n, _ in harness.PER_LAYER}


def test_check_run_flags_open_accounting():
    good = metrics.MetricsSummary("baseline", 10, 1, 4, 3, 1, 0.01, 0.75, 0.25, 100.0)
    assert harness.check_run(good) == []
    leaky = metrics.MetricsSummary("baseline", 10, 1, 5, 3, 1, 0.01, 0.75, 0.25, 100.0)
    assert harness.check_run(leaky)
    skewed = metrics.MetricsSummary("baseline", 10, 1, 4, 3, 1, 0.01, 0.75, 0.3, 100.0)
    assert harness.check_run(skewed)


def test_without_the_simulator_source_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "highway_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
