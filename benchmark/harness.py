"""Runs one workload, checks its outputs and reports its metrics.

Order of one invocation:

1. write the workload's generated inputs (the FCD trace for trace_replay);
2. warm up with a few tiny runs;
3. untraced, timed: repeat the workload's batch of runs until ``--seconds``
   have passed, and take the median of each end-to-end metric over the
   repeats; times are in reference seconds (see ``hostspeed``); read the
   process's peak RSS;
4. check that a small highway sub-sweep gives the same CSV bytes through
   ``run_sweep(workers=1)`` and ``run_sweep(workers=2)``;
5. with ``--trace 1``: run the batch once more with spans on every layer
   boundary and derive the per-layer metrics.

Every run is checked for closed accounting; every repeat (traced or not)
must give the same identity line.  The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import hostspeed
import tracing
import workloads
from vanetsim import config, engine, metrics, runner
from vanetsim.errors import SimulationError

# (name, unit) of every end-to-end metric, in the order printed.
END_TO_END = [
    ("sweep_s", "s"),
    ("setup_s", "s"),
    ("run_s.baseline", "s"),
    ("run_s.hybrid_vehcloud", "s"),
    ("run_s.dfcv", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

EVENT_KINDS = sorted(engine.EVENT_KINDS)
PROTOCOL_NAMES = ("baseline", "hybrid_vehcloud", "dfcv")

# (layer, name, unit) of every per-layer metric, in the order printed.
PER_LAYER = (
    [
        ("engine", "engine.events", "count"),
        *(("engine", f"engine.events.{kind}", "count") for kind in EVENT_KINDS),
        ("engine", "engine.schedule.calls", "count"),
        ("engine", "engine.schedule.s", "s"),
        ("engine", "engine.loop_self_s", "s"),
        ("mobility", "position_at.calls", "count"),
        ("mobility", "position_at.s", "s"),
        ("mobility", "fleet_at.calls", "count"),
        ("mobility", "fleet_at.s", "s"),
        ("mobility", "candidates.calls", "count"),
        ("mobility", "candidates.s", "s"),
        ("mobility", "candidates.returned", "count"),
        ("mobility", "neighbor_precision", "ratio"),
        ("mobility", "parse_fcd.calls", "count"),
        ("mobility", "build_provider.s", "s"),
        ("radio", "line_of_sight.calls", "count"),
        ("radio", "line_of_sight.s", "s"),
        ("radio", "line_of_sight.blocked_ratio", "ratio"),
        ("radio", "channel_loss.calls", "count"),
        ("radio", "channel_loss.lost_ratio", "ratio"),
        ("runner", "channel.register.calls", "count"),
        ("runner", "channel.concurrent_near.calls", "count"),
        ("runner", "channel.concurrent_near.s", "s"),
        ("runner", "channel.busy_until_near.calls", "count"),
        ("runner", "channel.busy_until_near.s", "s"),
        ("runner", "channel.busy_until_near.busy_ratio", "ratio"),
        ("runner", "records", "count"),
        ("runner", "record.s", "s"),
        *(("runner", f"handler.{kind}.self_s", "s") for kind in EVENT_KINDS),
        *(
            ("protocols", f"{name}.{what}", unit)
            for name in PROTOCOL_NAMES
            for what, unit in (("self_s", "s"), ("calls", "count"))
        ),
        ("protocols", "select_gateways.calls", "count"),
        ("protocols", "gateway_path.s", "s"),
        ("protocols", "dfcv.maintain.calls", "count"),
        ("protocols", "dfcv.maintain.s", "s"),
        ("protocols", "baseline.useful_tx_ratio", "ratio"),
        ("fog", "run_maintenance.calls", "count"),
        ("fog", "run_maintenance.s", "s"),
        ("fog", "split_cell.calls", "count"),
        ("fog", "merge_cells.calls", "count"),
        ("fog", "check_partition.s", "s"),
        ("metrics", "summarize.s", "s"),
        ("metrics", "csv_text.s", "s"),
        ("config", "load_obstacles.s", "s"),
        ("config", "config.build_s", "s"),
        ("trace", "trace_overhead", "ratio"),
    ]
)

# The serial == parallel check: a small slice of highway_sweep.
SUB_SWEEP = {
    "workload": {"rate_per_s": 4.0},
    "protocols": workloads.PROTOCOLS,
    "densities": [20, 40],
    "sim_duration_s": 2.0,
}

# Tiny runs before timing, so the first timed repeat is not the coldest.
WARMUP = {"densities": [20], "sim_duration_s": 1.0}


@dataclass
class Run:
    protocol: str
    density: int
    seed: int
    wall_s: float
    setup_s: float
    wall_ref_s: float
    setup_ref_s: float
    summary: Optional[metrics.MetricsSummary] = None
    events: int = 0
    errors: list = field(default_factory=list)

    def identity(self) -> tuple:
        if self.summary is None:
            return (self.protocol, self.density, self.seed, None)
        return (metrics.csv_text([self.summary]), self.events)


@dataclass
class Batch:
    """One pass over the workload's runs."""

    runs: list
    csv_sha256: str
    events: int
    n_sent: int

    def identity_line(self) -> str:
        return f"csv_sha256={self.csv_sha256} events={self.events} n_sent={self.n_sent}"


def check_run(summary: metrics.MetricsSummary) -> list:
    """Closed accounting: every addressed pair is delivered or lost, once."""
    errors = []
    if summary.n_sent != summary.n_delivered + summary.n_lost:
        errors.append(
            f"n_sent {summary.n_sent} != n_delivered {summary.n_delivered} + n_lost {summary.n_lost}"
        )
    if summary.n_sent == 0:
        if summary.delivery_probability is not None or summary.plr is not None:
            errors.append("ratios set on a run with no records")
    elif summary.delivery_probability is None or summary.plr is None:
        errors.append("ratios missing on a run with records")
    elif abs(summary.delivery_probability + summary.plr - 1.0) > 1e-12:
        errors.append(
            f"delivery_probability + plr = {summary.delivery_probability + summary.plr!r}"
        )
    return errors


def run_batch(cfg_dict: dict, base_dir: Path, tracer: Optional[tracing.Tracer] = None) -> Batch:
    """Every (protocol, density, seed) run of the workload, back to back.

    Setup time of a run ends where ``Simulator.run`` starts; a wrapper on
    that one method marks it.  Module attributes are looked up at call
    time so the traced run goes through the tracer's wrappers.  Untraced
    runs are timed under a ``hostspeed.SpeedMeter``; traced runs are not,
    so no probe lands inside a span.
    """
    marks: list = []
    timed_run = engine.Simulator.run

    def marked_run(sim, until):
        marks.append(time.perf_counter())
        return timed_run(sim, until)

    runs = []
    with tracing.patched() as set_attr:
        set_attr(engine.Simulator, "run", marked_run)
        cfg = config.from_dict(cfg_dict, base_dir=str(base_dir))
        # Protocols alternate, so each protocol's runs are spread over the
        # batch rather than bunched into one stretch of host speed.
        for density in cfg.densities:
            for seed in cfg.seeds:
                for protocol in cfg.protocols:
                    runs.append(timed_run_single(cfg, protocol, density, seed, marks, tracer))
        summaries = [r.summary for r in runs if r.summary is not None]
        csv = metrics.csv_text(summaries)
        if tracer is not None:
            tracer.fold()
    return Batch(
        runs,
        hashlib.sha256(csv.encode("utf-8")).hexdigest(),
        sum(r.events for r in runs),
        sum(s.n_sent for s in summaries),
    )


def timed_run_single(cfg, protocol, density, seed, marks, tracer) -> Run:
    """One checked ``run_single``, timed in host and reference seconds."""
    # The previous run's object graph is cyclic garbage: collect it here
    # rather than inside this run.
    gc.collect()
    meter = hostspeed.SpeedMeter()
    meter.sample()
    marks.clear()
    result = failure = None
    with meter if tracer is None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = runner.run_single(cfg, protocol, density, seed)
        except SimulationError as exc:
            failure = str(exc)
        t1 = time.perf_counter()
    meter.sample()
    setup_end = marks[0] if marks else t1
    probe_s = sum(b - a for a, b in meter.spans if t0 <= a < t1)
    run = Run(
        protocol,
        density,
        seed,
        wall_s=t1 - t0 - probe_s,
        setup_s=setup_end - t0 - sum(b - a for a, b in meter.spans if t0 <= a < setup_end),
        wall_ref_s=hostspeed.reference_seconds(t0, t1, meter.spans),
        setup_ref_s=hostspeed.reference_seconds(t0, setup_end, meter.spans),
    )
    if failure is not None:
        run.errors.append(failure)
    else:
        run.summary = result.summary
        run.events = result.stats.events_processed
        run.errors = check_run(result.summary)
    if tracer is not None:
        tracer.fold()
    return run


def batch_metrics(batch: Batch, host_seconds: bool = False) -> dict:
    """Sums over the batch's runs, in reference seconds unless ``host_seconds``."""
    wall = [r.wall_s if host_seconds else r.wall_ref_s for r in batch.runs]
    setup = [r.setup_s if host_seconds else r.setup_ref_s for r in batch.runs]
    out = {"sweep_s": sum(wall), "setup_s": sum(setup), "records_per_s": batch.n_sent / sum(wall)}
    for name in PROTOCOL_NAMES:
        out[f"run_s.{name}"] = sum(w for w, r in zip(wall, batch.runs) if r.protocol == name)
    return out


def layer_metrics(tracer: tracing.Tracer, overhead: float) -> dict:
    t, counts = tracer, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "engine.events": sum(t.calls(f"handler.{kind}") for kind in EVENT_KINDS),
        "engine.schedule.calls": t.calls("engine.schedule"),
        "engine.schedule.s": t.total_s("engine.schedule"),
        "engine.loop_self_s": t.self_s("engine.run"),
        "position_at.calls": t.calls("mobility.position_at"),
        "position_at.s": t.total_s("mobility.position_at"),
        "fleet_at.calls": t.calls("mobility.fleet_at"),
        "fleet_at.s": t.total_s("mobility.fleet_at"),
        "candidates.calls": t.calls("mobility.candidates"),
        "candidates.s": t.total_s("mobility.candidates"),
        "candidates.returned": counts["candidates.returned"],
        "neighbor_precision": ratio(counts["neighbors.kept"], counts["candidates.returned"]),
        "parse_fcd.calls": t.calls("mobility.parse_fcd"),
        "build_provider.s": t.total_s("mobility.build_provider"),
        "line_of_sight.calls": t.calls("radio.line_of_sight"),
        "line_of_sight.s": t.total_s("radio.line_of_sight"),
        "line_of_sight.blocked_ratio": ratio(
            counts["line_of_sight.blocked"], t.calls("radio.line_of_sight")
        ),
        "channel_loss.calls": t.calls("radio.channel_loss"),
        "channel_loss.lost_ratio": ratio(counts["channel_loss.lost"], t.calls("radio.channel_loss")),
        "channel.register.calls": t.calls("channel.register"),
        "channel.concurrent_near.calls": t.calls("channel.concurrent_near"),
        "channel.concurrent_near.s": t.total_s("channel.concurrent_near"),
        "channel.busy_until_near.calls": t.calls("channel.busy_until_near"),
        "channel.busy_until_near.s": t.total_s("channel.busy_until_near"),
        "channel.busy_until_near.busy_ratio": ratio(
            counts["channel.busy"], t.calls("channel.busy_until_near")
        ),
        "records": counts["records"],
        "record.s": t.total_s("runner.record"),
        "select_gateways.calls": t.calls("protocols.select_gateways"),
        "gateway_path.s": sum(t.total_s(name) for name in tracing.GATEWAY_PATH),
        "dfcv.maintain.calls": t.calls("dfcv.maintain"),
        "dfcv.maintain.s": t.total_s("dfcv.maintain"),
        "baseline.useful_tx_ratio": ratio(
            counts["baseline.delivered_targets"], t.calls("baseline.after_tx")
        ),
        "run_maintenance.calls": t.calls("fog.run_maintenance"),
        "run_maintenance.s": t.total_s("fog.run_maintenance"),
        "split_cell.calls": t.calls("fog.split_cell"),
        "merge_cells.calls": t.calls("fog.merge_cells"),
        "check_partition.s": t.total_s("fog.check_partition"),
        "summarize.s": t.total_s("metrics.summarize"),
        "csv_text.s": t.total_s("metrics.csv_text"),
        "load_obstacles.s": t.total_s("config.load_obstacles"),
        "config.build_s": t.total_s("config.from_dict"),
        "trace_overhead": overhead,
    }
    for kind in EVENT_KINDS:
        out[f"engine.events.{kind}"] = t.calls(f"handler.{kind}")
        out[f"handler.{kind}.self_s"] = t.self_s(f"handler.{kind}")
    for name in PROTOCOL_NAMES:
        hooks = [f"{name}.{hook}" for hook in tracing.PROTOCOL_HOOKS]
        out[f"{name}.self_s"] = sum(t.self_s(h) for h in hooks)
        out[f"{name}.calls"] = sum(t.calls(h) for h in hooks)
    return out


def traced_batch(cfg_dict: dict, base_dir: Path) -> tuple:
    tracer = tracing.Tracer()
    with tracing.patched() as set_attr:
        tracing.instrument(tracer, set_attr)
        batch = run_batch(cfg_dict, base_dir, tracer)
    return batch, tracer


def serial_matches_parallel(seed: int, base_dir: Path) -> bool:
    sub = dict(SUB_SWEEP, seeds=workloads.run_seeds("highway_sweep-sub", seed, 2))
    cfg = config.from_dict(sub, base_dir=str(base_dir))
    serial = metrics.csv_text(runner.run_sweep(cfg, workers=1)[0])
    parallel = metrics.csv_text(runner.run_sweep(cfg, workers=2)[0])
    return serial == parallel


def warm_up(base_dir: Path) -> None:
    cfg = config.from_dict(dict(SUB_SWEEP, **WARMUP), base_dir=str(base_dir))
    for protocol in cfg.protocols:
        runner.run_single(cfg, protocol, cfg.densities[0], 1)


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv, base_dir: Path) -> int:
    args = parse_args(argv)
    work_dir = base_dir / workloads.WORK_DIR
    work_dir.mkdir(exist_ok=True)
    cfg_dict = workloads.config_dict(args.workload, args.seed)
    trace_file = None
    if args.workload == "trace_replay":
        trace_file = base_dir / workloads.trace_path(args.seed)
        trace_file.write_bytes(workloads.fcd_bytes(args.seed))
    try:
        return measure(args, cfg_dict, base_dir, work_dir)
    finally:
        if trace_file is not None:
            trace_file.unlink()


def measure(args, cfg_dict: dict, base_dir: Path, work_dir: Path) -> int:
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    warm_up(base_dir)

    batches = []
    deadline = time.perf_counter() + args.seconds
    while not batches or time.perf_counter() < deadline:
        batches.append(run_batch(cfg_dict, base_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sweeps_match = serial_matches_parallel(args.seed, base_dir)

    traced = tracer = None
    if args.trace:
        traced, tracer = traced_batch(cfg_dict, base_dir)

    # Every run of every repeat must be correct and must match the first
    # repeat's run exactly: simulated statistics are deterministic.
    reference = [r.identity() for r in batches[0].runs]
    attempted = failed = 0
    for label, batch in [(f"repeat {i + 1}", b) for i, b in enumerate(batches)] + (
        [("traced", traced)] if traced is not None else []
    ):
        print(f"identity {label}: {batch.identity_line()}")
        for run, expected in zip(batch.runs, reference):
            attempted += 1
            if run.identity() != expected:
                run.errors.append("differs from the first repeat")
            if run.errors:
                failed += 1
                print(
                    f"FAILED {label} protocol={run.protocol} density={run.density} "
                    f"seed={run.seed}: {'; '.join(run.errors)}"
                )
    attempted += 1
    if not sweeps_match:
        failed += 1
        print("FAILED serial and parallel sweeps give different CSV bytes")
    print(f"serial_vs_parallel: {'identical' if sweeps_match else 'DIFFERENT'}")

    def medians(per_repeat):
        return {name: statistics.median(m[name] for m in per_repeat) for name in per_repeat[0]}

    end_to_end = medians([batch_metrics(b) for b in batches])
    end_to_end["peak_rss_mb"] = peak_rss_mb
    host = medians([batch_metrics(b, host_seconds=True) for b in batches])
    print(
        f"end_to_end (median of {len(batches)} repeats, {len(batches[0].runs)} runs each; "
        f"times in reference seconds, host seconds in brackets):"
    )
    for name, unit in END_TO_END:
        in_host = f" [{fmt(host[name])}]" if name in host else ""
        print(f"  {name} = {fmt(end_to_end[name])} {unit}{in_host}")

    if tracer is not None:
        overhead = batch_metrics(traced, host_seconds=True)["sweep_s"] / host["sweep_s"]
        layers = layer_metrics(tracer, overhead)
        print("per_layer (one traced repeat):")
        for layer, name, unit in PER_LAYER:
            print(f"  [{layer}] {name} = {fmt(layers[name])} {unit}")
        spans_file = work_dir / f"spans-{args.workload}-{args.seed}.json"
        spans = {
            "spans": {
                name: dict(zip(("calls", "total_s", "self_s"), row))
                for name, row in sorted(tracer.totals.items())
            },
            "counts": dict(sorted(tracer.counts.items())),
        }
        spans_file.write_text(json.dumps(spans, indent=1))
        print(f"spans written to {spans_file.relative_to(base_dir)}")
        reported = {name: {"value": layers[name], "unit": unit} for _, name, unit in PER_LAYER}
    else:
        reported = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    print(f"runs attempted={attempted} failed={failed}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0
