"""Spans for the benchmark's traced run, and the patch table that places them.

The benchmark traces the simulator from outside: it replaces functions and
methods at the module or class attribute where the simulator looks them
up, runs the workload, and puts the originals back.  Each call through a
replaced attribute records one span: its name, its parent span, and its
start and end on the host clock.  A span's self time is its duration
minus the time its child spans cover.

Spans are kept in flat arrays for the length of one simulator run, then
folded into per-name totals (calls, total seconds, self seconds) so a run
of a million spans does not pile up across the batch.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from vanetsim import config, engine, fog, metrics, mobility, protocols, radio, runner

ROOT = -1  # parent of a span opened with no span open


def self_times(names, parents, starts, ends) -> dict:
    """Per-name [calls, total_s, self_s] over one list of spans.

    ``parents[i]`` is the index of span i's parent, or ``ROOT``.  A child
    runs inside its parent, so the parent's self time is its duration
    minus the summed durations of its direct children.
    """
    child = [0.0] * len(names)
    for parent, start, end in zip(parents, starts, ends):
        if parent != ROOT:
            child[parent] += end - start
    out: dict = {}
    for name, start, end, inner in zip(names, starts, ends, child):
        row = out.get(name)
        if row is None:
            row = out[name] = [0, 0.0, 0.0]
        dur = end - start
        row[0] += 1
        row[1] += dur
        row[2] += dur - inner
    return out


class Tracer:
    """Records spans through wrappers made by ``wrap``; see the module doc."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [ROOT]
        self.counts: dict[str, int] = defaultdict(int)
        self.totals: dict[str, list] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` behind a span called ``name``; it returns what ``fn`` returns.

        ``on_result(result, args)`` runs after each call, for counters that
        depend on what the call returned.
        """
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, clock = self.span_start, self.span_end, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def fold(self) -> None:
        """Add the recorded spans to ``totals`` and forget them.

        Only call this with no span open, between simulator runs.
        """
        if len(self._stack) != 1:
            raise RuntimeError("fold() called inside an open span")
        per_name = self_times(self.span_name, self.span_parent, self.span_start, self.span_end)
        for nid, (calls, total, own) in per_name.items():
            row = self.totals.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]


@contextmanager
def patched():
    """Yield ``set(owner, attr, value)``; every attribute set is restored on exit."""
    undo = []

    def set_attr(owner, attr, value):
        own = vars(owner)
        undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, value)

    try:
        yield set_attr
    finally:
        for owner, attr, old, had in reversed(undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


# Protocol hooks the Runtime dispatches to; their self time is protocol logic.
PROTOCOL_HOOKS = (
    "on_inject",
    "tx_receivers",
    "after_tx",
    "on_cloud",
    "after_infra",
    "on_tick",
    "on_maintenance",
    "on_end",
)

# Hybrid steps that decide who is shadowed and reach them through gateways.
GATEWAY_PATH = (
    "protocols.obstacle_shadowing",
    "protocols.select_gateways",
    "hybrid_vehcloud._establish_uplink",
    "hybrid_vehcloud._covering_gateway",
)


def instrument(tracer: Tracer, set_attr) -> None:
    """Put a span on every layer boundary the per-layer metrics read."""
    counts = tracer.counts

    def span(owner, attr, name, on_result=None):
        set_attr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))

    def span_everywhere(modules, attr, name, on_result=None):
        # One function, imported by name into several modules: patch each
        # module that looks it up, all under one span name.
        for module in modules:
            if attr in vars(module):
                span(module, attr, name, on_result)

    def count_if(key, test):
        def on_result(result, args):
            if test(result):
                counts[key] += 1

        return on_result

    def count_len(key):
        def on_result(result, args):
            counts[key] += len(result)

        return on_result

    def count_record(result, args):
        if result:
            counts["records"] += 1

    def count_delivery(result, args):
        if result:
            counts["records"] += 1
            rt, msg = args[0], args[1]
            if rt.protocol.name == "baseline" and msg.kind == protocols.KIND_EVENT:
                counts["baseline.delivered_targets"] += 1

    # engine
    span(engine.Simulator, "run", "engine.run")
    span(engine.Simulator, "schedule", "engine.schedule")
    register = engine.Simulator.on

    def traced_on(sim, kind, handler):
        return register(sim, kind, tracer.wrap(f"handler.{kind}", handler))

    set_attr(engine.Simulator, "on", traced_on)

    # runner
    span(runner, "run_single", "runner.run_single")
    span(runner, "place_stations", "runner.place_stations")
    span(runner.Runtime, "setup", "runner.setup")
    span(runner.Runtime, "neighbors", "runner.neighbors", count_len("neighbors.kept"))
    span(runner.Runtime, "record_delivery", "runner.record", count_delivery)
    span(runner.Runtime, "record_loss", "runner.record", count_record)
    span(runner.Channel, "register", "channel.register")
    span(runner.Channel, "concurrent_near", "channel.concurrent_near")
    span(
        runner.Channel,
        "busy_until_near",
        "channel.busy_until_near",
        count_if("channel.busy", lambda r: r is not None),
    )

    # mobility
    span_everywhere((runner, mobility), "build_provider", "mobility.build_provider")
    span(mobility, "parse_fcd", "mobility.parse_fcd")
    for cls in vars(mobility).values():
        if isinstance(cls, type) and issubclass(cls, mobility.MobilityProvider):
            if "position_at" in vars(cls):
                span(cls, "position_at", "mobility.position_at")
    span(mobility.MobilityProvider, "fleet_at", "mobility.fleet_at")
    span(
        mobility.NeighborIndex,
        "candidates",
        "mobility.candidates",
        count_len("candidates.returned"),
    )

    # radio
    span_everywhere(
        (runner, protocols, radio),
        "line_of_sight",
        "radio.line_of_sight",
        count_if("line_of_sight.blocked", lambda r: not r),
    )
    span_everywhere(
        (runner, protocols, radio),
        "channel_loss",
        "radio.channel_loss",
        count_if("channel_loss.lost", bool),
    )

    # protocols
    for cls in protocols.PROTOCOLS.values():
        for hook in PROTOCOL_HOOKS:
            span(cls, hook, f"{cls.name}.{hook}")
    span(protocols.Dfcv, "maintain", "dfcv.maintain")
    span(protocols, "select_gateways", "protocols.select_gateways")
    span(protocols, "obstacle_shadowing", "protocols.obstacle_shadowing")
    span(protocols.HybridVehcloud, "_establish_uplink", "hybrid_vehcloud._establish_uplink")
    span(protocols.HybridVehcloud, "_covering_gateway", "hybrid_vehcloud._covering_gateway")

    # fog: Dfcv.maintain imports these from the fog module at call time
    span(fog, "run_maintenance", "fog.run_maintenance")
    span(fog, "split_cell", "fog.split_cell")
    span(fog, "merge_cells", "fog.merge_cells")
    span(fog, "check_partition", "fog.check_partition")

    # metrics and config
    span_everywhere((runner, metrics), "summarize", "metrics.summarize")
    span(metrics, "csv_text", "metrics.csv_text")
    span(config, "from_dict", "config.from_dict")
    span(config.ScenarioConfig, "load_obstacles", "config.load_obstacles")
