"""Check one benchmark output against what every run, and every traced run, must show.

    python3 benchmark/run.py --workload W --seed 1 --seconds 1 --trace 1 > bench.out
    python3 tests/traced_checks.py bench.out

The output's first line (``workload=… seed=… seconds=… trace=…``) names
the workload and whether the run was traced; its last line is the JSON
result.  ``RULES`` is one table: each row names the workloads it applies
to, whether only traced runs are held to it, the rule, and why the rule
exists.  A traced run reaches a layer only through the names that
``benchmark/tracing.py`` patches, so code that bypasses one reads 0 there
while the run itself stays correct; a new check of that kind is one more
row.  The script prints every rule that fails, naming the metric and its
value, and exits 1 when one does (or when the header is missing).  It is
not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Callable, NamedTuple

WORKLOADS = frozenset({"highway_sweep", "grid_obstacles", "metered_beacons", "trace_replay"})
OPEN_MAPS = WORKLOADS - {"grid_obstacles"}

HEADER = re.compile(r"workload=(\S+) seed=\S+ seconds=\S+ trace=([01])")


class Output:
    """One benchmark output: its header, its lines and its JSON result."""

    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        header = HEADER.fullmatch(self.lines[0]) if self.lines else None
        if header is None:
            raise ValueError("line 1 is not a 'workload=… seed=… seconds=… trace=…' header")
        self.workload, self.traced = header.group(1), header.group(2) == "1"
        if self.workload not in WORKLOADS:
            raise ValueError(f"workload {self.workload} is not one of {sorted(WORKLOADS)}")
        try:
            result = json.loads(self.lines[-1])
        except json.JSONDecodeError:
            result = None
        self.result = result if isinstance(result, dict) else None

    def metric(self, name: str):
        """The value of metric ``name``, or None when it is missing."""
        metrics = (self.result or {}).get("metrics", {})
        return metrics.get(name, {}).get("value")


Rule = Callable[[Output], list]


class Row(NamedTuple):
    workloads: frozenset
    traced_only: bool
    rule: Rule
    reason: str


def correct(out: Output) -> list:
    if out.result is None:
        return [f"the last line is not a JSON object: {out.lines[-1]!r}"]
    verdict = out.result.get("correct")
    return [] if verdict is True else [f"correct is {json.dumps(verdict)}, not true"]


def nonzero(*names: str) -> Rule:
    """Each of ``names`` is present and not zero."""
    return lambda out: [
        f"{name} is {out.metric(name)}, zero or missing" for name in names if not out.metric(name)
    ]


def no_sight(out: Output) -> list:
    calls = out.metric("line_of_sight.calls")
    return [] if calls == 0 else [f"line_of_sight.calls is {calls}, not 0 on an open map"]


def precise(out: Output) -> list:
    value = out.metric("neighbor_precision")
    if value is None or value < 0.95:
        return [f"neighbor_precision is {value}, below 0.95 or missing"]
    return []


def equal(a: str, b: str) -> Rule:
    """``a`` and ``b`` are both present and equal."""

    def rule(out: Output) -> list:
        x, y = out.metric(a), out.metric(b)
        return [] if x is not None and y is not None and x == y else [f"{a} is {x}, {b} is {y}"]

    return rule


def records_sent(out: Output) -> list:
    traced = [line for line in out.lines if line.startswith("identity traced:")]
    found = re.search(r"n_sent=(\d+)", traced[-1]) if traced else None
    sent = int(found.group(1)) if found else None
    records = out.metric("records")
    if sent is None or records != sent:
        return [f"records is {records}, the traced n_sent is {sent}"]
    return []


RULES = [
    Row(WORKLOADS, False, correct,
        "run.py exits 0 even when a check fails, so the verdict is read from the last line"),
    Row(WORKLOADS, True,
        nonzero(
            "dfcv.maintain.calls", "run_maintenance.calls", "split_cell.calls", "merge_cells.calls"
        ),
        "Dfcv.maintain looks each fog function up on the fog module at call time, so the tracer's "
        "patches reach them; a name bound at import would read 0"),
    Row(frozenset({"trace_replay"}), True, nonzero("parse_fcd.calls"),
        "the tracer patches mobility.parse_fcd; a parse that bypassed that module global would "
        "read 0"),
    Row(WORKLOADS, True, nonzero("candidates.calls", "candidates.returned"),
        "the tracer patches NeighborIndex.candidates; a query that bypassed it would read 0"),
    Row(frozenset({"grid_obstacles"}), True, nonzero("line_of_sight.calls"),
        "the tracer patches line_of_sight in each module that looks it up as a global (radio, "
        "protocols, runner); a sight test inlined around those would read 0"),
    Row(frozenset({"grid_obstacles"}), True, nonzero("select_gateways.calls"),
        "the tracer patches protocols.select_gateways; a gateway cover chosen around that module "
        "global would read 0"),
    Row(OPEN_MAPS, True, no_sight,
        "an open map has no rectangles, so every segment is in sight; a sight question there is "
        "wasted work that no output byte can show"),
    Row(WORKLOADS, True, precise,
        "neighbor_precision is the share of NeighborIndex candidates that Runtime.neighbors keeps; "
        "an index that returns vehicles from across a seam, or never finds a candidate certain, "
        "still answers correctly but reads low"),
    Row(WORKLOADS, True, nonzero("engine.events", "engine.schedule.calls"),
        "engine.events counts handlers registered through Simulator.on, engine.schedule.calls "
        "calls of Simulator.schedule; a handler or a schedule that bypassed them would read 0"),
    Row(WORKLOADS, True,
        nonzero(
            "channel.register.calls",
            "channel.concurrent_near.calls",
            "channel.busy_until_near.calls",
        ),
        "the tracer patches runner.Channel, which is radio.Channel; a frame registered, or a "
        "contention or carrier-sense query made, around those methods would read 0"),
    Row(WORKLOADS, True, equal("channel.concurrent_near.calls", "channel_loss.calls"),
        "Channel.hops asks Channel.concurrent_near once for each channel_loss draw; a draw whose "
        "count was found around that method would leave the two counts apart"),
    Row(WORKLOADS, True, nonzero("summarize.s"),
        "run_single summarizes through runner.summarize, the name the tracer patches; a summary "
        "computed around that name reads 0, as one did while runs kept running counts"),
    Row(WORKLOADS, True, records_sent,
        "the tracer counts records in Runtime.record_delivery and Runtime.record_loss, and every "
        "addressed pair ends with one record; a record written around them would leave records "
        "apart from the traced batch's n_sent"),
]


def applying(out: Output) -> list:
    """The rows of ``RULES`` that apply to ``out``'s workload and tracing."""
    return [
        row for row in RULES
        if out.workload in row.workloads and (out.traced or not row.traced_only)
    ]


def failures(out: Output) -> list:
    """``(message, reason)`` for every failing rule that applies to ``out``."""
    return [(message, row.reason) for row in applying(out) for message in row.rule(out)]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tests/traced_checks.py BENCH_OUTPUT", file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as fh:
        text = fh.read()
    try:
        out = Output(text)
    except ValueError as exc:
        print(f"{args[0]}: {exc}", file=sys.stderr)
        return 1
    failed = failures(out)
    for message, reason in failed:
        print(f"FAIL {message}\n  ({reason})", file=sys.stderr)
    if failed:
        return 1
    print(f"{args[0]}: the {len(applying(out))} of {len(RULES)} rules that apply to "
          f"workload={out.workload} trace={int(out.traced)} hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
