"""The traced-run checker (``tests/traced_checks.py``) on synthetic benchmark outputs.

Each workload's output, traced and untraced, passes; each rule fails on a
copy with its metric zeroed, removed or set just past its bound, and the
failure names the metric.
"""

import json
from pathlib import Path

import pytest

from traced_checks import OPEN_MAPS, RULES, WORKLOADS, Output, failures, main

SENT = 40

# The metrics the nonzero rows read, with the workloads each row covers.
NONZERO = {
    "dfcv.maintain.calls": WORKLOADS,
    "run_maintenance.calls": WORKLOADS,
    "split_cell.calls": WORKLOADS,
    "merge_cells.calls": WORKLOADS,
    "parse_fcd.calls": {"trace_replay"},
    "candidates.calls": WORKLOADS,
    "candidates.returned": WORKLOADS,
    "line_of_sight.calls": {"grid_obstacles"},
    "select_gateways.calls": {"grid_obstacles"},
    "engine.events": WORKLOADS,
    "engine.schedule.calls": WORKLOADS,
    "channel.register.calls": WORKLOADS,
    "channel.concurrent_near.calls": WORKLOADS,
    "channel.busy_until_near.calls": WORKLOADS,
    "summarize.s": WORKLOADS,
}


def bench_text(workload, traced, edit=None, sent=SENT, correct=True):
    """A benchmark output that passes, after ``edit`` has changed its metrics."""
    metrics = {"sweep_s": 0.5, "records_per_s": 1000.0}
    if traced:
        metrics.update({name: 7 for name in NONZERO})
        metrics.update({
            "parse_fcd.calls": 1 if workload == "trace_replay" else 0,
            "line_of_sight.calls": 0 if workload in OPEN_MAPS else 900,
            "neighbor_precision": 0.97,
            "channel_loss.calls": 7,
            "records": SENT,
        })
    if edit is not None:
        edit(metrics)
    lines = [
        f"workload={workload} seed=1 seconds=1.0 trace={int(traced)}",
        f"identity repeat 1: csv_sha256=ab12 events=99 n_sent={SENT}",
    ]
    if traced and sent is not None:
        lines.append(f"identity traced: csv_sha256=ab12 events=99 n_sent={sent}")
    result = {"correct": correct, "attempted": 3, "failed": 0}
    result["metrics"] = {name: {"value": value, "unit": "count"} for name, value in metrics.items()}
    return "\n".join(lines + [json.dumps(result)]) + "\n"


def messages(text):
    return [message for message, _ in failures(Output(text))]


def setter(name, value):
    return lambda metrics: metrics.__setitem__(name, value)


def remover(name):
    return lambda metrics: metrics.pop(name)


def test_the_table_covers_the_benchmarks_workloads():
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == WORKLOADS


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_sound_output_passes(workload, traced):
    assert messages(bench_text(workload, traced)) == []


@pytest.mark.parametrize("name", sorted(NONZERO))
def test_a_zero_or_missing_count_fails_where_its_row_applies(name):
    for workload in NONZERO[name]:
        for value, edit in ((0, setter(name, 0)), (None, remover(name))):
            found = messages(bench_text(workload, True, edit))
            assert f"{name} is {value}, zero or missing" in found
    for workload in WORKLOADS - NONZERO[name]:
        assert messages(bench_text(workload, True, setter(name, 0))) == []


@pytest.mark.parametrize("workload", sorted(OPEN_MAPS))
def test_an_open_map_asking_sight_fails(workload):
    found = messages(bench_text(workload, True, setter("line_of_sight.calls", 1)))
    assert found == ["line_of_sight.calls is 1, not 0 on an open map"]
    found = messages(bench_text(workload, True, remover("line_of_sight.calls")))
    assert found == ["line_of_sight.calls is None, not 0 on an open map"]


def test_precision_below_its_bound_or_missing_fails():
    for workload in WORKLOADS:
        assert messages(bench_text(workload, True, setter("neighbor_precision", 0.95))) == []
        found = messages(bench_text(workload, True, setter("neighbor_precision", 0.94)))
        assert found == ["neighbor_precision is 0.94, below 0.95 or missing"]
        found = messages(bench_text(workload, True, remover("neighbor_precision")))
        assert found == ["neighbor_precision is None, below 0.95 or missing"]


@pytest.mark.parametrize("draws, expected", [
    (6, "channel.concurrent_near.calls is 7, channel_loss.calls is 6"),
    (8, "channel.concurrent_near.calls is 7, channel_loss.calls is 8"),
    (None, "channel.concurrent_near.calls is 7, channel_loss.calls is None"),
])
def test_contention_queries_apart_from_draws_fail(draws, expected):
    edit = remover("channel_loss.calls") if draws is None else setter("channel_loss.calls", draws)
    for workload in WORKLOADS:
        assert messages(bench_text(workload, True, edit)) == [expected]


def test_contention_counts_both_missing_fail():
    def edit(metrics):
        del metrics["channel.concurrent_near.calls"], metrics["channel_loss.calls"]

    for workload in WORKLOADS:
        found = messages(bench_text(workload, True, edit))
        assert "channel.concurrent_near.calls is None, channel_loss.calls is None" in found


@pytest.mark.parametrize("edit, sent, expected", [
    (setter("records", SENT + 1), SENT, f"records is {SENT + 1}, the traced n_sent is {SENT}"),
    (None, SENT + 1, f"records is {SENT}, the traced n_sent is {SENT + 1}"),
    (None, None, f"records is {SENT}, the traced n_sent is None"),
    (remover("records"), SENT, f"records is None, the traced n_sent is {SENT}"),
])
def test_records_apart_from_the_traced_n_sent_fail(edit, sent, expected):
    for workload in WORKLOADS:
        assert messages(bench_text(workload, True, edit, sent=sent)) == [expected]


@pytest.mark.parametrize("traced", [False, True])
def test_a_wrong_verdict_or_a_non_json_last_line_fails(traced):
    for workload in WORKLOADS:
        found = messages(bench_text(workload, traced, correct=False))
        assert found == ["correct is false, not true"]
        assert messages(bench_text(workload, traced, correct=None)) == ["correct is null, not true"]
        found = messages(bench_text(workload, traced) + "[true]\n")
        assert found[0] == "the last line is not a JSON object: '[true]'"
        found = messages(bench_text(workload, traced) + "Killed\n")
        assert found[0] == "the last line is not a JSON object: 'Killed'"
        # a traced run's metrics are unread, so its metric rows fail too
        assert (len(found) > 1) == traced


def test_every_row_has_a_failing_case():
    """Each row of the table is seen failing by one of the edits above."""
    edits = [setter(name, 0) for name in NONZERO] + [
        setter("line_of_sight.calls", 1),
        setter("neighbor_precision", 0.94),
        setter("channel_loss.calls", 6),
        setter("records", SENT + 1),
    ]
    seen = set()
    for workload in WORKLOADS:
        texts = [bench_text(workload, True, edit) for edit in edits]
        for text in texts + [bench_text(workload, False, correct=False)]:
            seen.update(reason for _, reason in failures(Output(text)))
    assert seen == {row.reason for row in RULES}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_script_exits_one_naming_each_failure(workload, tmp_path, capsys):
    path = tmp_path / "bench.out"
    path.write_text(bench_text(workload, True))
    assert main([str(path)]) == 0
    edit = setter("engine.events", 0)
    path.write_text(bench_text(workload, True, edit, correct=False))
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert "FAIL correct is false, not true" in err
    assert "FAIL engine.events is 0, zero or missing" in err


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_missing_header_fails(workload, traced, tmp_path, capsys):
    path = tmp_path / "bench.out"
    for text in (bench_text(workload, traced).split("\n", 1)[1], ""):
        path.write_text(text)
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 1 is not a 'workload=… seed=… seconds=… trace=…' header" in err


def test_an_unknown_workload_fails():
    with pytest.raises(ValueError, match="workload highway is not one of"):
        Output(bench_text("trace_replay", True).replace("=trace_replay", "=highway"))
