"""Event loop ordering, budget, RNG stream determinism, the event log."""

import hashlib
import random

import pytest

from vanetsim import engine
from vanetsim.engine import (
    BEACON_EMIT,
    DEFAULT_EVENT_BUDGET,
    EVENT_KINDS,
    MESSAGE_INJECT,
    MOBILITY_TICK,
    RADIO_DELIVER,
    SIM_END,
    Simulator,
    derive_stream_seed,
)
from vanetsim.errors import BudgetError, SchedulingError


def test_stream_seed_matches_sha256_prefix():
    # independent recomputation of the documented derivation
    expect = int.from_bytes(hashlib.sha256(b"7:mobility").digest()[:8], "big")
    assert derive_stream_seed(7, "mobility") == expect


def test_stream_seed_distinct_per_stream_and_seed():
    seeds = {
        derive_stream_seed(s, name)
        for s in (0, 1, 2**63)
        for name in ("mobility", "workload", "radio-loss")
    }
    assert len(seeds) == 9


def test_rng_stream_is_cached_and_reproducible():
    sim = Simulator(seed=42)
    a = sim.rng("radio-backoff")
    assert sim.rng("radio-backoff") is a
    fresh = random.Random(derive_stream_seed(42, "radio-backoff"))
    assert [a.random() for _ in range(5)] == [fresh.random() for _ in range(5)]


def test_rng_streams_do_not_interleave():
    # draw n of a stream depends only on (seed, stream, n)
    solo = Simulator(seed=3)
    lone = [solo.rng("workload").random() for _ in range(4)]
    mixed = Simulator(seed=3)
    got = []
    for _ in range(4):
        mixed.rng("mobility").random()
        got.append(mixed.rng("workload").random())
        mixed.rng("radio-loss").random()
    assert got == lone


def test_events_fire_in_time_then_seq_order():
    sim = Simulator()
    fired = []
    sim.on(RADIO_DELIVER, lambda t, payload: fired.append(("r", t, payload)))
    sim.on(BEACON_EMIT, lambda t, payload: fired.append(("b", t, payload)))
    sim.schedule(300, RADIO_DELIVER, "late")
    sim.schedule(100, RADIO_DELIVER, "first")
    sim.schedule(100, BEACON_EMIT, "second")  # same time, scheduled after
    sim.schedule(200, RADIO_DELIVER, "mid")
    sim.run(1000)
    assert fired == [
        ("r", 100, "first"),
        ("b", 100, "second"),
        ("r", 200, "mid"),
        ("r", 300, "late"),
    ]


def test_run_until_is_inclusive_and_leaves_rest_queued():
    sim = Simulator()
    seen = []
    sim.on(MOBILITY_TICK, lambda t, payload: seen.append(t))
    for t in (10, 20, 30):
        sim.schedule(t, MOBILITY_TICK)
    stats = sim.run(20)
    assert seen == [10, 20]
    assert stats.events_processed == 2
    assert stats.clock == 20
    assert stats.queued == 1
    sim.run(30)
    assert seen == [10, 20, 30]


def test_stop_makes_the_current_event_the_last():
    sim = Simulator()
    seen = []

    def on_end(t, payload):
        seen.append(SIM_END)
        sim.stop()

    sim.on(MOBILITY_TICK, lambda t, payload: seen.append(MOBILITY_TICK))
    sim.on(SIM_END, on_end)
    sim.schedule(10, SIM_END)
    sim.schedule(10, MOBILITY_TICK)  # same time, scheduled later
    sim.schedule(20, MOBILITY_TICK)
    stats = sim.run(100)
    assert seen == [SIM_END]
    assert stats.events_processed == 1 and stats.queued == 0


def test_handler_can_schedule_followups():
    sim = Simulator()
    hits = []

    def chain(t, payload):
        hits.append(t)
        if t < 50:
            sim.schedule(t + 10, MESSAGE_INJECT)

    sim.on(MESSAGE_INJECT, chain)
    sim.schedule(10, MESSAGE_INJECT)
    sim.run(100)
    assert hits == [10, 20, 30, 40, 50]


def test_schedule_into_past_raises():
    sim = Simulator()
    sim.on(SIM_END, lambda t, payload: None)
    sim.schedule(100, SIM_END)
    sim.run(100)
    with pytest.raises(SchedulingError):
        sim.schedule(99, SIM_END)
    # same-time rescheduling stays legal
    sim.schedule(100, SIM_END)


def test_unknown_kind_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(0, "Teleport")
    with pytest.raises(ValueError):
        sim.on("Teleport", lambda t, payload: None)
    assert "SimEnd" in EVENT_KINDS and len(EVENT_KINDS) == 7


def test_budget_exceeded_raises():
    sim = Simulator(event_budget=5)

    def respawn(t, payload):
        sim.schedule(t + 1, MOBILITY_TICK)

    sim.on(MOBILITY_TICK, respawn)
    sim.schedule(0, MOBILITY_TICK)
    with pytest.raises(BudgetError):
        sim.run(10_000)
    assert DEFAULT_EVENT_BUDGET == 50_000_000


def test_log_lines_are_tab_separated_with_dash_placeholder():
    log = []
    sim = Simulator(log=log)
    sim.on(RADIO_DELIVER, lambda t, payload: ("hop {}", "done"))
    sim.schedule(5, RADIO_DELIVER)
    sim.schedule(6, SIM_END)  # no handler: '-' summary
    sim.run(10)
    assert log == ["5\t0\tRadioDeliver\thop done", "6\t1\tSimEnd\t-"]


def test_identical_runs_replay_identical_logs():
    def drive(seed):
        log = []
        sim = Simulator(seed=seed, log=log)

        def hop(t, payload):
            wait = sim.rng("radio-backoff").randrange(1, 100)
            if t < 2_000:
                sim.schedule(t + wait, RADIO_DELIVER, None)
            return "wait={}", wait

        sim.on(RADIO_DELIVER, hop)
        sim.schedule(0, RADIO_DELIVER)
        sim.run(10_000)
        return log

    assert drive(11) == drive(11)
    assert drive(11) != drive(12)


def logged_line(handler, *, at=5):
    """The summary of one event's log line, for ``handler``."""
    log = []
    sim = Simulator(log=log)
    sim.on(RADIO_DELIVER, lambda t, payload: handler(sim, t))
    sim.schedule(at, RADIO_DELIVER)
    sim.run(at)
    (line,) = log
    return line.split("\t")[3]


def test_a_list_or_tuple_field_is_written_comma_joined():
    def handler(sim, t):
        return "ids={} pair={} none={} t={}", [3, 1, 2], (4, 5), [], t

    assert logged_line(handler) == "ids=3,1,2 pair=4,5 none= t=5"


def test_notes_follow_the_summary_in_call_order():
    def handler(sim, t):
        sim.note("first={}", 1)
        sim.note("then {} of {}", [2, 3], "ids")
        sim.note("last")
        return "summary t={}", t

    assert logged_line(handler) == "summary t=5 first=1 then 2,3 of ids last"


def test_a_line_with_notes_and_no_summary():
    def handler(sim, t):
        sim.note("only={}", t)

    assert logged_line(handler) == "only=5"


def test_notes_never_carry_over_into_the_next_event():
    log = []
    sim = Simulator(log=log)
    sim.note("before any event")

    def hop(t, noisy):
        if noisy:
            sim.note("noted at {}", t)
            return None
        return "quiet at {}", t

    sim.on(RADIO_DELIVER, hop)
    sim.schedule(1, RADIO_DELIVER, True)
    sim.schedule(2, RADIO_DELIVER, False)
    sim.schedule(3, RADIO_DELIVER, True)
    sim.schedule(4, SIM_END)
    sim.run(10)
    assert [line.split("\t")[3] for line in log] == [
        "noted at 1", "quiet at 2", "noted at 3", "-"
    ]


def test_without_a_log_nothing_is_rendered(monkeypatch):
    def render(fmt, fields):
        raise AssertionError(f"rendered {fmt!r} without a log")

    monkeypatch.setattr(engine, "render", render)
    sim = Simulator()
    seen = []

    def hop(t, payload):
        sim.note("noted={}", [t])
        seen.append(t)
        return "summary={}", t

    sim.on(RADIO_DELIVER, hop)
    sim.schedule(1, RADIO_DELIVER)
    sim.schedule(2, RADIO_DELIVER)
    sim.run(10)
    assert seen == [1, 2]
