"""Run orchestration: channel arithmetic, station placement, replay
determinism, parallel sweeps, budget enforcement, log accounting."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetsim.config import ProtocolKnobs, ScenarioConfig, WorkloadSpec
from vanetsim.engine import SIM_END, Simulator, to_us
from vanetsim.errors import BudgetError
from vanetsim.metrics import csv_text
from vanetsim.mobility import (
    MobilitySpec,
    Position,
    StaticProvider,
    SyntheticGridProvider,
    SyntheticHighwayProvider,
    TraceProvider,
    TraceSample,
    distance,
)
from vanetsim.protocols import Message
from vanetsim.radio import CHANNEL_LOSS, EMPTY_MAP, OUT_OF_RANGE, SHADOWED, RadioParams
from vanetsim.runner import Channel, Runtime, place_stations, run_single, run_sweep


# -- channel ------------------------------------------------------------------

def make_channel(**kw):
    return Channel(RadioParams(**kw), random.Random(0))


def test_channel_audibility_is_range_limited():
    ch = make_channel()
    ch.register(0, 1_000, Position(0.0, 0.0))
    assert ch.concurrent_near(Position(100.0, 0.0), 500) == 1
    assert ch.concurrent_near(Position(301.0, 0.0), 500) == 0
    assert ch.busy_until_near(Position(100.0, 0.0), 500) == 1_000
    assert ch.busy_until_near(Position(301.0, 0.0), 500) is None


def test_channel_expires_and_ignores_future_starts():
    ch = make_channel()
    ch.register(0, 1_000, Position(0.0, 0.0))
    ch.register(2_000, 3_000, Position(0.0, 0.0))
    here = Position(0.0, 0.0)
    assert ch.concurrent_near(here, 999) == 1
    assert ch.concurrent_near(here, 1_000) == 0  # end is exclusive occupancy
    assert ch.concurrent_near(here, 1_500) == 0  # second tx not started yet
    assert ch.concurrent_near(here, 2_000) == 1


def test_channel_busy_until_is_latest_overlap():
    ch = make_channel()
    ch.register(0, 1_000, Position(0.0, 0.0))
    ch.register(0, 4_000, Position(50.0, 0.0))
    assert ch.busy_until_near(Position(0.0, 0.0), 10) == 4_000


def test_channel_backoff_draw_is_bounded_and_seeded():
    ch = make_channel(max_backoff_us=7)
    draws = [ch.draw_backoff() for _ in range(200)]
    assert all(0 <= d <= 7 for d in draws)
    again = Channel(RadioParams(max_backoff_us=7), random.Random(0))
    assert [again.draw_backoff() for _ in range(200)] == draws
    assert make_channel(max_backoff_us=0).draw_backoff() == 0


# -- beacon schedule ----------------------------------------------------------

@st.composite
def beacon_schedules(draw):
    """(phases, period, frame, query times): the period is below, equal to
    or above the frame, and the times include a start, a start + frame
    and a time before some phase."""
    frame = draw(st.integers(1, 40))
    period = draw(
        st.one_of(st.integers(1, frame), st.just(frame), st.integers(frame, 3 * frame))
    )
    phases = draw(st.lists(st.integers(0, period - 1), min_size=1, max_size=8))
    horizon = max(phases) + 4 * max(period, frame)
    start = draw(st.sampled_from(phases)) + period * draw(st.integers(0, 3))
    times = draw(st.lists(st.integers(0, horizon), max_size=6))
    times += [start, start + frame, draw(st.integers(0, max(phases)))]
    return phases, period, frame, sorted(times)


def brute_force_on_air(phases, period, frame, t):
    """(vehicle, start, end) of every frame with start <= t < start + frame."""
    return sorted(
        (v, start, start + frame)
        for v, phase in enumerate(phases)
        for start in range(phase, t + 1, period)
        if t < start + frame
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(beacon_schedules())
def test_beacons_on_air_match_brute_force(case):
    phases, period, frame, times = case
    located = []

    def locate(v, start):
        # encode the frame in its origin so the channel's answer names it
        located.append((v, start))
        return Position(float(v), float(start))

    ch = Channel(RadioParams(range_m=1e9), random.Random(0))
    ch.set_beacons(sorted((p, v) for v, p in enumerate(phases)), period, frame, locate)
    here = Position(0.0, 0.0)
    for t in times:  # nondecreasing, as the event loop asks; repeats reuse the cached answer
        want = brute_force_on_air(phases, period, frame, t)
        got = sorted((int(x), int(y), end) for end, x, y in ch._beacons_at(t))
        assert got == want
        assert ch.concurrent_near(here, t) == len(want)
        assert ch.busy_until_near(here, t) == max((end for _, _, end in want), default=None)
    assert len(located) == len(set(located))  # one lookup per (vehicle, start)


def test_metered_beacon_does_not_hear_its_own_frame():
    # Two parked vehicles in range, no data traffic, and a loss probability
    # equal to the number of other frames on air: a beacon hop delivers
    # exactly when the other vehicle's frame is not on air at the start.
    period, frame = 2_000, 1_024
    cfg = ScenarioConfig(
        radio=RadioParams(base_loss=0.0, loss_slope=1.0),
        workload=WorkloadSpec(rate_per_s=0.5),
        knobs=ProtocolKnobs(
            beacon_interval_s=period / 1e6, include_beacons_in_metrics=True, drain_s=0.0
        ),
        sim_duration_s=0.2,
    )
    provider = StaticProvider([Position(0.0, 0.0), Position(100.0, 0.0)])
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    sim = Simulator(seed=3)
    rt = Runtime(sim, cfg, cfg.mobility, provider, EMPTY_MAP, stations, "baseline")
    rt.setup()
    assert rt.tx_time_us() == frame
    sim.run(rt.end_us)
    records = rt.ordered_records()
    addressed = {(m.msg_id, d) for m in rt.messages.values() for d in m.targets}
    assert records and set(rt.records) == addressed and rt.opened == len(addressed)
    phase = {v: min(r.sent_us for r in records if r.src == v) for v in (0, 1)}
    for r in records:
        other_on_air = (r.sent_us - phase[r.dst]) % period < frame and r.sent_us >= phase[r.dst]
        assert r.delivered == (not other_on_air), r
    assert any(r.delivered for r in records)


# -- neighbor queries ---------------------------------------------------------

def static_runtime(positions):
    cfg = ScenarioConfig()
    provider = StaticProvider(positions)
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    return Runtime(Simulator(), cfg, cfg.mobility, provider, EMPTY_MAP, stations, "baseline")


def test_neighbors_match_brute_force():
    rng = random.Random(12)
    for _ in range(50):
        positions = [
            Position(rng.uniform(0, 1000), rng.uniform(0, 1000))
            for _ in range(rng.randrange(2, 40))
        ]
        center = rng.choice(positions)
        radius = rng.uniform(50, 400)
        got = static_runtime(positions).neighbors(center, radius, 0)
        want = [v for v, p in enumerate(positions) if distance(center, p) <= radius]
        assert got == want


def test_neighbors_radius_inclusive():
    rt = static_runtime([Position(0, 0), Position(300, 0), Position(300.01, 0)])
    assert rt.neighbors(Position(0, 0), 300.0, 0) == [0, 1]


ROAD_M = 400.0
GRID = MobilitySpec(mode="synthetic_grid", grid_blocks=2, grid_spacing_m=100.0)
GRID_M = 200.0


def near_seams(period):
    # vehicles this close to a seam cross it within the queried second
    return st.one_of(
        st.floats(0.0, 60.0), st.floats(period - 60.0, period), st.floats(0.0, period)
    )


speeds = st.floats(0.0, 60.0)


@st.composite
def moving_fleets(draw):
    """(provider, query center, query times) on a wrapping highway, a
    wrapping grid or a trace."""
    n = draw(st.integers(1, 30))
    mode = draw(st.sampled_from(("highway", "grid", "trace")))
    if mode == "highway":
        initial = [
            (draw(near_seams(ROAD_M)), draw(st.integers(0, 2)), draw(speeds)) for _ in range(n)
        ]
        provider = SyntheticHighwayProvider(MobilitySpec(road_length_m=ROAD_M), initial=initial)
        center = Position(draw(near_seams(ROAD_M)), draw(st.floats(-5.0, 10.0)))
    elif mode == "grid":
        initial = [
            (
                draw(st.sampled_from("hv")),
                draw(st.integers(0, 2)),
                draw(near_seams(GRID_M)),
                draw(st.sampled_from((1, -1))),
                draw(speeds),
            )
            for _ in range(n)
        ]
        provider = SyntheticGridProvider(GRID, initial=initial)
        center = Position(draw(near_seams(GRID_M)), draw(near_seams(GRID_M)))
    else:
        samples = []
        for v in range(n):
            x, y = draw(st.floats(0.0, 300.0)), draw(st.floats(0.0, 300.0))
            for k in range(draw(st.integers(1, 5))):
                samples.append(TraceSample(k * 250_000, str(v), x, y))
                x += draw(st.floats(-15.0, 15.0))
                y += draw(st.floats(-15.0, 15.0))
        provider = TraceProvider(samples)
        center = Position(draw(st.floats(-20.0, 320.0)), draw(st.floats(-20.0, 320.0)))
    # over several refresh intervals, in any order, each followed by a query
    # up to one interval before or after it, where the index's slack is large
    times = []
    for t, step in draw(
        st.lists(
            st.tuples(st.integers(0, 1_000_000), st.integers(-200_000, 200_000)),
            min_size=1,
            max_size=5,
        )
    ):
        times += [t, max(0, t + step)]
    if draw(st.booleans()):
        # a center next to a vehicle, so some candidates sit on the edge of certainty
        x, y = provider.position_at(draw(st.integers(0, n - 1)), draw(st.sampled_from(times)))
        center = Position(x + draw(st.floats(-15.0, 15.0)), y + draw(st.floats(-15.0, 15.0)))
    return provider, center, times


@settings(max_examples=150, deadline=None, derandomize=True)
# below, near and above the index's slack (up to 12 m on synthetic fleets), and wide
@given(moving_fleets(), st.one_of(st.floats(0.0, 16.0), st.floats(16.0, 350.0)))
def test_neighbors_match_brute_force_on_moving_fleets(fleet, radius):
    provider, center, times = fleet
    cfg = ScenarioConfig(radio=RadioParams(range_m=50.0))
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    rt = Runtime(Simulator(), cfg, cfg.mobility, provider, EMPTY_MAP, stations, "baseline")
    for t in times + times[::-1]:
        want = [
            v
            for v in provider.vehicle_ids
            if distance(center, provider.position_at(v, t)) <= radius
        ]
        assert rt.neighbors(center, radius, t) == want, t
        for v in provider.vehicle_ids:
            assert rt.pos(v, t) == provider.position_at(v, t)


# -- station placement --------------------------------------------------------

def test_highway_stations_every_spacing_at_roadside():
    spec = MobilitySpec()
    stations = place_stations(spec, None, ProtocolKnobs())
    assert [(s.station_id, s.pos.x, s.pos.y) for s in stations] == [
        (0, 1_000.0, 0.0),
        (1, 3_000.0, 0.0),
        (2, 5_000.0, 0.0),
        (3, 7_000.0, 0.0),
        (4, 9_000.0, 0.0),
    ]


def test_short_highway_gets_one_central_station():
    spec = MobilitySpec(road_length_m=500.0)
    stations = place_stations(spec, None, ProtocolKnobs())
    assert [(s.pos.x, s.pos.y) for s in stations] == [(250.0, 0.0)]


def test_grid_stations_snap_to_intersections():
    spec = MobilitySpec(mode="synthetic_grid", grid_blocks=5, grid_spacing_m=200.0)
    one, = place_stations(spec, None, ProtocolKnobs())
    assert (one.pos.x, one.pos.y) == (600.0, 600.0)
    four = place_stations(spec, None, ProtocolKnobs(bs_spacing_m=500.0))
    assert [(s.station_id, s.pos.x, s.pos.y) for s in four] == [
        (0, 200.0, 200.0),
        (1, 800.0, 200.0),
        (2, 200.0, 800.0),
        (3, 800.0, 800.0),
    ]


def test_trace_stations_tile_the_bounding_box():
    provider = StaticProvider([Position(0.0, 0.0), Position(3_000.0, 0.0)], [])
    spec = MobilitySpec(mode="trace", trace_path="unused", vehicle_count=2)
    stations = place_stations(spec, provider, ProtocolKnobs())
    assert [(s.pos.x, s.pos.y) for s in stations] == [(750.0, 0.0), (2_250.0, 0.0)]
    narrow = StaticProvider([Position(0.0, 0.0), Position(1_000.0, 0.0)], [])
    only, = place_stations(spec, narrow, ProtocolKnobs())
    assert (only.pos.x, only.pos.y) == (500.0, 0.0)


# -- runs ---------------------------------------------------------------------

def small_cfg(**kw):
    defaults = dict(
        mobility=MobilitySpec(road_length_m=2_000.0),
        workload=WorkloadSpec(rate_per_s=2.0),
        sim_duration_s=3.0,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_rerun_replays_byte_identical(tmp_path):
    cfg = small_cfg()
    first = run_single(cfg, "hybrid_vehcloud", 20, 5, capture_log=True)
    second = run_single(cfg, "hybrid_vehcloud", 20, 5, capture_log=True)
    assert first.log == second.log
    assert first.summary == second.summary
    assert first.records == second.records
    other = run_single(cfg, "hybrid_vehcloud", 20, 6, capture_log=True)
    assert first.log != other.log


def test_parallel_sweep_matches_serial():
    cfg = small_cfg(
        densities=(10, 20),
        seeds=(1, 2),
        sim_duration_s=2.0,
    )
    serial, _ = run_sweep(cfg, workers=1)
    parallel, logs = run_sweep(cfg, workers=3)
    assert logs is None
    assert csv_text(parallel) == csv_text(serial)
    assert len(serial) == len(cfg.protocols) * 2 * 2


def test_collect_logs_forces_serial_and_labels_runs():
    cfg = small_cfg(densities=(10,), seeds=(1,), protocols=("baseline",),
                    sim_duration_s=2.0)
    summaries, logs = run_sweep(cfg, workers=4, collect_logs=True)
    assert len(summaries) == 1 and logs is not None
    ident, lines = logs[0]
    assert ident == "protocol=baseline density=10 seed=1"
    assert lines and all(line.count("\t") == 3 for line in lines)


def test_event_budget_is_enforced_and_labeled():
    cfg = small_cfg(knobs=ProtocolKnobs(event_budget=40), densities=(10,),
                    protocols=("baseline",))
    with pytest.raises(BudgetError):
        run_single(cfg, "baseline", 10, 1)
    with pytest.raises(BudgetError, match="run protocol=baseline density=10 seed=1"):
        run_sweep(cfg, workers=1)
    with pytest.raises(BudgetError, match="density=10"):
        run_sweep(cfg, workers=2)


def find_defer_seed():
    # dense traffic with chatty beacons: some attempt lands mid-burst
    cfg = small_cfg(
        mobility=MobilitySpec(road_length_m=1_000.0),
        knobs=ProtocolKnobs(beacon_interval_s=0.05),
        sim_duration_s=2.0,
        protocols=("baseline",),
    )
    for seed in range(1, 20):
        res = run_single(cfg, "baseline", 30, seed, capture_log=True)
        if any("defer msg=" in line for line in res.log):
            return cfg, seed
    raise AssertionError("no deferring seed in range")


def test_carrier_sense_defers_until_channel_clears():
    cfg, seed = find_defer_seed()
    res = run_single(cfg, "baseline", 30, seed, capture_log=True)
    defers = [line for line in res.log if "defer msg=" in line]
    assert defers
    for line in defers:
        t = int(line.split("\t")[0])
        until = int(line.split("until=")[1].split()[0])
        assert until > t


def test_log_tokens_reconcile_with_records():
    cfg = small_cfg()
    res = run_single(cfg, "hybrid_vehcloud", 15, 3, capture_log=True)
    injected = set()
    for line in res.log:
        m = re.search(r"msg=(\d+) src=\d+ targets=([\d,]*)", line)
        if m:
            mid = int(m.group(1))
            for dst in m.group(2).split(","):
                if dst:
                    injected.add((mid, int(dst)))
    assert {(r.msg_id, r.dst) for r in res.records} == injected
    tail = [line for line in res.log if "records=" in line][-1]
    n = int(tail.split("records=")[1].split()[0])
    assert n == len(res.records)


def test_runtime_records_only_open_pairs_with_the_worst_noted_cause():
    rt = static_runtime([Position(0, 0), Position(100, 0), Position(200, 0), Position(300, 0)])
    stray = Message(2, 0, 0, (1,))  # never addressed
    assert not rt.record_delivery(stray, 1, 10, 1)
    assert not rt.record_loss(stray, 1, CHANNEL_LOSS)
    rt.note_loss(stray, 1, SHADOWED)
    assert rt.records == {} and not rt.is_open(2, 1)

    msg = Message(1, 0, 0, (1, 2, 3))
    rt.address(msg)
    assert rt.is_open(1, 1) and not rt.is_open(1, 0)
    assert not rt.record_delivery(msg, 0, 10, 1)  # the sender is no target
    for cause in (SHADOWED, CHANNEL_LOSS, OUT_OF_RANGE):
        rt.note_loss(msg, 1, cause)
    rt.note_loss(msg, 2, SHADOWED)
    assert all(rt.record_loss(msg, dst) for dst in (1, 2, 3))
    causes = [rt.records[(1, dst)].loss_cause for dst in (1, 2, 3)]
    assert causes == [CHANNEL_LOSS, SHADOWED, OUT_OF_RANGE]
    # a closed pair takes no second record
    assert not rt.is_open(1, 1)
    assert not rt.record_delivery(msg, 1, 10, 1) and not rt.record_loss(msg, 1, SHADOWED)
    addressed = {(m.msg_id, d) for m in rt.messages.values() for d in m.targets}
    assert set(rt.records) == {(1, 1), (1, 2), (1, 3)} == addressed and rt.opened == 3


@pytest.mark.parametrize("protocol", ["hybrid_vehcloud", "dfcv"])
def test_sim_end_is_the_last_event(protocol):
    # the last tick (hybrid) or maintenance round (dfcv) is due at end_us
    # too, and is scheduled after SimEnd
    cfg = ScenarioConfig(sim_duration_s=3.0)
    res = run_single(cfg, protocol, 50, 1, capture_log=True)
    end_us = to_us(3.0 + cfg.knobs.drain_s)
    assert res.log[-1].split("\t")[:3:2] == [str(end_us), SIM_END]
    assert res.stats.queued == 0


def obstacle_grid_cfg():
    # the 5x5 grid with one building per block, where hybrid_vehcloud's
    # gateway and uplink notes fire
    buildings = tuple(
        (i * 200.0 + 15, j * 200.0 + 15, (i + 1) * 200.0 - 15, (j + 1) * 200.0 - 15)
        for i in range(5)
        for j in range(5)
    )
    return ScenarioConfig(
        mobility=MobilitySpec(mode="synthetic_grid", grid_blocks=5, grid_spacing_m=200.0,
                              speed_range_mph=(15.0, 35.0), gateway_fraction=0.25),
        radio=RadioParams(loss_slope=0.02),
        workload=WorkloadSpec(rate_per_s=4.0),
        knobs=ProtocolKnobs(ttl_hops=3, k_max_gateways=16),
        obstacle_rects=buildings,
        sim_duration_s=1.5,
    )


@pytest.mark.parametrize("protocol", ["baseline", "hybrid_vehcloud", "dfcv"])
def test_unlogged_run_matches_logged_run(protocol):
    cfg = obstacle_grid_cfg()
    logged = run_single(cfg, protocol, 60, 7, capture_log=True)
    plain = run_single(cfg, protocol, 60, 7, capture_log=False)
    assert plain.log is None and logged.log
    if protocol == "hybrid_vehcloud":
        assert any("uplink=" in line for line in logged.log)
    assert csv_text([plain.summary]) == csv_text([logged.summary])
    assert plain.records == logged.records
    assert plain.stats == logged.stats


def test_beacons_can_join_the_metrics():
    cfg_off = small_cfg(knobs=ProtocolKnobs(beacon_interval_s=0.5))
    cfg_on = small_cfg(
        knobs=ProtocolKnobs(beacon_interval_s=0.5, include_beacons_in_metrics=True)
    )
    off = run_single(cfg_off, "baseline", 10, 2)
    on = run_single(cfg_on, "baseline", 10, 2)
    assert on.summary.n_sent > off.summary.n_sent


def test_stats_expose_clock_and_event_count():
    cfg = small_cfg(densities=(10,), protocols=("baseline",), sim_duration_s=2.0)
    res = run_single(cfg, "baseline", 10, 1)
    assert res.stats.clock == int((2.0 + cfg.knobs.drain_s) * 1_000_000)
    assert res.stats.events_processed > 0
