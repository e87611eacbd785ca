"""Run orchestration: station placement, replay determinism, parallel
sweeps, budget enforcement, log accounting."""

import concurrent.futures
import dataclasses
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetsim import engine, mobility, runner
from vanetsim.config import ProtocolKnobs, ScenarioConfig, WorkloadSpec
from vanetsim.engine import SIM_END, US_PER_S, Simulator, to_us
from vanetsim.errors import BudgetError, SimulationError, TraceParseError
from vanetsim.metrics import csv_text
from vanetsim.mobility import (
    MobilitySpec,
    NeighborIndex,
    SyntheticGridProvider,
    SyntheticHighwayProvider,
    TraceProvider,
    distance,
    parse_fcd,
)
from vanetsim.protocols import PROTOCOLS, Dfcv, InfraTx, Message
from vanetsim.radio import (
    CHANNEL_LOSS,
    EMPTY_MAP,
    OUT_OF_RANGE,
    SHADOWED,
    Channel,
    HopOutcome,
    ObstacleMap,
    RadioParams,
)
from vanetsim.runner import Runtime, place_stations, run_single, run_sweep

from reference import closed_pairs, spy_addresses
from static_fleet import StaticProvider


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
    provider = StaticProvider([(0.0, 0.0), (100.0, 0.0)])
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    sim = Simulator(seed=3)
    rt = Runtime(sim, cfg, provider, EMPTY_MAP, stations, "baseline")
    rt.setup()
    assert rt.channel.frame_us == frame
    with spy_addresses() as addressed:
        sim.run(rt.end_us)
    closed = closed_pairs(rt)
    records = list(closed.values())
    assert records and set(closed) == addressed and rt.opened == len(addressed)
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
    return Runtime(Simulator(), cfg, provider, EMPTY_MAP, stations, "baseline")


def test_neighbors_match_brute_force():
    rng = random.Random(12)
    for _ in range(50):
        positions = [
            (rng.uniform(0, 1000), rng.uniform(0, 1000))
            for _ in range(rng.randrange(2, 40))
        ]
        center = rng.choice(positions)
        radius = rng.uniform(50, 400)
        got = static_runtime(positions).neighbors(center, radius, 0)
        want = [v for v, p in enumerate(positions) if distance(center, p) <= radius]
        assert got == want


def test_neighbors_radius_inclusive():
    rt = static_runtime([(0, 0), (300, 0), (300.01, 0)])
    assert rt.neighbors((0, 0), 300.0, 0) == [0, 1]


ROAD_M = 400.0
GRID = MobilitySpec(mode="synthetic_grid", grid_blocks=2, grid_spacing_m=100.0)
GRID_M = 200.0


def near_seams(period):
    # vehicles this close to a seam cross it within a second
    return st.one_of(
        st.floats(0.0, 60.0), st.floats(period - 60.0, period), st.floats(0.0, period)
    )


speeds = st.floats(0.0, 60.0)
# the index's largest slack on a synthetic fleet: its top speed over one interval
REFRESH_US = NeighborIndex.REFRESH_US
MAX_SLACK_M = 60.0 * REFRESH_US / US_PER_S


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
        center = (draw(near_seams(ROAD_M)), draw(st.floats(-5.0, 10.0)))
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
        center = (draw(near_seams(GRID_M)), draw(near_seams(GRID_M)))
    else:
        tracks = {}
        for v in range(n):
            x, y = draw(st.floats(0.0, 300.0)), draw(st.floats(0.0, 300.0))
            times, points = tracks[str(v)] = ([], [])
            for k in range(draw(st.integers(1, 5))):
                times.append(k * 250_000)
                points.append((x, y))
                x += draw(st.floats(-15.0, 15.0))
                y += draw(st.floats(-15.0, 15.0))
        provider = TraceProvider(tracks)
        center = (draw(st.floats(-20.0, 320.0)), draw(st.floats(-20.0, 320.0)))
    # over several refresh intervals, in any order, each followed by a query
    # up to one interval before or after it, where the index's slack is large
    times = []
    for t, step in draw(
        st.lists(
            st.tuples(st.integers(0, 5 * REFRESH_US), st.integers(-REFRESH_US, REFRESH_US)),
            min_size=1,
            max_size=5,
        )
    ):
        times += [t, max(0, t + step)]
    if draw(st.booleans()):
        # a center next to a vehicle, so some candidates sit on the edge of certainty
        x, y = provider.position_at(draw(st.integers(0, n - 1)), draw(st.sampled_from(times)))
        center = (x + draw(st.floats(-15.0, 15.0)), y + draw(st.floats(-15.0, 15.0)))
    return provider, center, times


def seam_distance(provider, v, p):
    """How far ``p`` lies from the nearest seam of an axis ``v`` wraps on."""
    wrap_x, wrap_y = provider.wrap_period(v)
    d = math.inf
    if wrap_x is not None:
        d = min(d, p[0], wrap_x - p[0])
    if wrap_y is not None:
        d = min(d, p[1], wrap_y - p[1])
    return d


@settings(max_examples=150, deadline=None, derandomize=True)
# below, near and above the index's slack (up to MAX_SLACK_M on synthetic fleets), and wide
@given(
    moving_fleets(),
    st.one_of(st.floats(0.0, MAX_SLACK_M + 4.0), st.floats(MAX_SLACK_M + 4.0, 350.0)),
    # fleet ids and ids outside the fleet
    st.sets(st.integers(-3, 33), max_size=8),
)
def test_neighbors_match_brute_force_on_moving_fleets(fleet, radius, drawn):
    provider, center, times = fleet
    cfg = ScenarioConfig(radio=RadioParams(range_m=50.0))
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    rt = Runtime(Simulator(), cfg, provider, EMPTY_MAP, stations, "baseline")
    located = []
    locate = Runtime.pos

    def counting_pos(self, v, t):
        located.append(v)
        return locate(self, v, t)

    # a function-scoped fixture would not reset between hypothesis examples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Runtime, "pos", counting_pos)
        for t in times + times[::-1]:
            at = {v: provider.position_at(v, t) for v in provider.vehicle_ids}
            want = [v for v in provider.vehicle_ids if distance(center, at[v]) <= radius]
            # the vehicle at or next to the center, as a flood's sender is
            nearest = min(provider.vehicle_ids, key=lambda v: distance(center, at[v]))
            # vehicles that may sit across a seam from their snapshot, found
            # only through an image
            seam = {v for v in at if seam_distance(provider, v, at[v]) <= radius + MAX_SLACK_M + 3.0}
            for v, certain in rt.index.candidates(center, radius, t):
                assert not certain or distance(center, at[v]) <= radius, (t, v)
            everyone = set(provider.vehicle_ids)
            for exclude in (set(), drawn, {nearest}, seam, drawn | {nearest}, everyone):
                located.clear()
                assert rt.neighbors(center, radius, t, exclude) == [
                    v for v in want if v not in exclude
                ], (t, exclude)
                assert not exclude.intersection(located), (t, exclude)
            for v in provider.vehicle_ids:
                assert locate(rt, v, t) == provider.position_at(v, t)


def test_fleet_positions_hold_only_the_fleet_after_region_queries():
    spec = MobilitySpec(vehicle_count=30, road_length_m=2_000.0)
    provider = SyntheticHighwayProvider(spec, random.Random(5))
    cfg = ScenarioConfig(mobility=spec)
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    rt = Runtime(Simulator(), cfg, provider, EMPTY_MAP, stations, "baseline")
    for t in (0, 1_500_000, 1_500_000, 4_000_000):
        rt.pos(3, t)
        rt.pos(17, t)
        assert rt.region_members(stations[0], t)
        positions = rt.fleet_positions(t)
        assert sorted(positions) == sorted(provider.vehicle_ids)
        for v in provider.vehicle_ids:
            assert positions[v] == provider.position_at(v, t), (t, v)


def test_an_instant_that_rebuilds_the_index_and_maintains_dfcv_locates_each_vehicle_once(
    monkeypatch,
):
    # At an inject the sender's region query may rebuild the neighbor index,
    # and dfcv then maintains its cells over the whole fleet; both read the
    # run's positions at that instant, so neither locates a vehicle again.
    located = Counter()  # (t, vehicle id) -> position_at calls
    rebuilt, maintained = set(), set()
    position_at, rebuild, maintain = (
        SyntheticHighwayProvider.position_at, NeighborIndex._rebuild, Dfcv.maintain
    )

    def counting_position_at(self, vehicle_id, t_us):
        located[t_us, vehicle_id] += 1
        return position_at(self, vehicle_id, t_us)

    def spied_rebuild(self, t_us):
        rebuilt.add(t_us)
        rebuild(self, t_us)

    def spied_maintain(self, t):
        maintained.add(t)
        return maintain(self, t)

    monkeypatch.setattr(SyntheticHighwayProvider, "position_at", counting_position_at)
    monkeypatch.setattr(NeighborIndex, "_rebuild", spied_rebuild)
    monkeypatch.setattr(Dfcv, "maintain", spied_maintain)
    vehicles = 120
    cfg = ScenarioConfig(workload=WorkloadSpec(rate_per_s=4.0), sim_duration_s=3.0)
    run_single(cfg, "dfcv", vehicles, 1)
    both = sorted(rebuilt & maintained)
    assert len(both) >= 4
    for t in both:
        assert [located[t, v] for v in range(vehicles)] == [1] * vehicles, t


@pytest.mark.parametrize("metered", (False, True))
@pytest.mark.parametrize("protocol", ("baseline", "hybrid_vehcloud", "dfcv"))
def test_hop_receivers_and_carrier_senses_locate_straight_from_the_provider(
    protocol, metered, monkeypatch
):
    # The per-instant cache rarely answers the radio path's lookups, so
    # they skip it.  Each of these costs exactly one position_at call and
    # no Runtime.pos call: a hop receiver, a carrier-sensing sender, a
    # firing sender, a beacon frame's origin and a metered beacon's own
    # sender.  Lookups made inside a site by the code it calls (a receiver
    # query, the channel's frame scans, the protocol's hooks) belong to no
    # site, or to their own.
    site = None  # the lookup site running now, or None
    pos_calls = Counter()  # site -> Runtime.pos calls
    provider_calls = Counter()  # site -> position_at calls
    receivers = Counter()  # hops caller -> receivers located
    reached = Counter()  # site -> times it ran
    position_at, pos, hops = SyntheticHighwayProvider.position_at, Runtime.pos, Channel.hops
    on_radio, set_beacons = Runtime._on_radio, Channel.set_beacons
    hooks = PROTOCOLS[protocol]

    def counting_position_at(self, vehicle_id, t_us):
        provider_calls[site] += 1
        return position_at(self, vehicle_id, t_us)

    def counting_pos(self, vehicle_id, t):
        pos_calls[site] += 1
        return pos(self, vehicle_id, t)

    def at_site(name, call, *args, **kwargs):
        nonlocal site
        outer, site = site, name
        try:
            return call(*args, **kwargs)
        finally:
            site = outer

    def site_of(name, call, count=False):
        def spied(*args, **kwargs):
            if count:
                reached[name] += 1
            return at_site(name, call, *args, **kwargs)

        return spied

    def spied_hops(self, src, rids, locate, *args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        if caller in ("_fire_tx", "_fire_infra", "_on_beacon"):  # not Channel.uplink
            receivers[caller] += len(rids)
            locate = site_of("hop", locate)
        return at_site(None, hops, self, src, rids, locate, *args, **kwargs)

    def spied_on_radio(self, t, job):
        if isinstance(job, InfraTx) or job.fire:
            return on_radio(self, t, job)
        reached["sense"] += 1
        return at_site("sense", on_radio, self, t, job)

    def spied_set_beacons(self, schedule, period_us, locate):
        return set_beacons(self, schedule, period_us, site_of("frame", locate, count=True))

    monkeypatch.setattr(SyntheticHighwayProvider, "position_at", counting_position_at)
    monkeypatch.setattr(Runtime, "pos", counting_pos)
    monkeypatch.setattr(Channel, "hops", spied_hops)
    monkeypatch.setattr(Channel, "set_beacons", spied_set_beacons)
    monkeypatch.setattr(Channel, "busy_until_near", site_of(None, Channel.busy_until_near))
    monkeypatch.setattr(Runtime, "_on_radio", spied_on_radio)
    monkeypatch.setattr(Runtime, "_fire_tx", site_of("fire", Runtime._fire_tx, count=True))
    monkeypatch.setattr(Runtime, "_on_beacon", site_of("metered", Runtime._on_beacon, count=True))
    monkeypatch.setattr(Runtime, "neighbors", site_of(None, Runtime.neighbors))
    for hook in ("tx_receivers", "after_tx"):
        monkeypatch.setattr(hooks, hook, site_of(None, getattr(hooks, hook)))
    cfg = ScenarioConfig(
        workload=WorkloadSpec(rate_per_s=4.0),
        knobs=ProtocolKnobs(include_beacons_in_metrics=metered),
        sim_duration_s=1.5,
    )
    run_single(cfg, protocol, 80, 1)
    sites = ("hop", "sense", "fire", "frame", "metered")
    assert [pos_calls[name] for name in sites] == [0] * len(sites), pos_calls
    assert provider_calls["hop"] == sum(receivers.values())
    for name in sites[1:]:
        assert provider_calls[name] == reached[name], name
    # reach: every hop site this run can take (dfcv's data goes by station
    # downlinks), the others' carrier senses and firing senders, the
    # metered beacons, and the channel's beacon frames wherever a hop
    # contends or a sender senses (dfcv's own traffic does neither)
    hopped = {name for name, n in receivers.items() if n}
    assert hopped == {"_fire_infra" if protocol == "dfcv" else "_fire_tx"} | (
        {"_on_beacon"} if metered else set()
    ), receivers
    assert bool(reached["sense"]) == bool(reached["fire"]) == (protocol != "dfcv"), reached
    assert bool(reached["metered"]) == metered, reached
    assert bool(reached["frame"]) == (protocol != "dfcv" or metered), reached


@pytest.mark.parametrize("scenario", ("highway", "grid"))
def test_neighbor_index_precision_at_its_refresh_interval(scenario, monkeypatch):
    # The index trades rebuilds for slack: the longer the interval, the more
    # candidates Runtime.neighbors must locate and drop.  At 600 ms these
    # floods keep 0.954 (highway) and 0.960 (grid) of the candidates
    # returned; at 800 ms 0.931 and 0.943, at 200 ms 0.996 and 0.993.
    if scenario == "highway":
        cfg, vehicles = ScenarioConfig(workload=WorkloadSpec(rate_per_s=4.0), sim_duration_s=8.0), 450
    else:
        cfg, vehicles = dataclasses.replace(obstacle_grid_cfg(), sim_duration_s=5.0), 400
    returned = kept = 0
    candidates, neighbors = mobility.NeighborIndex.candidates, Runtime.neighbors

    def counting_candidates(*args, **kwargs):
        nonlocal returned
        found = candidates(*args, **kwargs)
        returned += len(found)
        return found

    def counting_neighbors(*args, **kwargs):
        nonlocal kept
        found = neighbors(*args, **kwargs)
        kept += len(found)
        return found

    monkeypatch.setattr(mobility.NeighborIndex, "candidates", counting_candidates)
    monkeypatch.setattr(Runtime, "neighbors", counting_neighbors)
    run_single(cfg, "baseline", vehicles, 1)
    assert returned > 1_000
    assert kept / returned >= 0.95


# -- station placement --------------------------------------------------------

def test_highway_stations_every_spacing_at_roadside():
    spec = MobilitySpec()
    stations = place_stations(spec, None, ProtocolKnobs())
    assert [(s.station_id, s.pos[0], s.pos[1]) for s in stations] == [
        (0, 1_000.0, 0.0),
        (1, 3_000.0, 0.0),
        (2, 5_000.0, 0.0),
        (3, 7_000.0, 0.0),
        (4, 9_000.0, 0.0),
    ]


def test_short_highway_gets_one_central_station():
    spec = MobilitySpec(road_length_m=500.0)
    stations = place_stations(spec, None, ProtocolKnobs())
    assert [(s.pos[0], s.pos[1]) for s in stations] == [(250.0, 0.0)]


def test_grid_stations_snap_to_intersections():
    spec = MobilitySpec(mode="synthetic_grid", grid_blocks=5, grid_spacing_m=200.0)
    one, = place_stations(spec, None, ProtocolKnobs())
    assert (one.pos[0], one.pos[1]) == (600.0, 600.0)
    four = place_stations(spec, None, ProtocolKnobs(bs_spacing_m=500.0))
    assert [(s.station_id, s.pos[0], s.pos[1]) for s in four] == [
        (0, 200.0, 200.0),
        (1, 800.0, 200.0),
        (2, 200.0, 800.0),
        (3, 800.0, 800.0),
    ]


def test_trace_stations_tile_the_bounding_box():
    provider = StaticProvider([(0.0, 0.0), (3_000.0, 0.0)], [])
    spec = MobilitySpec(mode="trace", trace_path="unused", vehicle_count=2)
    stations = place_stations(spec, provider, ProtocolKnobs())
    assert [(s.pos[0], s.pos[1]) for s in stations] == [(750.0, 0.0), (2_250.0, 0.0)]
    narrow = StaticProvider([(0.0, 0.0), (1_000.0, 0.0)], [])
    only, = place_stations(spec, narrow, ProtocolKnobs())
    assert (only.pos[0], only.pos[1]) == (500.0, 0.0)


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


def test_pool_is_never_larger_than_the_sweep(monkeypatch):
    # A fork pool starts all its workers on its first task, so the size it
    # is asked for is the number of processes forked.  The stand-in records
    # that size and runs the tasks in this process.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    # run_sweep imports the pool where it forks one, from concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(runner, "_worker_tracks", None)
    cfg = small_cfg(densities=(10,), seeds=(1, 2, 3), protocols=("baseline",),
                    sim_duration_s=1.0)
    serial, _ = run_sweep(cfg, workers=1)
    assert sizes == []
    pooled, _ = run_sweep(cfg, workers=1000)
    assert sizes == [3]
    assert csv_text(pooled) == csv_text(serial)
    run_sweep(small_cfg(densities=(10,), seeds=(1,), sim_duration_s=1.0), workers=8)
    assert sizes == [3, 3]  # three protocols, one run each
    run_sweep(small_cfg(densities=(10,), seeds=(1,), protocols=("dfcv",),
                        sim_duration_s=1.0), workers=8)
    assert sizes == [3, 3]  # a single run goes serially


def write_moving_trace(directory, vehicles=12, steps=7) -> str:
    """Vehicles driving along x in lanes 20 m apart, sampled every 0.5 s."""
    lines = ["<fcd-export>"]
    for k in range(steps):
        lines.append(f'  <timestep time="{k * 0.5:.2f}">')
        for v in range(vehicles):
            x = 60.0 * v + (5.0 + v) * 0.5 * k
            lines.append(f'    <vehicle id="car{v}" x="{x:.2f}" y="{20.0 * (v % 3):.2f}" speed="{5.0 + v}"/>')
        lines.append("  </timestep>")
    lines.append("</fcd-export>")
    path = directory / "moving.fcd.xml"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_trace_sweep_parses_once(tmp_path, monkeypatch):
    cfg = small_cfg(
        mobility=MobilitySpec(
            mode="trace", trace_path=write_moving_trace(tmp_path), vehicle_count=12,
            gateway_fraction=0.25,
        ),
        protocols=("baseline", "hybrid_vehcloud", "dfcv"),
        densities=(12,),
        seeds=(1, 2),
        sim_duration_s=1.0,
    )
    alone = [
        run_single(cfg, protocol, 12, seed).summary
        for protocol in cfg.protocols
        for seed in cfg.seeds
    ]
    main_pid = os.getpid()
    calls = []

    def counting_parse(path):
        # a pool worker that parsed again would fail its run here
        assert os.getpid() == main_pid, "a worker parsed the trace"
        calls.append(path)
        return parse_fcd(path)

    monkeypatch.setattr(mobility, "parse_fcd", counting_parse)
    serial, _ = run_sweep(cfg, workers=1)
    assert calls == [cfg.mobility.trace_path]
    assert csv_text(serial) == csv_text(alone)
    parallel, _ = run_sweep(cfg, workers=2)
    assert len(calls) == 2
    assert csv_text(parallel) == csv_text(alone)


def test_trace_sweep_fails_once_before_any_run(tmp_path, monkeypatch):
    path = tmp_path / "broken.fcd.xml"
    path.write_text("<fcd-export><timestep")
    cfg = small_cfg(
        mobility=MobilitySpec(mode="trace", trace_path=str(path), vehicle_count=3),
        seeds=(1, 2),
    )
    calls = []

    def counting_parse(path):
        calls.append(path)
        return parse_fcd(path)

    def no_run(*args, **kw):
        raise AssertionError("a run started")

    monkeypatch.setattr(mobility, "parse_fcd", counting_parse)
    monkeypatch.setattr(runner, "run_single", no_run)
    for workers in (1, 2):
        with pytest.raises(TraceParseError) as err:
            run_sweep(cfg, workers=workers)
        assert str(err.value).startswith(f"{path}: malformed XML")
    assert len(calls) == 2


# Run in a fresh interpreter without site (-S), so only vanetsim's own imports
# count.  Each stage prints the heavy modules loaded so far.
LOADS_CHILD = """
import sys
from vanetsim import MobilitySpec, ScenarioConfig, WorkloadSpec, run_single, run_sweep

HEAVY = ("concurrent.futures", "multiprocessing", "xml.etree.ElementTree", "pyexpat")

def loaded():
    print([name for name in HEAVY if name in sys.modules], flush=True)

highway = ScenarioConfig(workload=WorkloadSpec(rate_per_s=4.0), sim_duration_s=1.0)
grid = ScenarioConfig(
    mobility=MobilitySpec(mode="synthetic_grid", grid_blocks=3, grid_spacing_m=200.0),
    workload=WorkloadSpec(rate_per_s=4.0),
    obstacles=tuple(
        (200.0 * i + 15.0, 200.0 * j + 15.0, 200.0 * i + 185.0, 200.0 * j + 185.0)
        for i in range(3) for j in range(3)
    ),
    sim_duration_s=1.0,
)
for cfg in (highway, grid):
    for protocol in ("baseline", "hybrid_vehcloud", "dfcv"):
        run_single(cfg, protocol, 20, 1)
one_worker = ScenarioConfig(densities=(10,), seeds=(1, 2), sim_duration_s=0.5)
run_sweep(one_worker, workers=1)
loaded()
trace = ScenarioConfig(
    mobility=MobilitySpec(mode="trace", trace_path=sys.argv[1], vehicle_count=12),
    sim_duration_s=1.0,
)
run_single(trace, "baseline", 12, 1)
loaded()
run_sweep(one_worker, workers=2)
print("concurrent.futures.process" in sys.modules)
"""


def test_a_single_process_run_loads_no_pool_and_no_xml_parser(tmp_path):
    # the copy of vanetsim under test, wherever it is imported from
    src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
    out = subprocess.run(
        [sys.executable, "-S", "-c", LOADS_CHILD, write_moving_trace(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    serial, traced, pooled = out
    assert serial == "[]"  # highway and walled grid runs, and a one-worker sweep
    assert traced == "['xml.etree.ElementTree', 'pyexpat']"  # a trace loads the parser
    assert pooled == "True"  # a two-worker sweep loads the pool


@pytest.mark.parametrize("mode", ["synthetic_highway", "synthetic_grid", "trace"])
def test_a_run_never_builds_the_fleet_of_vehicle_states(tmp_path, monkeypatch, mode):
    # the gateways come from is_gateway, and every position from position_at
    trace = write_moving_trace(tmp_path) if mode == "trace" else None
    spec = MobilitySpec(mode=mode, trace_path=trace, vehicle_count=12, gateway_fraction=0.25)
    cfg = small_cfg(mobility=spec, densities=(12,), sim_duration_s=1.0)

    def no_fleet(self, t_us):
        raise AssertionError("a run built the fleet of VehicleStates")

    monkeypatch.setattr(mobility.MobilityProvider, "fleet_at", no_fleet)
    for protocol in sorted(runner.PROTOCOLS):
        assert run_single(cfg, protocol, 12, 1).summary.n_sent


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


def missed(*pairs):
    """Lost hop outcomes, one per (receiver, cause), as a transmission gives them."""
    return [(rid, HopOutcome(False, loss_cause=cause)) for rid, cause in pairs]


def test_runtime_records_only_open_pairs_with_the_worst_noted_cause():
    rt = static_runtime([(0, 0), (100, 0), (200, 0), (300, 0)])
    stray = Message(2, 0, 0, (1,))  # never addressed
    assert not rt.record_delivery(stray, 1, 10, 1)
    assert not rt.record_loss(stray, 1, CHANNEL_LOSS)
    assert rt.settle(stray, missed((1, SHADOWED)), 0, 1, final=False) == []
    assert closed_pairs(rt) == {} and 2 not in rt._open

    msg = Message(1, 0, 0, (1, 2, 3))
    with spy_addresses() as addressed:
        rt.address(msg)
    assert 1 in rt._open[1] and 0 not in rt._open[1]
    assert not rt.record_delivery(msg, 0, 10, 1)  # the sender is no target
    # a delivered hop is reached whether or not its pair is open
    assert rt.settle(msg, [(0, HopOutcome(True, delay_us=5))], 10, 1) == [(0, 15)]
    misses = missed((1, SHADOWED), (1, CHANNEL_LOSS), (1, OUT_OF_RANGE), (2, SHADOWED))
    assert rt.settle(msg, misses, 0, 1, final=False) == []
    assert closed_pairs(rt) == {}
    assert all(rt.record_loss(msg, dst) for dst in (1, 2, 3))
    closed = closed_pairs(rt)
    causes = [closed[(1, dst)].loss_cause for dst in (1, 2, 3)]
    assert causes == [CHANNEL_LOSS, SHADOWED, OUT_OF_RANGE]
    # a closed pair takes no second record
    assert 1 not in rt._open.get(1, {})
    assert not rt.record_delivery(msg, 1, 10, 1) and not rt.record_loss(msg, 1, SHADOWED)
    assert set(closed_pairs(rt)) == {(1, 1), (1, 2), (1, 3)} == addressed and rt.opened == 3


def test_record_delivery_refuses_a_receipt_before_the_origin():
    rt = static_runtime([(0, 0), (100, 0)])
    msg = Message(1, 0, 500, (1,))
    rt.address(msg)
    with pytest.raises(SimulationError, match="before it was sent"):
        rt.record_delivery(msg, 1, 499, 1)
    assert closed_pairs(rt) == {}
    assert rt.record_delivery(msg, 1, 500, 1)  # zero delay is legal


def test_record_loss_refuses_an_unknown_cause():
    rt = static_runtime([(0, 0), (100, 0)])
    msg = Message(1, 0, 0, (1,))
    rt.address(msg)
    with pytest.raises(SimulationError, match="gremlins"):
        rt.record_loss(msg, 1, "gremlins")
    assert closed_pairs(rt) == {}
    assert rt.record_loss(msg, 1, SHADOWED)


def test_a_message_is_kept_exactly_while_it_has_an_open_pair():
    # A flood leaves a pair open until a relay reaches it or the accounting
    # sweep closes it, which needs the pair's message; every metered beacon
    # closes all of its pairs in its own event.  No other message is kept.
    cfg = small_cfg(
        workload=WorkloadSpec(rate_per_s=4.0),
        knobs=ProtocolKnobs(beacon_interval_s=0.1, include_beacons_in_metrics=True),
        sim_duration_s=1.0,
    )
    runtimes, kept = [], []

    def with_an_open_pair(rt):
        return {mid for mid, _ in addressed - closed_pairs(rt).keys()}

    class Checking(Runtime):
        def setup(self):
            runtimes.append(self)
            super().setup()

        def _on_beacon(self, t, v):
            line = super()._on_beacon(t, v)
            assert set(self.messages) == with_an_open_pair(self), t
            kept.append(len(self.messages))
            return line

    with mock.patch.object(runner, "Runtime", Checking), spy_addresses() as addressed:
        run_single(cfg, "baseline", 12, 4)
    (rt,) = runtimes
    assert max(kept) > 0  # a data message was in flight at some beacon
    assert rt.messages == {} and with_an_open_pair(rt) == set()


def quiet_runtime(positions, protocol, obstacles=EMPTY_MAP):
    """A set-up Runtime over a static fleet that injects nothing itself
    (rate * duration < 1), with beacons off and a lossless, backoff-free radio."""
    cfg = ScenarioConfig(
        workload=WorkloadSpec(rate_per_s=0.5),
        radio=RadioParams(base_loss=0.0, loss_slope=0.0, max_backoff_us=0),
        knobs=ProtocolKnobs(beacon_interval_s=0.0),
        sim_duration_s=1.0,
    )
    provider = StaticProvider(positions)
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    rt = Runtime(Simulator(), cfg, provider, obstacles, stations, protocol)
    rt.setup()
    return rt


@pytest.mark.parametrize("protocol", ["hybrid_vehcloud", "dfcv"])
def test_horizon_sweep_records_the_worst_noted_cause(protocol):
    rt = quiet_runtime([(0, 0), (100, 0), (200, 0)], protocol)
    msg = Message(1, 0, 0, (1, 2))
    rt.address(msg)
    rt.settle(msg, missed((1, SHADOWED), (1, CHANNEL_LOSS)), 0, 2, final=False)
    rt.sim.run(until=rt.end_us)
    assert not rt._open
    closed = closed_pairs(rt)
    assert closed[(1, 1)].loss_cause == CHANNEL_LOSS  # noted, then left open
    assert closed[(1, 2)].loss_cause == OUT_OF_RANGE  # nothing noted


def test_flood_cut_off_by_the_horizon_records_the_noted_causes():
    # 0 floods; 1 receives it and would relay after the horizon; the
    # building hides 2 from 0; 3 is out of everyone's range.
    building = ObstacleMap([(-10.0, 50.0, 10.0, 100.0)])
    positions = [(0, 0), (100, 0), (0, 150), (5_000, 0)]
    rt = quiet_runtime(positions, "baseline", building)
    msg = Message(1, 0, 0, (1, 2, 3), ttl_hops=4)
    rt.address(msg)
    rt.protocol.on_inject(msg, rt.end_us - 100)  # its first hop lands after the horizon
    rt.sim.run(until=rt.end_us)
    closed = closed_pairs(rt)
    assert not rt._open and len(closed) == rt.opened == 3
    assert closed[(1, 1)].delivered and closed[(1, 1)].recv_us > rt.end_us
    assert closed[(1, 2)].loss_cause == SHADOWED
    assert closed[(1, 3)].loss_cause == OUT_OF_RANGE


@pytest.mark.parametrize("protocol", ["hybrid_vehcloud", "dfcv"])
def test_sim_end_is_the_last_event(protocol):
    # the last tick (hybrid) or maintenance round (dfcv) is due at end_us
    # too, and is scheduled after SimEnd
    cfg = ScenarioConfig(sim_duration_s=3.0)
    res = run_single(cfg, protocol, 50, 1, capture_log=True)
    end_us = to_us(3.0 + cfg.knobs.drain_s)
    assert res.log[-1].split("\t")[:3:2] == [str(end_us), SIM_END]
    assert res.stats.queued == 0


def obstacle_grid_cfg(metered=False):
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
        knobs=ProtocolKnobs(ttl_hops=3, k_max_gateways=16, include_beacons_in_metrics=metered),
        obstacles=buildings,
        sim_duration_s=1.5,
    )


@pytest.mark.parametrize(
    "protocol, metered",
    [
        pytest.param(protocol, metered, id=protocol + ("-metered" if metered else ""))
        for metered in (False, True)
        for protocol in ("baseline", "hybrid_vehcloud", "dfcv")
    ],
)
def test_unlogged_run_matches_logged_run(protocol, metered):
    cfg = obstacle_grid_cfg(metered)
    logged = run_single(cfg, protocol, 60, 7, capture_log=True)
    plain = run_single(cfg, protocol, 60, 7, capture_log=False)
    assert plain.log is None and logged.log
    if protocol == "hybrid_vehcloud":
        assert any("uplink=" in line for line in logged.log)
    if metered:
        assert any(" targets=" in line for line in logged.log)
    assert csv_text([plain.summary]) == csv_text([logged.summary])
    assert plain.records == logged.records
    assert plain.stats == logged.stats


@pytest.mark.parametrize("protocol", ["baseline", "hybrid_vehcloud", "dfcv"])
def test_an_unlogged_run_renders_nothing_and_has_the_same_handlers(protocol, monkeypatch):
    # metered beacons, obstacles and 10 ms ticks, so each protocol reaches
    # every hook of its own that logs
    cfg = obstacle_grid_cfg(metered=True)
    cfg = dataclasses.replace(cfg, knobs=dataclasses.replace(cfg.knobs, mobility_tick_s=0.01))
    registered = {True: {}, False: {}}  # by has_log: each kind's handler function
    register = Simulator.on

    def spy(sim, kind, handler):
        registered[sim.has_log][kind] = getattr(handler, "__func__", handler)
        register(sim, kind, handler)

    monkeypatch.setattr(Simulator, "on", spy)
    logged = run_single(cfg, protocol, 60, 7, capture_log=True)

    def render(fmt, fields):
        raise AssertionError(f"an unlogged run rendered {fmt!r}")

    monkeypatch.setattr(engine, "render", render)
    plain = run_single(cfg, protocol, 60, 7)
    assert plain.rows == logged.rows and plain.stats == logged.stats
    assert registered[False] == registered[True]
    assert set(registered[False]) == engine.EVENT_KINDS


@pytest.mark.parametrize("protocol", ["baseline", "hybrid_vehcloud", "dfcv"])
def test_runtime_state_is_declared_in_its_slots(protocol):
    """Every Runtime attribute is named in ``Runtime.__slots__``, so one
    set anywhere else fails at once instead of growing the instance."""
    rt = quiet_runtime([(0, 0), (100, 0)], protocol)
    assert not hasattr(rt, "__dict__")
    with pytest.raises(AttributeError):
        rt.undeclared = 1


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
