"""Invariants over the knob space: small configs drawn at random.

Every run, whatever its street or trace fleet (some of them edge maps,
whose seams and station regions reach the neighbor index's edges),
obstacles, frame length, beacon period, metering, hybrid window, gateway
budget, hop limit, target rule, cloud and fog latencies and fog cell
bounds, must finish with closed accounting (one record per addressed
pair), records that are each either delivered or lost to a known cause, no
pair a hop lost to the channel recorded out of range, causal delays,
a summary equal to the reference's four metrics over its records,
delivery + loss == 1, and the same CSV bytes on a rerun, with or without
an event log, and in a serial or a parallel sweep.

The same configs also drive differential tests against a brute-force
channel, a brute-force neighbor query, a cell grid that answers every
query with every item, and dfcv runs that scan for every vehicle's station
instead of trying its last one; seven metamorphic relations (dfcv bytes do not
depend on the loss rate, a longer drain leaves the log before the old end
alone, a trace written in another dress plays the same tracks and bytes, a
far building changes no byte, certain loss delivers nothing over vehicle
hops, rectangles read from a file play as the same rectangles inline, and
a larger event budget changes no byte); two flood laws read off the event
log (a vehicle transmits a message at most once, and only the accounting
sweep closes a flood pair as lost); two laws of every protocol read off the
event log (no message addresses its own source, and the rec= notes equal
the run's rows in close order); a dfcv law checked on
every station downlink (it carries whole fog cells of its own station); and
three hybrid laws checked on every late attempt (it falls within its
message's window, once per message and vehicle, and in inject order at each
tick); and a spy on hybrid's sight questions (none on a map without
rectangles, one shadow test per region member at each inject on a walled
map).  An eighth
relation runs on a fixed highway sweep and a fixed trace sweep: split into
one sweep per seed or per density, each gives the same summaries.
"""

import dataclasses
import math
import os
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import ExitStack
from unittest import mock
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from vanetsim import protocols, radio, runner
from vanetsim.config import ProtocolKnobs, ScenarioConfig, WorkloadSpec
from vanetsim.metrics import csv_text
from vanetsim.engine import US_PER_S
from vanetsim.mobility import MPH_TO_MPS, MobilitySpec, NeighborIndex, parse_fcd
from vanetsim.protocols import CloudModel, HybridVehcloud, InfraTx, StationIndex
from vanetsim.radio import CHANNEL_LOSS, LOSS_CAUSES, OUT_OF_RANGE, RadioParams, tx_time_us

from reference import (
    all_items_grid,
    average_throughput_bps,
    brute_force_channel,
    brute_force_neighbors,
    closed_pairs,
    delivery_probability,
    end_to_end_delay_s,
    packet_loss_ratio,
    parse_log,
    spy_addresses,
)

FRAME_S = tx_time_us(RadioParams()) / 1e6
# beacons off, and periods below, equal to and above the default frame time
BEACON_INTERVALS_S = (0.0, FRAME_S / 2, FRAME_S, 0.05)
# frames a quarter of, equal to and about six times the default
MSG_SIZES = (64, 256, 1500)
CLOUD_LATENCIES = ("uplink_us", "downlink_us", "processing_us")

HIGHWAY_BUILDINGS = ((600.0, -20.0, 650.0, 20.0), (1300.0, -5.0, 1400.0, 30.0))
GRID_BUILDINGS = tuple(
    (i * 200.0 + 15, j * 200.0 + 15, (i + 1) * 200.0 - 15, (j + 1) * 200.0 - 15)
    for i in range(3)
    for j in range(3)
)
TRACE_STEP_S = 0.1
# The neighbor index's widest neighbourhood reach at the default range on a
# street fleet whose every vehicle drives 60 mph: range_m plus one refresh
# interval's drift.  An edge map puts a station one metre past two of these
# from the origin (on the grid, at the seam), and a station region just
# wider than one, so that region reaches a cell beyond the station's 3x3
# neighbourhood.
NEIGHBOURHOOD_M = RadioParams().range_m + 60 * MPH_TO_MPS * NeighborIndex.REFRESH_US / US_PER_S
EDGE_PERIOD_M = 2 * NEIGHBOURHOOD_M + 1.0
EDGE_COVERAGE_M = NEIGHBOURHOOD_M + 16.0
# the drawn trace fleets' and the rectangle files, removed once this
# module's tests have run
TRACE_DIR = tempfile.TemporaryDirectory(prefix="vanetsim-invariants-")


@pytest.fixture(scope="module", autouse=True)
def _remove_trace_dir():
    """Remove TRACE_DIR explicitly: left to its finalizer, it is removed at
    interpreter exit with a ResourceWarning."""
    yield
    TRACE_DIR.cleanup()


def fcd_text(tracks, steps: int) -> str:
    """An FCD export of straight-line tracks, one (x, y, dx, dy) per vehicle
    in metres and metres per step, sampled every TRACE_STEP_S for ``steps``."""
    lines = ["<fcd-export>"]
    for k in range(steps):
        lines.append(f'<timestep time="{k * TRACE_STEP_S:.1f}">')
        for v, (x, y, dx, dy) in enumerate(tracks):
            speed = math.hypot(dx, dy) / TRACE_STEP_S
            lines.append(
                f'<vehicle id="car{v}" x="{x + k * dx}" y="{y + k * dy}" speed="{speed:.2f}"/>'
            )
        lines.append("</timestep>")
    return "\n".join(lines + ["</fcd-export>", ""])


@st.composite
def small_runs(draw):
    grid = draw(st.booleans())
    obstacles = draw(st.booleans())
    # an edge map: 60 mph, a period of two to three radio ranges, stations
    # near the seams, and regions just wider than one neighbourhood
    edge = draw(st.booleans())
    radio = RadioParams(
        msg_size_bytes=draw(st.sampled_from(MSG_SIZES)),
        loss_slope=draw(st.sampled_from((0.0, 0.05))),
    )
    interval = draw(st.sampled_from(BEACON_INTERVALS_S))
    metered = draw(st.booleans())
    if grid:
        # at the edge, stations snap to every street crossing, seams included
        spacing, bs_spacing = (EDGE_PERIOD_M / 3, 100.0) if edge else (200.0, 500.0)
        mobility = MobilitySpec(
            mode="synthetic_grid", grid_blocks=3, grid_spacing_m=spacing, gateway_fraction=0.25
        )
        rects = GRID_BUILDINGS
    else:
        # at the edge, stations at a third of EDGE_PERIOD_M and at all of it
        road, bs_spacing = (750.0, EDGE_PERIOD_M * 2 / 3) if edge else (2_000.0, 500.0)
        mobility = MobilitySpec(road_length_m=road, gateway_fraction=0.2)
        rects = HIGHWAY_BUILDINGS
    if edge:
        mobility = dataclasses.replace(mobility, speed_range_mph=(60.0, 60.0))
    knobs = ProtocolKnobs(
        bs_spacing_m=bs_spacing,
        bs_coverage_m=EDGE_COVERAGE_M if edge else 400.0,
        beacon_interval_s=interval,
        include_beacons_in_metrics=metered,
        # a window that closes before the broadcast fires, or before the
        # gateway drops arrive, or that outlasts the run
        window_s=draw(st.sampled_from((0.0, 0.001, 5.0))),
        k_max_gateways=draw(st.sampled_from((1, 4))),
        maintenance_interval_s=0.1,
        mobility_tick_s=draw(st.sampled_from((0.001, 0.1))),
        drain_s=0.1,
    )
    protocol = draw(st.sampled_from(sorted(runner.PROTOCOLS)))
    # a period at or below the default frame time keeps the channel busy,
    # and slow to simulate, whatever frame length was drawn: few vehicles
    busy = 0 < interval <= FRAME_S
    # an edge map needs a few vehicles for one to sit near a seam or a cell edge
    vehicles = draw(st.integers(12 if edge and not busy else 2, 5 if busy else 24))
    seed = draw(st.integers(0, 1_000))
    # drawn after the knobs above: drawn among them, they moved many
    # examples onto slow busy-channel runs
    knobs = dataclasses.replace(knobs, ttl_hops=draw(st.sampled_from((1, 3))))
    # explicit targets, or the sender's station region
    targets = ()
    # (at the edge always the region, whose targets show a vehicle wrongly in it)
    if not edge and draw(st.sampled_from(("explicit", "bs_region"))) == "explicit":
        # a few addressed ids, which may name the source or lie outside the fleet
        ids = st.integers(0, vehicles + 1)
        targets = tuple(draw(st.lists(ids, min_size=1, max_size=4, unique=True)))
    # at the edge, injects from many senders, so many stations query their regions
    workload = WorkloadSpec(rate_per_s=40.0 if edge else 8.0, explicit_targets=targets)
    # drawn last, after the knobs above: each cloud and fog latency at zero
    # or its default, and the fog cell bounds at both ends of their range
    def zero_or_default(obj, name):
        return draw(st.sampled_from((0, getattr(obj, name))))

    cloud = CloudModel(
        **{name: zero_or_default(CloudModel(), name) for name in CLOUD_LATENCIES}
    )
    knobs = dataclasses.replace(
        knobs,
        gateway_access_us=zero_or_default(knobs, "gateway_access_us"),
        fog_processing_us=zero_or_default(knobs, "fog_processing_us"),
        th_cap=draw(st.sampled_from((1, 20))),
        d_min_m=draw(st.sampled_from((50.0, 300.0))),
    )
    # drawn after every knob above: a trace fleet of as many straight-line
    # tracks as vehicles, over the street layout's area, sampled through
    # the run and the drain; a trace fleet never wraps, so not at the edge
    if not edge and draw(st.booleans()):
        width, y_range = (600, (0, 600)) if grid else (2_000, (-20, 20))
        track = st.tuples(
            st.integers(0, width), st.integers(*y_range), st.integers(-3, 3), st.integers(-3, 3)
        )
        tracks = draw(st.lists(track, min_size=vehicles, max_size=vehicles))
        # samples through sim_duration_s (0.2, below) and the drain
        steps = round((0.2 + knobs.drain_s) / TRACE_STEP_S) + 1
        fd, path = tempfile.mkstemp(suffix=".fcd.xml", dir=TRACE_DIR.name)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(fcd_text(tracks, steps))
        mobility = MobilitySpec(
            mode="trace",
            trace_path=path,
            vehicle_count=vehicles,
            gateway_fraction=mobility.gateway_fraction,
        )
    cfg = ScenarioConfig(
        mobility=mobility,
        radio=radio,
        workload=workload,
        knobs=knobs,
        cloud=cloud,
        obstacles=rects if obstacles else (),
        sim_duration_s=0.2,
    )
    return cfg, protocol, vehicles, seed


def test_every_small_config_keeps_the_run_invariants():
    multi = []  # the seed of each example whose run addresses pairs for 2 or more injects

    @settings(max_examples=32, deadline=None, derandomize=True)
    @given(small_runs())
    def check(case):
        cfg, protocol, vehicles, seed = case
        # several messages, where the drawn 8 injects/s give one
        cfg = dataclasses.replace(cfg, workload=dataclasses.replace(cfg.workload, rate_per_s=40.0))
        runtimes = []
        channel_lost = set()  # open pairs a hop lost to the channel
        injects = []  # the targets of each MessageInject

        class Recording(runner.Runtime):
            def setup(self):
                runtimes.append(self)
                super().setup()

            def settle(self, msg, results, t, hops, final=True):
                pending = self._open.get(msg.msg_id, ())
                channel_lost.update(
                    (msg.msg_id, rid)
                    for rid, out in results
                    if out.loss_cause == CHANNEL_LOSS and rid in pending
                )
                return super().settle(msg, results, t, hops, final)

            def _on_inject(self, t, payload):
                record = super()._on_inject(t, payload)
                injects.append(record[3])
                return record

        with mock.patch.object(runner, "Runtime", Recording), spy_addresses() as addressed:
            first = runner.run_single(cfg, protocol, vehicles, seed)
        (rt,) = runtimes
        closed = closed_pairs(rt)
        assert set(closed) == addressed and rt.opened == len(addressed)
        # a miss is final or noted, so no pair a hop lost to the channel is swept out of range
        assert not [key for key in channel_lost if closed[key].loss_cause == OUT_OF_RANGE]
        records = first.records
        for r in records:
            assert (r.recv_us is None) != (r.loss_cause is None)
            assert r.loss_cause is None or r.loss_cause in LOSS_CAUSES
            assert r.recv_us is None or r.recv_us >= r.sent_us
        s = first.summary
        window_s, size = cfg.sim_duration_s, cfg.radio.msg_size_bytes
        delivered = sum(r.delivered for r in records)
        assert (s.n_sent, s.n_delivered, s.n_lost) == (
            len(records), delivered, len(records) - delivered
        )
        # the reference's floats, not merely close ones
        assert s.mean_e2e_delay_s == end_to_end_delay_s(records)
        assert s.delivery_probability == delivery_probability(records)
        assert s.plr == packet_loss_ratio(records)
        assert s.avg_throughput_bps == average_throughput_bps(records, window_s, size)
        if s.n_sent:
            assert math.isclose(s.delivery_probability + s.plr, 1.0, rel_tol=1e-12)
        else:
            assert s.delivery_probability is None and s.plr is None

        text = csv_text([s])
        assert csv_text([runner.run_single(cfg, protocol, vehicles, seed).summary]) == text
        logged = runner.run_single(cfg, protocol, vehicles, seed, capture_log=True)
        assert logged.log and csv_text([logged.summary]) == text
        if sum(1 for targets in injects if targets) >= 2:
            multi.append(seed)

    check()
    # not one message per run: most examples close pairs of several injects (28 of 32)
    assert len(multi) >= 24, len(multi)


# each example starts a two-worker process pool, so only a few
@settings(max_examples=4, deadline=None, derandomize=True)
@given(small_runs())
def test_serial_and_parallel_sweeps_give_the_same_bytes(case):
    cfg, _, vehicles, seed = case
    cfg = dataclasses.replace(cfg, densities=(vehicles,), seeds=(seed, seed + 1))
    serial, _ = runner.run_sweep(cfg, workers=1)
    parallel, _ = runner.run_sweep(cfg, workers=2)
    assert csv_text(parallel) == csv_text(serial)


# no shrink phase: a failing example is reported as drawn, in seconds, where
# shrinking a whole run took up to a minute
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def logged_run(cfg, protocol, vehicles, seed):
    res = runner.run_single(cfg, protocol, vehicles, seed, capture_log=True)
    return csv_text([res.summary]), res.log


@settings(max_examples=24, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs())
def test_runs_match_a_brute_force_channel(case):
    # the channel's one heap, against every frame and beacon enumerated afresh
    real = logged_run(*case)
    with brute_force_channel():
        assert logged_run(*case) == real


def test_runs_match_a_brute_force_neighbor_query():
    multi = []  # the seed of each example whose run addresses pairs for 2 or more injects

    @settings(max_examples=24, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(small_runs())
    def check(case):
        # the index's snapshot, slack, images and neighbourhood lists, and the
        # position cache, against every vehicle located afresh at its distance
        cfg, protocol, vehicles, seed = case
        # several messages, where a street or trace fleet's drawn 8 injects/s give one
        cfg = dataclasses.replace(cfg, workload=dataclasses.replace(cfg.workload, rate_per_s=40.0))
        real = logged_run(cfg, protocol, vehicles, seed)
        with mock.patch.object(runner.Runtime, "neighbors", brute_force_neighbors):
            assert logged_run(cfg, protocol, vehicles, seed) == real
        lines = parse_log(real[1])
        if sum(1 for line in lines if line.kind == "MessageInject" and line.fields["targets"]) >= 2:
            multi.append(seed)

    check()
    # not one message per run: most examples close pairs of several injects
    # (20 of 24; 12 at the drawn rates, each of them an edge map)
    assert len(multi) >= 16, len(multi)


@settings(max_examples=24, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs())
def test_runs_match_an_all_items_cell_grid(case):
    # every neighbourhood the cell grid reads (neighbor queries, station
    # cover and gateway cover), against every item it holds
    real = logged_run(*case)
    with all_items_grid():
        assert logged_run(*case) == real


# a highway whose stations sit 300 m apart under 1 km coverage, maintained
# every 100 ms for 2 s: some vehicles leave their last station's Voronoi
# cell while still within its coverage, whatever the drawn examples are
DENSE_STATIONS = (
    ScenarioConfig(
        workload=WorkloadSpec(rate_per_s=4.0),
        knobs=ProtocolKnobs(
            bs_spacing_m=300.0, bs_coverage_m=1_000.0, maintenance_interval_s=0.1, drain_s=0.1
        ),
        sim_duration_s=2.0,
    ),
    "dfcv",
    40,
    3,
)


# highway runs at 40 injects/s for 2 s, with windows of 0.5 s that close
# while the run goes on: one on an open map and one among HIGHWAY_BUILDINGS,
# each with late attempts (11 and 7), so a late joiner's shadow test runs on
# both kinds of map
def late_joiner_run(rects):
    cfg = ScenarioConfig(
        mobility=MobilitySpec(road_length_m=2_000.0, gateway_fraction=0.2),
        workload=WorkloadSpec(rate_per_s=40.0),
        knobs=ProtocolKnobs(
            bs_spacing_m=500.0,
            bs_coverage_m=400.0,
            window_s=0.5,
            mobility_tick_s=0.1,
            maintenance_interval_s=0.1,
            drain_s=0.1,
        ),
        obstacles=rects,
        sim_duration_s=2.0,
    )
    return cfg, "hybrid_vehcloud", 24, 1


LATE_JOINERS_OPEN = late_joiner_run(())
LATE_JOINERS_WALLED = late_joiner_run(HIGHWAY_BUILDINGS)


@settings(max_examples=24, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs())
@example(DENSE_STATIONS)
def test_dfcv_runs_match_runs_that_scan_every_association(case):
    # each station's sure disc, with the vehicle's last station as the
    # guess, against the cell-grid scan for every vehicle at every
    # maintenance; the drawn stations' coverages overlap on every layout
    cfg, _, vehicles, seed = case
    real = logged_run(cfg, "dfcv", vehicles, seed)
    covering = StationIndex.covering

    def scanning(self, pos, guess=None):
        return covering(self, pos)

    with mock.patch.object(StationIndex, "covering", scanning):
        assert logged_run(cfg, "dfcv", vehicles, seed) == real


@settings(max_examples=48, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs())
def test_a_flood_sends_once_per_vehicle_and_sweeps_its_losses(case):
    # two laws of the flood over a whole run's event log: a vehicle
    # transmits a message at most once, and a miss is only noted, so no
    # flood pair closes as lost before the SimEnd sweep (a metered beacon
    # closes its own losses on its BeaconEmit line)
    cfg, _, vehicles, seed = case
    # several floods in flight, where the drawn 8 injects/s give one
    cfg = dataclasses.replace(cfg, workload=dataclasses.replace(cfg.workload, rate_per_s=40.0))
    _, log = logged_run(cfg, "baseline", vehicles, seed)
    *lines, end = parse_log(log)
    assert end.kind == "SimEnd"
    sends = Counter((line.fields["msg"], line.fields["from"]) for line in lines if "tx" in line.words)
    assert [send for send, n in sends.items() if n > 1] == []
    early = [
        (line.t, line.kind, rec)
        for line in lines
        for rec in line.records
        if rec[2] != "ok" and not (line.kind == "BeaconEmit" and rec[0] == int(line.fields["msg"]))
    ]
    assert early == []


def test_no_message_addresses_its_own_source():
    # two laws of every protocol over a whole run's event log: no
    # MessageInject names its source among its targets, whether they are
    # the source's station region or explicit ids, which may name the
    # source; and each closed pair's row agrees with the rec= note of the
    # event that closed it, in close order
    reached = Counter()

    @settings(max_examples=12, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(small_runs())
    def law(case):
        cfg, _, vehicles, seed = case
        # several messages, where the drawn 8 injects/s give one
        cfg = dataclasses.replace(cfg, workload=dataclasses.replace(cfg.workload, rate_per_s=40.0))
        explicit = cfg.workload.explicit_targets
        for protocol in sorted(runner.PROTOCOLS):
            res = runner.run_single(cfg, protocol, vehicles, seed, capture_log=True)
            lines = parse_log(res.log)
            rows = [(m, dst, cause or "ok", recv) for m, _, dst, _, recv, cause, _ in res.rows]
            assert [rec for line in lines for rec in line.records] == rows
            reached["delivered"] += any(recv is not None for *_, recv in rows)
            for line in lines:
                if line.kind == "MessageInject":
                    src, targets = line.fields["src"], line.fields["targets"].split(",")
                    assert src not in targets, line
                    if not explicit and targets != [""]:
                        reached["region"] += 1
                    elif int(src) in explicit:
                        reached["explicit"] += 1

    law()
    # not vacuous: region targets, explicit ones that name the source, and
    # runs that deliver
    assert reached["region"] and reached["explicit"] and reached["delivered"], reached


def test_a_station_downlink_carries_whole_fog_cells_of_its_own_station():
    # a dfcv law, checked on every InfraTx as it is scheduled: its receivers
    # are the vehicles of the fog cells, under its station, that hold a
    # target associated with that station
    schedule_cloud = runner.Runtime.schedule_cloud
    drops = []  # (the downlink's station, the sender's) of every drop checked

    def checked(rt, job, at):
        if isinstance(job, InfraTx):
            dfcv = rt.protocol
            assoc = dfcv._assoc
            receivers = set(job.receivers)
            assert all(assoc.get(v) == job.bs for v in receivers)
            assert {v for v in job.msg.targets if assoc.get(v) == job.bs} <= receivers
            for cell in dfcv._cells.get(job.bs.station_id, []):
                assert receivers.issuperset(cell.members) or receivers.isdisjoint(cell.members)
            drops.append((job.bs.station_id, assoc[job.msg.src].station_id))
        schedule_cloud(rt, job, at)

    @settings(max_examples=24, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(small_runs())
    def law(case):
        cfg, _, vehicles, seed = case
        # several messages, where the drawn 8 injects/s give one
        workload = dataclasses.replace(cfg.workload, rate_per_s=40.0)
        runner.run_single(dataclasses.replace(cfg, workload=workload), "dfcv", vehicles, seed)

    with mock.patch.object(runner.Runtime, "schedule_cloud", checked):
        law()
    # not vacuous: some drop crosses the cloud to another station
    assert any(bs != src_bs for bs, src_bs in drops)


def test_hybrid_late_attempts_stay_in_their_window_once_each_in_inject_order():
    # three hybrid laws, checked on every late attempt (a job scheduled while
    # HybridVehcloud.on_tick runs): it is made at a tick no later than its
    # message's window end, a (message, vehicle) pair gets at most one, and
    # at one tick the attempts follow inject order, which is message id order
    on_tick = HybridVehcloud.on_tick
    ticking = []  # the tick on_tick is running, while it runs
    attempts = []  # (tick, message id, vehicle) of each late attempt in a run
    made = []  # how many late attempts each run made

    def tick(protocol, t):
        ticking.append(t)
        try:
            return on_tick(protocol, t)
        finally:
            ticking.pop()

    def spied(schedule):
        def checked(rt, job, at):
            if ticking:
                (t,) = ticking
                assert t <= job.state.window_end
                attempts.extend((t, job.msg.msg_id, v) for v in job.receivers)
            schedule(rt, job, at)

        return checked

    # the drawn runs rarely make a late attempt, so two fixed runs make some
    @settings(max_examples=24, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(small_runs())
    @example(LATE_JOINERS_OPEN)
    @example(LATE_JOINERS_WALLED)
    def law(case):
        cfg, _, vehicles, seed = case
        # several windows open at once, where the drawn 8 injects/s give one,
        # and 2 s for vehicles to enter a region, where 0.2 s rarely gives one
        workload = dataclasses.replace(cfg.workload, rate_per_s=40.0)
        cfg = dataclasses.replace(cfg, workload=workload, sim_duration_s=2.0)
        attempts.clear()
        runner.run_single(cfg, "hybrid_vehcloud", vehicles, seed)
        pairs = Counter((msg_id, v) for _, msg_id, v in attempts)
        assert [pair for pair, n in pairs.items() if n > 1] == []
        assert attempts == sorted(attempts, key=lambda a: a[:2])
        if case in (LATE_JOINERS_OPEN, LATE_JOINERS_WALLED):
            assert attempts, "a fixed run made no late attempt"
        made.append(len(attempts))

    with (
        mock.patch.object(HybridVehcloud, "on_tick", tick),
        mock.patch.object(runner.Runtime, "schedule_tx", spied(runner.Runtime.schedule_tx)),
        mock.patch.object(runner.Runtime, "schedule_cloud", spied(runner.Runtime.schedule_cloud)),
    ):
        law()
    # not vacuous: some run made a late attempt
    assert sum(made) > 0


def test_hybrid_asks_sight_only_of_a_map_with_rectangles():
    # on a map without rectangles hybrid asks no shadow test and no sight
    # question at all; on a walled map each inject still tests every member
    # of its region once, at the member's position, toward the station
    on_inject = HybridVehcloud.on_inject
    asked = []  # the sight questions of the run: (name, args)
    tested = []  # how many shadow tests each walled inject made

    def spy(name, fn):
        def spied(*args):
            asked.append((name, args))
            return fn(*args)

        return spied

    def inject(protocol, msg, t):
        before = len(asked)
        on_inject(protocol, msg, t)
        rt, st = protocol.rt, protocol._windows[-1]
        if rt.obstacles.rects:
            shadow = [args for name, args in asked[before:] if name == "obstacle_shadowing"]
            assert shadow == [(rt.pos(v, t), st.bs.pos, rt.obstacles) for v in st.loc]
            tested.append(len(shadow))

    @settings(max_examples=24, deadline=None, derandomize=True, phases=NO_SHRINK)
    @given(small_runs())
    @example(LATE_JOINERS_OPEN)
    @example(LATE_JOINERS_WALLED)
    def law(case):
        cfg, _, vehicles, seed = case
        # several injects, where the drawn 8 injects/s give one
        workload = dataclasses.replace(cfg.workload, rate_per_s=40.0)
        cfg = dataclasses.replace(cfg, workload=workload)
        asked.clear()
        runner.run_single(cfg, "hybrid_vehcloud", vehicles, seed)
        if not cfg.obstacles:
            assert asked == []

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(HybridVehcloud, "on_inject", inject))
        # every module that looks either name up as a global
        for module in (protocols, radio, runner):
            for name in ("obstacle_shadowing", "line_of_sight"):
                if name in vars(module):
                    fn = spy(name, getattr(module, name))
                    stack.enter_context(mock.patch.object(module, name, fn))
        law()
    # not vacuous: some walled inject tested its region
    assert sum(tested) > 0


@settings(max_examples=16, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs().filter(lambda case: case[0].obstacles))
def test_rectangles_from_a_file_play_as_inline_rectangles(case):
    cfg, protocol, vehicles, seed = case
    fd, path = tempfile.mkstemp(suffix=".rects", dir=TRACE_DIR.name)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write("# x_min y_min x_max y_max\n\n")
        fh.writelines(" ".join(repr(float(v)) for v in rect) + "\n" for rect in cfg.obstacles)
    from_file = dataclasses.replace(cfg, obstacles=path)
    assert logged_run(from_file, protocol, vehicles, seed) == logged_run(cfg, protocol, vehicles, seed)


def split_sweep_config(mode: str) -> ScenarioConfig:
    """A highway or a trace sweep of all three protocols over three seeds."""
    cfg = ScenarioConfig(
        mobility=MobilitySpec(road_length_m=2_000.0, gateway_fraction=0.2),
        workload=WorkloadSpec(rate_per_s=10.0),
        knobs=ProtocolKnobs(drain_s=0.1, maintenance_interval_s=0.1),
        obstacles=HIGHWAY_BUILDINGS,
        sim_duration_s=0.2,
        densities=(6, 14),
        seeds=(1, 2, 3),
    )
    if mode == "highway":
        return cfg
    tracks = [(150.0 * v, 10.0 * (v % 3) - 10.0, 2.0, 0.5 * (v % 2)) for v in range(10)]
    fd, path = tempfile.mkstemp(suffix=".fcd.xml", dir=TRACE_DIR.name)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(fcd_text(tracks, 4))
    mobility = MobilitySpec(mode="trace", trace_path=path, vehicle_count=10, gateway_fraction=0.2)
    return dataclasses.replace(cfg, mobility=mobility, densities=(10,))


@pytest.mark.parametrize("mode", ["highway", "trace"])
def test_a_sweep_split_by_seed_gives_the_same_summaries(mode):
    # split by seed, and by density too: a trace sweep has one density
    cfg = split_sweep_config(mode)
    full = csv_text(runner.run_sweep(cfg)[0])
    for key in ("seeds", "densities"):
        parts = [
            runner.run_sweep(dataclasses.replace(cfg, **{key: (value,)}))[0]
            for value in getattr(cfg, key)
        ]
        assert csv_text([s for part in parts for s in part]) == full, key


@settings(max_examples=16, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs())
def test_a_larger_event_budget_changes_nothing(case):
    # the budget only stops a run: one exactly as large as the run's event
    # count, and one ten times larger, give the default budget's bytes
    cfg, protocol, vehicles, seed = case
    real = logged_run(cfg, protocol, vehicles, seed)
    events = runner.run_single(cfg, protocol, vehicles, seed).stats.events_processed
    for budget in (events, 10 * events):
        knobs = dataclasses.replace(cfg.knobs, event_budget=budget)
        assert logged_run(dataclasses.replace(cfg, knobs=knobs), protocol, vehicles, seed) == real


# a building far beyond every drawn map, which blocks no line within one
FAR_BUILDING = (1e6, 1e6, 1e6 + 50.0, 1e6 + 50.0)


@settings(max_examples=16, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs())
# with late joiners: on the open map the far building moves every shadow
# test, late ones included, onto the sight path
@example(LATE_JOINERS_OPEN)
@example(LATE_JOINERS_WALLED)
def test_a_far_building_changes_nothing(case):
    cfg, _, vehicles, seed = case
    far = dataclasses.replace(cfg, obstacles=(*(cfg.obstacles or ()), FAR_BUILDING))
    for protocol in sorted(runner.PROTOCOLS):
        assert logged_run(far, protocol, vehicles, seed) == logged_run(cfg, protocol, vehicles, seed)


@settings(max_examples=16, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs())
def test_certain_loss_delivers_nothing_over_vehicle_hops(case):
    # every flood hop and every hybrid delivery to a vehicle (direct,
    # newcomer, gateway drop) contends, so at base_loss 1 none arrives;
    # dfcv's station downlinks do not contend
    cfg, _, vehicles, seed = case
    cfg = dataclasses.replace(cfg, radio=dataclasses.replace(cfg.radio, base_loss=1.0))
    for protocol in ("baseline", "hybrid_vehcloud"):
        assert runner.run_single(cfg, protocol, vehicles, seed).summary.n_delivered == 0


@settings(max_examples=16, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs())
def test_dfcv_bytes_do_not_depend_on_the_loss_rate(case):
    # no dfcv hop contends, so no loss draw is taken; metered beacons would
    cfg, _, vehicles, seed = case
    cfg = dataclasses.replace(
        cfg, knobs=dataclasses.replace(cfg.knobs, include_beacons_in_metrics=False)
    )
    runs = [
        logged_run(
            dataclasses.replace(cfg, radio=dataclasses.replace(cfg.radio, base_loss=base_loss)),
            "dfcv", vehicles, seed,
        )
        for base_loss in (0.02, 0.5, 1.0)
    ]
    assert runs[1] == runs[0] and runs[2] == runs[0]


@settings(max_examples=8, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs())
def test_a_longer_drain_keeps_the_past(case):
    cfg, protocol, vehicles, seed = case

    def fields(drain_s):
        knobs = dataclasses.replace(cfg.knobs, drain_s=drain_s)
        _, log = logged_run(dataclasses.replace(cfg, knobs=knobs), protocol, vehicles, seed)
        # time, kind and notes: the seq column counts what was scheduled past the end
        return [(int(t), kind, notes) for t, _, kind, notes in (line.split("\t") for line in log)]

    short, longer = fields(2.0), fields(5.0)
    end, kind, _ = short[-1]
    assert kind == "SimEnd"
    assert [f for f in longer if f[0] < end] == [f for f in short if f[0] < end]


def redressed(text: str) -> str:
    """The FCD document ``text`` in another dress: SUMO's schema header, a
    comment before every element, tab indentation, each element's attributes
    in reverse order plus an unknown one, and explicit close tags."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<!-- re-dressed -->",
    ]

    def write(node, depth):
        attrs = [*reversed(node.attrib.items()), ("type", "DEFAULT_VEHTYPE")]
        if depth == 0:
            attrs += [
                ("xmlns:xsi", "http://www.w3.org/2001/XMLSchema-instance"),
                ("xsi:noNamespaceSchemaLocation", "http://sumo.dlr.de/xsd/fcd_file.xsd"),
            ]
        indent = "\t" * depth
        lines.append(f"{indent}<!-- {node.tag} -->")
        lines.append(f"{indent}<{node.tag}" + "".join(f" {k}={quoteattr(v)}" for k, v in attrs) + ">")
        for child in node:
            write(child, depth + 1)
        lines.append(f"{indent}</{node.tag}>")

    write(ET.fromstring(text), 0)
    return "\n".join(lines) + "\n"


@settings(max_examples=24, deadline=None, derandomize=True, phases=NO_SHRINK)
@given(small_runs().filter(lambda case: case[0].mobility.mode == "trace"))
def test_a_redressed_trace_plays_the_same_tracks_and_bytes(case):
    cfg, protocol, vehicles, seed = case
    path = cfg.mobility.trace_path
    with open(path, encoding="utf-8") as fh:
        text = redressed(fh.read())
    fd, dressed = tempfile.mkstemp(suffix=".fcd.xml", dir=TRACE_DIR.name)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert parse_fcd(dressed) == parse_fcd(path)
    mobility = dataclasses.replace(cfg.mobility, trace_path=dressed)
    assert logged_run(dataclasses.replace(cfg, mobility=mobility), protocol, vehicles, seed) == (
        logged_run(cfg, protocol, vehicles, seed)
    )
