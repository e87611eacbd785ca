"""Invariants over the knob space: small configs drawn at random.

Every run, whatever its mobility, obstacles, beacon period and metering,
must finish with closed accounting (one record per addressed pair),
causal delays, delivery + loss == 1, and the same CSV bytes on a rerun,
with or without an event log, and in a serial or a parallel sweep.
"""

import dataclasses
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from vanetsim import runner
from vanetsim.config import ProtocolKnobs, ScenarioConfig, WorkloadSpec
from vanetsim.metrics import csv_text
from vanetsim.mobility import MobilitySpec
from vanetsim.radio import RadioParams, tx_time_us

FRAME_S = tx_time_us(RadioParams()) / 1e6
# beacons off, and periods below, equal to and above the frame time
BEACON_INTERVALS_S = (0.0, FRAME_S / 2, FRAME_S, 0.05)

HIGHWAY_BUILDINGS = ((600.0, -20.0, 650.0, 20.0), (1300.0, -5.0, 1400.0, 30.0))
GRID_BUILDINGS = tuple(
    (i * 200.0 + 15, j * 200.0 + 15, (i + 1) * 200.0 - 15, (j + 1) * 200.0 - 15)
    for i in range(3)
    for j in range(3)
)


@st.composite
def small_runs(draw):
    grid = draw(st.booleans())
    obstacles = draw(st.booleans())
    interval = draw(st.sampled_from(BEACON_INTERVALS_S))
    metered = draw(st.booleans())
    if grid:
        mobility = MobilitySpec(
            mode="synthetic_grid", grid_blocks=3, grid_spacing_m=200.0, gateway_fraction=0.25
        )
        rects = GRID_BUILDINGS
    else:
        mobility = MobilitySpec(road_length_m=2_000.0, gateway_fraction=0.2)
        rects = HIGHWAY_BUILDINGS
    cfg = ScenarioConfig(
        mobility=mobility,
        radio=RadioParams(loss_slope=draw(st.sampled_from((0.0, 0.05)))),
        workload=WorkloadSpec(rate_per_s=8.0),
        knobs=ProtocolKnobs(
            ttl_hops=3,
            bs_spacing_m=500.0,
            bs_coverage_m=400.0,
            beacon_interval_s=interval,
            include_beacons_in_metrics=metered,
            maintenance_interval_s=0.1,
            mobility_tick_s=0.1,
            drain_s=0.1,
        ),
        obstacle_rects=rects if obstacles else (),
        sim_duration_s=0.2,
    )
    protocol = draw(st.sampled_from(sorted(runner.PROTOCOLS)))
    # a period at or below the frame time keeps the channel busy: few vehicles
    vehicles = draw(st.integers(2, 5 if 0 < interval <= FRAME_S else 24))
    return cfg, protocol, vehicles, draw(st.integers(0, 1_000))


@settings(max_examples=32, deadline=None, derandomize=True)
@given(small_runs())
def test_every_small_config_keeps_the_run_invariants(case):
    cfg, protocol, vehicles, seed = case
    runtimes = []

    class Recording(runner.Runtime):
        def setup(self):
            runtimes.append(self)
            super().setup()

    with mock.patch.object(runner, "Runtime", Recording):
        first = runner.run_single(cfg, protocol, vehicles, seed)
    (rt,) = runtimes
    addressed = {(m.msg_id, d) for m in rt.messages.values() for d in m.targets}
    assert set(rt.records) == addressed and rt.opened == len(addressed)
    for r in first.records:
        assert r.recv_us is None or r.recv_us >= r.sent_us
    s = first.summary
    if s.n_sent:
        assert math.isclose(s.delivery_probability + s.plr, 1.0, rel_tol=1e-12)
    else:
        assert s.delivery_probability is None and s.plr is None

    text = csv_text([s])
    assert csv_text([runner.run_single(cfg, protocol, vehicles, seed).summary]) == text
    logged = runner.run_single(cfg, protocol, vehicles, seed, capture_log=True)
    assert logged.log and csv_text([logged.summary]) == text


# each example starts a two-worker process pool, so only a few
@settings(max_examples=4, deadline=None, derandomize=True)
@given(small_runs())
def test_serial_and_parallel_sweeps_give_the_same_bytes(case):
    cfg, _, vehicles, seed = case
    cfg = dataclasses.replace(cfg, densities=(vehicles,), seeds=(seed, seed + 1))
    serial, _ = runner.run_sweep(cfg, workers=1)
    parallel, _ = runner.run_sweep(cfg, workers=2)
    assert csv_text(parallel) == csv_text(serial)
