"""Mobility providers, trace ingestion, and the neighbor index."""

import gc
import math
import pickle
import random
import tracemalloc
import xml.etree.ElementTree as ET
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from unittest import mock
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from vanetsim import fog, runner
from vanetsim.config import ScenarioConfig, WorkloadSpec
from vanetsim.engine import US_PER_S, to_us
from vanetsim.errors import ConfigError, TraceParseError
from vanetsim.mobility import (
    LANE_WIDTH_M,
    MPH_TO_MPS,
    CellGrid,
    MobilityProvider,
    MobilitySpec,
    NeighborIndex,
    SyntheticGridProvider,
    SyntheticHighwayProvider,
    TraceProvider,
    VehicleState,
    build_provider,
    distance,
    gateway_count,
    parse_fcd,
)

from static_fleet import StaticProvider

FCD_FIXTURE = """<?xml version="1.0" encoding="UTF-8"?>
<fcd-export>
  <timestep time="0.00">
    <vehicle id="veh_a" x="100.0" y="0.0" speed="10.0"/>
    <vehicle id="veh_b" x="400.0" y="3.5" speed="20.0"/>
  </timestep>
  <timestep time="1.00">
    <vehicle id="veh_a" x="110.0" y="0.0" speed="10.0"/>
    <vehicle id="veh_b" x="420.0" y="3.5" speed="20.0"/>
  </timestep>
  <timestep time="2.00">
    <vehicle id="veh_a" x="120.0" y="0.0" speed="10.0"/>
    <vehicle id="veh_b" x="440.0" y="3.5" speed="20.0"/>
  </timestep>
</fcd-export>
"""


# the root element of a SUMO export, with its schema header
SUMO_ROOT = (
    '<fcd-export xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
    'xsi:noNamespaceSchemaLocation="http://sumo.dlr.de/xsd/fcd_file.xsd">'
)


def write_fixture(tmp_path, text=FCD_FIXTURE, name="trace.xml"):
    fp = tmp_path / name
    fp.write_text(text)
    return str(fp)


# -- MobilitySpec validation ----------------------------------------------------------

def test_mobility_defaults_are_usable():
    spec = MobilitySpec()
    assert spec.mode == "synthetic_highway"
    assert spec.vehicle_count == 50
    assert spec.gateway_fraction == 0.05


@pytest.mark.parametrize(
    "kw, field",
    [
        ({"mode": "hovercraft"}, "mobility.mode"),
        ({"vehicle_count": 0}, "mobility.vehicle_count"),
        ({"vehicle_count": 10_001}, "mobility.vehicle_count"),
        ({"road_length_m": -1.0}, "mobility.road_length_m"),
        ({"lanes": 0}, "mobility.lanes"),
        ({"speed_range_mph": (60.0, 30.0)}, "mobility.speed_range_mph"),
        ({"speed_range_mph": (-5.0, 30.0)}, "mobility.speed_range_mph"),
        ({"mode": "trace"}, "mobility.trace_path"),
        ({"grid_blocks": 0}, "mobility.grid_blocks"),
        ({"grid_spacing_m": 0.0}, "mobility.grid_spacing_m"),
        ({"gateway_fraction": 1.5}, "mobility.gateway_fraction"),
    ],
)
def test_spec_rejects_bad_values(kw, field):
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        MobilitySpec(**kw)


def test_gateway_count_rounding():
    assert gateway_count(50, 0.05) == 2   # round(2.5) -> 2, banker's
    assert gateway_count(100, 0.05) == 5
    assert gateway_count(3, 1.0) == 3
    assert gateway_count(10, 0.0) == 0
    assert gateway_count(2, 0.9) == 2  # capped at fleet size


# -- highway ------------------------------------------------------------------

def test_mph_conversion_is_exact():
    assert MPH_TO_MPS == 0.44704
    assert 30.0 * MPH_TO_MPS == pytest.approx(13.4112)


def test_highway_moves_at_constant_speed_and_wraps():
    spec = MobilitySpec(vehicle_count=2, road_length_m=1000.0)
    prov = SyntheticHighwayProvider(spec, initial=[(990.0, 0, 20.0), (10.0, 1, 15.0)])
    s0 = prov.position_at(0, 0)
    assert s0 == (990.0, 0.0)
    # 1 s later: 990 + 20 wraps to 10
    assert prov.position_at(0, US_PER_S)[0] == pytest.approx(10.0)
    assert prov.position_at(1, US_PER_S) == (25.0, LANE_WIDTH_M)
    assert prov.position_at(1, 500_000)[0] == pytest.approx(17.5)


def test_highway_lane_y_offsets():
    spec = MobilitySpec(vehicle_count=3, lanes=3)
    prov = SyntheticHighwayProvider(
        spec, initial=[(0.0, 0, 10.0), (0.0, 1, 10.0), (0.0, 2, 10.0)]
    )
    assert [prov.position_at(v, 0)[1] for v in range(3)] == [0.0, 3.5, 7.0]


def test_highway_random_draws_respect_configured_ranges():
    spec = MobilitySpec(vehicle_count=200, speed_range_mph=(30.0, 60.0), lanes=2)
    prov = SyntheticHighwayProvider(spec, rng=random.Random(1))
    lo = 30.0 * MPH_TO_MPS
    hi = 60.0 * MPH_TO_MPS
    for state in prov.fleet_at(0):
        assert 0.0 <= state.pos[0] < 10_000.0
        assert state.pos[1] in (0.0, LANE_WIDTH_M)
        moved = (prov.position_at(state.vehicle_id, US_PER_S)[0] - state.pos[0]) % 10_000.0
        assert lo - 1e-9 <= moved <= hi + 1e-9  # metres in one second
    assert prov.max_drift_mps() <= hi
    # first 5% of ids are the buses
    flags = [s.is_gateway for s in prov.fleet_at(0)]
    assert sum(flags) == gateway_count(200, 0.05) == 10
    assert all(flags[:10]) and not any(flags[10:])


def test_highway_same_rng_replays_identically():
    spec = MobilitySpec(vehicle_count=30)
    a = SyntheticHighwayProvider(spec, rng=random.Random(7))
    b = SyntheticHighwayProvider(spec, rng=random.Random(7))
    assert [s.pos for s in a.fleet_at(123_456)] == [s.pos for s in b.fleet_at(123_456)]


# -- grid ---------------------------------------------------------------------

def test_grid_keeps_vehicles_on_streets():
    spec = MobilitySpec(mode="synthetic_grid", vehicle_count=100, grid_blocks=4,
                        grid_spacing_m=250.0)
    prov = SyntheticGridProvider(spec, rng=random.Random(3))
    for t in (0, 5 * US_PER_S, 30 * US_PER_S):
        for state in prov.fleet_at(t):
            on_h = state.pos[1] % 250.0 == 0.0
            on_v = state.pos[0] % 250.0 == 0.0
            assert on_h or on_v
            assert 0.0 <= state.pos[0] <= 1000.0
            assert 0.0 <= state.pos[1] <= 1000.0


def test_grid_pinned_vehicle_shuttles_and_wraps():
    spec = MobilitySpec(mode="synthetic_grid", vehicle_count=1, grid_blocks=2,
                        grid_spacing_m=100.0)
    prov = SyntheticGridProvider(spec, initial=[("v", 1, 190.0, 1, 20.0)])
    assert prov.position_at(0, 0) == (100.0, 190.0)
    assert prov.position_at(0, US_PER_S) == (100.0, 10.0)  # wrapped at 200
    back = SyntheticGridProvider(spec, initial=[("h", 0, 10.0, -1, 20.0)])
    assert back.position_at(0, US_PER_S)[0] == pytest.approx(190.0)


# -- one street model for both synthetic fleets ---------------------------------
#
# Copies of the highway and grid providers as they were before both became
# street fleets, each with its own position_at and max_drift_mps.  The
# property test below holds the street fleets to them.


class RefHighwayProvider(MobilityProvider):
    def __init__(self, spec, rng=None, initial=None):
        self.spec = spec
        if initial is None:
            if rng is None:
                raise ConfigError("synthetic mobility needs an RNG stream")
            lo = spec.speed_range_mph[0] * MPH_TO_MPS
            hi = spec.speed_range_mph[1] * MPH_TO_MPS
            initial = [
                (rng.uniform(0.0, spec.road_length_m), rng.randrange(spec.lanes), rng.uniform(lo, hi))
                for _ in range(spec.vehicle_count)
            ]
        self._start = [float(x) for x, _, _ in initial]
        self._lane = [int(lane) for _, lane, _ in initial]
        self._speed = [float(s) for _, _, s in initial]
        self.vehicle_ids = list(range(len(initial)))
        self._n_gateways = gateway_count(len(initial), spec.gateway_fraction)

    def wrap_period(self, vehicle_id):
        return (self.spec.road_length_m, None)

    def position_at(self, vehicle_id, t_us):
        x = (
            self._start[vehicle_id] + self._speed[vehicle_id] * (t_us / US_PER_S)
        ) % self.spec.road_length_m
        return (x, self._lane[vehicle_id] * LANE_WIDTH_M)

    def max_drift_mps(self):
        return max(self._speed) if self._speed else 0.0


class RefGridProvider(MobilityProvider):
    def __init__(self, spec, rng=None, initial=None):
        self.spec = spec
        self.extent_m = spec.grid_blocks * spec.grid_spacing_m
        if initial is None:
            if rng is None:
                raise ConfigError("synthetic mobility needs an RNG stream")
            lo = spec.speed_range_mph[0] * MPH_TO_MPS
            hi = spec.speed_range_mph[1] * MPH_TO_MPS
            initial = [
                (
                    "h" if rng.random() < 0.5 else "v",
                    rng.randrange(spec.grid_blocks + 1),
                    rng.uniform(0.0, self.extent_m),
                    1 if rng.random() < 0.5 else -1,
                    rng.uniform(lo, hi),
                )
                for _ in range(spec.vehicle_count)
            ]
        self._orient = [o for o, _, _, _, _ in initial]
        self._street = [int(i) for _, i, _, _, _ in initial]
        self._offset = [float(d) for _, _, d, _, _ in initial]
        self._dir = [int(s) for _, _, _, s, _ in initial]
        self._speed = [float(v) for _, _, _, _, v in initial]
        self.vehicle_ids = list(range(len(initial)))
        self._n_gateways = gateway_count(len(initial), spec.gateway_fraction)

    def wrap_period(self, vehicle_id):
        if self._orient[vehicle_id] == "h":
            return (self.extent_m, None)
        return (None, self.extent_m)

    def position_at(self, vehicle_id, t_us):
        along = (
            self._offset[vehicle_id]
            + self._dir[vehicle_id] * self._speed[vehicle_id] * (t_us / US_PER_S)
        ) % self.extent_m
        fixed = self._street[vehicle_id] * self.spec.grid_spacing_m
        if self._orient[vehicle_id] == "h":
            return (along, fixed)
        return (fixed, along)

    def max_drift_mps(self):
        return max(self._speed) if self._speed else 0.0


@st.composite
def street_fleets(draw):
    """(grid?, spec, seed, initial): a drawn spec, then either a seed for
    the random draws (initial None) or explicit initial tuples (seed None)."""
    grid = draw(st.booleans())
    lo = draw(st.floats(0.0, 80.0))
    spec = MobilitySpec(
        mode="synthetic_grid" if grid else "synthetic_highway",
        vehicle_count=draw(st.integers(1, 25)),
        road_length_m=draw(st.floats(1.0, 20_000.0)),
        lanes=draw(st.integers(1, 4)),
        speed_range_mph=(lo, lo + draw(st.floats(0.0, 80.0))),
        grid_blocks=draw(st.integers(1, 6)),
        grid_spacing_m=draw(st.floats(1.0, 400.0)),
        gateway_fraction=draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])),
    )
    if draw(st.booleans()):
        return grid, spec, draw(st.integers(0, 2**32)), None
    coord = st.floats(-1e5, 1e5)
    speed = st.floats(0.0, 60.0)
    if grid:
        one = st.tuples(
            st.sampled_from("hv"), st.integers(0, spec.grid_blocks), coord,
            st.sampled_from([1, -1]), speed,
        )
    else:
        one = st.tuples(coord, st.integers(0, spec.lanes - 1), speed)
    return grid, spec, None, draw(st.lists(one, max_size=12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(street_fleets(), st.lists(st.integers(0, 3_600 * US_PER_S), min_size=1, max_size=6))
def test_street_fleets_match_the_two_provider_reference(fleet, times):
    grid, spec, seed, initial = fleet
    cls, ref_cls = (
        (SyntheticGridProvider, RefGridProvider)
        if grid
        else (SyntheticHighwayProvider, RefHighwayProvider)
    )
    rng = ref_rng = None
    if seed is not None:
        rng, ref_rng = random.Random(seed), random.Random(seed)
    prov = cls(spec, rng, initial)
    ref = ref_cls(spec, ref_rng, initial)
    if seed is not None:
        assert rng.getstate() == ref_rng.getstate()  # the same draws, in the same order
    assert prov.vehicle_ids == ref.vehicle_ids
    for t in [0] + times:
        assert [prov.position_at(v, t) for v in prov.vehicle_ids] == [
            ref.position_at(v, t) for v in ref.vehicle_ids
        ]
    assert [prov.is_gateway(v) for v in prov.vehicle_ids] == [
        ref.is_gateway(v) for v in ref.vehicle_ids
    ]
    assert prov.max_drift_mps() == ref.max_drift_mps()
    assert [prov.wrap_period(v) for v in prov.vehicle_ids] == [
        ref.wrap_period(v) for v in ref.vehicle_ids
    ]


@pytest.mark.parametrize("cls", [SyntheticHighwayProvider, SyntheticGridProvider])
def test_random_street_fleet_needs_an_rng(cls):
    with pytest.raises(ConfigError, match="RNG stream"):
        cls(MobilitySpec())
    assert cls(MobilitySpec(), initial=[]).vehicle_count == 0


# -- static -------------------------------------------------------------------

def test_static_provider_never_moves():
    prov = StaticProvider([(0, 0), (50, 10)], gateways=[1])
    assert prov.position_at(1, 0) == prov.position_at(1, 10 * US_PER_S)
    assert prov.max_drift_mps() == 0.0
    assert prov.is_gateway(1)
    assert not prov.is_gateway(0)
    assert prov.bounds() == (0.0, 0.0, 50.0, 10.0)


# -- trace parsing and playback -----------------------------------------------

def test_parse_fcd_tracks_per_vehicle(tmp_path):
    tracks = parse_fcd(write_fixture(tmp_path))
    assert list(tracks) == ["veh_a", "veh_b"]  # first-appearance order
    assert sum(len(times) for times, _ in tracks.values()) == 6
    times, points = tracks["veh_a"]
    assert times == [0, US_PER_S, 2 * US_PER_S]
    assert points[0] == (100.0, 0.0)
    assert tracks["veh_b"][1][0][0] == 400.0


def test_parse_fcd_rounds_seconds_half_up(tmp_path):
    text = FCD_FIXTURE.replace('time="1.00"', 'time="1.0000005"')
    tracks = parse_fcd(write_fixture(tmp_path, text))
    assert all(times == [0, 1_000_001, 2_000_000] for times, _ in tracks.values())


def test_config_and_trace_seconds_round_alike(tmp_path):
    # 0.0001245 * 1e6 is 124.49999999999999 in binary floating point
    assert to_us(0.0001245) == 125
    text = FCD_FIXTURE.replace('time="1.00"', 'time="0.0001245"')
    tracks = parse_fcd(write_fixture(tmp_path, text))
    assert all(times == [0, 125, 2_000_000] for times, _ in tracks.values())
    halves = [str((Decimal(k) + Decimal("0.5")) / US_PER_S) for k in range(20_000)]
    assert [to_us(float(h)) for h in halves] == [to_us(h) for h in halves]


def test_parse_fcd_rejects_wrong_root(tmp_path):
    with pytest.raises(TraceParseError, match="root element"):
        parse_fcd(write_fixture(tmp_path, "<sumo></sumo>"))


def test_parse_fcd_rejects_missing_attribute(tmp_path):
    text = FCD_FIXTURE.replace(' x="100.0"', "", 1)
    with pytest.raises(TraceParseError, match="'x'"):
        parse_fcd(write_fixture(tmp_path, text))


def test_parse_fcd_rejects_non_numeric(tmp_path):
    text = FCD_FIXTURE.replace('x="100.0"', 'x="fast"')
    with pytest.raises(TraceParseError, match="not a number"):
        parse_fcd(write_fixture(tmp_path, text))


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        ('x="110.0"', 'x="nan"', "timestep 1.00: attribute 'x' is not finite: 'nan'"),
        ('y="3.5"', 'y="inf"', "timestep 0.00: attribute 'y' is not finite: 'inf'"),
        ('x="440.0"', 'x="-Infinity"', "timestep 2.00: attribute 'x' is not finite"),
        ('speed="20.0"', 'speed="NaN"', "timestep 0.00: attribute 'speed' is not finite"),
        ('time="1.00"', 'time="nan"', "bad time value 'nan'"),
        ('time="2.00"', 'time="inf"', "bad time value 'inf'"),
    ],
)
def test_parse_fcd_rejects_non_finite_values(tmp_path, old, new, fragment):
    path = write_fixture(tmp_path, FCD_FIXTURE.replace(old, new, 1))
    with pytest.raises(TraceParseError) as err:
        parse_fcd(path)
    assert str(err.value).startswith(path) and fragment in str(err.value)


def test_parse_fcd_rejects_non_increasing_time(tmp_path):
    text = FCD_FIXTURE.replace('time="1.00"', 'time="0.00"')
    with pytest.raises(TraceParseError, match="does not increase"):
        parse_fcd(write_fixture(tmp_path, text))


def test_parse_fcd_malformed_xml(tmp_path):
    with pytest.raises(TraceParseError, match="malformed"):
        parse_fcd(write_fixture(tmp_path, "<fcd-export><timestep"))


def test_parse_fcd_holds_little_more_than_its_tracks_at_its_peak(tmp_path):
    # an element tree of the document would peak at five to six times the
    # tracks; reading each sample from its start tag stays near them
    lines = ["<fcd-export>"]
    for k in range(100):
        lines.append(f'  <timestep time="{k * 0.1:.2f}">')
        lines += [
            f'    <vehicle id="veh{v}" x="{10.0 * v + k:.2f}" y="{v % 4 * 3.5:.2f}" speed="10.00"/>'
            for v in range(100)
        ]
        lines.append("  </timestep>")
    path = write_fixture(tmp_path, "\n".join(lines + ["</fcd-export>", ""]))
    gc.collect()
    tracemalloc.start()
    try:
        tracks = parse_fcd(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(times) for times, _ in tracks.values()) == 100 * 100
    assert peak <= 2 * held, f"parse peak {peak} B against {held} B held"


def test_trace_provider_interpolates_and_clamps(tmp_path):
    tracks = parse_fcd(write_fixture(tmp_path))
    prov = TraceProvider(tracks)
    a = prov.vehicle_ids[0]
    # ids follow the order of tracks: id 0 plays veh_a's samples
    assert list(tracks)[a] == "veh_a"
    assert [prov.position_at(a, t) for t in tracks["veh_a"][0]] == tracks["veh_a"][1]
    # exact at samples
    assert prov.position_at(a, 0) == (100.0, 0.0)
    assert prov.position_at(a, US_PER_S) == (110.0, 0.0)
    # linear halfway between samples
    assert prov.position_at(a, 500_000)[0] == pytest.approx(105.0)
    assert prov.position_at(a, 1_500_000)[0] == pytest.approx(115.0)
    # clamped outside the recorded window
    assert prov.position_at(a, 99 * US_PER_S)[0] == 120.0
    assert prov.max_drift_mps() == pytest.approx(20.0)
    x0, y0, x1, y1 = prov.bounds()
    assert (x0, y0) == (100.0, 0.0) and (x1, y1) == (440.0, 3.5)


def assert_real_position(p, x, y):
    """``p`` is ``(x, y)`` as an exact tuple of two floats, never a tuple
    subclass, and comes back from a pickle round trip as one: a parallel
    trace sweep pickles the tracks into its workers.  No output byte shows
    a subclass, only the time that unpacking and indexing it take."""
    assert type(p) is tuple and len(p) == 2
    assert type(p[0]) is float and type(p[1]) is float
    assert p == (x, y)
    back = pickle.loads(pickle.dumps(p))
    assert type(back) is tuple and back == p


def test_providers_return_real_positions(tmp_path):
    highway = SyntheticHighwayProvider(MobilitySpec(vehicle_count=20), rng=random.Random(4))
    grid = SyntheticGridProvider(
        MobilitySpec(mode="synthetic_grid", vehicle_count=20), rng=random.Random(4)
    )
    for prov in (highway, grid):
        for v in prov.vehicle_ids:
            p = prov.position_at(v, 1_234_567)
            assert_real_position(p, p[0], p[1])
    # the grid has vehicles on both street directions
    assert {grid._vehicles[v][0] for v in grid.vehicle_ids} == {False, True}

    tracks = parse_fcd(write_fixture(tmp_path))
    for times, points in tracks.values():
        for p in points:
            assert_real_position(p, p[0], p[1])
    assert tracks["veh_b"][1][1] == (420.0, 3.5)
    prov = TraceProvider(tracks)
    a = prov.vehicle_ids[0]
    for t, (x, y) in (
        (US_PER_S, (110.0, 0.0)),  # at a sample
        (500_000, (105.0, 0.0)),  # between samples
        (-1, (100.0, 0.0)),  # clamped before the first sample
        (99 * US_PER_S, (120.0, 0.0)),  # and after the last
    ):
        assert_real_position(prov.position_at(a, t), x, y)


@pytest.mark.parametrize("protocol", ["baseline", "dfcv", "hybrid_vehcloud"])
def test_a_run_keeps_every_position_an_exact_tuple(protocol):
    # a street grid among buildings, so every protocol locates vehicles for
    # range, sight, stations and fog cells
    cfg = ScenarioConfig(
        mobility=MobilitySpec(mode="synthetic_grid", grid_blocks=3, gateway_fraction=0.25),
        workload=WorkloadSpec(rate_per_s=4.0),
        obstacles=tuple(
            (i * 200.0 + 15, j * 200.0 + 15, (i + 1) * 200.0 - 15, (j + 1) * 200.0 - 15)
            for i in range(3)
            for j in range(3)
        ),
        sim_duration_s=1.0,
    )
    runtimes = []

    class Keeping(runner.Runtime):
        def setup(self):
            runtimes.append(self)
            super().setup()

    with mock.patch.object(runner, "Runtime", Keeping):
        result = runner.run_single(cfg, protocol, 30, 2)
    assert result.rows
    (rt,) = runtimes
    assert rt._pos
    for p in rt._pos.values():
        assert_real_position(p, *p)
    for s in rt.stations:
        assert_real_position(s.pos, *s.pos)
    centroid = fog._centroid(sorted(rt._pos), rt._pos)
    assert_real_position(centroid, *centroid)


def contract_providers(tmp_path):
    yield SyntheticHighwayProvider(
        MobilitySpec(vehicle_count=40, gateway_fraction=0.1), rng=random.Random(4)
    )
    yield SyntheticGridProvider(
        MobilitySpec(mode="synthetic_grid", vehicle_count=40, gateway_fraction=0.1),
        rng=random.Random(4),
    )
    yield StaticProvider([(10.0 * i, 0.0) for i in range(7)], gateways={2, 5})
    yield TraceProvider(parse_fcd(write_fixture(tmp_path)), gateway_fraction=0.5)


def test_fleet_at_is_position_at_plus_is_gateway(tmp_path):
    for prov in contract_providers(tmp_path):
        gateways = [v for v in prov.vehicle_ids if prov.is_gateway(v)]
        assert gateways, type(prov).__name__
        for t in (0, 700_000, 1_500_000, 30 * US_PER_S):
            assert prov.fleet_at(t) == [
                VehicleState(v, prov.position_at(v, t), prov.is_gateway(v))
                for v in prov.vehicle_ids
            ]
    static = StaticProvider([(10.0 * i, 0.0) for i in range(7)], gateways={2, 5})
    assert [s.is_gateway for s in static.fleet_at(0)] == [
        False, False, True, False, False, True, False
    ]


def test_build_provider_checks_trace_count(tmp_path):
    path = write_fixture(tmp_path)
    spec = MobilitySpec(mode="trace", trace_path=path, vehicle_count=2)
    prov = build_provider(spec, None)
    assert prov.vehicle_count == 2
    bad = MobilitySpec(mode="trace", trace_path=path, vehicle_count=5)
    with pytest.raises(ConfigError, match="contains 2 vehicles"):
        build_provider(bad, None)


# -- trace parser and provider against the flat-sample reference --------------
#
# Copies of parse_fcd and TraceProvider as they were before the parser built
# per-vehicle tracks: the parser returned one flat sample list and the
# provider regrouped it.  The property test below holds the current pair to
# them on random documents.


@dataclass
class RefSample:
    time_us: int
    vehicle_id: str
    x: float
    y: float


def ref_seconds_to_us(text, where):
    try:
        return to_us(text)
    except (InvalidOperation, ValueError) as exc:
        raise TraceParseError(f"{where}: bad time value {text!r}") from exc


def ref_require(node, attr, where):
    value = node.get(attr)
    if value is None:
        raise TraceParseError(
            f"{where}: {node.tag} element missing required attribute '{attr}'"
        )
    return value


def ref_float_attr(node, attr, where):
    raw = ref_require(node, attr, where)
    try:
        value = float(raw)
    except ValueError as exc:
        raise TraceParseError(f"{where}: attribute '{attr}' is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise TraceParseError(f"{where}: attribute '{attr}' is not finite: {raw!r}")
    return value


def ref_parse_fcd(path):
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise TraceParseError(f"{path}: malformed XML: {exc}") from exc
    except OSError as exc:
        raise TraceParseError(f"{path}: {exc}") from exc
    root = tree.getroot()
    if root.tag != "fcd-export":
        raise TraceParseError(
            f"{path}: root element is '{root.tag}', expected 'fcd-export'"
        )
    samples = []
    last_time = {}
    for step in root:
        if step.tag != "timestep":
            continue
        raw_time = ref_require(step, "time", path)
        time_us = ref_seconds_to_us(raw_time, path)
        where = f"{path}: timestep {raw_time}"
        for node in step:
            if node.tag != "vehicle":
                continue
            vid = ref_require(node, "id", where)
            x = ref_float_attr(node, "x", where)
            y = ref_float_attr(node, "y", where)
            ref_float_attr(node, "speed", where)
            previous = last_time.get(vid)
            if previous is not None and time_us <= previous:
                raise TraceParseError(
                    f"{where}: vehicle '{vid}' timestamp does not increase "
                    f"(previous sample at {previous}us)"
                )
            last_time[vid] = time_us
            samples.append(RefSample(time_us, vid, x, y))
    return samples


class RefTraceProvider(MobilityProvider):
    def __init__(self, samples, gateway_fraction=0.0):
        by_vehicle = {}
        for sample in samples:
            by_vehicle.setdefault(sample.vehicle_id, []).append(sample)
        if not by_vehicle:
            raise ConfigError("trace contains no vehicle samples")
        self._labels = list(by_vehicle.keys())
        self.vehicle_ids = list(range(len(self._labels)))
        self._times = []
        self._points = []
        drift = 0.0
        for label in self._labels:
            rows = by_vehicle[label]
            times = [r.time_us for r in rows]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise TraceParseError(
                    f"vehicle '{label}': sample timestamps must be strictly increasing"
                )
            points = [(r.x, r.y) for r in rows]
            self._times.append(times)
            self._points.append(points)
            for (t0, p0), (t1, p1) in zip(zip(times, points), zip(times[1:], points[1:])):
                drift = max(drift, distance(p0, p1) / ((t1 - t0) / US_PER_S))
        self._max_drift = drift
        self._n_gateways = gateway_count(len(self._labels), gateway_fraction)

    def position_at(self, vehicle_id, t_us):
        times = self._times[vehicle_id]
        points = self._points[vehicle_id]
        if t_us <= times[0]:
            return points[0]
        if t_us >= times[-1]:
            return points[-1]
        k = bisect_right(times, t_us) - 1
        if times[k] == t_us:
            return points[k]
        t0, t1 = times[k], times[k + 1]
        frac = (t_us - t0) / (t1 - t0)
        p0, p1 = points[k], points[k + 1]
        return (p0[0] + frac * (p1[0] - p0[0]), p0[1] + frac * (p1[1] - p0[1]))

    def max_drift_mps(self):
        return self._max_drift

    def bounds(self):
        xs = [p[0] for pts in self._points for p in pts]
        ys = [p[1] for pts in self._points for p in pts]
        return (min(xs), min(ys), max(xs), max(ys))


def rarely(good, bad, one_in):
    """Draws ``bad`` about once in ``one_in`` draws, ``good`` otherwise."""
    return st.sampled_from(range(one_in)).flatmap(lambda k: bad if k == one_in - 1 else good)


NUMBER_TEXT = rarely(
    st.floats(-5_000.0, 5_000.0).map(repr) | st.integers(-50, 50).map(str),
    st.sampled_from(["nan", "NaN", "inf", "-Infinity", "fast", ""]),
    one_in=100,
)


VEHICLE_IDS = ["veh_a", "veh_b", "c", "d 4", "e"]


@st.composite
def vehicle_element(draw, vid):
    attrs = {"id": vid}
    for name in ("x", "y", "speed"):
        attrs[name] = draw(NUMBER_TEXT)
    if draw(st.booleans()):
        attrs["angle"] = draw(st.sampled_from(["90.0", "nan", "left"]))  # never checked
    missing = draw(rarely(st.none(), st.sampled_from(list(attrs)), one_in=100))
    attrs.pop(missing, None)
    return "<vehicle" + "".join(f" {k}={quoteattr(v)}" for k, v in attrs.items()) + "/>"


@st.composite
def fcd_documents(draw):
    """FCD text: mostly well formed, with half-microsecond times, interleaved
    and single-sample vehicles, unknown elements and attributes, vehicles
    outside a timestep, and now and then one of the faults the parser
    reports."""
    half_us = 0  # the last timestep's time, in half microseconds
    children = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["timestep"] * 6 + ["vehicle", "meta"]))
        if kind == "vehicle":
            children.append(draw(vehicle_element(draw(st.sampled_from(VEHICLE_IDS)))))
            continue
        if kind == "meta":
            children.append('<meta source="sumo"><vehicle id="veh_a"/></meta>')
            continue
        # steps of a few half microseconds can round onto the same microsecond
        half_us += draw(rarely(st.integers(1, 3_000_000), st.integers(0, 3), one_in=6))
        time = f"{Decimal(half_us) / (2 * US_PER_S):f}"
        time = draw(rarely(st.just(time), st.sampled_from(["nan", "soon", "-inf", None]), one_in=30))
        vids = draw(st.lists(st.sampled_from(VEHICLE_IDS), unique=True, max_size=4))
        vids += draw(rarely(st.just([]), st.sampled_from(VEHICLE_IDS).map(lambda v: [v]), one_in=30))
        body = [draw(vehicle_element(vid)) for vid in vids]
        if draw(st.booleans()):
            body.insert(draw(st.integers(0, len(body))), '<person id="p" x="1" y="2"/>')
        open_tag = "<timestep" + ("" if time is None else f" time={quoteattr(time)}") + ">"
        children.append(open_tag + "".join(body) + "</timestep>")
    root = draw(rarely(st.just("fcd-export"), st.just("sumo"), one_in=30))
    text = f'<?xml version="1.0"?>\n<{root}>\n' + "\n".join(children) + f"\n</{root}>\n"
    if draw(rarely(st.just(False), st.just(True), one_in=30)):
        text = text[: draw(st.integers(0, len(text.rstrip()) - 1))]  # malformed XML
    return text


def outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(fcd_documents(), st.sampled_from([0.0, 0.3, 1.0]))
@example(FCD_FIXTURE.replace(' x="100.0"', "", 1), 0.0)  # missing attribute
@example(FCD_FIXTURE.replace('y="3.5"', 'y="north"', 1), 0.0)  # not a number
@example(FCD_FIXTURE.replace('speed="20.0"', 'speed="nan"', 1), 0.0)
@example(FCD_FIXTURE.replace('x="440.0"', 'x="-inf"', 1), 0.0)
@example(FCD_FIXTURE.replace('time="1.00"', 'time="0.0000004"'), 0.0)  # rounds onto 0 us
@example(FCD_FIXTURE.replace("fcd-export", "sumo"), 0.0)
@example(FCD_FIXTURE[:120], 0.0)  # malformed XML
@example("<fcd-export/>", 0.0)
@example(FCD_FIXTURE.replace("<fcd-export>", '<fcd-export xmlns="urn:x">'), 0.0)  # {urn:x}fcd-export
@example(FCD_FIXTURE.replace("<fcd-export>", SUMO_ROOT), 0.0)
@example(FCD_FIXTURE.replace('"veh_b"', '"veh&amp;b"'), 0.0)
@example(FCD_FIXTURE.replace('"veh_b"', '"veh&b;"', 1), 0.0)  # an undefined entity
@example(FCD_FIXTURE.replace('x="100.0"', 'x="&#49;"'), 0.0)
@example(
    FCD_FIXTURE.replace(
        "<fcd-export>",
        '<fcd-export xmlns:v="urn:v"><meta><vehicle id="m" x="nan" y="0" speed="0"/></meta>',
    )
    .replace(
        '<vehicle id="veh_a" x="100.0" y="0.0" speed="10.0"/>',
        '<vehicle id="veh_a" x="100.0" y="0.0" speed="10.0">'
        '<vehicle id="inner" x="1" y="2" speed="3"/></vehicle>',
    )
    .replace("</timestep>", '<v:vehicle id="veh_a" x="-inf" y="0" speed="0"/></timestep>', 1),
    0.0,
)  # vehicles in meta, in a vehicle, and in another namespace: all ignored
@example(
    FCD_FIXTURE.replace("<timestep", "<!-- sample --><?sumo step?><timestep")
    .replace("<vehicle", "<!-- v --><?pi?><vehicle"),
    0.0,
)
@example(
    FCD_FIXTURE.replace(
        "<fcd-export>", '<!DOCTYPE fcd-export [<!ENTITY start "100.0">]>\n<fcd-export>'
    ).replace('x="100.0"', 'x="&start;"'),
    0.0,
)
@example(FCD_FIXTURE.replace('x="100.0"', 'x="fast"', 1)[:-40], 0.0)  # malformed XML wins
@example(FCD_FIXTURE.replace("fcd-export", "sumo").replace('time="0.00"', 'time="nan"'), 0.0)
def test_parse_fcd_and_trace_provider_match_the_flat_sample_reference(tmp_path, text, fraction):
    path = str(tmp_path / "trace.xml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    samples, ref_err = outcome(ref_parse_fcd, path)
    tracks, err = outcome(parse_fcd, path)
    if ref_err is not None:
        assert err == ref_err
        return
    if not samples:
        # the reference left an empty trace to the provider, which named no file
        assert err == (TraceParseError, f"{path}: trace contains no vehicle samples")
        return
    assert err is None
    ref = RefTraceProvider(samples, fraction)
    prov = TraceProvider(tracks, fraction)
    assert prov.vehicle_ids == ref.vehicle_ids
    labels = list(tracks)
    for v, label in enumerate(labels):
        rows = [s for s in samples if s.vehicle_id == label]
        times, points = tracks[label]
        assert times == [s.time_us for s in rows]
        assert points == [(s.x, s.y) for s in rows]
        # id v plays the samples of the v-th vehicle of tracks, in both providers
        assert [prov.position_at(v, t) for t in times] == points
        assert [ref.position_at(v, t) for t in times] == points
        assert all(type(p) is tuple for p in points)
        probes = [times[0] - 1, times[-1] + 1]
        probes += times + [(a + b) // 2 for a, b in zip(times, times[1:])]
        for t in probes:
            assert prov.position_at(v, t) == ref.position_at(v, t)
        assert prov.is_gateway(v) == ref.is_gateway(v)
    assert prov.max_drift_mps() == ref.max_drift_mps()
    assert prov.bounds() == ref.bounds()


# -- neighbor index -----------------------------------------------------------

def brute_in_range(provider, center, radius, t):
    return {
        s.vehicle_id
        for s in provider.fleet_at(t)
        if distance(s.pos, center) <= radius
    }


def index_over(provider, cell_m):
    """A ``NeighborIndex`` whose rebuilds locate the fleet through ``provider``."""
    return NeighborIndex(
        provider, cell_m, lambda t: {v: provider.position_at(v, t) for v in provider.vehicle_ids}
    )


def ids(candidates):
    """The vehicle ids of ``NeighborIndex.candidates``' (vid, certain) pairs."""
    return [v for v, _ in candidates]


def test_neighbor_index_superset_random_fleets():
    rng = random.Random(88)
    for trial in range(10):
        spec = MobilitySpec(vehicle_count=120)
        prov = SyntheticHighwayProvider(spec, rng=random.Random(trial))
        index = index_over(prov, cell_m=300.0)
        for t in (0, 150_000, 400_000, 2 * US_PER_S):
            center = (rng.uniform(0, 10_000), rng.uniform(0, 3.5))
            want = brute_in_range(prov, center, 300.0, t)
            got = set(ids(index.candidates(center, 300.0, t)))
            assert want <= got, (trial, t)


def test_neighbor_index_handles_wrap_boundary():
    spec = MobilitySpec(vehicle_count=3, road_length_m=1000.0)
    # one vehicle crosses the seam right after the index snapshot
    prov = SyntheticHighwayProvider(
        spec, initial=[(995.0, 0, 30.0), (500.0, 0, 30.0), (5.0, 0, 30.0)]
    )
    index = index_over(prov, cell_m=100.0)
    index.candidates((500.0, 0.0), 50.0, 0)  # builds snapshot at t=0
    # 0.5 s later vehicle 0 sits at 10.0; a query near the seam must see it
    t = 500_000
    got = set(ids(index.candidates((20.0, 0.0), 50.0, t)))
    assert 0 in got and 2 in got
    want = brute_in_range(prov, (20.0, 0.0), 50.0, t)
    assert want <= got


def test_neighbor_index_refreshes_after_interval():
    spec = MobilitySpec(vehicle_count=1, road_length_m=10_000.0)
    prov = SyntheticHighwayProvider(spec, initial=[(0.0, 0, 25.0)])
    index = index_over(prov, cell_m=200.0)
    assert ids(index.candidates((0.0, 0.0), 100.0, 0)) == [0]
    # after 60 s the vehicle is at 1500 m; stale buckets would miss it
    t = 60 * US_PER_S
    assert 0 in ids(index.candidates((1500.0, 0.0), 100.0, t))
    assert ids(index.candidates((0.0, 0.0), 100.0, t)) == []


def test_neighbor_index_grid_wraps_both_axes():
    spec = MobilitySpec(mode="synthetic_grid", vehicle_count=2, grid_blocks=2,
                        grid_spacing_m=100.0)
    prov = SyntheticGridProvider(
        spec, initial=[("v", 0, 195.0, 1, 10.0), ("h", 2, 195.0, 1, 10.0)]
    )
    index = index_over(prov, cell_m=50.0)
    index.candidates((100.0, 100.0), 10.0, 0)
    # 1 s on: the "v" vehicle wrapped from y=195 to y=5
    got = set(ids(index.candidates((0.0, 10.0), 20.0, US_PER_S)))
    assert 0 in got


def test_neighbor_index_finds_vehicles_before_its_snapshot():
    spec = MobilitySpec(vehicle_count=1, road_length_m=10_000.0)
    prov = SyntheticHighwayProvider(spec, initial=[(1000.0, 0, 25.0)])
    index = index_over(prov, cell_m=300.0)
    index.candidates((5000.0, 0.0), 2.0, 150_000)  # builds snapshot at 150 ms
    # at t = 0 the vehicle sits exactly on the center, 3.75 m behind its snapshot
    assert ids(index.candidates((1000.0, 0.0), 2.0, 0)) == [0]


def test_edge_street_vehicles_are_certain_away_from_their_travel_seams():
    # a 1 km grid whose fleet drives the four edge streets, each vehicle at
    # least 300 m from the seams of the axis it drives along
    spec = MobilitySpec(mode="synthetic_grid", grid_blocks=5, grid_spacing_m=200.0)
    initial = [
        (orient, street, offset, sign, 15.0)
        for orient in "hv"
        for street in (0, 5)
        for offset in (300.0, 420.0, 500.0, 580.0, 700.0)
        for sign in (1, -1)
    ]
    prov = SyntheticGridProvider(spec, initial=initial)
    index = index_over(prov, cell_m=300.0)
    index.candidates((500.0, 500.0), 1.0, 0)  # the snapshot
    snap = {v: prov.position_at(v, 0) for v in prov.vehicle_ids}
    t, radius = 150_000, 250.0
    slack = 15.0 * 0.15
    for center in ((500.0, 0.0), (500.0, 1000.0),
                   (0.0, 500.0), (1000.0, 500.0)):
        got = index.candidates(center, radius, t)
        sure = [v for v in prov.vehicle_ids if distance(center, snap[v]) <= radius - slack - 1e-3]
        assert len(sure) == 10
        assert [v for v, certain in got if certain] == sure, center
        # the far edge street never wraps onto this one, so nothing from it
        assert ids(got) == [
            v for v in prov.vehicle_ids if distance(center, snap[v]) <= radius + slack
        ], center


class TorusProvider(MobilityProvider):
    """Vehicles ``(x0, y0, vx, vy)`` on straight diagonal paths across a
    square torus, so each one wraps on both axes."""

    def __init__(self, side_m, vehicles):
        self._side = side_m
        self._vehicles = list(vehicles)
        self.vehicle_ids = list(range(len(self._vehicles)))

    def position_at(self, vehicle_id, t_us):
        x0, y0, vx, vy = self._vehicles[vehicle_id]
        s = t_us / US_PER_S
        return ((x0 + vx * s) % self._side, (y0 + vy * s) % self._side)

    def max_drift_mps(self):
        return max((math.hypot(vx, vy) for _, _, vx, vy in self._vehicles), default=0.0)

    def wrap_period(self, vehicle_id):
        return (self._side, self._side)


def test_neighbor_index_finds_a_vehicle_that_crossed_a_corner():
    # vehicle 0 drives 1 m along each axis per refresh interval, the fleet's
    # top speed, so it can cross a seam within an interval from 1.41 m away;
    # its snapshot is 0.8 m from both seams
    v = 1.0 / (NeighborIndex.REFRESH_US / US_PER_S)
    prov = TorusProvider(1000.0, [(999.2, 999.2, v, v), (500.0, 500.0, 0.0, 0.0)])
    index = index_over(prov, cell_m=100.0)
    index.candidates((500.0, 500.0), 1.0, 0)  # the snapshot
    # a full interval on, it sits at (0.2, 0.2): only its diagonal image is near
    t = NeighborIndex.REFRESH_US
    assert prov.position_at(0, t) == pytest.approx((0.2, 0.2))
    assert index.candidates((0.0, 0.0), 1.0, t) == [(0, False)]


def test_a_vehicle_found_twice_keeps_the_flag_of_its_own_entry():
    # on a 20 m road a vehicle 1 m from the seam is also imaged at 21 m,
    # and a query reaches both; only its own entry can make it certain
    spec = MobilitySpec(vehicle_count=1, road_length_m=20.0)
    prov = SyntheticHighwayProvider(spec, initial=[(1.0, 0, 10.0)])
    index = index_over(prov, cell_m=50.0)
    assert index.candidates((10.0, 0.0), 12.0, 0) == [(0, True)]
    assert index.candidates((19.0, 0.0), 3.0, 0) == [(0, False)]


TORUS_COORD = st.one_of(st.floats(0.0, 12.0), st.floats(188.0, 200.0), st.floats(0.0, 200.0))


@st.composite
def torus_crossings(draw):
    """A torus fleet, a snapshot instant and a query instant within one
    refresh interval of it, where vehicle 0, the witness, crosses a seam of
    at least one axis in between; the others are drawn anywhere.

    The witness is drawn first: its velocity and the step give its move,
    and on each crossing axis its snapshot coordinate lies within that move
    of the seam it heads for.  The query centre is where it stands at the
    query instant, across the seam from its snapshot."""
    # a map wider than any query, and one narrower than the index's slack
    side = draw(st.sampled_from((200.0, 8.0)))
    built_at = draw(st.integers(0, 1_000_000))
    step = draw(st.integers(1, NeighborIndex.REFRESH_US))
    if step <= built_at and draw(st.booleans()):
        step = -step  # the query comes before the snapshot
    s = step / US_PER_S
    crossing = draw(st.sampled_from(((True, False), (False, True), (True, True))))
    coords = []
    for crosses in crossing:
        if crosses:
            v = draw(st.floats(1.0, 40.0)) * draw(st.sampled_from((1, -1)))
            move = v * s
            # a move up crosses the top seam from within ``move`` of it,
            # a move down the bottom one
            if move > 0:
                c = draw(st.floats(max(0.0, side - move), side, exclude_max=True))
            else:
                c = draw(st.floats(0.0, min(side, -move), exclude_max=True))
        else:
            v = draw(st.floats(-40.0, 40.0))
            c = draw(st.floats(0.0, side, exclude_max=True))
        # the coordinate at time 0 that puts the witness at c at the snapshot
        coords.append(((c - v * (built_at / US_PER_S)) % side, v))
    (x0, vx), (y0, vy) = coords
    others = draw(st.lists(
        st.tuples(TORUS_COORD, TORUS_COORD, st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
        max_size=19,
    ))
    radius = draw(st.one_of(st.floats(0.0, 16.0), st.floats(16.0, 120.0)))
    return side, [(x0, y0, vx, vy), *others], radius, built_at, built_at + step


def seams_crossed(vehicle, side, built_at, t):
    """The seams that ``vehicle`` of a ``TorusProvider`` crosses from its
    snapshot at ``built_at`` to ``t``: ("x" or "y", "top" or "bottom"), the
    top seam being the one it meets moving toward ``side``."""
    x0, y0, vx, vy = vehicle
    crossed = []
    for axis, c0, v in (("x", x0, vx), ("y", y0, vy)):
        before = c0 + v * (built_at / US_PER_S)
        after = c0 + v * (t / US_PER_S)
        if math.floor(before / side) != math.floor(after / side):
            crossed.append((axis, "top" if after > before else "bottom"))
    return crossed


def test_neighbor_index_misses_no_one_on_a_torus():
    crossed = Counter()

    @settings(
        max_examples=150, deadline=None, derandomize=True,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(torus_crossings())
    def check(case):
        side, vehicles, radius, built_at, t = case
        prov = TorusProvider(side, vehicles)
        index = index_over(prov, cell_m=50.0)
        index.candidates((0.0, 0.0), 1.0, built_at)  # the snapshot
        center = prov.position_at(0, t)  # where the witness landed
        got = index.candidates(center, radius, t)
        assert 0 in ids(got)
        assert brute_in_range(prov, center, radius, t) <= set(ids(got))
        for v, certain in got:
            assert not certain or distance(center, prov.position_at(v, t)) <= radius, v
        crossed.update(seams_crossed(vehicles[0], side, built_at, t))

    check()
    # the reach floor: every seam is crossed, from either side, in at least
    # 10 of the 150 examples; mend the strategy if not, never the floor
    for seam in ((a, s) for a in "xy" for s in ("top", "bottom")):
        assert crossed[seam] >= 10, crossed


def test_a_vehicle_one_float_step_beyond_the_radius_is_never_certain():
    # A static fleet has no slack.  This vehicle's squared distance rounds
    # to the squared radius, though its distance is one float step beyond
    # it; the 1e-6 margin of the certain radius leaves it to the exact check.
    p = (139.4, 130.8)
    radius = math.nextafter(distance((0.0, 0.0), p), 0.0)
    assert p[0] * p[0] + p[1] * p[1] <= radius * radius
    index = index_over(StaticProvider([p]), cell_m=300.0)
    assert index.candidates((0.0, 0.0), radius, 0) == [(0, False)]


def test_a_query_as_wide_as_a_neighbourhood_finds_an_entry_two_cell_edges_away():
    # A parked fleet has no slack, so the index files its entries in a grid
    # of reach span = 300 m plus the 1e-6 margin of its edge, and a query
    # whose reach (radius + 1e-9) is exactly that span reads one 3x3
    # neighbourhood.  The parked car is exactly one span from the center:
    # unpadded cells one span wide would put the center at -1e-20 in cell
    # -1 and the car in cell 1, outside that neighbourhood.
    span = 300.0 + 1e-6
    radius = span - 1e-9
    while radius + 1e-9 < span:
        radius = math.nextafter(radius, math.inf)
    while radius + 1e-9 > span:
        radius = math.nextafter(radius, 0.0)
    assert radius + 1e-9 == span
    index = index_over(StaticProvider([(span, 0.0)]), cell_m=300.0)
    # an entry within reach, though beyond the radius itself
    assert index.candidates((-1e-20, 0.0), radius, 0) == [(0, False)]


def test_a_grid_read_files_no_cell():
    # the cells are a defaultdict for add; a query over empty cells must not
    # file them, or every read would grow the grid
    grid = CellGrid(100.0)
    grid.add(50.0, 50.0, "a")
    grid.add(250.0, 50.0, "b")
    assert grid.near(-500.0, -500.0) == []
    assert grid.near(50.0, 50.0) == ["a"]
    assert grid.within(1_000.0, 1_000.0, 300.0) == [()] * 49
    assert [items for items in grid.within(50.0, 50.0, 250.0) if items] == [["a"], ["b"]]
    assert sorted(grid._cells) == [(0, 0), (2, 0)]


class CountingProvider(MobilityProvider):
    """Forwards to ``inner`` and logs the id of every ``position_at`` call."""

    def __init__(self, inner):
        self._inner = inner
        self.vehicle_ids = inner.vehicle_ids
        self.located = []

    def position_at(self, vehicle_id, t_us):
        self.located.append(vehicle_id)
        return self._inner.position_at(vehicle_id, t_us)

    def wrap_period(self, vehicle_id):
        return self._inner.wrap_period(vehicle_id)

    def max_drift_mps(self):
        return self._inner.max_drift_mps()


@pytest.mark.parametrize("side", (1, -1), ids=("after", "before"))
def test_neighbor_index_rebuilds_only_beyond_one_interval(side):
    spec = MobilitySpec(vehicle_count=20, road_length_m=2_000.0)
    prov = CountingProvider(SyntheticHighwayProvider(spec, rng=random.Random(5)))
    index = index_over(prov, cell_m=300.0)
    built_at = 5 * NeighborIndex.REFRESH_US
    index.candidates((0.0, 0.0), 300.0, built_at)  # the snapshot
    prov.located.clear()
    # exactly one interval away: the snapshot still answers
    t = built_at + side * NeighborIndex.REFRESH_US
    index.candidates((1_000.0, 0.0), 300.0, t)
    assert prov.located == []
    # 1 us further: the whole fleet is located again
    t += side
    got = index.candidates((1_000.0, 0.0), 300.0, t)
    assert sorted(prov.located) == prov.vehicle_ids
    assert brute_in_range(prov, (1_000.0, 0.0), 300.0, t) <= set(ids(got))


EXCLUDE_GRID = MobilitySpec(mode="synthetic_grid", grid_blocks=2, grid_spacing_m=100.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("hv"),
            st.integers(0, 2),
            # many within a second's drive of a seam of the 200 m grid
            st.one_of(st.floats(0.0, 30.0), st.floats(170.0, 200.0), st.floats(0.0, 200.0)),
            st.sampled_from((1, -1)),
            st.floats(0.0, 60.0),
        ),
        min_size=1,
        max_size=25,
    ),
    st.tuples(st.floats(-10.0, 210.0), st.floats(-10.0, 210.0)),
    st.one_of(st.floats(0.0, 16.0), st.floats(16.0, 250.0)),
    st.integers(0, 1_000_000),
    st.integers(-NeighborIndex.REFRESH_US, NeighborIndex.REFRESH_US),
    # fleet ids and ids outside the fleet
    st.sets(st.integers(-3, 28), max_size=10),
)
def test_neighbor_index_exclude_drops_only_the_excluded_ids(
    initial, center, radius, built_at, step, exclude
):
    prov = CountingProvider(SyntheticGridProvider(EXCLUDE_GRID, initial=initial))
    index = index_over(prov, cell_m=50.0)
    index.candidates((0.0, 0.0), 1.0, built_at)  # the snapshot
    assert sorted(prov.located) == prov.vehicle_ids
    center, t = tuple(center), max(0, built_at + step)
    full = index.candidates(center, radius, t)
    for skip in (exclude, exclude | {v for v, _ in full[::2]}, {v for v, _ in full}):
        prov.located.clear()
        got = index.candidates(center, radius, t, exclude=skip)
        assert got == [(v, certain) for v, certain in full if v not in skip], skip
        # the index locates only to build its snapshot: never a candidate
        assert prov.located == []


# the base cell of the cell-size property below; its maps span a few cells
CELL_M = 40.0


@st.composite
def index_fleets(draw):
    """A highway that wraps in x, a grid that wraps on both axes, or a trace
    fleet of straight tracks sampled every second, each a few CELL_M across;
    speeds include 0, so some fleets have no slack at all."""
    kind = draw(st.sampled_from(("highway", "grid", "trace")))
    n = draw(st.integers(1, 25))
    speed = st.one_of(st.just(0.0), st.floats(0.0, 40.0))
    if kind == "highway":
        initial = draw(st.lists(
            st.tuples(st.floats(0.0, 300.0, exclude_max=True), st.integers(0, 2), speed),
            min_size=n, max_size=n,
        ))
        spec = MobilitySpec(vehicle_count=n, road_length_m=300.0, lanes=3)
        return SyntheticHighwayProvider(spec, initial=initial)
    if kind == "grid":
        initial = draw(st.lists(
            st.tuples(
                st.sampled_from("hv"),
                st.integers(0, 2),
                st.floats(0.0, 200.0, exclude_max=True),
                st.sampled_from((1, -1)),
                speed,
            ),
            min_size=n, max_size=n,
        ))
        return SyntheticGridProvider(EXCLUDE_GRID, initial=initial)
    step = st.floats(-30.0, 30.0)
    tracks = {}
    for v in range(n):
        x, y = draw(st.floats(0.0, 300.0)), draw(st.floats(0.0, 200.0))
        dx, dy = draw(step), draw(step)
        times = [k * US_PER_S for k in range(4)]
        tracks[f"car{v}"] = (times, [(x + k * dx, y + k * dy) for k in range(4)])
    return TraceProvider(tracks)


# two parked cars 41.6 m apart, in cells 0 and 2 of a 40 m index: a query
# from the second, 5% wider than a cell, finds the first only in a bucket
# outside its own cell's neighbourhood
TWO_CELLS_APART = SyntheticHighwayProvider(
    MobilitySpec(vehicle_count=2, road_length_m=300.0), initial=[(39.4, 0, 0.0), (81.0, 0, 0.0)]
)


@settings(max_examples=200, deadline=None, derandomize=True)
@example(TWO_CELLS_APART, (81.0, 0.0), "beyond", 0, 0)
@given(
    index_fleets(),
    st.tuples(st.floats(-20.0, 320.0), st.floats(-20.0, 220.0)),
    # the widest radius one neighbourhood holds at any slack, the widest at
    # no slack, 5% beyond that, and anything from none to three cells
    st.one_of(st.sampled_from(("cell", "span", "beyond")), st.floats(0.0, 3.0)),
    st.integers(0, 1_000_000),
    # at the snapshot, and anywhere up to an interval before or after it
    st.one_of(st.just(0), st.integers(-NeighborIndex.REFRESH_US, NeighborIndex.REFRESH_US)),
)
def test_neighbor_index_answers_do_not_depend_on_the_cell_size(
    prov, center, radius, built_at, step
):
    # a query within a cell's reach reads one neighbourhood list, a wider one
    # scans the buckets; either way the answer is every entry within reach
    span = CELL_M + prov.max_drift_mps() * (NeighborIndex.REFRESH_US / US_PER_S)
    if isinstance(radius, str):
        radius = {"cell": CELL_M, "span": span, "beyond": 1.05 * span}[radius]
    else:
        radius *= span
    center, t = tuple(center), max(0, built_at + step)
    answers = []
    for cell_m in (CELL_M / 4, CELL_M, CELL_M * 4):
        index = index_over(prov, cell_m=cell_m)
        index.candidates((0.0, 0.0), 1.0, built_at)  # the snapshot
        answers.append(index.candidates(center, radius, t))
    assert answers[0] == answers[1] == answers[2]
    assert brute_in_range(prov, center, radius, t) <= set(ids(answers[1]))


def near_a_seam(period):
    """Coordinates in [0, period), most within 12 m of a seam."""
    return st.one_of(
        st.floats(0.0, 12.0),
        st.floats(period - 12.0, period, exclude_max=True),
        st.floats(0.0, period, exclude_max=True),
    )


@st.composite
def owner_and_image_queries(draw):
    """A narrow query on a fleet where a vehicle and its image share one
    neighbourhood: a highway shorter than three cells of a 40 m index, or a
    grid of one or two blocks, with most vehicles near a seam.  The center
    is near a seam, or halfway between a vehicle's snapshot and its image
    across the nearer seam of its wrap axis.  The radius is up to a cell,
    so the query is narrow, or up to twice the slack at the query time; the
    query is at the snapshot, near it, or up to an interval away."""
    n = draw(st.integers(1, 12))
    speed = st.one_of(st.just(0.0), st.floats(0.0, 30.0), st.floats(20.0, 30.0))
    if draw(st.booleans()):
        period = draw(st.floats(20.0, 60.0))
        spec = MobilitySpec(vehicle_count=n, road_length_m=period, lanes=2)
        initial = draw(st.lists(
            st.tuples(near_a_seam(period), st.integers(0, 1), speed), min_size=n, max_size=n
        ))
        prov = SyntheticHighwayProvider(spec, initial=initial)
    else:
        blocks = draw(st.integers(1, 2))
        spacing = draw(st.floats(20.0, 30.0))
        period = blocks * spacing
        spec = MobilitySpec(mode="synthetic_grid", grid_blocks=blocks, grid_spacing_m=spacing)
        initial = draw(st.lists(
            st.tuples(
                st.sampled_from("hv"),
                st.integers(0, blocks),
                near_a_seam(period),
                st.sampled_from((1, -1)),
                speed,
            ),
            min_size=n, max_size=n,
        ))
        prov = SyntheticGridProvider(spec, initial=initial)
    # mostly before the fleet drives far from where it was drawn
    built_at = draw(st.one_of(st.integers(0, 100_000), st.integers(0, 1_000_000)))
    if draw(st.integers(0, 3)) == 0:
        center = (draw(near_a_seam(period)), draw(near_a_seam(period)))
    else:
        v = draw(st.integers(0, n - 1))
        center = list(prov.position_at(v, built_at))
        axis = 0 if prov.wrap_period(v)[0] is not None else 1  # its one wrap axis
        center[axis] += period / 2 if center[axis] < period / 2 else -period / 2
        center = (center[0] + draw(st.floats(-5.0, 5.0)), center[1] + draw(st.floats(-5.0, 5.0)))
    step = draw(st.one_of(
        st.just(0),
        st.integers(-200_000, 200_000),
        st.integers(-NeighborIndex.REFRESH_US, NeighborIndex.REFRESH_US),
    ))
    t = max(0, built_at + step)
    slack = prov.max_drift_mps() * (abs(t - built_at) / US_PER_S)
    if draw(st.integers(0, 3)) == 0:
        radius = slack * draw(st.one_of(st.floats(0.0, 2.0), st.floats(0.98, 1.02)))
    else:
        radius = draw(st.one_of(st.floats(0.0, 40.0), st.floats(15.0, 40.0)))
    exclude = draw(st.sets(st.integers(0, n), max_size=3))
    return prov, center, radius, built_at, t, exclude


def dict_and_sort(index, center, radius, t, exclude):
    """``candidates`` by the rule a wide query keeps, over every snapshot
    entry: a dict of each vehicle's flag, true once any of its in-reach
    entries is certain, sorted by id.  Also the ids whose owner entry is
    certain while an image is within reach too."""
    slack = index._drift * (abs(t - index._built_at) / US_PER_S)
    reach = radius + slack + 1e-9
    reach2 = reach * reach
    sure = radius - slack - 1e-6
    sure2 = sure * sure if sure > 0 else -1.0
    margin = slack + 1e-6
    cx, cy = center
    found, owners_sure, images_in = {}, set(), set()
    for entries in index._grid._cells.values():
        for vid, x, y, seam in entries:
            if vid in exclude:
                continue
            dx, dy = x - cx, y - cy
            d2 = dx * dx + dy * dy
            if d2 <= reach2:
                if seam == -math.inf:
                    images_in.add(vid)
                if d2 <= sure2 and seam >= margin:
                    found[vid] = True
                    owners_sure.add(vid)
                elif vid not in found:
                    found[vid] = False
    return sorted(found.items()), owners_sure & images_in


def test_neighbor_index_merges_an_image_with_its_owner():
    # a narrow query walks its id-sorted neighbourhood and merges a vehicle's
    # image into the pair of its owner: ids, order and flags must be those of
    # the dict-and-sort rule
    merged = Counter()

    @settings(
        max_examples=300, deadline=None, derandomize=True,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(owner_and_image_queries())
    def check(case):
        prov, center, radius, built_at, t, exclude = case
        index = index_over(prov, cell_m=40.0)
        index.candidates((0.0, 0.0), 1.0, built_at)  # the snapshot
        got = index.candidates(center, radius, t, exclude=exclude)
        want, both = dict_and_sort(index, center, radius, t, exclude)
        assert index._built_at == built_at  # one snapshot answered both
        assert got == want
        merged["queries"] += 1
        merged["certain owner and image in reach"] += bool(both)

    check()
    # the reach floor: the merge decides a certain flag in at least 30 of the
    # 300 queries; mend the strategy if not, never the floor
    assert merged["certain owner and image in reach"] >= 30, merged
