"""Protocol behavior: flooding vs graph reachability, gateway selection,
cloud and fog relay latency arithmetic, late-joiner handling."""

import gc
import itertools
import math
import random
import weakref
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from vanetsim.config import ProtocolKnobs, ScenarioConfig, WorkloadSpec
from vanetsim import protocols
from vanetsim.engine import US_PER_S, Simulator, derive_stream_seed, to_us
from vanetsim.errors import ConfigError
from vanetsim.metrics import csv_text
from vanetsim.mobility import MobilitySpec, build_provider, distance
from vanetsim.protocols import (
    BaseStation,
    CloudModel,
    Message,
    StationIndex,
    nearest_station,
    obstacle_shadowing,
    select_gateways,
    PROTOCOLS,
    _HybridState,
)
from vanetsim.radio import (
    CHANNEL_LOSS,
    EMPTY_MAP,
    OUT_OF_RANGE,
    SHADOWED,
    ObstacleMap,
    RadioParams,
    line_of_sight,
    tx_time_us,
)
from vanetsim.runner import Runtime, place_stations, run_single

from reference import closed_pairs, hop_delay_us, spy_addresses, unshared_regions
from static_fleet import StaticProvider


# -- fixture plumbing ---------------------------------------------------------

def write_trace(tmp_path, tracks, name="fixture.xml"):
    """tracks: [(label, [(t_s, x, y), ...])]; one sample pins a vehicle."""
    times = sorted({t for _, pts in tracks for t, _, _ in pts})
    lines = ["<fcd-export>"]
    for t in times:
        lines.append(f'  <timestep time="{t}">')
        for label, pts in tracks:
            for pt, x, y in pts:
                if pt == t:
                    lines.append(
                        f'    <vehicle id="{label}" x="{x}" y="{y}" speed="0"/>'
                    )
        lines.append("  </timestep>")
    lines.append("</fcd-export>")
    fp = tmp_path / name
    fp.write_text("\n".join(lines) + "\n")
    return str(fp)


def static_trace(tmp_path, positions, name="fixture.xml"):
    tracks = [(f"v{i}", [(0, x, y)]) for i, (x, y) in enumerate(positions)]
    return write_trace(tmp_path, tracks, name)


def scenario(trace_path, n, targets=None, *, rects=(), gateway_fraction=0.0,
             radio_kw=None, knobs_kw=None, cloud=None, seconds=1.0):
    radio_kw = dict(radio_kw or {})
    radio_kw.setdefault("base_loss", 0.0)
    radio_kw.setdefault("loss_slope", 0.0)
    radio_kw.setdefault("max_backoff_us", 0)
    knobs_kw = dict(knobs_kw or {})
    knobs_kw.setdefault("beacon_interval_s", 0.0)
    workload = WorkloadSpec(rate_per_s=1.0 / seconds, explicit_targets=tuple(targets or ()))
    return ScenarioConfig(
        mobility=MobilitySpec(
            mode="trace",
            trace_path=trace_path,
            vehicle_count=n,
            gateway_fraction=gateway_fraction,
        ),
        radio=RadioParams(**radio_kw),
        cloud=cloud or CloudModel(),
        workload=workload,
        knobs=ProtocolKnobs(**knobs_kw),
        obstacles=tuple(rects),
        sim_duration_s=seconds,
    )


def seed_with_src(n, want, stream="workload", limit=500):
    for seed in range(1, limit):
        if random.Random(derive_stream_seed(seed, stream)).randrange(n) == want:
            return seed
    raise AssertionError("no seed found")


# -- pure helpers -------------------------------------------------------------

def test_nearest_station_by_distance_then_id():
    stations = [BaseStation(0, (0, 0)), BaseStation(1, (100, 0))]
    assert nearest_station(stations, (30, 0)).station_id == 0
    assert nearest_station(stations, (80, 0)).station_id == 1
    assert nearest_station(stations, (50, 0)).station_id == 0  # tie
    with pytest.raises(ValueError):
        nearest_station([], (0, 0))


def covering_by_scan(stations, pos, coverage_m):
    # the reference: the nearest station by (distance, id), kept only when
    # it is within coverage
    bs = nearest_station(stations, pos)
    return bs if distance(bs.pos, pos) <= coverage_m else None


# origins far out, where floor(x / cell) rounds the coarsest
BIG = (-3.5e6, 2.5e5, 4e9)


@st.composite
def station_scenes(draw):
    """(stations, coverage, query points) from every placement rule."""
    coverage = draw(st.sampled_from((1000.0, 250.0, 1.0)) | st.floats(0.5, 3000.0))
    cell = coverage * (1.0 + 1e-6)
    spacing = draw(st.sampled_from((2.0, 1.0, 0.7)).map(lambda f: f * coverage))
    knobs = ProtocolKnobs(bs_spacing_m=spacing, bs_coverage_m=coverage)
    layout = draw(st.sampled_from(("highway", "grid", "trace", "single")))
    if layout == "highway":
        spec = MobilitySpec(road_length_m=draw(st.floats(1.0, 25.0 * spacing)))
        stations = place_stations(spec, None, knobs)
    elif layout == "grid":
        spec = MobilitySpec(
            mode="synthetic_grid",
            grid_blocks=draw(st.integers(1, 8)),
            # at least 1 m, unless twice the spacing is less
            grid_spacing_m=draw(
                st.sampled_from((spacing / 2, spacing / 3))
                | st.floats(min(1.0, 2.0 * spacing), 2.0 * spacing)
            ),
        )
        stations = place_stations(spec, None, knobs)
    else:
        origin = st.sampled_from((0.0, -1.5 * coverage) + BIG) | st.floats(-10.0 * coverage, 10.0 * coverage)
        x0, y0 = draw(origin), draw(origin)
        if layout == "single":
            w = h = 0.0
        else:
            w = draw(st.sampled_from((0.0, spacing)) | st.floats(0.0, 8.0 * spacing))
            h = draw(st.sampled_from((0.0, spacing)) | st.floats(0.0, 8.0 * spacing))
        spec = MobilitySpec(mode="trace", trace_path="unused.xml")
        provider = StaticProvider([(x0, y0), (x0 + w, y0 + h)])
        stations = place_stations(spec, provider, knobs)
    points = []
    for _ in range(draw(st.integers(1, 12))):
        a = draw(st.sampled_from(stations))
        b = draw(st.sampled_from(stations))
        kind = draw(st.sampled_from(("tie", "rim", "cell", "near")))
        if kind == "tie":
            # on the bisector of two stations in a row or a column: equal
            # distances, so the lower id must win
            mid = ((a.pos[0] + b.pos[0]) / 2, (a.pos[1] + b.pos[1]) / 2)
            off = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(-1.5, 1.5)) * coverage
            points += [mid, (mid[0], mid[1] + off), (mid[0] + off, mid[1])]
        elif kind == "rim":
            # exactly at the coverage along an axis, and one float either side
            dx, dy = draw(st.sampled_from(((1, 0), (-1, 0), (0, 1), (0, -1))))
            for r in (coverage, math.nextafter(coverage, 0.0), math.nextafter(coverage, math.inf)):
                points.append((a.pos[0] + dx * r, a.pos[1] + dy * r))
        elif kind == "cell":
            # on a multiple of the cell side and just below it
            k = math.floor(a.pos[0] / cell) + draw(st.integers(-2, 2))
            j = math.floor(a.pos[1] / cell) + draw(st.integers(-2, 2))
            for x in (k * cell, math.nextafter(k * cell, -math.inf)):
                for y in (j * cell, math.nextafter(j * cell, -math.inf), a.pos[1]):
                    points.append((x, y))
        else:
            reach = 3.0 * coverage
            dx, dy = draw(st.floats(-reach, reach)), draw(st.floats(-reach, reach))
            points.append((a.pos[0] + dx, a.pos[1] + dy))
    return stations, coverage, points


def two_station_tie():
    stations = [BaseStation(0, (1000.0, 0.0)), BaseStation(1, (3000.0, 0.0))]
    return stations, 1000.0, [(2000.0, 0.0), (2000.0, 1.0), (2000.0, -1e-9)]


def at_the_rim(coverage):
    s = BaseStation(0, (-7.0 * coverage, 3.0 * coverage))
    return [s], coverage, [
        (s.pos[0] + r, s.pos[1])
        for r in (coverage, math.nextafter(coverage, 0.0), math.nextafter(coverage, math.inf))
    ]


def at_a_sure_radius():
    # stations 600 m apart under 1 km coverage: station 0's sure radius is
    # half the gap less 1e-6; points at it and one float step either side,
    # along the axis toward station 1 and away from it
    stations = [BaseStation(0, (0.0, 0.0)), BaseStation(1, (600.0, 0.0))]
    r = 300.0 - 1e-6
    steps = (r, math.nextafter(r, 0.0), math.nextafter(r, math.inf))
    return stations, 1000.0, [(x, 0.0) for x in steps] + [(-x, 0.0) for x in steps]


def two_stations_at_one_spot():
    # a zero gap: neither station's disc holds any point, so the scan's tie
    # to the lower id decides, also at the stations themselves
    stations = [BaseStation(0, (250.0, -40.0)), BaseStation(1, (250.0, -40.0))]
    return stations, 100.0, [(250.0, -40.0), (250.0, 10.0), (350.0, -40.0)]


def a_lone_station():
    # no other station within twice the coverage: the disc is the coverage
    # itself, so it answers up to the rim and the scan beyond it
    s = BaseStation(0, (0.0, 0.0))
    coverage = 250.0
    rims = (coverage, math.nextafter(coverage, 0.0), math.nextafter(coverage, math.inf))
    return [s], coverage, [s.pos] + [(0.0, sign * r) for r in rims for sign in (1, -1)]


def the_midpoint_of_two_stations():
    # stations much closer than their coverage: the midpoint ties, so it
    # belongs to station 0 even when station 1 is the guess
    stations = [BaseStation(0, (0.0, 0.0)), BaseStation(1, (600.0, 0.0))]
    return stations, 1000.0, [(300.0, 0.0)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(station_scenes())
@example(two_station_tie())
@example(at_the_rim(1000.0))
@example(at_the_rim(1.0))
@example(at_a_sure_radius())
@example(two_stations_at_one_spot())
@example(a_lone_station())
@example(the_midpoint_of_two_stations())
def test_station_index_matches_the_linear_scan(scene):
    stations, coverage, points = scene
    index = StationIndex(stations, coverage)
    cfg = ScenarioConfig(knobs=ProtocolKnobs(bs_coverage_m=coverage))
    provider = StaticProvider([(0.0, 0.0)])
    rt = Runtime(Simulator(), cfg, provider, EMPTY_MAP, stations, "dfcv")
    for p in points:
        want = covering_by_scan(stations, p, coverage)
        # a guess only saves the scan: with none, and with every station
        for guess in (None, *stations):
            assert index.covering(p, guess) == want, guess
        # the true nearest station, also when none covers the point
        assert rt.nearest_station(p) == nearest_station(stations, p)


def test_obstacle_shadowing_binary():
    m = ObstacleMap([(40, -10, 60, 10)])
    assert obstacle_shadowing((0, 0), (100, 0), m) == 1
    assert obstacle_shadowing((0, 20), (100, 20), m) == 0
    assert obstacle_shadowing((0, 0), (100, 0), EMPTY_MAP) == 0


def test_message_is_frozen_with_target_set():
    msg = Message(1, 0, 0, (3, 4, 5))
    assert msg.ttl_hops == 8
    # a NamedTuple refuses it with AttributeError, the base of FrozenInstanceError
    with pytest.raises(AttributeError):
        msg.src = 9


# -- gateway selection --------------------------------------------------------

def test_select_gateways_overlapping_coverage_example():
    # coverage sets {a,b}, {b,c}, {c}: greedy takes the pair, then the
    # smaller-id one-vehicle gateway; nothing is left for a third pick
    a, b, c = 10, 11, 12
    positions = {
        a: (0, 0),
        b: (400, 0),
        c: (800, 0),
        1: (200, 0),
        2: (600, 0),
        3: (850, 0),
    }
    chosen, covers = select_gateways(
        [a, b, c], [1, 2, 3], positions, RadioParams(), EMPTY_MAP, k_max=4
    )
    assert covers == {1: [a, b], 2: [b, c], 3: [c]}
    assert chosen == [1, 2]


def test_select_gateways_tie_prefers_smaller_id():
    positions = {7: (0, 0), 9: (10, 0), 5: (10, 1)}
    chosen, _ = select_gateways([7], [9, 5], positions, RadioParams(), EMPTY_MAP, k_max=4)
    assert chosen == [5]


def test_select_gateways_respects_k_max_and_zero_gain_stop():
    positions = {
        0: (0, 0),
        1: (1000, 0),
        10: (50, 0),
        11: (950, 0),
        12: (5000, 0),  # covers nobody
    }
    chosen, covers = select_gateways(
        [0, 1], [10, 11, 12], positions, RadioParams(), EMPTY_MAP, k_max=1
    )
    assert len(chosen) == 1
    assert covers[12] == []
    none_chosen, _ = select_gateways(
        [0], [12], positions, RadioParams(), EMPTY_MAP, k_max=4
    )
    assert none_chosen == []


def test_select_gateways_sight_blocked_does_not_cover():
    m = ObstacleMap([(40, -10, 60, 10)])
    positions = {0: (0, 0), 10: (100, 0)}
    chosen, covers = select_gateways([0], [10], positions, RadioParams(), m, k_max=4)
    assert covers[10] == [] and chosen == []


def brute_force_best_coverage(shadowed, covers, k_max):
    best = 0
    ids = list(covers)
    for r in range(0, min(k_max, len(ids)) + 1):
        for combo in itertools.combinations(ids, r):
            covered = set()
            for g in combo:
                covered.update(covers[g])
            best = max(best, len(covered))
    return best


def test_select_gateways_greedy_near_optimal():
    rng = random.Random(271828)
    for _ in range(40):
        n_shadowed = rng.randrange(1, 12)
        n_gw = rng.randrange(1, 8)
        shadowed = list(range(100, 100 + n_shadowed))
        gws = list(range(1, 1 + n_gw))
        positions = {
            v: (rng.uniform(0, 1200), rng.uniform(0, 600))
            for v in shadowed + gws
        }
        k_max = rng.randrange(1, 5)
        chosen, covers = select_gateways(
            shadowed, gws, positions, RadioParams(), EMPTY_MAP, k_max
        )
        covered = set()
        for g in chosen:
            covered.update(covers[g])
        optimal = brute_force_best_coverage(shadowed, covers, k_max)
        assert len(covered) <= optimal
        # 1 - 1/e bound, and greedy is exact for the sizes k_max=1 hits
        assert len(covered) >= 0.63 * optimal


def all_pairs_select_gateways(shadowed, gateway_ids, positions, params, obstacles, k_max):
    # the reference: every (gateway, shadowed vehicle) pair against the full
    # map, then eager greedy rescoring every gateway for every pick
    covers = {}
    for g in sorted(gateway_ids):
        gpos = positions[g]
        covers[g] = sorted(
            v
            for v in shadowed
            if v != g
            and distance(gpos, positions[v]) <= params.range_m
            and line_of_sight(gpos, positions[v], obstacles)
        )
    chosen = []
    uncovered = set(shadowed)
    while uncovered and len(chosen) < k_max:
        best_id = -1
        best_gain = 0
        for g in sorted(covers):
            if g in chosen:
                continue
            gain = sum(1 for v in covers[g] if v in uncovered)
            if gain > best_gain:
                best_id, best_gain = g, gain
        if best_gain == 0:
            break
        chosen.append(best_id)
        uncovered.difference_update(covers[best_id])
    return chosen, covers


def grid_blocks(blocks=5, spacing=200.0, inset=15.0):
    """The obstacle layout of the acceptance test among buildings."""
    return ObstacleMap(
        [
            (i * spacing + inset, j * spacing + inset, (i + 1) * spacing - inset, (j + 1) * spacing - inset)
            for i in range(blocks)
            for j in range(blocks)
        ]
    )


# tenths of the range: 10 is exactly the range along an axis, (6, 8) exactly
# the range on a diagonal for the ranges below, 5 the middle of a cell
LATTICE = (-20, -10, -8, -6, -5, 0, 5, 6, 8, 10, 20)


@st.composite
def gateway_scenes(draw):
    range_m = draw(st.sampled_from((300.0, 120.0, 1.0)))
    cell = range_m * (1.0 + 1e-6)
    k = draw(st.integers(-3, 3))
    anchors = st.one_of(
        st.sampled_from(
            (
                0.0,
                -1e-20,
                k * range_m,
                math.nextafter(k * range_m, -math.inf),
                k * cell,
                math.nextafter(k * cell, -math.inf),
                -1e3 - 0.5,
                1e5,
                1e5 - range_m / 3,
            )
        ),
        st.floats(0.0, 1000.0),
        st.floats(-2e3, 2e3),
    )
    offsets = st.one_of(
        st.sampled_from(LATTICE).map(lambda h: range_m * h / 10),
        st.floats(-2.5 * range_m, 2.5 * range_m),
    )
    # one step exactly the range along an axis, from a point on one of
    # the anchors above, is where an unpadded cell loses a pair to rounding
    axis_steps = st.sampled_from(((range_m, 0.0), (-range_m, 0.0), (0.0, range_m), (0.0, -range_m)))
    points = [(draw(anchors), draw(anchors))]
    for _ in range(draw(st.integers(1, 14))):
        base = draw(st.sampled_from(points))  # (0, 0) offsets make coincident points
        dx, dy = draw(st.one_of(axis_steps, st.tuples(offsets, offsets)))
        points.append((base[0] + dx, base[1] + dy))
    ids = draw(st.permutations(range(len(points))))
    positions = dict(zip(ids, points))
    gateways = draw(st.lists(st.sampled_from(ids), unique=True))
    shadowed = sorted(draw(st.lists(st.sampled_from(ids), unique=True)))  # may hold gateways
    kind = draw(st.sampled_from(("none", "blocks", "random")))
    if kind == "none":
        obstacles = EMPTY_MAP
    elif kind == "blocks":
        obstacles = grid_blocks()
    else:
        rects = []
        for _ in range(draw(st.integers(1, 6))):
            base = draw(st.sampled_from(points))
            xs = sorted({base[0] + draw(offsets) for _ in range(2)})
            ys = sorted({base[1] + draw(offsets) for _ in range(2)})
            if len(xs) == 2 and len(ys) == 2 and xs[0] < xs[1] and ys[0] < ys[1]:
                rects.append((xs[0], ys[0], xs[1], ys[1]))
        obstacles = ObstacleMap(rects)
    k_max = draw(st.integers(1, len(points) + 1))
    return shadowed, gateways, positions, RadioParams(range_m=range_m), obstacles, k_max


def rounding_edge_pair(x):
    """A gateway at ``x`` and a shadowed vehicle exactly the range (300 m)
    further along, where x / 300 and (x + 300) / 300 floor two apart."""
    positions = {1: (x, 0.0), 2: (x + 300.0, 0.0)}
    return [2], [1], positions, RadioParams(range_m=300.0), EMPTY_MAP, 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gateway_scenes())
@example(rounding_edge_pair(-1e-20))
@example(rounding_edge_pair(math.nextafter(900.0, -math.inf)))
def test_select_gateways_matches_the_all_pairs_scan(scene):
    chosen, covers = select_gateways(*scene)
    want_chosen, want_covers = all_pairs_select_gateways(*scene)
    assert chosen == want_chosen
    assert list(covers.items()) == list(want_covers.items())


# -- baseline flood -----------------------------------------------------------

def flood_component(positions, src, params, obstacles):
    """BFS over the static (in-range and in-sight) adjacency."""
    ids = list(range(len(positions)))
    frontier = [src]
    seen = {src}
    while frontier:
        nxt = []
        for u in frontier:
            for v in ids:
                if v in seen:
                    continue
                if distance(positions[u], positions[v]) > params.range_m:
                    continue
                if not line_of_sight(positions[u], positions[v], obstacles):
                    continue
                seen.add(v)
                nxt.append(v)
        frontier = nxt
    return seen


def test_flood_chain_delivers_hop_by_hop(tmp_path):
    positions = [(0.0, 0.0), (250.0, 0.0), (500.0, 0.0), (750.0, 0.0)]
    cfg = scenario(static_trace(tmp_path, positions), 4, targets=range(4))
    seed = seed_with_src(4, 0)
    res = run_single(cfg, "baseline", 4, seed)
    assert res.summary.n_delivered == 3 and res.summary.n_lost == 0
    per_hop = hop_delay_us(cfg.radio, 250.0)
    assert per_hop == 1025
    by_dst = {r.dst: r for r in res.records}
    for dst in (1, 2, 3):
        r = by_dst[dst]
        assert r.hop_count == dst
        assert r.recv_us - r.sent_us == per_hop * dst


def test_flood_ttl_cuts_the_chain(tmp_path):
    positions = [(0.0, 0.0), (250.0, 0.0), (500.0, 0.0), (750.0, 0.0)]
    cfg = scenario(
        static_trace(tmp_path, positions), 4, targets=range(4),
        knobs_kw={"ttl_hops": 1},
    )
    res = run_single(cfg, "baseline", 4, seed_with_src(4, 0))
    by_dst = {r.dst: r for r in res.records}
    assert by_dst[1].delivered
    assert not by_dst[2].delivered and not by_dst[3].delivered
    assert by_dst[3].loss_cause == OUT_OF_RANGE


def test_flood_isolated_pair_loses_everything(tmp_path):
    cfg = scenario(static_trace(tmp_path, [(0.0, 0.0), (5000.0, 0.0)]), 2,
                   targets=range(2))
    res = run_single(cfg, "baseline", 2, seed=1)
    assert res.summary.n_delivered == 0
    assert res.summary.plr == 1.0
    assert res.records[0].loss_cause == OUT_OF_RANGE


def test_flood_delivered_set_matches_reachability_oracle(tmp_path):
    params = RadioParams(base_loss=0.0, loss_slope=0.0, max_backoff_us=0)
    for trial in range(40):
        rng = random.Random(trial)
        n = rng.randrange(2, 30)
        positions = [
            (rng.uniform(0, 1500), rng.uniform(0, 600)) for _ in range(n)
        ]
        rects = []
        if trial % 2:
            for _ in range(rng.randrange(1, 4)):
                x0 = rng.uniform(0, 1400)
                y0 = rng.uniform(0, 500)
                rects.append((x0, y0, x0 + rng.uniform(20, 220), y0 + rng.uniform(20, 160)))
        cfg = scenario(
            static_trace(tmp_path, positions, name=f"t{trial}.xml"),
            n,
            targets=range(n),
            rects=rects,
            knobs_kw={"ttl_hops": 64},
        )
        res = run_single(cfg, "baseline", n, seed=trial + 1)
        src = res.records[0].src
        want = flood_component(
            [(x, y) for x, y in positions], src, params, cfg.load_obstacles()
        )
        got = {r.dst for r in res.records if r.delivered} | {src}
        assert got == want, f"trial {trial}: src {src}"


def test_flood_never_rebroadcasts_twice(tmp_path):
    rng = random.Random(5)
    positions = [(rng.uniform(0, 800), rng.uniform(0, 400)) for _ in range(20)]
    cfg = scenario(static_trace(tmp_path, positions), 20, targets=range(20),
                   knobs_kw={"ttl_hops": 64})
    res = run_single(cfg, "baseline", 20, seed=2, capture_log=True)
    fired = [line.split("\t")[3] for line in res.log if "\ttx msg=" in line]
    pairs = [tuple(tok.split("=")[1] for tok in f.split()[1:3]) for f in fired]
    assert len(pairs) == len(set(pairs))


def test_a_flood_keeps_nothing_per_message(tmp_path):
    # the flood jobs of a message share its visited set, which goes with
    # the message's last job instead of staying in the protocol
    rng = random.Random(5)
    positions = [(rng.uniform(0, 800), rng.uniform(0, 400)) for _ in range(20)]
    cfg = scenario(static_trace(tmp_path, positions), 20, targets=range(20),
                   knobs_kw={"ttl_hops": 64})
    sim = Simulator(seed=2)
    provider = build_provider(cfg.mobility, sim.rng("mobility"))
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    rt = Runtime(sim, cfg, provider, cfg.load_obstacles(), stations, "baseline")
    rt.setup()
    sim.run(until=rt.end_us)
    msg_ids = {row[0] for row in rt.rows}
    assert msg_ids and any(row[4] is not None for row in rt.rows)
    keyed = [
        name for name, value in vars(rt.protocol).items()
        if isinstance(value, dict) and msg_ids & value.keys()
    ]
    assert keyed == []


def test_flood_respects_route_setup_delay(tmp_path):
    positions = [(0.0, 0.0), (100.0, 0.0)]
    cfg = scenario(static_trace(tmp_path, positions), 2, targets=range(2),
                   knobs_kw={"route_setup_delay_us": 40_000})
    res = run_single(cfg, "baseline", 2, seed_with_src(2, 0))
    r = res.records[0]
    assert r.delivered
    assert r.recv_us - r.sent_us == 40_000 + hop_delay_us(cfg.radio, 100.0)


# -- hybrid -------------------------------------------------------------------

def hybrid_fixture(tmp_path):
    # gw first so the single gateway slot lands on it; a decoy stretches
    # the bounding box so the station sits at (200, 200)
    tracks = [
        ("gw", [(0, 200.0, 0.0)]),
        ("src", [(0, 0.0, 0.0)]),
        ("tgt", [(0, 400.0, 0.0)]),
        ("decoy", [(0, 200.0, 400.0)]),
    ]
    return write_trace(tmp_path, tracks)


def test_hybrid_shadowed_target_rides_the_cloud(tmp_path):
    # station at (200,200); a slab blocks its sight of tgt but not the
    # street-level gateway hop
    rects = [(290.0, 90.0, 310.0, 110.0)]
    cfg = scenario(hybrid_fixture(tmp_path), 4, targets=[2],
                   rects=rects, gateway_fraction=0.25)
    res = run_single(cfg, "hybrid_vehcloud", 4, seed_with_src(4, 1), capture_log=True)
    r, = res.records
    assert r.delivered and r.hop_count == 2
    hop = hop_delay_us(cfg.radio, 200.0)
    want = (
        hop                          # src -> uplink gateway
        + cfg.cloud.uplink_us
        + cfg.cloud.processing_us
        + cfg.cloud.downlink_us
        + cfg.knobs.gateway_access_us
        + hop                        # gateway -> shadowed target
    )
    assert r.recv_us - r.sent_us == want
    assert any("uplink=gw:0" in line for line in res.log)


def test_hybrid_line_of_sight_target_goes_direct(tmp_path):
    cfg = scenario(hybrid_fixture(tmp_path), 4, targets=[0])
    res = run_single(cfg, "hybrid_vehcloud", 4, seed_with_src(4, 1))
    r, = res.records
    assert r.delivered and r.hop_count == 1
    assert r.recv_us - r.sent_us == hop_delay_us(cfg.radio, 200.0)


def test_hybrid_uncovered_shadowed_target_is_lost_as_shadowed(tmp_path):
    # no gateways at all: uplink falls back to the station, but nothing
    # can reach the shadowed vehicle
    rects = [(290.0, 90.0, 310.0, 110.0)]
    cfg = scenario(hybrid_fixture(tmp_path), 4, targets=[2], rects=rects)
    res = run_single(cfg, "hybrid_vehcloud", 4, seed_with_src(4, 1), capture_log=True)
    r, = res.records
    assert not r.delivered and r.loss_cause == SHADOWED
    assert any("uplink=bs" in line for line in res.log)


def test_hybrid_out_of_range_clear_target_is_final(tmp_path):
    # tgt has line of sight to the station but sits beyond radio range
    # of the sender: the direct broadcast is its only chance
    tracks = [
        ("src", [(0, 0.0, 0.0)]),
        ("tgt", [(0, 400.0, 0.0)]),
    ]
    cfg = scenario(write_trace(tmp_path, tracks), 2, targets=[1])
    res = run_single(cfg, "hybrid_vehcloud", 2, seed_with_src(2, 0))
    r, = res.records
    assert r.loss_cause == OUT_OF_RANGE


def test_hybrid_no_neighbors_sends_nothing(tmp_path):
    tracks = [("src", [(0, 0.0, 0.0)]), ("far", [(0, 9000.0, 0.0)])]
    cfg = scenario(write_trace(tmp_path, tracks), 2)
    res = run_single(cfg, "hybrid_vehcloud", 2, seed=3, capture_log=True)
    assert res.summary.n_sent == 0
    assert any("n=0 no nearby vehicles" in line for line in res.log)


def test_hybrid_empty_map_equals_one_hop_broadcast(tmp_path):
    params = RadioParams(base_loss=0.0, loss_slope=0.0, max_backoff_us=0)
    for trial in range(12):
        rng = random.Random(100 + trial)
        n = rng.randrange(2, 25)
        positions = [(rng.uniform(0, 900), rng.uniform(0, 400)) for _ in range(n)]
        cfg = scenario(
            static_trace(tmp_path, positions, name=f"h{trial}.xml"),
            n, targets=range(n),
        )
        res = run_single(cfg, "hybrid_vehcloud", n, seed=trial + 1)
        src = res.records[0].src
        got = {r.dst for r in res.records if r.delivered}
        want = {
            v
            for v in range(n)
            if v != src
            and distance(tuple(positions[src]), tuple(positions[v]))
            <= params.range_m
        }
        assert got == want, f"trial {trial}"


def test_hybrid_newcomer_gets_one_shot_inside_window(tmp_path):
    # mover1 jumps into the region before the window closes; mover2 after.
    tracks = [
        ("src", [(0, 0.0, 0.0), (20, 0.0, 0.0)]),
        ("companion", [(0, 100.0, 0.0), (20, 100.0, 0.0)]),
        ("mover1", [(0, 2500.0, 0.0), (2.5, 2500.0, 0.0), (3, 150.0, 0.0), (20, 150.0, 0.0)]),
        ("mover2", [(0, 2500.0, 10.0), (7.5, 2500.0, 10.0), (8, 160.0, 0.0), (20, 160.0, 0.0)]),
        ("parked", [(0, 4000.0, 0.0), (20, 4000.0, 0.0)]),
    ]
    cfg = scenario(write_trace(tmp_path, tracks), 5, seconds=1.0,
                   knobs_kw={"window_s": 5.0, "mobility_tick_s": 1.0, "drain_s": 9.0})
    res = run_single(cfg, "hybrid_vehcloud", 5, seed_with_src(5, 0), capture_log=True)
    # addressed set was frozen at inject: only the companion is a target
    assert {r.dst for r in res.records} == {1}
    assert res.records[0].delivered
    newcomer_lines = [l for l in res.log if "purpose=newcomer" in l]
    assert len(newcomer_lines) == 1
    assert "ok=1" in newcomer_lines[0]
    # the window closed at 6 s; mover2's 8 s arrival stays silent
    assert int(newcomer_lines[0].split("\t")[0]) <= 6_000_000


def test_hybrid_window_rounds_to_the_nearest_microsecond(tmp_path):
    # truncating 1.001 s would end the window at 1_000_999 us
    cfg = scenario(static_trace(tmp_path, [(0, 0), (100, 0)]), 2, knobs_kw={"window_s": 1.001})
    sim = Simulator(seed=1)
    provider = build_provider(cfg.mobility, sim.rng("mobility"))
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    rt = Runtime(sim, cfg, provider, EMPTY_MAP, stations, "hybrid_vehcloud")
    t = 250_000
    rt.protocol.on_inject(Message(1, 0, t, (1,)), t)
    assert rt.protocol._windows[0].window_end == t + 1_001_000


def test_hybrid_broadcast_after_a_closed_window_completes():
    # A zero window with 1 ms ticks: the window has closed before most
    # direct broadcasts fire.  Each message's record lives for the whole
    # run, so every one runs and every addressed pair ends with one record.
    cfg = ScenarioConfig(
        mobility=MobilitySpec(road_length_m=2_000.0, vehicle_count=40),
        workload=WorkloadSpec(rate_per_s=3.0),
        knobs=ProtocolKnobs(window_s=0.0, mobility_tick_s=0.001),
        sim_duration_s=1.0,
    )
    sim = Simulator(seed=1)
    provider = build_provider(cfg.mobility, sim.rng("mobility"))
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    rt = Runtime(sim, cfg, provider, EMPTY_MAP, stations, "hybrid_vehcloud")
    rt.setup()
    with spy_addresses() as addressed:
        sim.run(rt.end_us)
    assert addressed and set(closed_pairs(rt)) == addressed and rt.opened == len(addressed)


def test_hybrid_gateway_miss_after_the_window_keeps_its_noted_cause(tmp_path):
    # The window closes at injection and a tick passes before the gateway
    # drop arrives.  The shadowed target's only chance is lost to the
    # channel: the miss is noted there, and the accounting sweep at the end
    # of the run records it as channel_loss, not as out_of_range.
    tracks = [
        ("gw", [(0, 700.0, 0.0)]),      # out of the sender's range: station uplink
        ("src", [(0, 0.0, 0.0)]),
        ("tgt", [(0, 600.0, 0.0)]),     # in the gateway's range and sight
        ("decoy", [(0, 350.0, 400.0)]), # puts the station at (350, 200)
    ]
    rects = [(465.0, 90.0, 485.0, 110.0)]  # shadows tgt from the station
    cfg = scenario(write_trace(tmp_path, tracks), 4, targets=[2], rects=rects,
                   gateway_fraction=0.25, radio_kw={"base_loss": 1.0},
                   knobs_kw={"window_s": 0.0, "mobility_tick_s": 0.01})
    res = run_single(cfg, "hybrid_vehcloud", 4, seed_with_src(4, 1), capture_log=True)
    r, = res.records
    assert r.loss_cause == CHANNEL_LOSS
    assert any("purpose=gateway ok=0" in l for l in res.log)
    line, = [l for l in res.log if "rec=1:2:" in l]
    kind, summary = line.split("\t")[2:]
    assert kind == "SimEnd" and summary.endswith("rec=1:2:channel_loss")


def test_hybrid_late_joiner_lost_to_the_channel_keeps_its_cause():
    # Vehicle 10 is addressed but out of message 3's region at inject, so it
    # is a late joiner.  Its first re-delivery reaches another late joiner;
    # the one sent to it at 3,771,494 us is lost to the channel.  The miss is
    # noted, so the accounting sweep records channel_loss, not out_of_range.
    cfg = ScenarioConfig(
        mobility=MobilitySpec(road_length_m=2_000.0, vehicle_count=20),
        workload=WorkloadSpec(
            rate_per_s=2.0,
            explicit_targets=(0, 1, 4, 5, 7, 8, 9, 10, 14, 16, 17, 19),
        ),
        knobs=ProtocolKnobs(mobility_tick_s=0.01, bs_coverage_m=300.0, bs_spacing_m=600.0),
        sim_duration_s=2.0,
    )
    res = run_single(cfg, "hybrid_vehcloud", 20, seed=9, capture_log=True)
    r, = [r for r in res.records if (r.msg_id, r.dst) == (3, 10)]
    assert r.loss_cause == CHANNEL_LOSS
    assert any(
        l.startswith("3771494\t") and "tx msg=3 from=2 purpose=newcomer ok=0" in l
        for l in res.log
    )
    line, = [l for l in res.log if "rec=3:10:" in l]
    assert line.split("\t")[2] == "SimEnd" and " rec=3:10:channel_loss" in line


def test_hybrid_queries_each_region_once_per_instant():
    # One station, 10 ms ticks and a window that keeps several messages
    # open at once.  An inject asks for its station's region once, for its
    # targets and hybrid's broadcast alike; a tick asks at most once per
    # station with an open window, however many messages are open there.
    cfg = ScenarioConfig(
        mobility=MobilitySpec(road_length_m=1_000.0, vehicle_count=30),
        workload=WorkloadSpec(rate_per_s=4.0),
        knobs=ProtocolKnobs(mobility_tick_s=0.01, window_s=2.0),
        sim_duration_s=2.0,
    )
    coverage = cfg.knobs.bs_coverage_m
    # one row per event: its kind, the region queries it made, and the
    # stations of the windows open when it started
    queries = []

    class Counting(Runtime):
        def neighbors(self, center, radius_m, t, exclude=()):
            if radius_m == coverage:
                queries[-1][1] += 1
            return super().neighbors(center, radius_m, t, exclude)

        def _on_inject(self, t, payload):
            queries.append(["inject", 0, ()])
            return super()._on_inject(t, payload)

        def _on_tick(self, t, payload):
            windows = self.protocol._windows
            queries.append(["tick", 0, [st.bs for st in windows if t <= st.window_end]])
            return super()._on_tick(t, payload)

    sim = Simulator(seed=1)
    provider = build_provider(cfg.mobility, sim.rng("mobility"))
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    assert len(stations) == 1
    rt = Counting(sim, cfg, provider, EMPTY_MAP, stations, "hybrid_vehcloud")
    rt.setup()
    sim.run(rt.end_us)
    injects = [n for kind, n, _ in queries if kind == "inject"]
    assert len(injects) == 8 and set(injects) == {1}
    ticks = [(n, open_) for kind, n, open_ in queries if kind == "tick"]
    assert all(n <= len(set(open_)) for n, open_ in ticks)
    assert max(len(open_) for _, open_ in ticks) == 8



def test_hybrid_holds_only_the_states_of_open_windows():
    # A message's state travels on its jobs, and the window deque holds it
    # while its window may be open.  The run's last event drops every queued
    # job, so after it only states whose window is open at the last tick are
    # still alive: those of the messages sent within a window of the end.
    made = []

    class Tracked(_HybridState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    cfg = ScenarioConfig(
        mobility=MobilitySpec(road_length_m=2_000.0, vehicle_count=40),
        workload=WorkloadSpec(rate_per_s=4.0),
        knobs=ProtocolKnobs(mobility_tick_s=0.01, window_s=2.5),
        sim_duration_s=3.0,
    )
    sim = Simulator(seed=1)
    provider = build_provider(cfg.mobility, sim.rng("mobility"))
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    rt = Runtime(sim, cfg, provider, EMPTY_MAP, stations, "hybrid_vehcloud")
    with mock.patch.object(protocols, "_HybridState", Tracked):
        rt.setup()
        sim.run(rt.end_us)
    gc.collect()
    alive = [st for st in (ref() for ref in made) if st is not None]
    last_tick = rt.end_us - to_us(cfg.knobs.mobility_tick_s)
    assert len(made) == 12
    assert alive and all(st.window_end >= last_tick for st in alive)


HYBRID_HIGHWAY_BUILDINGS = ((300.0, -20.0, 340.0, 20.0), (900.0, -5.0, 980.0, 30.0))


@st.composite
def small_hybrid_runs(draw):
    if draw(st.booleans()):
        mobility = MobilitySpec(
            mode="synthetic_grid", grid_blocks=3, grid_spacing_m=200.0, gateway_fraction=0.25
        )
        rects = tuple(grid_blocks(3).rects)
    else:
        mobility = MobilitySpec(road_length_m=1_200.0, gateway_fraction=0.2)
        rects = HYBRID_HIGHWAY_BUILDINGS
    vehicles = draw(st.sampled_from((40, 20, 3)))
    knobs = ProtocolKnobs(
        mobility_tick_s=draw(st.sampled_from((10, 1, 50)) | st.integers(1, 50)) / 1000,
        window_s=draw(st.sampled_from((6.0, 0.3, 0.01, 0.0))),
        # one station, or several whose regions overlap or leave gaps
        bs_spacing_m=draw(st.sampled_from((300.0, 5_000.0))),
        bs_coverage_m=draw(st.sampled_from((120.0, 400.0))),
        beacon_interval_s=0.0,
        drain_s=1.0,
    )
    if draw(st.booleans()):
        ids = st.integers(0, vehicles)
        targets = tuple(draw(st.lists(ids, min_size=1, max_size=6, unique=True)))
        workload = WorkloadSpec(rate_per_s=8.0, explicit_targets=targets)
    else:
        workload = WorkloadSpec(rate_per_s=8.0)
    cfg = ScenarioConfig(
        mobility=mobility,
        workload=workload,
        knobs=knobs,
        obstacles=rects if draw(st.booleans()) else (),
        sim_duration_s=2.0,
    )
    return cfg, vehicles, draw(st.integers(0, 1_000))


# no shrink phase: a failing example is reported as drawn, in seconds, where
# shrinking a whole run took up to a minute
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(small_hybrid_runs())
def test_hybrid_matches_a_run_with_unshared_region_queries(case):
    # The per-instant region memo and the open-window tick, against the
    # tick that walks every message and a region query made by every caller.
    cfg, vehicles, seed = case
    real = run_single(cfg, "hybrid_vehcloud", vehicles, seed, capture_log=True)
    with unshared_regions():
        ref = run_single(cfg, "hybrid_vehcloud", vehicles, seed, capture_log=True)
    assert csv_text([real.summary]) == csv_text([ref.summary])
    assert real.log == ref.log


# -- dfcv ---------------------------------------------------------------------

def test_dfcv_same_station_latency_sum(tmp_path):
    tracks = [("src", [(0, 100.0, 0.0)]), ("tgt", [(0, 300.0, 0.0)])]
    cfg = scenario(write_trace(tmp_path, tracks), 2, targets=[1])
    res = run_single(cfg, "dfcv", 2, seed_with_src(2, 0))
    r, = res.records
    assert r.delivered and r.hop_count == 2
    # station lands at the bbox center (200, 0): 100 m up, 100 m down
    hop = hop_delay_us(cfg.radio, 100.0)
    assert r.recv_us - r.sent_us == hop + cfg.knobs.fog_processing_us + hop


def test_dfcv_cross_station_adds_cloud_leg(tmp_path):
    tracks = [("src", [(0, 0.0, 0.0)]), ("tgt", [(0, 800.0, 0.0)])]
    cfg = scenario(write_trace(tmp_path, tracks), 2, targets=[1],
                   knobs_kw={"bs_spacing_m": 400.0})
    res = run_single(cfg, "dfcv", 2, seed_with_src(2, 0))
    r, = res.records
    assert r.delivered
    hop = hop_delay_us(cfg.radio, 200.0)  # stations at x=200 and x=600
    want = (
        hop
        + cfg.knobs.fog_processing_us
        + cfg.cloud.uplink_us
        + cfg.cloud.processing_us
        + cfg.cloud.downlink_us
        + cfg.knobs.fog_processing_us
        + hop
    )
    assert r.recv_us - r.sent_us == want


def test_dfcv_sender_outside_coverage_loses_all(tmp_path):
    tracks = [("src", [(0, 0.0, 0.0)]), ("tgt", [(0, 2500.0, 0.0)]),
              ("pal", [(0, 2400.0, 0.0)]), ("edge", [(0, 5000.0, 0.0)])]
    cfg = scenario(write_trace(tmp_path, tracks), 4, targets=[1, 2],
                   knobs_kw={"bs_coverage_m": 500.0})
    res = run_single(cfg, "dfcv", 4, seed_with_src(4, 0), capture_log=True)
    assert all(r.loss_cause == OUT_OF_RANGE for r in res.records)
    assert any("sender outside coverage" in line for line in res.log)


def test_dfcv_shadowed_uplink_loses_all(tmp_path):
    tracks = [("src", [(0, 100.0, 0.0)]), ("tgt", [(0, 300.0, 0.0)])]
    cfg = scenario(write_trace(tmp_path, tracks), 2, targets=[1],
                   rects=[(140.0, -5.0, 160.0, 5.0)])
    res = run_single(cfg, "dfcv", 2, seed_with_src(2, 0), capture_log=True)
    r, = res.records
    assert r.loss_cause == SHADOWED
    assert any("uplink shadowed" in line for line in res.log)


def test_dfcv_broadcasts_to_whole_cells_but_records_targets_only(tmp_path):
    # three vehicles end up in one cell; only one is addressed
    tracks = [("src", [(0, 100.0, 0.0)]), ("tgt", [(0, 250.0, 0.0)]),
              ("bystander", [(0, 200.0, 0.0)])]
    cfg = scenario(write_trace(tmp_path, tracks), 3, targets=[1])
    res = run_single(cfg, "dfcv", 3, seed_with_src(3, 0), capture_log=True)
    assert {r.dst for r in res.records} == {1}
    i2v = [l for l in res.log if "i2v msg=" in l]
    assert i2v and "ok=3" in i2v[0]  # src, tgt, bystander all hear it


def test_dfcv_maintenance_audit_trail(tmp_path):
    rng = random.Random(8)
    positions = [(rng.uniform(0, 1800), rng.uniform(0, 7)) for _ in range(60)]
    cfg = scenario(static_trace(tmp_path, positions), 60,
                   seconds=3.0, knobs_kw={"maintenance_interval_s": 1.0})
    res = run_single(cfg, "dfcv", 60, seed=4)
    assert res.audit, "maintenance must have run"
    for t, bs_id, rounds, n_cells in res.audit:
        assert rounds <= 2 * max(n_cells, 1) + 2
        assert n_cells >= 0


def test_a_station_without_cells_puts_all_its_newcomers_in_one_cell():
    # at the first maintenance no station keeps a cell: the vehicles of each
    # station, in id order, form one cell anchored at the lowest id, before
    # any split or merge
    stations = [BaseStation(0, (0.0, 0.0)), BaseStation(1, (5_000.0, 0.0))]
    xs = (300.0, 4_900.0, 100.0, 5_200.0, 200.0)  # ids 0, 2 and 4 under station 0
    provider = StaticProvider([(x, 0.0) for x in xs])
    cfg = ScenarioConfig(knobs=ProtocolKnobs(bs_coverage_m=1_000.0))
    rt = Runtime(Simulator(), cfg, provider, EMPTY_MAP, stations, "dfcv")
    handed = []
    run_maintenance = protocols.fog.run_maintenance

    def spy(cells, *args):
        handed.append([(c.cell_id, c.anchor, list(c.members)) for c in cells])
        return run_maintenance(cells, *args)

    with mock.patch.object(protocols.fog, "run_maintenance", spy):
        rt.protocol.maintain(0)
    assert handed == [[(1, 0, [0, 2, 4])], [(2, 1, [1, 3])]]


def test_a_newcomer_joins_the_nearest_anchor_ties_to_the_lower_cell_id():
    # cells 1 and 2 are anchored at vehicles 0 and 1, 100 m apart; newcomer 2
    # sits at the midpoint and newcomer 3 nearer anchor 1.  The anchors are
    # over d_min apart and each cell's spread within it, so nothing splits
    # or merges after the newcomers join.
    provider = StaticProvider([(0.0, 0.0), (100.0, 0.0), (50.0, 0.0), (80.0, 0.0)])
    cfg = ScenarioConfig(knobs=ProtocolKnobs(d_min_m=60.0))
    rt = Runtime(Simulator(), cfg, provider, EMPTY_MAP, [BaseStation(0, (0.0, 0.0))], "dfcv")
    dfcv = rt.protocol
    # listed higher id first, so a rule that ignores the ids takes the wrong cell
    dfcv._cells[0] = [protocols.fog.FogCell(2, 1, [1]), protocols.fog.FogCell(1, 0, [0])]
    dfcv._cell_seq = itertools.count(3)
    dfcv.maintain(0)
    assert [(c.cell_id, c.anchor, c.members) for c in dfcv._cells[0]] == [
        (1, 0, [0, 2]),
        (2, 1, [1, 3]),
    ]


def test_dfcv_maintains_each_instant_once():
    # injections every 0.25 s fall on every 1 s maintenance tick
    cfg = ScenarioConfig(
        mobility=MobilitySpec(vehicle_count=80, road_length_m=4_000.0),
        workload=WorkloadSpec(rate_per_s=4.0),
        knobs=ProtocolKnobs(maintenance_interval_s=1.0),
        protocols=("dfcv",),
        densities=(80,),
        sim_duration_s=3.0,
    )
    res = run_single(cfg, "dfcv", 80, seed=1, capture_log=True)
    rows = [(t, bs_id) for t, bs_id, _, _ in res.audit]
    assert len(rows) == len(set(rows)), "a (t, station) was maintained twice"
    cells_at: dict = {}
    for t, _, _, n_cells in res.audit:
        cells_at[t] = cells_at.get(t, 0) + n_cells
    ticks = [line.split("\t") for line in res.log if "\tFogMaintenance\t" in line]
    assert [int(t) for t, *_ in ticks] == [k * US_PER_S for k in range(len(ticks))]
    assert len(ticks) >= 4
    for t, _, _, text in ticks:
        # a tick at an instant an injection already maintained reports the same cells
        assert text.startswith(f"cells={cells_at[int(t)]} steps=")


def test_protocol_registry_names():
    assert set(PROTOCOLS) == {"baseline", "hybrid_vehcloud", "dfcv"}
    for name, cls in PROTOCOLS.items():
        assert cls.name == name


# -- uplinks ------------------------------------------------------------------

class CountingRng:
    """Passes calls through to a Random and lists the names of the methods
    called and the values they returned."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []
        self.values = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args):
            self.calls.append(name)
            self.values.append(method(*args))
            return self.values[-1]

        return call


def uplink_runtime(trace_path, n, protocol, **kw):
    """A Runtime on a static trace whose backoff and loss streams list their draws."""
    cfg = scenario(trace_path, n, **kw)
    sim = Simulator(seed=1)
    provider = build_provider(cfg.mobility, sim.rng("mobility"))
    stations = place_stations(cfg.mobility, provider, cfg.knobs)
    rt = Runtime(sim, cfg, provider, cfg.load_obstacles(), stations, protocol)
    rt.channel._rng = CountingRng(rt.channel._rng)
    rt.channel.loss_rng = CountingRng(rt.channel.loss_rng)
    return rt


# src (1) at the origin, gateway (0) 200 m east, station at (200, 200)
GW_BLOCKED = (90.0, -10.0, 110.0, 10.0)    # src-gateway, not src-station
BS_BLOCKED = (90.0, 90.0, 110.0, 110.0)    # src-station, not src-gateway


@pytest.mark.parametrize(
    "gateway_fraction, rects, coverage, backoffs, losses",
    [
        (0.25, [], 1000.0, ["randint"], ["random"]),            # gateway: contends
        (0.25, [GW_BLOCKED], 1000.0, ["randint"], []),          # station fallback
        (0.0, [], 1000.0, ["randint"], []),                     # station fallback
        (0.0, [BS_BLOCKED], 1000.0, [], []),                    # station shadowed
        (0.0, [], 250.0, [], []),                               # station out of range
        (0.25, [GW_BLOCKED], 250.0, [], []),                    # neither entry point
    ],
)
def test_hybrid_uplink_draws_only_once_it_has_an_entry_point(
    tmp_path, gateway_fraction, rects, coverage, backoffs, losses
):
    rt = uplink_runtime(
        hybrid_fixture(tmp_path), 4, "hybrid_vehcloud", rects=rects,
        gateway_fraction=gateway_fraction, knobs_kw={"bs_coverage_m": coverage},
    )
    t = 250_000
    bs = rt.nearest_station(rt.pos(1, t))
    st = _HybridState(Message(1, 1, t, (2,)), bs, {}, window_end=t + 1)
    rt.protocol._establish_uplink(st, t)
    rt.protocol._establish_uplink(st, t)  # a second call reuses the first outcome
    assert (rt.channel._rng.calls, rt.channel.loss_rng.calls) == (backoffs, losses)


@pytest.mark.parametrize(
    "rects, coverage, backoffs",
    [
        ([], 1000.0, ["randint"]),                      # station in range and sight
        ([(140.0, -5.0, 160.0, 5.0)], 1000.0, []),      # shadowed
        ([], 50.0, []),                                 # sender outside coverage
    ],
)
def test_dfcv_uplink_draws_one_backoff_and_no_loss(tmp_path, rects, coverage, backoffs):
    tracks = [("src", [(0, 100.0, 0.0)]), ("tgt", [(0, 300.0, 0.0)])]
    rt = uplink_runtime(
        write_trace(tmp_path, tracks), 2, "dfcv", targets=[1], rects=rects,
        knobs_kw={"bs_coverage_m": coverage},
    )
    rt.protocol.on_inject(Message(1, 0, 0, (1,)), 0)
    assert (rt.channel._rng.calls, rt.channel.loss_rng.calls) == (backoffs, [])


@pytest.mark.parametrize("base_loss", [0.0, 1.0])
def test_hybrid_gateway_uplink_frame_is_on_the_channel(tmp_path, base_loss):
    # delivered or lost to contention, the frame is on air around its sender
    rt = uplink_runtime(
        hybrid_fixture(tmp_path), 4, "hybrid_vehcloud", gateway_fraction=0.25,
        radio_kw={"base_loss": base_loss, "max_backoff_us": 2000},
    )
    t = 250_000
    src = rt.pos(1, t)
    st = _HybridState(Message(1, 1, t, (2,)), rt.nearest_station(src), {}, window_end=t + 1)
    rt.protocol._establish_uplink(st, t)
    end = t + rt.channel.frame_us
    assert rt.channel.concurrent_near(src, t) == 1
    assert rt.channel.busy_until_near(src, t) == end
    assert rt.channel.concurrent_near(src, end - 1) == 1
    assert rt.channel.busy_until_near(src, end) is None
    assert rt.channel.loss_rng.calls == ["random"]  # the gateway hop, which contends
    assert st.uplink.delivered == (base_loss == 0.0)
    if st.uplink.delivered:
        backoff, = rt.channel._rng.values
        assert st.uplink.delay_us == hop_delay_us(rt.params, 200.0) + backoff


def test_hybrid_sender_defers_its_broadcast_behind_its_uplink(tmp_path):
    rects = [(290.0, 90.0, 310.0, 110.0)]
    cfg = scenario(hybrid_fixture(tmp_path), 4, targets=[0, 2],
                   rects=rects, gateway_fraction=0.25)
    res = run_single(cfg, "hybrid_vehcloud", 4, seed_with_src(4, 1), capture_log=True)
    inject = next(line for line in res.log if "MessageInject" in line)
    t = int(inject.split("\t")[0])
    assert "uplink=gw:0" in inject
    until = t + tx_time_us(cfg.radio)
    assert any(f"defer msg=1 from=1 until={until}" in line for line in res.log)
    assert all(r.delivered for r in res.records)


def test_hybrid_failed_uplink_records_the_hops_cause(tmp_path):
    # no gateways; the station at (200, 200) is in sight of src but 283 m
    # away, beyond its 250 m coverage, and a slab shadows tgt from it
    tracks = [("src", [(0, 0.0, 0.0)]), ("tgt", [(0, 300.0, 200.0)]),
              ("decoy", [(0, 400.0, 400.0)])]
    cfg = scenario(write_trace(tmp_path, tracks), 3, targets=[1],
                   rects=[(240.0, 190.0, 260.0, 210.0)], knobs_kw={"bs_coverage_m": 250.0})
    res = run_single(cfg, "hybrid_vehcloud", 3, seed_with_src(3, 0), capture_log=True)
    r, = res.records
    assert r.loss_cause == OUT_OF_RANGE
    assert any("uplink=bs:out_of_range" in line for line in res.log)
