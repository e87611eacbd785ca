"""Radio link model: timing, range, sight blocking, loss draws, and the
channel's occupancy, beacon schedule and backoff draws."""

import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from vanetsim import radio
from vanetsim.errors import ConfigError
from vanetsim.mobility import distance
from vanetsim.radio import (
    CHANNEL_LOSS,
    EMPTY_MAP,
    OUT_OF_RANGE,
    SHADOWED,
    Channel,
    HopOutcome,
    ObstacleMap,
    RadioParams,
    channel_loss,
    line_of_sight,
    tx_time_us,
)

from reference import evaluate_hop, frames_on_air, hop_delay_us


def _inside(px, py, rect, margin=0.0):
    x0, y0, x1, y1 = rect
    return x0 + margin < px < x1 - margin and y0 + margin < py < y1 - margin


def sampled_blocked(a, b, rect, steps=4001, margin=1e-9):
    """Point-sampling oracle: does the open segment enter the rect interior?

    Returns True/False when every sampled point is decisively inside or
    outside by `margin`, or None for tangent cases too close to call.
    """
    hit = False
    grazing = False
    for i in range(1, steps):
        t = i / steps
        px = a[0] + t * (b[0] - a[0])
        py = a[1] + t * (b[1] - a[1])
        if _inside(px, py, rect, margin):
            hit = True
            break
        if _inside(px, py, rect, -margin):
            grazing = True
    if hit:
        return True
    return None if grazing else False


# -- parameters ---------------------------------------------------------------

def test_params_defaults():
    p = RadioParams()
    assert p.range_m == 300.0
    assert p.data_rate_bps == 2_000_000
    assert p.msg_size_bytes == 256
    assert p.base_loss == 0.02


def test_params_validation_names_the_field():
    with pytest.raises(ConfigError, match="radio.range_m"):
        RadioParams(range_m=0)
    with pytest.raises(ConfigError, match="radio.data_rate_bps"):
        RadioParams(data_rate_bps=-5)
    with pytest.raises(ConfigError, match="radio.base_loss"):
        RadioParams(base_loss=1.5)
    with pytest.raises(ConfigError, match="radio.loss_slope"):
        RadioParams(loss_slope=-0.1)
    with pytest.raises(ConfigError, match="radio.max_defers"):
        RadioParams(max_defers=-1)


def test_hop_outcome_exactly_one_of_delay_or_cause():
    with pytest.raises(ValueError):
        HopOutcome(True, loss_cause=SHADOWED)
    with pytest.raises(ValueError):
        HopOutcome(False, delay_us=10)
    with pytest.raises(ValueError):
        HopOutcome(True)
    assert HopOutcome(True, delay_us=5).delay_us == 5
    assert HopOutcome(False, loss_cause=OUT_OF_RANGE).loss_cause == OUT_OF_RANGE


# -- timing -------------------------------------------------------------------

def test_tx_time_default_frame_is_1024us():
    # 256 bytes at 2 Mb/s
    assert tx_time_us(RadioParams()) == 1024


def test_tx_time_rounds_half_up_and_floors_at_one():
    p = RadioParams(data_rate_bps=3_000_000)
    # 256*8/3 = 682.666... -> 683
    assert tx_time_us(p) == 683
    # 1 byte at 2 Gb/s -> 0.004 us, floored at 1
    assert tx_time_us(RadioParams(data_rate_bps=2_000_000_000, msg_size_bytes=1)) == 1
    # 1 byte at 16 Mb/s -> 0.5 us exactly, half-up to 1
    assert tx_time_us(RadioParams(data_rate_bps=16_000_000, msg_size_bytes=1)) == 1


def test_hop_delay_sums_tx_prop_backoff():
    p = RadioParams()
    here = (0.0, 0.0)
    # a 1024 us frame: 150 m at 3e8 m/s adds 0.5 us, and 1024.5 rounds half-up
    # to 1025; 60 m adds 0.2 us, which rounds away
    for d, want in ((150.0, 1025), (0.0, 1024), (60.0, 1024)):
        assert hop_delay_us(p, d) == want
        assert one_hop(here, (d, 0.0), 300.0, p, EMPTY_MAP).delay_us == want


def test_hop_delay_never_below_one_microsecond():
    p = RadioParams(data_rate_bps=2_000_000_000, msg_size_bytes=1)
    here = (0.0, 0.0)
    assert hop_delay_us(p, 0.0) == 1
    assert one_hop(here, here, 300.0, p, EMPTY_MAP).delay_us == 1


# -- range --------------------------------------------------------------------

def test_hop_reach_is_inclusive_at_the_boundary():
    p = RadioParams(base_loss=0.0, loss_slope=0.0)
    a = (0.0, 0.0)
    # radio range and a station's coverage alike: the reach argument decides
    for reach, diagonal in ((300.0, (180.0, 240.0)), (1000.0, (600.0, 800.0))):
        assert one_hop(a, (reach, 0.0), reach, p, EMPTY_MAP).delivered
        assert one_hop(a, diagonal, reach, p, EMPTY_MAP).delivered  # 3-4-5 triangle
        beyond = one_hop(a, (reach + 1e-7, 0.0), reach, p, EMPTY_MAP)
        assert beyond.loss_cause == OUT_OF_RANGE


# -- obstacles ----------------------------------------------------------------

def test_obstacle_map_rejects_degenerate_rects():
    with pytest.raises(ConfigError, match=r"obstacles\[0\]"):
        ObstacleMap([(10, 10, 10, 20)])
    with pytest.raises(ConfigError, match=r"obstacles\[1\]"):
        ObstacleMap([(0, 0, 5, 5), (3, 8, 2, 9)])
    with pytest.raises(ConfigError, match="4 numbers"):
        ObstacleMap([(1, 2, 3)])
    assert len(ObstacleMap([(0, 0, 5, 5)]).rects) == 1
    assert len(EMPTY_MAP.rects) == 0


@pytest.mark.parametrize(
    "rect", [(math.nan, 0, 10, 10), (0, 0, math.inf, 10), (0, -math.inf, 10, 10)]
)
def test_obstacle_map_rejects_non_finite_rects(rect):
    # a nan rectangle never blocks sight; the file and JSON parsers refuse
    # these too, through the same check
    with pytest.raises(ConfigError, match=r"obstacles\[1\]: coordinates must be finite"):
        ObstacleMap([(0, 0, 5, 5), rect])


def test_obstacle_map_load_parses_comments_and_blanks(tmp_path):
    fp = tmp_path / "city.txt"
    fp.write_text(
        "# downtown blocks\n"
        "\n"
        "0 0 50 40  # the mall\n"
        "100.5 0 180 40\n"
    )
    m = ObstacleMap.load(str(fp))
    assert m.rects == [(0.0, 0.0, 50.0, 40.0), (100.5, 0.0, 180.0, 40.0)]


@pytest.mark.parametrize("line", ["0 0 nan 10", "inf 0 50 40", "0 -inf 50 40", "0 0 50 NaN"])
def test_obstacle_map_load_rejects_non_finite_coordinates(tmp_path, line):
    # float() reads these; a nan rectangle would never block sight
    fp = tmp_path / "city.txt"
    fp.write_text(f"0 0 50 40\n{line}\n")
    with pytest.raises(ConfigError, match=r"city.txt:2: coordinates must be finite"):
        ObstacleMap.load(str(fp))


def test_obstacle_map_load_reports_line_numbers(tmp_path):
    fp = tmp_path / "bad.txt"
    fp.write_text("0 0 50 40\n1 2 3\n")
    with pytest.raises(ConfigError, match=r"bad.txt:2"):
        ObstacleMap.load(str(fp))
    fp.write_text("0 0 fifty 40\n")
    with pytest.raises(ConfigError, match=r"bad.txt:1"):
        ObstacleMap.load(str(fp))
    with pytest.raises(ConfigError, match="nope.txt"):
        ObstacleMap.load(str(tmp_path / "nope.txt"))


# -- line of sight ------------------------------------------------------------

def test_los_trivially_clear_without_obstacles():
    assert line_of_sight((0, 0), (500, 500), EMPTY_MAP)


def test_los_blocked_through_the_middle():
    m = ObstacleMap([(10, 10, 20, 20)])
    assert not line_of_sight((0, 15), (30, 15), m)
    assert not line_of_sight((15, 0), (15, 30), m)
    assert not line_of_sight((0, 0), (30, 30), m)  # diagonal


def test_los_clear_when_passing_beside():
    m = ObstacleMap([(10, 10, 20, 20)])
    assert line_of_sight((0, 25), (30, 25), m)
    assert line_of_sight((0, 0), (9, 30), m)


def test_los_edge_grazing_does_not_block():
    m = ObstacleMap([(10, 10, 20, 20)])
    # collinear with the bottom edge
    assert line_of_sight((0, 10), (30, 10), m)
    # touching a single corner point exactly
    assert line_of_sight((0, 20), (20, 0), m)
    # the interior diagonal, by contrast, is squarely blocked
    assert not line_of_sight((10, 10), (20, 20), m)
    # endpoint resting on the boundary, leaving outward
    assert line_of_sight((10, 15), (0, 15), m)


def test_los_endpoint_inside_blocks():
    m = ObstacleMap([(10, 10, 20, 20)])
    assert not line_of_sight((15, 15), (40, 15), m)
    # degenerate zero-length segment inside
    assert not line_of_sight((15, 15), (15, 15), m)
    assert line_of_sight((5, 5), (5, 5), m)


def test_los_matches_point_sampling_oracle():
    rng = random.Random(90125)
    checked = 0
    for _ in range(300):
        rect = sorted(rng.uniform(0, 100) for _ in range(2)), sorted(
            rng.uniform(0, 100) for _ in range(2)
        )
        rect = (rect[0][0], rect[1][0], rect[0][1], rect[1][1])
        if rect[2] - rect[0] < 1 or rect[3] - rect[1] < 1:
            continue
        m = ObstacleMap([rect])
        a = (rng.uniform(-20, 120), rng.uniform(-20, 120))
        b = (rng.uniform(-20, 120), rng.uniform(-20, 120))
        want = sampled_blocked(a, b, rect)
        if want is None:
            continue  # tangent within tolerance; oracle abstains
        assert line_of_sight(a, b, m) == (not want), (a, b, rect)
        checked += 1
    assert checked > 250


def test_los_is_symmetric():
    rng = random.Random(5150)
    m = ObstacleMap([(20, 20, 60, 50), (70, 10, 90, 90)])
    for _ in range(500):
        a = (rng.uniform(0, 100), rng.uniform(0, 100))
        b = (rng.uniform(0, 100), rng.uniform(0, 100))
        assert line_of_sight(a, b, m) == line_of_sight(b, a, m)


def test_los_multiple_rects_any_blocker_counts():
    m = ObstacleMap([(10, 10, 20, 20), (40, 10, 50, 20)])
    assert not line_of_sight((0, 15), (30, 15), m)  # first
    assert not line_of_sight((30, 15), (60, 15), m)  # second
    assert line_of_sight((25, 0), (35, 30), m)  # between them


def reference_segment_blocked(ax, ay, bx, by, rect):
    # the Liang-Barsky clip line_of_sight ran per rectangle, kept as written
    x0, y0, x1, y1 = rect
    dx = bx - ax
    dy = by - ay
    if dx == 0.0 and dy == 0.0:
        return x0 < ax < x1 and y0 < ay < y1
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, ax - x0),
        (dx, x1 - ax),
        (-dy, ay - y0),
        (dy, y1 - ay),
    ):
        if p == 0.0:
            if q < 0.0:
                return False
        else:
            r = q / p
            if p < 0.0:
                if r > t1:
                    return False
                if r > t0:
                    t0 = r
            else:
                if r < t0:
                    return False
                if r < t1:
                    t1 = r
    if t1 <= t0:
        return False
    tm = (t0 + t1) / 2.0
    mx = ax + tm * dx
    my = ay + tm * dy
    return x0 < mx < x1 and y0 < my < y1


def reference_line_of_sight(a, b, obstacles):
    if not obstacles.rects:
        return True
    if (b[0], b[1]) < (a[0], a[1]):
        a, b = b, a
    lo_x, hi_x = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
    lo_y, hi_y = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
    for rect in obstacles.rects:
        if hi_x < rect[0] or lo_x > rect[2] or hi_y < rect[1] or lo_y > rect[3]:
            continue
        if reference_segment_blocked(a[0], a[1], b[0], b[1], rect):
            return False
    return True


# coordinates on a coarse lattice make shared edges, corners and collinear
# runs common; free floats cover everything in between
coords = st.one_of(
    st.integers(-2, 12).map(lambda k: k * 10.0),
    st.floats(-30.0, 150.0, allow_nan=False),
)


@st.composite
def rect_maps(draw):
    rects = []
    for _ in range(draw(st.integers(1, 5))):
        x0, x1 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
        y0, y1 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
        rects.append((x0, y0, x1, y1))
    return ObstacleMap(rects)


@st.composite
def segments_near(draw, obstacles):
    """Random segments plus zero-length, axis-parallel, edge-collinear,
    corner-crossing and boundary-ended ones."""
    x0, y0, x1, y1 = draw(st.sampled_from(obstacles.rects))
    corner = (draw(st.sampled_from((x0, x1))), draw(st.sampled_from((y0, y1))))
    on_edge = draw(
        st.sampled_from(
            (
                (x0, draw(st.floats(y0, y1))),
                (x1, draw(st.floats(y0, y1))),
                (draw(st.floats(x0, x1)), y0),
                (draw(st.floats(x0, x1)), y1),
            )
        )
    )
    a = (draw(coords), draw(coords))
    kind = draw(st.sampled_from(("free", "point", "axis", "edge", "corner", "boundary")))
    if kind == "point":
        a = b = draw(st.sampled_from((a, tuple(on_edge), tuple(corner))))
    elif kind == "axis":
        b = draw(st.sampled_from(((a[0], draw(coords)), (draw(coords), a[1]))))
    elif kind == "edge":
        a = tuple(on_edge)
        b = draw(st.sampled_from(((a[0], draw(coords)), (draw(coords), a[1]))))
    elif kind == "corner":
        d = draw(st.floats(0.5, 40.0))
        sx, sy = draw(st.sampled_from(((1, 1), (1, -1))))
        a = (corner[0] - sx * d, corner[1] - sy * d)
        b = (corner[0] + sx * d, corner[1] + sy * d)
    elif kind == "boundary":
        b = tuple(on_edge)
    else:
        b = (draw(coords), draw(coords))
    return a, b


@st.composite
def los_cases(draw):
    obstacles = draw(rect_maps())
    segments = draw(st.lists(segments_near(obstacles), min_size=1, max_size=6))
    return obstacles, segments


@settings(max_examples=150, deadline=None, derandomize=True)
@given(los_cases())
# a witness for the mutant grazing-clip-blocks: the clip window shrinks to
# t0 == t1 == 1.0, so the segment sees.  In exact arithmetic it runs about
# 3e-195 m inside the rectangle: it is also one of the interior slivers the
# float clip misses (ROADMAP item 18).  Hypothesis also draws from literals
# in the source it imports, so the drawn examples move when that source
# does, and the witness is pinned here.
@example((ObstacleMap([(-3.294603175452063e-195, -2.0, 1.0, 0.0)]), [((0.0, -1.0), (-1.0, -1.0))]))
def test_los_matches_the_per_rectangle_clip(case):
    obstacles, segments = case
    for a, b in segments:
        want = reference_line_of_sight(a, b, obstacles)
        assert line_of_sight(a, b, obstacles) == want, (a, b)
        assert line_of_sight(b, a, obstacles) == want, (b, a)
    # every segment from a point to an endpoint within reach sees the near
    # map exactly as it sees the full one, reach set by each endpoint too
    ends = [p for seg in segments for p in seg]
    for a in ends:
        for reach in [distance(a, b) for b in ends] + [25.0]:
            near = obstacles.near(a[0], a[1], reach)
            assert set(near.rects) <= set(obstacles.rects)
            for b in ends:
                if distance(a, b) <= reach:
                    assert line_of_sight(a, b, near) == line_of_sight(a, b, obstacles)


def test_near_keeps_only_rectangles_meeting_the_square():
    # one rectangle off each side of the square, and two touching it
    m = ObstacleMap(
        [(10, 10, 20, 20), (-40, 10, -15, 20), (-5, 30, 5, 40), (-5, -10, 5, -6), (40, 10, 50, 20)]
    )
    assert m.near(0, 15, 10).rects == [(10.0, 10.0, 20.0, 20.0)]
    assert m.near(0, 15, 15).rects == m.rects[:3]
    assert m.near(0, 15, 9.99).rects == []
    assert m.near(0, 15, 1e9).rects == m.rects
    assert EMPTY_MAP.near(0, 0, 1e9).rects == []


# -- channel loss -------------------------------------------------------------

class CountingRng:
    def __init__(self, value=0.5):
        self.calls = 0
        self.value = value

    def random(self):
        self.calls += 1
        return self.value


def test_channel_loss_probability_scales_with_load():
    p = RadioParams(base_loss=0.1, loss_slope=0.05)
    rng = CountingRng(value=0.12)
    assert not channel_loss(p, 0, rng)  # q = 0.10
    assert channel_loss(p, 1, rng)      # q = 0.15
    assert channel_loss(p, 100, rng)    # q capped at 1.0


def test_channel_loss_always_consumes_one_draw():
    p0 = RadioParams(base_loss=0.0, loss_slope=0.0)
    p1 = RadioParams(base_loss=1.0, loss_slope=0.0)
    rng = CountingRng()
    channel_loss(p0, 0, rng)
    channel_loss(p1, 0, rng)
    channel_loss(p0, 9999, rng)
    assert rng.calls == 3


def test_channel_loss_monte_carlo_rate():
    p = RadioParams(base_loss=0.02, loss_slope=0.001)
    rng = random.Random(1999)
    n = 40_000
    concurrent = 80  # q = 0.02 + 0.08 = 0.1
    losses = sum(1 for _ in range(n) if channel_loss(p, concurrent, rng))
    rate = losses / n
    sigma = math.sqrt(0.1 * 0.9 / n)
    assert abs(rate - 0.1) < 5 * sigma


# -- hop evaluation -------------------------------------------------------------

class Contention:
    """A stand-in for ``Channel.concurrent_near`` that reports a fixed count
    and logs where it was asked."""

    def __init__(self, count=0):
        self.count = count
        self.asked = []

    def __call__(self, pos, t=None, own=None):
        self.asked.append(pos)
        return self.count


def one_hop(src, dst, reach, params, obstacles, contention=None, rng=None):
    """The hop from ``src`` to ``dst`` through ``Channel.hops``, its
    contention count given by ``contention``; contends only with one."""
    ch = Channel(params, obstacles, random.Random(0), rng)
    if contention is not None:
        ch.concurrent_near = contention
    [(_, out)] = ch.hops(src, [7], lambda v, t: dst, reach, 0, contend=contention is not None)
    return out


def test_unicast_checks_range_then_sight_then_channel():
    p = RadioParams(base_loss=1.0)  # every channel draw loses
    m = ObstacleMap([(100, -10, 110, 10)])
    src = (0, 0)
    for dst, cause in (
        ((400, 0), OUT_OF_RANGE),  # beyond range and behind the wall
        ((200, 0), SHADOWED),  # in range, behind the wall
        ((200, 50), CHANNEL_LOSS),  # in range and in sight
    ):
        assert one_hop(src, dst, 300.0, p, m, Contention(), CountingRng()).loss_cause == cause
    clear = one_hop(src, (200, 5), 300.0, RadioParams(base_loss=0.0, loss_slope=0.0),
                    EMPTY_MAP, Contention(), CountingRng())
    assert clear.delivered and clear.delay_us >= 1024


def test_unicast_sure_loss_channel():
    p = RadioParams(base_loss=1.0)
    out = one_hop((0, 0), (10, 0), 300.0, p, EMPTY_MAP,
                  Contention(), random.Random(2))
    assert out.loss_cause == CHANNEL_LOSS


def test_hop_draws_once_and_only_after_range_and_sight_pass():
    p = RadioParams(base_loss=0.0, loss_slope=0.0)
    m = ObstacleMap([(100, -10, 110, 10)])
    src = (0, 0)
    for dst, draws in (((400, 0), 0), ((200, 0), 0), ((200, 50), 1)):
        rng, near = CountingRng(), Contention()
        one_hop(src, dst, 300.0, p, m, near, rng)
        assert rng.calls == draws
        assert near.asked == [dst] * draws


def test_hop_contention_count_sets_the_loss_probability():
    p = RadioParams(base_loss=0.0, loss_slope=0.01)
    src, dst = (0, 0), (10, 0)
    quiet = one_hop(src, dst, 300.0, p, EMPTY_MAP, Contention(10), CountingRng(0.5))
    busy = one_hop(src, dst, 300.0, p, EMPTY_MAP, Contention(80), CountingRng(0.5))
    assert quiet.delivered  # q = 0.1
    assert busy.loss_cause == CHANNEL_LOSS  # q = 0.8


def test_hop_without_contention_check_never_draws():
    p = RadioParams(base_loss=1.0)
    rng = CountingRng()
    out = one_hop((0, 0), (150, 0), 300.0, p, EMPTY_MAP, rng=rng)
    assert out.delivered and out.delay_us == hop_delay_us(p, 150.0)
    assert rng.calls == 0


def test_hops_reach_a_patched_loss_draw_and_contention_count():
    # a tracer patches channel_loss and Channel.concurrent_near after import,
    # so hops looks both up per call: each contending receiver reaches each
    # patch once
    ch = make_channel(base_loss=0.5)
    draw, near = radio.channel_loss, Channel.concurrent_near
    calls = Counter()

    def counted_draw(*args):
        calls["channel_loss"] += 1
        return draw(*args)

    def counted_near(self, *args):
        calls["concurrent_near"] += 1
        return near(self, *args)

    receivers = [3, 5, 8, 13]
    with mock.patch.object(radio, "channel_loss", counted_draw):
        with mock.patch.object(Channel, "concurrent_near", counted_near):
            ch.hops((0.0, 0.0), receivers, lambda v, t: (10.0 * v, 0.0), 300.0, 0)
    assert calls == {"channel_loss": len(receivers), "concurrent_near": len(receivers)}


# -- channel ------------------------------------------------------------------

def make_channel(**kw):
    return Channel(RadioParams(**kw), EMPTY_MAP, random.Random(0), random.Random(0))


def test_channel_audibility_is_range_limited():
    ch = make_channel()
    ch.register(0, 1_000, (0.0, 0.0))
    assert ch.concurrent_near((100.0, 0.0), 500) == 1
    assert ch.concurrent_near((301.0, 0.0), 500) == 0
    assert ch.busy_until_near((100.0, 0.0), 500) == 1_000
    assert ch.busy_until_near((301.0, 0.0), 500) is None


def test_a_frame_exactly_at_range_is_heard_along_either_axis():
    # the queries skip a frame whose dx exceeds the range before hypot; at
    # exactly the range, on either side and on either axis, it is heard
    r = RadioParams().range_m
    for here in ((r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)):
        ch = make_channel()
        ch.register(0, 1_000, (0.0, 0.0))
        assert ch.concurrent_near(here, 500) == 1, here
        assert ch.busy_until_near(here, 500) == 1_000, here


# finite floats, subnormal ones, and ones near the largest
LEGS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-307, 1e-307),
    st.floats(1e300, 1.7976931348623157e308),
    st.floats(-1.7976931348623157e308, -1e300),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(LEGS, LEGS)
def test_hypot_is_never_below_either_leg(dx, dy):
    # the premise of the channel's prefilter, which skips a frame whose |dx| exceeds the range
    assert math.hypot(dx, dy) >= max(abs(dx), abs(dy))


def test_channel_expires_and_ignores_future_starts():
    ch = make_channel()
    ch.register(0, 1_000, (0.0, 0.0))
    ch.register(2_000, 3_000, (0.0, 0.0))
    here = (0.0, 0.0)
    assert ch.concurrent_near(here, 999) == 1
    assert ch.busy_until_near(here, 999) == 1_000
    assert ch.concurrent_near(here, 1_000) == 0  # end is exclusive occupancy
    assert ch.busy_until_near(here, 1_000) is None
    assert ch.concurrent_near(here, 1_500) == 0  # second tx not started yet
    assert ch.busy_until_near(here, 1_500) is None
    assert ch.concurrent_near(here, 2_000) == 1
    assert ch.busy_until_near(here, 2_000) == 3_000


def test_carrier_sense_does_not_hear_a_frame_at_its_end():
    ch = make_channel()
    ch.register(0, 1_000, (0.0, 0.0))
    here = (0.0, 0.0)
    assert ch.busy_until_near(here, 999) == 1_000
    assert ch.busy_until_near(here, 1_000) is None  # end is exclusive occupancy


def test_channel_busy_until_is_latest_overlap():
    ch = make_channel()
    ch.register(0, 1_000, (0.0, 0.0))
    ch.register(0, 4_000, (50.0, 0.0))
    assert ch.busy_until_near((0.0, 0.0), 10) == 4_000


def test_channel_backoff_draw_is_bounded_and_seeded():
    ch = make_channel(max_backoff_us=7)
    draws = [ch.draw_backoff() for _ in range(200)]
    assert all(0 <= d <= 7 for d in draws)
    again = make_channel(max_backoff_us=7)
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
        return (float(v), float(start))

    # 8 Mb/s sends one byte per microsecond, so a frame is on air for ``frame`` us
    ch = make_channel(range_m=1e9, data_rate_bps=8_000_000, msg_size_bytes=frame)
    ch.set_beacons(sorted((p, v) for v, p in enumerate(phases)), period, locate)
    here = (0.0, 0.0)
    for t in times:  # nondecreasing, as the event loop asks; repeats push nothing
        want = brute_force_on_air(phases, period, frame, t)
        assert ch.concurrent_near(here, t) == len(want)
        got = sorted((int(x), int(y), end) for end, start, x, y in ch._active if start <= t)
        assert got == want
        assert ch.busy_until_near(here, t) == max((end for _, _, end in want), default=None)
    assert len(located) == len(set(located))  # one lookup per (vehicle, start)


# -- queries on the edges of frames -------------------------------------------

EDGE_COORDS = st.floats(-300.0, 300.0)


@st.composite
def frame_edges(draw):
    """A channel's frames, and queries that stand on their edges.

    The frames come first: registered ones of any start and length, all
    registered before the first query, and the beacons of vehicles moving
    at constant velocity.  Each query then takes a witness frame, registered
    or beacon, and asks at its start, at its end, or one microsecond before
    either, at a point on the frame's origin, on its range rim, just beyond
    it or anywhere around it."""
    frame = draw(st.integers(1, 40))
    range_m = draw(st.sampled_from((100.0, 250.0)))
    registered = [
        (start, start + draw(st.integers(1, 60)), (draw(EDGE_COORDS), draw(EDGE_COORDS)))
        for start in draw(st.lists(st.integers(0, 200), max_size=6))
    ]
    period = draw(st.integers(1, 3 * frame))
    movers = draw(st.lists(
        st.tuples(EDGE_COORDS, EDGE_COORDS, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        min_size=0 if registered else 1, max_size=6,
    ))
    phases = [draw(st.integers(0, period - 1)) for _ in movers]

    def locate(v, t):
        x, y, vx, vy = movers[v]
        return (x + vx * t, y + vy * t)

    witnesses = []
    for _ in range(draw(st.integers(1, 8))):
        if registered and (not movers or draw(st.booleans())):
            start, end, origin = draw(st.sampled_from(registered))
        else:
            v = draw(st.integers(0, len(movers) - 1))
            start = phases[v] + period * draw(st.integers(0, 3))
            end, origin = start + frame, locate(v, start)
        at = draw(st.sampled_from((start, end))) - draw(st.sampled_from((0, 1)))
        around = st.floats(-1.2 * range_m, 1.2 * range_m)
        dx, dy = draw(st.sampled_from((
            (0.0, 0.0), (range_m, 0.0), (0.0, -range_m), (0.6 * range_m, 0.8 * range_m),
            (-range_m - 1e-6, 0.0),
        )) | st.tuples(around, around))
        witnesses.append((max(0, at), (origin[0] + dx, origin[1] + dy)))
    # 8 Mb/s sends one byte per microsecond, so a frame is on air for ``frame`` us
    params = RadioParams(range_m=range_m, data_rate_bps=8_000_000, msg_size_bytes=frame)
    schedule = sorted((p, v) for v, p in enumerate(phases))
    # nondecreasing, as the event loop asks
    return params, registered, (schedule, period, locate), sorted(witnesses)


def frame_edge_channel(params, registered, beacons):
    ch = Channel(params, EMPTY_MAP, random.Random(0), random.Random(0))
    for start, end, pos in registered:
        ch.register(start, end, pos)
    ch.set_beacons(*beacons)
    return ch


def edges_reached(case):
    """(kind, edge) of each frame edge that some query of ``case`` stands on
    within range of the frame: "start" or "end" at that instant, "before
    start" or "before end" one microsecond earlier."""
    params, registered, (schedule, period, locate), queries = case
    frames = [("registered", start, end, pos) for start, end, pos in registered]
    horizon = max(t for t, _ in queries) + 1
    frames += [
        ("beacon", start, start + tx_time_us(params), locate(v, start))
        for phase, v in schedule
        for start in range(phase, horizon + 1, period)
    ]
    reached = set()
    for t, (px, py) in queries:
        for kind, start, end, (x, y) in frames:
            if math.hypot(x - px, y - py) <= params.range_m:
                for edge, at in (("start", start), ("end", end)):
                    if t == at:
                        reached.add((kind, edge))
                    elif t == at - 1:
                        reached.add((kind, f"before {edge}"))
    return reached


def test_queries_on_frame_edges_match_the_frames_on_air():
    # carrier sense and contention at the instants where a frame joins or
    # leaves the air, against every frame on air enumerated afresh
    reached = Counter()

    @settings(
        max_examples=150, deadline=None, derandomize=True,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(frame_edges())
    def check(case):
        params, registered, beacons, queries = case
        ch = frame_edge_channel(params, registered, beacons)
        # never queried itself, so it keeps every registered frame and no beacon
        ref = frame_edge_channel(params, registered, beacons)
        r = params.range_m
        for t, (px, py) in queries:
            heard = [end for end, x, y in frames_on_air(ref, t) if math.hypot(x - px, y - py) <= r]
            assert ch.concurrent_near((px, py), t) == len(heard), (t, px, py)
            assert ch.busy_until_near((px, py), t) == max(heard, default=None), (t, px, py)
        reached.update(edges_reached(case))

    check()
    # the reach floor: each edge of each kind of frame is asked about, within
    # range, in at least 10 of the 150 examples; mend the strategy if not,
    # never the floor
    for kind in ("registered", "beacon"):
        for edge in ("start", "before start", "end", "before end"):
            assert reached[kind, edge] >= 10, reached


# -- hops against the per-hop reference ----------------------------------------

coords = st.floats(-400.0, 400.0, allow_nan=False)


@st.composite
def hop_cases(draw):
    """A channel with registered and beacon frames on air, a source and
    receivers inside, at and beyond ``reach``, with or without buildings,
    contending or not, and with or without an own frame left out."""
    params = RadioParams(
        range_m=draw(st.sampled_from([100.0, 250.0])),
        base_loss=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        loss_slope=draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])),
        # a 1-byte frame at 2 Gb/s leaves a near hop's delay to the floor of 1 us
        data_rate_bps=draw(st.sampled_from([2_000_000, 2_000_000_000])),
        msg_size_bytes=draw(st.sampled_from([256, 1])),
    )
    reach = draw(st.sampled_from([params.range_m, 180.0]))
    src = (draw(coords), draw(coords))
    rims = [
        (src[0] + reach, src[1]),
        (src[0], src[1] - reach),
        (src[0] + 0.6 * reach, src[1] + 0.8 * reach),
        (src[0] - reach - 1e-6, src[1]),
    ]
    spots = draw(st.lists(st.one_of(st.tuples(coords, coords), st.sampled_from(rims)),
                          min_size=1, max_size=10))
    rects = []
    for _ in range(draw(st.integers(0, 4))):
        x0, y0 = draw(coords), draw(coords)
        rects.append((x0, y0, x0 + draw(st.floats(5.0, 150.0)), y0 + draw(st.floats(5.0, 150.0))))
    t = draw(st.integers(0, 6_000))
    frames = [
        (start, start + draw(st.integers(1, 3_000)), (draw(coords), draw(coords)))
        for start in draw(st.lists(st.integers(0, 6_000), max_size=6))
    ]
    period = draw(st.integers(500, 3_000))
    beaconers = draw(st.lists(st.tuples(coords, coords), max_size=8))
    phases = [draw(st.integers(0, period - 1)) for _ in beaconers]
    own = draw(st.sampled_from([None, src]))
    if own is not None:
        frames.append((t, t + 1_024, own))  # the own frame is on air at t
    return dict(
        params=params, obstacles=ObstacleMap(rects), reach=reach, src=src, spots=spots,
        receivers=draw(st.permutations(range(len(spots)))), t=t, frames=frames,
        beacons=(sorted((p, v) for v, p in enumerate(phases)), period, beaconers),
        contend=draw(st.booleans()), own=own, seed=draw(st.integers(0, 2**32 - 1)),
    )


def channel_for(case):
    ch = Channel(case["params"], case["obstacles"], random.Random(0), random.Random(case["seed"]))
    for start, end, pos in case["frames"]:
        ch.register(start, end, pos)
    schedule, period, beaconers = case["beacons"]
    ch.set_beacons(schedule, period, lambda v, start: beaconers[v])
    return ch


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hop_cases())
def test_hops_equal_the_per_hop_reference(case):
    src, spots, t, own, reach = case["src"], case["spots"], case["t"], case["own"], case["reach"]

    def locate(v, at):
        assert at == t
        return spots[v]

    ch = channel_for(case)
    got = ch.hops(src, case["receivers"], locate, reach, t, case["contend"], own)
    ref = channel_for(case)
    near = (lambda pos: ref.concurrent_near(pos, t, own)) if case["contend"] else None
    want = [
        (rid, evaluate_hop(src, spots[rid], reach, case["params"], case["obstacles"], near,
                           ref.loss_rng))
        for rid in case["receivers"]
    ]
    assert got == want
    assert ch.loss_rng.getstate() == ref.loss_rng.getstate()
