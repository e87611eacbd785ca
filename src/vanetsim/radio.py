"""DSRC-style radio: range gate, sight blockage, timing, loss, and the
channel that owns what is on the air and who hears it.

A hop either delivers or fails for exactly one reason: out_of_range (the
receiver is beyond the radio range), shadowed (the straight line between
the two positions passes through a building), or channel_loss (a Bernoulli
draw whose probability grows with the number of other transmissions
audible at the receiver when the hop fires).  ``Channel.hops`` is the one
hop evaluator: vehicle frames, metered beacons, station downlinks and
``Channel.uplink`` all go through it.  There is no MAC state
machine: while another transmission is audible at a vehicle sender, its
attempt waits until the channel frees up (a bounded number of times),
then a random backoff is added and the frame goes out.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from math import hypot, isfinite
from random import Random
from typing import Callable, Optional

from .engine import US_PER_S, SimTime
from .errors import NON_NEGATIVE, POSITIVE, UNIT_INTERVAL, ConfigError, check_bounds
from .mobility import Position

OUT_OF_RANGE = "out_of_range"
SHADOWED = "shadowed"
CHANNEL_LOSS = "channel_loss"
LOSS_CAUSES = (OUT_OF_RANGE, SHADOWED, CHANNEL_LOSS)

# Higher rank wins when several transmissions failed toward the same
# recipient and a single recorded cause must be picked.
_CAUSE_RANK = {OUT_OF_RANGE: 1, SHADOWED: 2, CHANNEL_LOSS: 3}


def note_cause(noted: dict, key, cause: str) -> None:
    """Keep in ``noted[key]`` the highest-ranked loss cause seen so far."""
    prev = noted.get(key)
    if prev is None or _CAUSE_RANK[cause] > _CAUSE_RANK[prev]:
        noted[key] = cause


@dataclass
class RadioParams:
    range_m: float = 300.0
    data_rate_bps: int = 2_000_000
    msg_size_bytes: int = 256
    prop_speed_mps: float = 3.0e8
    base_loss: float = 0.02
    loss_slope: float = 0.001
    max_backoff_us: int = 2000
    max_defers: int = 16  # carrier-sense deferrals before transmitting anyway

    def __post_init__(self):
        check_bounds("radio", self, {
            "range_m": POSITIVE, "data_rate_bps": POSITIVE, "msg_size_bytes": POSITIVE,
            "prop_speed_mps": POSITIVE, "base_loss": UNIT_INTERVAL, "loss_slope": NON_NEGATIVE,
            "max_backoff_us": NON_NEGATIVE, "max_defers": NON_NEGATIVE,
        })


@dataclass(frozen=True)
class HopOutcome:
    delivered: bool
    delay_us: Optional[int] = None
    loss_cause: Optional[str] = None

    def __post_init__(self):
        if self.delivered and (self.delay_us is None or self.loss_cause is not None):
            raise ValueError("delivered hop must carry a delay and no loss cause")
        if not self.delivered and (
            self.loss_cause not in LOSS_CAUSES or self.delay_us is not None
        ):
            raise ValueError("lost hop must carry exactly a loss cause")


# Outcomes are values: one instance per loss cause, built and validated
# here, and one per delivered delay (which depends only on the distance).
_OUT_OF_RANGE_HOP = HopOutcome(False, loss_cause=OUT_OF_RANGE)
_SHADOWED_HOP = HopOutcome(False, loss_cause=SHADOWED)
_CHANNEL_LOSS_HOP = HopOutcome(False, loss_cause=CHANNEL_LOSS)


@lru_cache(maxsize=1024)
def _delivered_hop(delay_us: int) -> HopOutcome:
    return HopOutcome(True, delay_us=delay_us)


Rect = tuple[float, float, float, float]  # x_min, y_min, x_max, y_max


def _rect(values, where: str) -> Rect:
    """``values`` as a rectangle: 4 finite numbers with x_min < x_max and
    y_min < y_max.  An error names the rectangle by ``where``."""
    if len(values) != 4:
        raise ConfigError(
            f"{where}: expected [x_min, y_min, x_max, y_max] (4 numbers), got {len(values)}"
        )
    try:
        rect = x0, y0, x1, y1 = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    # float() reads nan and inf, and a nan rectangle never blocks sight
    if not all(map(isfinite, rect)):
        raise ConfigError(f"{where}: coordinates must be finite")
    if x0 >= x1 or y0 >= y1:
        raise ConfigError(f"{where}: degenerate rectangle {rect}")
    return rect


@dataclass
class ObstacleMap:
    """Axis-aligned rectangles whose interiors block line of sight."""

    rects: list[Rect] = field(default_factory=list)

    def __post_init__(self):
        self.rects = [_rect(r, f"obstacles[{i}]") for i, r in enumerate(self.rects)]

    def near(self, x: float, y: float, reach: float) -> "ObstacleMap":
        """The rectangles whose boxes meet the square of half-side ``reach``
        around ``(x, y)``, as a map; they are not checked again.

        ``line_of_sight`` from ``(x, y)`` to any point within ``reach`` of it
        answers the same on this map as on the full one: that segment lies
        in the square, so its box test skips every other rectangle.  Each
        comparison subtracts coordinates rather than forming ``x - reach``,
        so rounding cannot drop a rectangle the box test keeps.
        """
        near = object.__new__(ObstacleMap)
        near.rects = [
            rect
            for rect in self.rects
            if rect[0] - x <= reach
            and x - rect[2] <= reach
            and rect[1] - y <= reach
            and y - rect[3] <= reach
        ]
        return near

    @classmethod
    def load(cls, path: str) -> "ObstacleMap":
        """Read one rectangle per line: x_min y_min x_max y_max.

        Blank lines are skipped; '#' starts a comment.
        """
        rects: list[Rect] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    text = line.split("#", 1)[0].strip()
                    if not text:
                        continue
                    rects.append(_rect(text.split(), f"{path}:{lineno}"))
        except OSError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return cls(rects)


EMPTY_MAP = ObstacleMap([])


def line_of_sight(a: Position, b: Position, obstacles: ObstacleMap) -> bool:
    """True when no rectangle interior intersects the open segment a-b.

    Each rectangle whose box meets the segment's box is tested with a
    Liang-Barsky clip of the segment to the closed rectangle.  The segment
    is blocked only when the clipped portion has positive length and runs
    through the interior; corner or edge grazing keeps sight clear.
    """
    rects = obstacles.rects
    if not rects:
        return True
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    # Canonical endpoint order makes the test exactly symmetric; it also
    # leaves ax <= bx, so the clip's x parameters are -dx <= 0 and dx >= 0.
    if (bx, by) < (ax, ay):
        ax, ay, bx, by = bx, by, ax, ay
    lo_y, hi_y = (ay, by) if ay <= by else (by, ay)
    dx = bx - ax
    dy = by - ay
    point = dx == 0.0 and dy == 0.0
    for x0, y0, x1, y1 in rects:
        if bx < x0 or ax > x1 or hi_y < y0 or lo_y > y1:
            continue
        if point:
            if x0 < ax < x1 and y0 < ay < y1:
                return False
            continue
        # Clip against the edges x0, x1, y0, y1 in that order: edge (p, q)
        # is (-dx, ax - x0), (dx, x1 - ax), (-dy, ay - y0), (dy, y1 - ay).
        # p == 0 with q < 0 misses; r = q / p raises t0 when p < 0 and
        # lowers t1 when p > 0; a crossed window misses.
        t0, t1 = 0.0, 1.0
        if dx == 0.0:
            if ax - x0 < 0.0 or x1 - ax < 0.0:
                continue
        else:
            r = (ax - x0) / -dx
            if r > t1:
                continue
            if r > t0:
                t0 = r
            r = (x1 - ax) / dx
            if r < t0:
                continue
            if r < t1:
                t1 = r
        if dy == 0.0:
            if ay - y0 < 0.0 or y1 - ay < 0.0:
                continue
        elif dy > 0.0:
            r = (ay - y0) / -dy
            if r > t1:
                continue
            if r > t0:
                t0 = r
            r = (y1 - ay) / dy
            if r < t0:
                continue
            if r < t1:
                t1 = r
        else:
            r = (ay - y0) / -dy
            if r < t0:
                continue
            if r < t1:
                t1 = r
            r = (y1 - ay) / dy
            if r > t1:
                continue
            if r > t0:
                t0 = r
        if t1 <= t0:
            continue
        tm = (t0 + t1) / 2.0
        mx = ax + tm * dx
        my = ay + tm * dy
        if x0 < mx < x1 and y0 < my < y1:
            return False
    return True


def _tx_us(params: RadioParams) -> float:
    """A frame's transmission time in fractional microseconds."""
    return params.msg_size_bytes * 8 * US_PER_S / params.data_rate_bps


def tx_time_us(params: RadioParams) -> int:
    """How long a frame is on air: every frame is ``msg_size_bytes`` long."""
    return max(1, int(_tx_us(params) + 0.5))


def channel_loss(params: RadioParams, concurrent_tx: int, rng: Random) -> bool:
    """Bernoulli loss draw; probability min(1, base + slope * concurrent).

    Always consumes exactly one draw from the stream so the draw sequence
    stays aligned no matter what the probability works out to.
    """
    q = min(1.0, params.base_loss + params.loss_slope * concurrent_tx)
    return rng.random() < q


class Channel:
    """Everything on air: transmissions and beacons, in one heap.

    The channel owns the frame length, the ``radio-loss`` stream every
    contention draw takes from and the backoff stream; hops, uplinks and
    carrier sense all ask it.

    Frames on air are (end, start, x, y) entries in a heap by end time, so
    ended ones drop off in O(log n).  A transmission is registered when it
    is sent.  Vehicle v beacons a frame of ``frame_us`` at ``phase_v + k *
    period_us`` for every k >= 0; a beacon frame joins the heap once the
    channel is asked about a time at or after its start, found by a bisect
    over the phases, sorted once.  Its origin is its vehicle's position at
    the frame's start, looked up once as it joins.

    Ended frames leave the heap in one place: when a query asks about a
    time later than any asked before, the beacon frames started since join
    and every frame ended by then is popped.  That is exact because every
    frame is registered at the current event time and ends after it
    (``start + frame_us``, uplinks included), and every beacon frame that
    joins is still on air: at an instant already asked about, no frame on
    the heap has ended.

    Tie rule, for every frame: a frame that starts at s and ends at e is on
    air for s <= t < e, and audible at a point within radio range of its
    origin.  A beacon that starts at t is therefore audible at t whatever
    else happens at t.  Queries come at nondecreasing times, as the event
    loop asks.

    A query skips a frame whose ``dx`` from the query point exceeds the
    range before it calls ``hypot``.  That is exact: ``hypot(dx, dy)`` is
    faithfully rounded, and ``|dx|`` is a float no greater than the exact
    length, so ``hypot(dx, dy) >= |dx|`` and a skipped frame would have
    failed the range test anyway.
    """

    def __init__(self, params: RadioParams, obstacles: ObstacleMap, backoff_rng, loss_rng):
        self.params = params
        self.obstacles = obstacles
        # every frame is radio.msg_size_bytes long, so on air this long
        self.frame_us = tx_time_us(params)
        # and its unrounded transmission time, the first term of a hop's delay
        self._tx_us = _tx_us(params)
        self._rng = backoff_rng
        self.loss_rng = loss_rng
        self._active: list[tuple[SimTime, SimTime, float, float]] = []
        self._phases: list[SimTime] = []
        self._beaconers: list[int] = []
        self._period: SimTime = 0
        self._locate = None
        # the latest time asked about: each beacon frame started by then has
        # joined _active, and each frame ended by then has left it
        self._asked: SimTime = -1

    def set_beacons(
        self,
        schedule: list[tuple[SimTime, int]],
        period_us: SimTime,
        locate: Callable[[int, SimTime], Position],
    ) -> None:
        """Put every vehicle's beacons on air.

        ``schedule`` holds (phase, vehicle) pairs sorted by phase, each
        phase in [0, period_us); ``locate(v, t)`` is v's position at t.
        """
        self._phases = [phase for phase, _ in schedule]
        self._beaconers = [v for _, v in schedule]
        self._period, self._locate = period_us, locate

    def register(self, start: SimTime, end: SimTime, pos: Position) -> None:
        heapq.heappush(self._active, (end, start, pos.x, pos.y))

    def _advance_to(self, t: SimTime) -> None:
        """Bring the heap to ``t``: push the beacon frames that started
        after the last query and are on air at ``t``, then pop every frame
        that has ended by ``t``.  Callers ask only when ``t`` is later."""
        active, period, frame = self._active, self._period, self.frame_us
        after = max(self._asked, t - frame)
        self._asked = t
        if period:
            locate, phases, beaconers = self._locate, self._phases, self._beaconers
            # frame k of v is pushed when after < phase_v + k * period <= t
            for k in range(max(0, after // period), t // period + 1):
                base = k * period
                for i in range(bisect_right(phases, after - base), bisect_right(phases, t - base)):
                    start = phases[i] + base
                    x, y = locate(beaconers[i], start)
                    heapq.heappush(active, (start + frame, start, x, y))
        while active and active[0][0] <= t:
            heapq.heappop(active)

    def concurrent_near(self, pos: Position, t: SimTime, own: Optional[Position] = None) -> int:
        """Frames on air at ``t`` and audible at ``pos``.

        ``own`` is the origin of a frame on air at ``t`` that is left out:
        a metered beacon's hops do not hear the beacon's own frame.
        """
        if t > self._asked:
            self._advance_to(t)
        r = self.params.range_m
        px, py = pos
        n = 0
        for end, start, x, y in self._active:
            if -r <= (dx := x - px) <= r and start <= t and hypot(dx, y - py) <= r:
                n += 1
        if own is not None and hypot(own.x - px, own.y - py) <= r:
            n -= 1
        return n

    def busy_until_near(self, pos: Position, t: SimTime) -> Optional[SimTime]:
        """The latest end of the frames on air at ``t`` and audible at ``pos``."""
        if t > self._asked:
            self._advance_to(t)
        r = self.params.range_m
        px, py = pos
        busy = None
        for end, start, x, y in self._active:
            if -r <= (dx := x - px) <= r and start <= t and hypot(dx, y - py) <= r:
                if busy is None or end > busy:
                    busy = end
        return busy

    def draw_backoff(self) -> int:
        return self._rng.randint(0, self.params.max_backoff_us)

    def hops(
        self,
        src: Position,
        receivers: list[int],
        locate: Callable[[int, SimTime], Position],
        reach: float,
        t: SimTime,
        contend: bool = True,
        own: Optional[Position] = None,
    ) -> list[tuple[int, HopOutcome]]:
        """The hop from ``src`` to each receiver, located by ``locate(v, t)``.

        This is the one hop evaluator.  Checks run range, sight, then
        channel: a receiver beyond ``reach`` is out of range, one behind a
        building is shadowed, and only then is the channel asked.
        ``contend`` gives each such hop one ``channel_loss`` draw from
        ``loss_rng`` with the transmissions audible at its receiver
        (``concurrent_near``): true for a vehicle's frame, false for a
        scheduled station downlink, which draws nothing.  So the loss stream
        advances once per contending hop that passes range and sight.
        ``own`` is the origin of a frame whose contention the hops do not
        count (see ``concurrent_near``).

        Sight is asked only of a map with rectangles: on an empty one
        ``line_of_sight`` is always clear.  A delivered hop's delay is the
        transmission plus the propagation time, rounded half-up to whole
        microseconds and at least one.
        """
        params, obstacles, rng = self.params, self.obstacles, self.loss_rng
        walls = bool(obstacles.rects)
        tx, speed = self._tx_us, params.prop_speed_mps
        sx, sy = src
        out = []
        for rid in receivers:
            dst = locate(rid, t)
            d = hypot(sx - dst.x, sy - dst.y)
            if d > reach:
                out.append((rid, _OUT_OF_RANGE_HOP))
            elif walls and not line_of_sight(src, dst, obstacles):
                out.append((rid, _SHADOWED_HOP))
            elif contend and channel_loss(params, self.concurrent_near(dst, t, own), rng):
                out.append((rid, _CHANNEL_LOSS_HOP))
            else:
                delay = int(tx + d * US_PER_S / speed + 0.5)
                out.append((rid, _delivered_hop(delay if delay > 1 else 1)))
        return out

    def uplink(
        self, sender_pos: Position, entry_pos: Position, reach: float, t: SimTime, contend: bool
    ) -> HopOutcome:
        """A vehicle's hop into the infrastructure at ``entry_pos``.

        The hop is evaluated by ``hops`` as one receiver at the entry point.
        ``contend`` gives the hop a contention draw at the entry point: true
        for a gateway vehicle, false for a station.  Once the entry point is
        in ``reach`` and sight the frame is on air, even if the contention
        draw then loses it: a backoff is drawn, the frame is registered from
        ``t``, and a delivered hop's delay includes the backoff.
        """
        [(_, out)] = self.hops(sender_pos, [0], lambda _v, _t: entry_pos, reach, t, contend)
        if not out.delivered and out.loss_cause != CHANNEL_LOSS:
            return out
        backoff = self.draw_backoff()
        self.register(t, t + self.frame_us, sender_pos)
        return HopOutcome(True, out.delay_us + backoff) if out.delivered else out
