"""DSRC-style radio abstraction: range gate, sight blockage, timing, loss.

A hop either delivers or fails for exactly one reason: out_of_range (the
receiver is beyond the radio range), shadowed (the straight line between
the two positions passes through a building), or channel_loss (a Bernoulli
draw whose probability grows with the number of concurrent transmissions
near the receiver).  Contention is abstracted as a random backoff before
the transmission starts; there is no MAC state machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite
from random import Random
from typing import Callable, Optional

from .engine import US_PER_S
from .errors import ConfigError
from .mobility import Position, distance

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
        if self.range_m <= 0:
            raise ConfigError("radio.range_m: must be positive")
        if self.data_rate_bps <= 0:
            raise ConfigError("radio.data_rate_bps: must be positive")
        if self.msg_size_bytes <= 0:
            raise ConfigError("radio.msg_size_bytes: must be positive")
        if self.prop_speed_mps <= 0:
            raise ConfigError("radio.prop_speed_mps: must be positive")
        if not 0.0 <= self.base_loss <= 1.0:
            raise ConfigError("radio.base_loss: must lie in [0, 1]")
        if self.loss_slope < 0:
            raise ConfigError("radio.loss_slope: must be non-negative")
        if self.max_backoff_us < 0:
            raise ConfigError("radio.max_backoff_us: must be non-negative")
        if self.max_defers < 0:
            raise ConfigError("radio.max_defers: must be non-negative")


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


@dataclass
class ObstacleMap:
    """Axis-aligned rectangles whose interiors block line of sight."""

    rects: list[Rect] = field(default_factory=list)

    def __post_init__(self):
        cleaned = []
        for i, rect in enumerate(self.rects):
            if len(rect) != 4:
                raise ConfigError(f"obstacles[{i}]: need 4 numbers, got {len(rect)}")
            x0, y0, x1, y1 = (float(v) for v in rect)
            if x0 >= x1 or y0 >= y1:
                raise ConfigError(
                    f"obstacles[{i}]: degenerate rectangle ({x0}, {y0}, {x1}, {y1})"
                )
            cleaned.append((x0, y0, x1, y1))
        self.rects = cleaned

    def __len__(self) -> int:
        return len(self.rects)

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
                    parts = text.split()
                    if len(parts) != 4:
                        raise ConfigError(
                            f"{path}:{lineno}: expected 4 numbers, got {len(parts)}"
                        )
                    try:
                        rect = tuple(float(p) for p in parts)
                    except ValueError as exc:
                        raise ConfigError(f"{path}:{lineno}: {exc}") from exc
                    # float() reads nan and inf, and a nan rectangle never blocks sight
                    if not all(map(isfinite, rect)):
                        raise ConfigError(f"{path}:{lineno}: coordinates must be finite")
                    rects.append(rect)
        except OSError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        try:
            return cls(rects)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


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


def tx_time_us(params: RadioParams) -> int:
    """How long a frame is on air: every frame is ``msg_size_bytes`` long."""
    raw = params.msg_size_bytes * 8 * US_PER_S / params.data_rate_bps
    return max(1, int(raw + 0.5))


def hop_delay_us(params: RadioParams, distance_m: float) -> int:
    """Transmission plus propagation, in whole microseconds.

    The fractional transmission and propagation terms are rounded half-up;
    the result is always at least one microsecond.
    """
    tx = params.msg_size_bytes * 8 * US_PER_S / params.data_rate_bps
    prop = distance_m * US_PER_S / params.prop_speed_mps
    return max(1, int(tx + prop + 0.5))


def channel_loss(params: RadioParams, concurrent_tx: int, rng: Random) -> bool:
    """Bernoulli loss draw; probability min(1, base + slope * concurrent).

    Always consumes exactly one draw from the stream so the draw sequence
    stays aligned no matter what the probability works out to.
    """
    q = min(1.0, params.base_loss + params.loss_slope * concurrent_tx)
    return rng.random() < q


def evaluate_hop(
    src: Position,
    dst: Position,
    reach_m: float,
    params: RadioParams,
    obstacles: ObstacleMap,
    contention: Optional[Callable[[Position], int]] = None,
    rng: Optional[Random] = None,
) -> HopOutcome:
    """Evaluate one directed hop.  Checks run range, sight, then channel.

    ``contention(dst)`` counts the transmissions audible at the receiver.
    It is called, and one ``channel_loss`` draw is taken from ``rng``, only
    after range and sight pass, so the loss stream advances once per hop
    that reaches the channel.  A hop without a contention check (scheduled
    infrastructure downlink) draws nothing.
    """
    d = distance(src, dst)
    if d > reach_m:
        return _OUT_OF_RANGE_HOP
    if not line_of_sight(src, dst, obstacles):
        return _SHADOWED_HOP
    if contention is not None and channel_loss(params, contention(dst), rng):
        return _CHANNEL_LOSS_HOP
    return _delivered_hop(hop_delay_us(params, d))
