"""Vehicle position models: synthetic highway and grid fleets, recorded traces.

All providers answer the same two questions: where is vehicle v at time t
(in microseconds), as a Position, and is v a gateway.  Synthetic fleets are
street fleets: they draw each vehicle's street, start and constant speed
once from the "mobility" RNG stream.  Trace fleets interpolate linearly
between recorded samples and clamp at the trace ends.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from bisect import bisect_right
from dataclasses import dataclass
from decimal import InvalidOperation
from functools import partial
from math import floor
from random import Random
from typing import Collection, Mapping, NamedTuple, Optional, Sequence

from .engine import SimTime, US_PER_S, to_us
from .errors import AT_LEAST_1, POSITIVE, UNIT_INTERVAL, ConfigError, TraceParseError, check_bounds

# 1 mph is exactly 0.44704 m/s.
MPH_TO_MPS = 0.44704

LANE_WIDTH_M = 3.5

MODE_HIGHWAY = "synthetic_highway"
MODE_GRID = "synthetic_grid"
MODE_TRACE = "trace"
MODES = (MODE_HIGHWAY, MODE_GRID, MODE_TRACE)

MAX_VEHICLES = 10_000


class Position(NamedTuple):
    x: float
    y: float


#: ``_position((x, y))`` is ``Position(x, y)``, built without the Python
#: frame of the NamedTuple constructor; the providers build one per lookup
_position = partial(tuple.__new__, Position)


def distance(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass
class VehicleState:
    vehicle_id: int
    pos: Position
    is_gateway: bool = False


#: one trace vehicle's samples: strictly increasing times (µs) and the
#: position recorded at each
Track = tuple[list[SimTime], list[Position]]


@dataclass
class MobilitySpec:
    mode: str = MODE_HIGHWAY
    vehicle_count: int = 50
    road_length_m: float = 10_000.0
    lanes: int = 2
    speed_range_mph: tuple[float, float] = (30.0, 60.0)
    trace_path: Optional[str] = None
    grid_blocks: int = 5
    grid_spacing_m: float = 200.0
    gateway_fraction: float = 0.05

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mobility.mode: unknown mode {self.mode!r}")
        if not 1 <= int(self.vehicle_count) <= MAX_VEHICLES:
            raise ConfigError(
                f"mobility.vehicle_count: {self.vehicle_count} outside [1, {MAX_VEHICLES}]"
            )
        check_bounds("mobility", self, {"road_length_m": POSITIVE, "lanes": AT_LEAST_1})
        lo, hi = self.speed_range_mph
        if lo < 0 or hi < lo:
            raise ConfigError(
                f"mobility.speed_range_mph: bad range ({lo}, {hi}); need 0 <= min <= max"
            )
        if self.mode == MODE_TRACE and not self.trace_path:
            raise ConfigError("mobility.trace_path: required when mode is 'trace'")
        check_bounds("mobility", self, {
            "grid_blocks": AT_LEAST_1, "grid_spacing_m": POSITIVE,
            "gateway_fraction": UNIT_INTERVAL,
        })


def gateway_count(n: int, fraction: float) -> int:
    return min(n, int(round(n * fraction)))


class MobilityProvider:
    """Interface shared by all providers.

    A provider also defines ``position_at(vehicle_id, t_us)`` and
    ``max_drift_mps()``, an upper bound on how fast any vehicle's position
    can change.  Between two wraps (see ``wrap_period``) a vehicle's path
    is continuous.
    """

    vehicle_ids: list[int]

    #: the gateways (buses) are the vehicles with the lowest ids
    _n_gateways = 0

    @property
    def vehicle_count(self) -> int:
        return len(self.vehicle_ids)

    def is_gateway(self, vehicle_id: int) -> bool:
        return vehicle_id < self._n_gateways

    def wrap_period(self, vehicle_id: int) -> tuple[Optional[float], Optional[float]]:
        """The periods (x, y) of the axes on which ``vehicle_id``'s coordinate
        wraps, jumping from one end of ``[0, period]`` to the other; None
        means it never wraps on that axis."""
        return (None, None)

    def fleet_at(self, t_us: SimTime) -> list[VehicleState]:
        """Every vehicle's state at ``t_us``.  No run calls this; tests and
        the benchmark's ``fleet_at`` metrics still do."""
        return [
            VehicleState(v, self.position_at(v, t_us), self.is_gateway(v))
            for v in self.vehicle_ids
        ]


class StreetProvider(MobilityProvider):
    """Constant-velocity vehicles, each on one straight street that wraps.

    A vehicle is ``(horizontal, fixed_m, offset_m, velocity_mps)``: at time
    t it sits ``(offset + velocity * t) % period`` along x when horizontal,
    else along y, and at ``fixed`` on the other axis.
    """

    def __init__(self, vehicles: Sequence, period_m: float, gateway_fraction: float):
        self._vehicles = list(vehicles)
        self._period = period_m
        # the wrap periods (x, y) of a vertical and of a horizontal vehicle
        self._wraps = ((None, period_m), (period_m, None))
        self.vehicle_ids = list(range(len(self._vehicles)))
        self._n_gateways = gateway_count(len(self._vehicles), gateway_fraction)

    def position_at(self, vehicle_id: int, t_us: SimTime) -> Position:
        horizontal, fixed, offset, velocity = self._vehicles[vehicle_id]
        along = (offset + velocity * (t_us / US_PER_S)) % self._period
        return _position((along, fixed) if horizontal else (fixed, along))

    def max_drift_mps(self) -> float:
        return max((abs(v[3]) for v in self._vehicles), default=0.0)

    def wrap_period(self, vehicle_id: int) -> tuple[Optional[float], Optional[float]]:
        """A vehicle wraps on the axis it drives along, and only there."""
        return self._wraps[self._vehicles[vehicle_id][0]]


def _speed_range_mps(spec: MobilitySpec, rng: Optional[Random]) -> tuple[float, float]:
    """The bounds of a random fleet's speed draw, in m/s."""
    if rng is None:
        raise ConfigError("synthetic mobility needs an RNG stream")
    lo, hi = spec.speed_range_mph
    return lo * MPH_TO_MPS, hi * MPH_TO_MPS


class SyntheticHighwayProvider(StreetProvider):
    """Constant-speed vehicles on a straight multi-lane road that wraps.

    Each vehicle draws (start x, lane, speed) once and moves along +x, so
    the fleet's spacing statistics stay put for the whole run.  ``initial``
    replaces the draws with explicit (x0_m, lane, speed_mps) triples.
    """

    def __init__(
        self, spec: MobilitySpec, rng: Optional[Random] = None, initial: Optional[Sequence] = None
    ):
        length = spec.road_length_m
        if initial is None:
            lo, hi = _speed_range_mps(spec, rng)
            initial = [
                (rng.uniform(0.0, length), rng.randrange(spec.lanes), rng.uniform(lo, hi))
                for _ in range(spec.vehicle_count)
            ]
        super().__init__(
            [(True, int(lane) * LANE_WIDTH_M, float(x), float(s)) for x, lane, s in initial],
            length, spec.gateway_fraction,
        )


class SyntheticGridProvider(StreetProvider):
    """Constant-speed vehicles on a square street grid that wraps.

    Streets run along x = i * spacing and y = j * spacing, 0 <= i, j <= blocks.
    Each vehicle draws a street, start, direction and speed once; block
    interiors are left to the obstacle map.  ``initial`` replaces the draws
    with explicit (orientation "h"|"v", street, offset_m, +-1, speed_mps).
    """

    def __init__(
        self, spec: MobilitySpec, rng: Optional[Random] = None, initial: Optional[Sequence] = None
    ):
        extent = spec.grid_blocks * spec.grid_spacing_m
        if initial is None:
            lo, hi = _speed_range_mps(spec, rng)
            initial = [
                (
                    "h" if rng.random() < 0.5 else "v",
                    rng.randrange(spec.grid_blocks + 1),
                    rng.uniform(0.0, extent),
                    1 if rng.random() < 0.5 else -1,
                    rng.uniform(lo, hi),
                )
                for _ in range(spec.vehicle_count)
            ]
        super().__init__(
            [(o == "h", int(i) * spec.grid_spacing_m, float(d), int(s) * float(v))
             for o, i, d, s, v in initial],
            extent, spec.gateway_fraction,
        )


class TraceProvider(MobilityProvider):
    """Playback of recorded samples with linear interpolation.

    ``tracks`` maps each trace vehicle id (a string) to its samples, as
    ``parse_fcd`` returns them; the provider keeps those lists, it does not
    copy them.  Queries before the first or after the last sample of a
    vehicle clamp to that sample.  Vehicle ids are mapped to integer ids in
    the order of ``tracks``.
    """

    def __init__(self, tracks: Mapping[str, Track], gateway_fraction: float = 0.0):
        if not tracks:
            raise ConfigError("trace contains no vehicle samples")
        self.vehicle_ids = list(range(len(tracks)))  # first-appearance order
        self._times: list[list[SimTime]] = []
        self._points: list[list[Position]] = []
        hypot = math.hypot
        drift = 0.0
        for label, (times, points) in tracks.items():
            self._times.append(times)
            self._points.append(points)
            t0 = times[0]
            x0, y0 = points[0]
            for k in range(1, len(times)):
                t1 = times[k]
                if t1 <= t0:
                    raise TraceParseError(
                        f"vehicle '{label}': sample timestamps must be strictly increasing"
                    )
                x1, y1 = points[k]
                step = hypot(x0 - x1, y0 - y1) / ((t1 - t0) / US_PER_S)
                if step > drift:
                    drift = step
                t0, x0, y0 = t1, x1, y1
        self._max_drift = drift
        self._n_gateways = gateway_count(len(tracks), gateway_fraction)

    def position_at(self, vehicle_id: int, t_us: SimTime) -> Position:
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
        return _position((p0.x + frac * (p1.x - p0.x), p0.y + frac * (p1.y - p0.y)))

    def max_drift_mps(self) -> float:
        return self._max_drift

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [p.x for pts in self._points for p in pts]
        ys = [p.y for pts in self._points for p in pts]
        return (min(xs), min(ys), max(xs), max(ys))


def _seconds_to_us(text: str, where: str) -> SimTime:
    try:
        return to_us(text)
    except (InvalidOperation, ValueError) as exc:  # int(Decimal("NaN")) raises ValueError
        raise TraceParseError(f"{where}: bad time value {text!r}") from exc


def _require(tag: str, attrib: Mapping[str, str], attr: str, where: str) -> str:
    value = attrib.get(attr)
    if value is None:
        raise TraceParseError(f"{where}: {tag} element missing required attribute '{attr}'")
    return value


def _float_attr(tag: str, attrib: Mapping[str, str], attr: str, where: str) -> float:
    raw = _require(tag, attrib, attr, where)
    try:
        value = float(raw)
    except ValueError as exc:
        raise TraceParseError(f"{where}: attribute '{attr}' is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise TraceParseError(f"{where}: attribute '{attr}' is not finite: {raw!r}")
    return value


class _FcdTarget:
    """The expat target of ``parse_fcd``: it reads each sample from its
    start tag, so no element is ever built.

    A depth-3 ``vehicle`` under a depth-2 ``timestep`` is one sample.  Each
    callback only records: the root's tag, the tracks, and the first sample
    error, after which it collects nothing more.  ``parse_fcd`` raises that
    error once the document has parsed and its root has been checked.
    """

    __slots__ = ("path", "root", "tracks", "error", "_depth", "_time_us", "_where")

    def __init__(self, path: str):
        self.path = path
        self.root: Optional[str] = None
        self.tracks: dict[str, Track] = {}
        self.error: Optional[TraceParseError] = None
        self._depth = 0
        # the open timestep's time, None while the open depth-2 element is
        # not a timestep and once an error is recorded; and the text that
        # names the timestep in sample errors
        self._time_us: Optional[SimTime] = None
        self._where = ""

    def start(self, tag: str, attrib: dict[str, str]) -> None:
        depth = self._depth = self._depth + 1
        if depth == 3:
            # one sample, read here rather than in a helper: this runs once
            # per vehicle element, and a call more per sample shows in setup_s
            time_us = self._time_us
            if tag != "vehicle" or time_us is None:
                return
            try:
                vid = attrib["id"]
                x = float(attrib["x"])
                y = float(attrib["y"])
                speed = float(attrib["speed"])  # validated only; motion comes from x, y
            except (KeyError, ValueError):
                x = y = speed = math.nan
            isfinite = math.isfinite
            try:
                if not (isfinite(x) and isfinite(y) and isfinite(speed)):
                    # the attribute-by-attribute checks raise, naming what is wrong
                    where = self._where
                    vid = _require(tag, attrib, "id", where)
                    x = _float_attr(tag, attrib, "x", where)
                    y = _float_attr(tag, attrib, "y", where)
                    _float_attr(tag, attrib, "speed", where)
                track = self.tracks.get(vid)
                if track is None:
                    self.tracks[vid] = ([time_us], [_position((x, y))])
                    return
                times, points = track
                if time_us <= times[-1]:
                    raise TraceParseError(
                        f"{self._where}: vehicle '{vid}' timestamp does not increase "
                        f"(previous sample at {times[-1]}us)"
                    )
            except TraceParseError as exc:
                self._fail(exc)
                return
            times.append(time_us)
            points.append(_position((x, y)))
        elif depth == 2:
            self._time_us = None
            if tag == "timestep" and self.error is None:
                try:
                    raw_time = _require(tag, attrib, "time", self.path)
                    self._time_us = _seconds_to_us(raw_time, self.path)
                except TraceParseError as exc:
                    self._fail(exc)
                    return
                self._where = f"{self.path}: timestep {raw_time}"
        elif depth == 1:
            self.root = tag

    def end(self, tag: str) -> None:
        self._depth -= 1

    def _fail(self, exc: TraceParseError) -> None:
        """Record the first sample error and collect nothing more."""
        self.error = exc
        self._time_us = None


def parse_fcd(path: str) -> dict[str, Track]:
    """Parse the floating-car-data XML subset into one track per vehicle.

    Expected shape: an ``fcd-export`` root holding ``timestep`` elements
    (attribute ``time`` in seconds), each holding ``vehicle`` elements with
    ``id``, ``x``, ``y`` and ``speed``.  Unknown elements and attributes
    are ignored.  Times are converted to whole microseconds, rounding
    half-up.  Per vehicle, timestamps must be strictly increasing.  The
    tracks are keyed by vehicle id in order of first appearance.

    The file streams through expat, the parser ``ET.parse`` uses, and each
    sample is read from its start tag; no element tree is built.  Faults are
    reported in this order, whatever their place in the file: malformed XML,
    a wrong root, the first bad sample in document order (a missing or
    non-finite attribute, a bad time, a time that does not increase), then
    a trace with no samples.
    """
    target = _FcdTarget(path)
    parser = ET.XMLParser(target=target)
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 16):
                parser.feed(chunk)
        parser.close()
    except ET.ParseError as exc:
        raise TraceParseError(f"{path}: malformed XML: {exc}") from exc
    except OSError as exc:
        raise TraceParseError(f"{path}: {exc}") from exc
    if target.root != "fcd-export":
        raise TraceParseError(
            f"{path}: root element is '{target.root}', expected 'fcd-export'"
        )
    if target.error is not None:
        raise target.error
    if not target.tracks:
        raise TraceParseError(f"{path}: trace contains no vehicle samples")
    return target.tracks


def load_tracks(spec: MobilitySpec) -> Optional[dict[str, Track]]:
    """The parsed trace of a trace fleet; None for a synthetic one."""
    return parse_fcd(spec.trace_path) if spec.mode == MODE_TRACE else None


def build_provider(
    spec: MobilitySpec,
    rng: Optional[Random],
    tracks: Optional[Mapping[str, Track]] = None,
) -> MobilityProvider:
    """The provider for ``spec``.  A trace fleet plays ``tracks``, the
    already parsed ``spec.trace_path``; None parses the file here."""
    if spec.mode == MODE_HIGHWAY:
        return SyntheticHighwayProvider(spec, rng)
    if spec.mode == MODE_GRID:
        return SyntheticGridProvider(spec, rng)
    if tracks is None:
        tracks = parse_fcd(spec.trace_path)
    provider = TraceProvider(tracks, spec.gateway_fraction)
    if provider.vehicle_count != spec.vehicle_count:
        raise ConfigError(
            f"mobility.vehicle_count: configured {spec.vehicle_count} but trace "
            f"'{spec.trace_path}' contains {provider.vehicle_count} vehicles"
        )
    return provider


class CellGrid:
    """Items filed by point in square cells a hair wider than ``reach``.

    A cell is ``reach * (1 + 1e-6)`` wide, and a point's cell is
    ``(floor(x / cell), floor(y / cell))``.  Every item filed at a point
    within ``reach`` of ``(x, y)`` lies in the 3x3 cells around the cell of
    ``(x, y)``, which ``near`` returns: the padding is far wider than the
    float rounding in ``x / cell``, and than a distance test that accepts a
    point a few float steps beyond the reach, for coordinates up to a
    billion cells from the origin.  A caller that tests each item at its
    distance therefore misses nothing within the reach, whichever cells the
    rounding picks.  ``within`` serves a wider reach.

    Items are filed before the first query: a neighbourhood is joined cell
    by cell, in filing order within a cell, on first use and kept.
    """

    __slots__ = ("cell", "_cells", "_near")

    def __init__(self, reach: float):
        self.cell = reach * (1.0 + 1e-6)
        self._cells: dict[tuple[int, int], list] = {}
        self._near: dict[tuple[int, int], list] = {}

    def add(self, x: float, y: float, item) -> None:
        cell = self.cell
        self._cells.setdefault((floor(x / cell), floor(y / cell)), []).append(item)

    def near(self, x: float, y: float) -> list:
        """The items of the 3x3 cells around the cell of ``(x, y)``."""
        cell = self.cell
        key = (floor(x / cell), floor(y / cell))
        near = self._near.get(key)
        if near is None:
            i, j = key
            cells = self._cells
            near = self._near[key] = [
                item
                for a in (i - 1, i, i + 1)
                for b in (j - 1, j, j + 1)
                for item in cells.get((a, b), ())
            ]
        return near

    def within(self, x: float, y: float, r: float) -> list[list]:
        """The item lists of every cell that the square of half-side ``r``
        around ``(x, y)`` overlaps."""
        cell, cells = self.cell, self._cells
        return [
            cells.get((a, b), ())
            for a in range(floor((x - r) / cell), floor((x + r) / cell) + 1)
            for b in range(floor((y - r) / cell), floor((y + r) / cell) + 1)
        ]


class NeighborIndex:
    """Coarse spatial index over the fleet for range queries.

    The index holds a snapshot of every vehicle's position, rebuilt lazily
    once the query time is more than the refresh interval, ``REFRESH_US``,
    away from the snapshot (before it or after it).  A vehicle moves at most
    ``slack = max_drift * |t - built_at|`` between its snapshot and ``t``.
    A query more than the refresh interval away rebuilds the snapshot
    first, so ``slack`` never exceeds ``edge``, the drift over one refresh
    interval plus 1e-6.

    A vehicle that wraps on an axis (see ``MobilityProvider.wrap_period``)
    jumps across the map when it crosses that axis's seam.  It can do so
    only if its snapshot lies within ``edge`` of the seam, so such a vehicle
    also gets image entries, its snapshot shifted by the period across each
    seam within ``edge``, and the diagonal image when it is near seams on
    both axes.  Whether it crossed or not, one of its entries lies within
    ``slack`` of where it is at ``t``.

    ``candidates`` returns ``(vid, certain)`` pairs sorted by id, one per
    vehicle with an entry within ``reach = radius + slack + 1e-9`` of the
    center; by the triangle inequality that holds for every vehicle actually
    within ``radius`` at ``t``.

    The entries are filed in a ``CellGrid`` of reach ``span = cell_m +
    edge``.  Every query with ``radius <= cell_m`` has ``reach <= span``,
    since ``slack < edge``, so it reads the grid's 3x3 neighbourhood of the
    center.  A wider query, such as a station's region, scans every cell
    its reach overlaps.

    ``certain`` means the vehicle is within ``radius`` at ``t`` without
    looking it up.  Again by the triangle inequality, a snapshot within
    ``radius - slack - 1e-6`` of the center puts the vehicle within
    ``radius - 1e-6``; the margin absorbs float rounding in the provider and
    in the distance.  That argument needs the snapshot to be the vehicle's
    unwrapped path, so only a vehicle's own entry can make it certain, and
    only when that entry is at least ``slack + 1e-6`` from every seam of an
    axis the vehicle wraps on.  An image is never certain.  With ``radius <=
    slack`` nothing is certain.  Callers must locate every other candidate
    and check its distance exactly.

    Ids in ``exclude`` are skipped before any distance math, so the result
    is exactly the unexcluded one minus those ids.  A candidate's flag
    depends only on its own entries, so a skip never changes another's.

    The interval trades rebuilds, each of which locates every vehicle,
    against slack, which returns candidates the caller must locate and drop.
    At 600 ms the benchmark workloads kept at least 97% of the candidates
    while every caller queried a station's region on its own (at 700 ms one
    kept 96.9%).  ``Runtime.region_members`` now queries each region once
    per instant, and those queries keep nearly every candidate, so the
    share over all queries reads 96.8% or more.  At 4 messages/s a rebuild
    serves three injects instead of one.
    """

    REFRESH_US = 600_000

    def __init__(self, provider: MobilityProvider, cell_m: float):
        self._provider = provider
        self._drift = provider.max_drift_mps()
        self._edge = self._drift * (self.REFRESH_US / US_PER_S) + 1e-6
        # the widest reach that one 3x3 neighbourhood holds
        self._span = max(cell_m, 1.0) + self._edge
        # each vehicle's wrap periods, in vehicle_ids order, read once
        self._wraps = [provider.wrap_period(v) for v in provider.vehicle_ids]
        self._built_at: Optional[SimTime] = None
        # (vid, x, y, distance from x, y to the nearest seam), filed at x, y;
        # an image's seam distance is -inf, so it is never certain
        self._grid = CellGrid(self._span)

    def _rebuild(self, t_us: SimTime) -> None:
        edge = self._edge
        locate = self._provider.position_at
        inf = math.inf
        grid = self._grid = CellGrid(self._span)
        for vid, (wrap_x, wrap_y) in zip(self._provider.vehicle_ids, self._wraps):
            x, y = locate(vid, t_us)
            seam = inf
            if wrap_x is not None:
                seam = min(x, wrap_x - x)
            if wrap_y is not None:
                seam = min(seam, y, wrap_y - y)
            grid.add(x, y, (vid, x, y, seam))
            if seam < edge:
                for ix, iy in _images(x, y, wrap_x, wrap_y, edge):
                    grid.add(ix, iy, (vid, ix, iy, -inf))
        self._built_at = t_us

    def candidates(
        self, center: Position, radius_m: float, t_us: SimTime, exclude: Collection[int] = ()
    ) -> list[tuple[int, bool]]:
        if self._built_at is None or abs(t_us - self._built_at) > self.REFRESH_US:
            self._rebuild(t_us)
        slack = self._drift * (abs(t_us - self._built_at) / US_PER_S)
        reach = radius_m + slack + 1e-9
        reach2 = reach * reach
        sure = radius_m - slack - 1e-6
        sure2 = sure * sure if sure > 0 else -1.0
        margin = slack + 1e-6  # the least seam distance of a certain snapshot
        cx, cy = center
        grid = self._grid
        lists = (grid.near(cx, cy),) if reach <= self._span else grid.within(cx, cy, reach)
        found: dict[int, bool] = {}
        for entries in lists:
            for vid, x, y, seam in entries:
                if vid in exclude:
                    continue
                dx, dy = x - cx, y - cy
                d2 = dx * dx + dy * dy
                if d2 <= reach2:
                    if d2 <= sure2 and seam >= margin:
                        found[vid] = True
                    elif vid not in found:
                        found[vid] = False
        return sorted(found.items())


def _images(
    x: float, y: float, wrap_x: Optional[float], wrap_y: Optional[float], edge: float
) -> list[tuple[float, float]]:
    """The copies of ``(x, y)`` shifted by a period across each seam within
    ``edge``, diagonal copies included; the first product pair is ``(x, y)``
    itself."""
    xs, ys = [x], [y]
    if wrap_x is not None:
        if x < edge:
            xs.append(x + wrap_x)
        if x > wrap_x - edge:
            xs.append(x - wrap_x)
    if wrap_y is not None:
        if y < edge:
            ys.append(y + wrap_y)
        if y > wrap_y - edge:
            ys.append(y - wrap_y)
    return [(ix, iy) for ix in xs for iy in ys][1:]
