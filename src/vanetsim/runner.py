"""Run orchestration: wires mobility, stations, channel and a protocol
into the event loop, injects the workload, and sweeps densities/seeds.

One run = one (protocol, vehicle_count, seed) triple.  Every vehicle
transmission goes through carrier sense: while another transmission is
audible at the sender the attempt is pushed to the moment the channel
frees up (bounded number of times), then a random backoff is added and
the frame goes out.  Receivers are evaluated at fire time against range,
sight and a loss draw whose probability grows with the number of other
transmissions audible at the receiver.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from .config import TARGET_EXPLICIT, ScenarioConfig
from .engine import (
    BEACON_EMIT,
    CLOUD_DELIVER,
    FOG_MAINTENANCE,
    MESSAGE_INJECT,
    MOBILITY_TICK,
    RADIO_DELIVER,
    SIM_END,
    RunStats,
    SimTime,
    Simulator,
    to_us,
)
from .errors import ConfigError, SimulationError, VanetSimError
from .metrics import DeliveryRecord, MetricsSummary, summarize
from .mobility import (
    MODE_GRID,
    MODE_HIGHWAY,
    MobilitySpec,
    NeighborIndex,
    Position,
    build_provider,
    distance,
)
from .protocols import (
    PROTOCOLS,
    BaseStation,
    BeaconJob,
    InfraTx,
    KIND_BEACON,
    Message,
    StationIndex,
    TxJob,
    fmt_ids,
    nearest_station,
)
from .radio import (
    CHANNEL_LOSS,
    OUT_OF_RANGE,
    HopOutcome,
    RadioParams,
    evaluate_hop,
    line_of_sight,
    note_cause,
    tx_time_us,
)


class Channel:
    """Everything on air: registered transmissions and the beacon schedule.

    Registered transmissions are (end, start, x, y) entries in a heap by end
    time, so expired ones drop off in O(log n).  Beacons are not registered:
    vehicle v sends a frame of ``frame_us`` at ``phase_v + k * period_us``
    for every k >= 0, so the frames on air at t are found by a bisect over
    the phases, sorted once.  A frame's origin is its vehicle's position at
    the frame's start, looked up once per (vehicle, start).

    Tie rule, for both kinds: a frame that starts at s and ends at e is on
    air for s <= t < e, and audible at a point within radio range of its
    origin.  A beacon that starts at t is therefore audible at t whatever
    else happens at t.
    """

    def __init__(self, params: RadioParams, backoff_rng):
        self.params = params
        self._rng = backoff_rng
        self._active: list[tuple[SimTime, SimTime, float, float]] = []
        self._phases: list[SimTime] = []
        self._beaconers: list[int] = []
        self._period: SimTime = 0
        self._frame: SimTime = 0
        self._locate = None
        # beacon origins by (vehicle, start), dropped once the frame is over
        self._origins: dict[tuple[int, SimTime], Position] = {}
        # beacon frames on air at _air_t, as (end, x, y)
        self._air_t: SimTime = -1
        self._air: list[tuple[SimTime, float, float]] = []

    def set_beacons(
        self,
        schedule: list[tuple[SimTime, int]],
        period_us: SimTime,
        frame_us: SimTime,
        locate: Callable[[int, SimTime], Position],
    ) -> None:
        """Put every vehicle's beacons on air.

        ``schedule`` holds (phase, vehicle) pairs sorted by phase, each
        phase in [0, period_us); ``locate(v, t)`` is v's position at t.
        """
        self._phases = [phase for phase, _ in schedule]
        self._beaconers = [v for _, v in schedule]
        self._period, self._frame, self._locate = period_us, frame_us, locate
        self._origins = {}
        self._air_t = -1

    def register(self, start: SimTime, end: SimTime, pos: Position) -> None:
        heapq.heappush(self._active, (end, start, pos.x, pos.y))

    def _prune(self, t: SimTime) -> None:
        while self._active and self._active[0][0] <= t:
            heapq.heappop(self._active)

    def beacon_origin(self, v: int, start: SimTime) -> Position:
        """Where vehicle ``v`` sent the beacon frame that starts at ``start``."""
        key = (v, start)
        pos = self._origins.get(key)
        if pos is None:
            pos = self._origins[key] = self._locate(v, start)
        return pos

    def _beacons_at(self, t: SimTime) -> list[tuple[SimTime, float, float]]:
        """The beacon frames on air at ``t``.  Every receiver of one
        transmission asks at the same ``t``, so callers reuse ``_air`` while
        ``_air_t == t``."""
        air = []
        period, frame = self._period, self._frame
        if period:
            origins, phases, beaconers = self._origins, self._phases, self._beaconers
            for key in [key for key in origins if key[1] + frame <= t]:
                del origins[key]
            # frame k of v is on air when t - frame < phase_v + k * period <= t
            for k in range(max(0, (t - frame) // period), t // period + 1):
                base = k * period
                for i in range(
                    bisect_right(phases, t - frame - base), bisect_right(phases, t - base)
                ):
                    start = phases[i] + base
                    x, y = self.beacon_origin(beaconers[i], start)
                    air.append((start + frame, x, y))
        self._air_t, self._air = t, air
        return air

    def concurrent_near(self, pos: Position, t: SimTime, own: Optional[Position] = None) -> int:
        """Frames on air at ``t`` and audible at ``pos``.

        ``own`` is the origin of a frame on air at ``t`` that is left out:
        a metered beacon's hops do not hear the beacon's own frame.
        """
        self._prune(t)
        r = self.params.range_m
        px, py = pos
        n = 0
        for end, start, x, y in self._active:
            if start <= t and math.hypot(x - px, y - py) <= r:
                n += 1
        for end, x, y in self._air if t == self._air_t else self._beacons_at(t):
            if math.hypot(x - px, y - py) <= r:
                n += 1
        if own is not None and math.hypot(own.x - px, own.y - py) <= r:
            n -= 1
        return n

    def busy_until_near(self, pos: Position, t: SimTime) -> Optional[SimTime]:
        """The latest end of the frames on air at ``t`` and audible at ``pos``."""
        self._prune(t)
        r = self.params.range_m
        px, py = pos
        busy = None
        for end, start, x, y in self._active:
            if start <= t and math.hypot(x - px, y - py) <= r and (busy is None or end > busy):
                busy = end
        for end, x, y in self._air if t == self._air_t else self._beacons_at(t):
            if math.hypot(x - px, y - py) <= r and (busy is None or end > busy):
                busy = end
        return busy

    def draw_backoff(self) -> int:
        return self._rng.randint(0, self.params.max_backoff_us)


def _snap_to_grid(v: float, spacing: float, extent: float) -> float:
    k = int(v / spacing + 0.5)
    return min(max(k * spacing, 0.0), extent)


def place_stations(spec: MobilitySpec, provider, knobs) -> list[BaseStation]:
    """Fixed infrastructure along the scenario geometry.

    Highway: stations on the roadside (y=0) every bs_spacing_m, centered
    in their segment.  Grid: an even tiling snapped to the nearest street
    intersection.  Traces and anything else: an even tiling of the
    bounding box of the recorded positions.
    """
    if spec.mode == MODE_HIGHWAY:
        step = knobs.bs_spacing_m
        xs = []
        x = step / 2
        while x < spec.road_length_m:
            xs.append(x)
            x += step
        if not xs:
            xs = [spec.road_length_m / 2]
        return [BaseStation(i, Position(x, 0.0)) for i, x in enumerate(xs)]
    if spec.mode == MODE_GRID:
        extent = spec.grid_blocks * spec.grid_spacing_m
        n = max(1, math.ceil(extent / knobs.bs_spacing_m))
        centers = {
            _snap_to_grid((i + 0.5) * extent / n, spec.grid_spacing_m, extent)
            for i in range(n)
        }
        stations = []
        for j, y in enumerate(sorted(centers)):
            for i, x in enumerate(sorted(centers)):
                stations.append(BaseStation(j * len(centers) + i, Position(x, y)))
        return stations
    x0, y0, x1, y1 = provider.bounds()
    w, h = x1 - x0, y1 - y0
    nx = max(1, math.ceil(w / knobs.bs_spacing_m))
    ny = max(1, math.ceil(h / knobs.bs_spacing_m))
    stations = []
    for j in range(ny):
        cy = y0 + (j + 0.5) * h / ny if h > 0 else y0
        for i in range(nx):
            cx = x0 + (i + 0.5) * w / nx if w > 0 else x0
            stations.append(BaseStation(j * nx + i, Position(cx, cy)))
    return stations


@dataclass
class _Inject:
    msg_id: int
    src: int


class Runtime:
    """Owns one run: positions, channel, records, and the protocol."""

    def __init__(
        self,
        sim: Simulator,
        cfg: ScenarioConfig,
        spec: MobilitySpec,
        provider,
        obstacles,
        stations: list[BaseStation],
        protocol_name: str,
    ):
        self.sim = sim
        self.cfg = cfg
        self.spec = spec
        self.params = cfg.radio
        self.knobs = cfg.knobs
        self.cloud = cfg.cloud
        self.provider = provider
        self.obstacles = obstacles
        self.stations = stations
        self._station_by_id = {s.station_id: s for s in stations}
        self.station_index = StationIndex(stations, cfg.knobs.bs_coverage_m)
        self.index = NeighborIndex(provider, cell_m=max(cfg.radio.range_m, 1.0))
        self.channel = Channel(cfg.radio, sim.rng("radio-backoff"))
        self.loss_rng = sim.rng("radio-loss")
        self.gateway_ids = [v.vehicle_id for v in provider.fleet_at(0) if v.is_gateway]
        self.records: dict[tuple[int, int], DeliveryRecord] = {}
        self.opened = 0  # (message, target) pairs addressed so far
        # addressed pairs with no record yet, each with the worst loss cause
        # noted for it so far (None until one is)
        self._open: dict[tuple[int, int], Optional[str]] = {}
        self.messages: dict[int, Message] = {}
        self._msg_seq = 0
        self._notes: list[str] = []
        # positions at _pos_t by vehicle, shared by every query at that time
        self._pos_t: SimTime = -1
        self._pos: dict[int, Position] = {}
        self._logging = sim.has_log
        self.end_us: SimTime = 0
        # per-event intervals in microseconds, converted once in setup()
        self._beacon_us: SimTime = 0
        self._beacon_tx_us: SimTime = 0
        self._tick_us: SimTime = 0
        self._maintenance_us: SimTime = 0
        self.protocol = PROTOCOLS[protocol_name](self)

    # -- geometry and lookups ------------------------------------------------

    def pos(self, vehicle_id: int, t: SimTime) -> Position:
        """Where ``vehicle_id`` is at ``t``; looked up once per vehicle while
        the queries stay at one ``t``."""
        if t != self._pos_t:
            self._pos_t = t
            self._pos = {}
        p = self._pos.get(vehicle_id)
        if p is None:
            p = self._pos[vehicle_id] = self.provider.position_at(vehicle_id, t)
        return p

    def fleet_positions(self, t: SimTime) -> dict[int, Position]:
        """Every vehicle's position at ``t``, through the same per-``t`` dict as ``pos``."""
        if t != self._pos_t:
            self._pos_t = t
            self._pos = {}
        known = self._pos
        locate = self.provider.position_at
        for v in self.provider.vehicle_ids:
            if v not in known:
                known[v] = locate(v, t)
        return {v: known[v] for v in self.provider.vehicle_ids}

    def neighbors(self, center: Position, radius_m: float, t: SimTime) -> list[int]:
        """Every vehicle within ``radius_m`` of ``center`` at ``t``, sorted by id."""
        pos = self.pos
        return [
            v
            for v, certain in self.index.candidates(center, radius_m, t)
            if certain or distance(center, pos(v, t)) <= radius_m
        ]

    def region_members(self, bs: BaseStation, t: SimTime, exclude: int = -1) -> list[int]:
        return [
            v
            for v in self.neighbors(bs.pos, self.knobs.bs_coverage_m, t)
            if v != exclude
        ]

    def nearest_station(self, pos: Position) -> BaseStation:
        """The nearest station by (distance, id), whether it covers ``pos`` or not.

        A covering station is the nearest one, so the index answers unless
        no station is within coverage; only then are all stations scanned.
        """
        bs = self.station_index.covering(pos)
        return bs if bs is not None else nearest_station(self.stations, pos)

    def station(self, station_id: int) -> BaseStation:
        return self._station_by_id[station_id]

    def los(self, a: Position, b: Position) -> bool:
        return line_of_sight(a, b, self.obstacles)

    def tx_time_us(self, size_bytes: Optional[int] = None) -> int:
        return tx_time_us(self.params, size_bytes)

    # -- scheduling helpers ---------------------------------------------------

    def schedule_tx(self, job: TxJob | InfraTx, at: SimTime) -> None:
        self.sim.schedule(at, RADIO_DELIVER, job)

    def schedule_cloud(self, payload, at: SimTime) -> None:
        self.sim.schedule(at, CLOUD_DELIVER, payload)

    # -- delivery accounting ----------------------------------------------------

    def note(self, text: str) -> None:
        """Append to the current event's log line; a no-op without a log."""
        if self._logging:
            self._notes.append(text)

    def address(self, msg: Message) -> None:
        """Store ``msg`` and open a (message, target) pair per target."""
        self.messages[msg.msg_id] = msg
        self.opened += len(msg.targets)
        self._open.update(dict.fromkeys((msg.msg_id, dst) for dst in msg.targets))

    def is_open(self, msg_id: int, dst: int) -> bool:
        """True while (msg_id, dst) is addressed and has no record."""
        return (msg_id, dst) in self._open

    def note_loss(self, msg: Message, dst: int, cause: str) -> None:
        """Note a provisional loss of an open pair; the worst cause is kept."""
        key = (msg.msg_id, dst)
        if key in self._open:
            note_cause(self._open, key, cause)

    def record_delivery(self, msg: Message, dst: int, recv_us: SimTime, hops: int) -> bool:
        """Close an open pair as delivered; False, writing nothing, for any other."""
        key = (msg.msg_id, dst)
        if key not in self._open:
            return False
        del self._open[key]
        self.records[key] = DeliveryRecord(
            msg.msg_id,
            msg.src,
            dst,
            msg.origin_us,
            recv_us=recv_us,
            protocol=self.protocol.name,
            hop_count=hops,
        )
        if self._logging:
            self.note(f"rec={msg.msg_id}:{dst}:ok:{recv_us}")
        return True

    def record_loss(self, msg: Message, dst: int, cause: Optional[str] = None) -> bool:
        """Close an open pair as lost; False, writing nothing, for any other.

        Without ``cause`` the worst noted cause is recorded, or out_of_range
        when none was noted.
        """
        key = (msg.msg_id, dst)
        if key not in self._open:
            return False
        noted = self._open.pop(key)
        cause = cause or noted or OUT_OF_RANGE
        self.records[key] = DeliveryRecord(
            msg.msg_id,
            msg.src,
            dst,
            msg.origin_us,
            loss_cause=cause,
            protocol=self.protocol.name,
        )
        if self._logging:
            self.note(f"rec={msg.msg_id}:{dst}:{cause}")
        return True

    def ordered_records(self) -> list[DeliveryRecord]:
        return list(self.records.values())

    # -- setup ------------------------------------------------------------------

    def setup(self) -> None:
        sim = self.sim
        duration_us = to_us(self.cfg.sim_duration_s)
        self.end_us = duration_us + to_us(self.knobs.drain_s)
        self._beacon_us = to_us(self.knobs.beacon_interval_s)
        self._beacon_tx_us = self.tx_time_us()
        self._tick_us = to_us(self.knobs.mobility_tick_s)
        self._maintenance_us = to_us(self.knobs.maintenance_interval_s)

        for kind, handler in (
            (MESSAGE_INJECT, self._on_inject),
            (RADIO_DELIVER, self._on_radio),
            (CLOUD_DELIVER, self._on_cloud),
            (MOBILITY_TICK, self._on_tick),
            (FOG_MAINTENANCE, self._on_maintenance),
            (BEACON_EMIT, self._on_beacon),
            (SIM_END, self._on_sim_end),
        ):
            sim.on(kind, self._wrap(handler) if self._logging else handler)

        if self.protocol.wants_maintenance:
            sim.schedule(0, FOG_MAINTENANCE)
        if self.protocol.wants_ticks:
            sim.schedule(self._tick_us, MOBILITY_TICK)

        if self._beacon_us > 0:
            phase_rng = sim.rng("beacon-phase")
            phases = [(phase_rng.randrange(self._beacon_us), v) for v in self.provider.vehicle_ids]
            self.channel.set_beacons(
                sorted(phases), self._beacon_us, self._beacon_tx_us, self.provider.position_at
            )
            # beacons are events only to write their delivery records
            if self.knobs.include_beacons_in_metrics:
                for phase, v in phases:
                    sim.schedule(phase, BEACON_EMIT, BeaconJob(v))

        workload_rng = sim.rng("workload")
        rate = self.cfg.workload.rate_per_s
        n_msgs = int(self.cfg.sim_duration_s * rate + 1e-9)
        n_vehicles = self.provider.vehicle_count
        for k in range(1, n_msgs + 1):
            t_k = to_us(k / rate)
            if t_k > duration_us:
                break
            self._msg_seq += 1
            src = workload_rng.randrange(n_vehicles)
            sim.schedule(t_k, MESSAGE_INJECT, _Inject(self._msg_seq, src))

        sim.schedule(self.end_us, SIM_END)

    # -- handlers ---------------------------------------------------------------

    def _wrap(self, fn):
        def handler(event):
            self._notes = []
            base = fn(event)
            if self._notes:
                extra = " ".join(self._notes)
                base = f"{base} {extra}" if base else extra
            return base

        return handler

    def _targets_for(self, src: int, t: SimTime) -> tuple[int, ...]:
        if self.cfg.workload.target_rule == TARGET_EXPLICIT:
            valid = set(self.provider.vehicle_ids)
            wanted = set(self.cfg.workload.explicit_targets)
            return tuple(sorted(v for v in wanted if v in valid and v != src))
        bs = self.nearest_station(self.pos(src, t))
        return tuple(self.region_members(bs, t, exclude=src))

    def _on_inject(self, event) -> str:
        spec: _Inject = event.payload
        t = event.fire_at
        targets = self._targets_for(spec.src, t)
        msg = Message(
            spec.msg_id,
            spec.src,
            t,
            targets,
            size_bytes=self.params.msg_size_bytes,
            ttl_hops=self.knobs.ttl_hops,
        )
        self.address(msg)
        extra = self.protocol.on_inject(msg, t)
        base = f"msg={msg.msg_id} src={msg.src} targets={fmt_ids(targets)}"
        return f"{base} {extra}" if extra else base

    def _on_radio(self, event) -> str:
        payload = event.payload
        t = event.fire_at
        if isinstance(payload, InfraTx):
            return self._fire_infra(payload, t)
        job: TxJob = payload
        if not job.fire:
            pos = self.pos(job.sender, t)
            busy = self.channel.busy_until_near(pos, t)
            if busy is not None and job.defers < self.params.max_defers:
                job.defers += 1
                self.sim.schedule(busy, RADIO_DELIVER, job)
                return f"defer msg={job.msg.msg_id} from={job.sender} until={busy}"
            job.fire = True
            wait = self.channel.draw_backoff()
            self.sim.schedule(t + wait, RADIO_DELIVER, job)
            return f"wait msg={job.msg.msg_id} from={job.sender} backoff={wait}"
        return self._fire_tx(job, t)

    def _v2v_hops(
        self, src: Position, receivers: list[int], t: SimTime, own: Optional[Position] = None
    ) -> list[tuple[int, HopOutcome]]:
        """Vehicle-to-vehicle hops at radio range, each with a contention draw.

        ``own`` is the origin of a frame whose contention the hops do not
        count (see ``Channel.concurrent_near``).
        """
        params, obstacles, rng = self.params, self.obstacles, self.loss_rng
        near = lambda pos: self.channel.concurrent_near(pos, t, own)
        return [
            (rid, evaluate_hop(src, self.pos(rid, t), params.range_m, params, obstacles, near, rng))
            for rid in receivers
        ]

    def _fire_tx(self, job: TxJob, t: SimTime) -> str:
        sender_pos = self.pos(job.sender, t)
        results = self._v2v_hops(sender_pos, self.protocol.tx_receivers(job, t), t)
        self.channel.register(
            t, t + self.tx_time_us(job.msg.size_bytes), sender_pos
        )
        return self.protocol.after_tx(job, t, results)

    def uplink(
        self,
        msg: Message,
        sender_pos: Position,
        entry_pos: Position,
        reach: float,
        t: SimTime,
        contend: bool,
    ) -> HopOutcome:
        """A vehicle's hop into the infrastructure at ``entry_pos``.

        ``contend`` gives the hop a contention draw at the entry point: true
        for a gateway vehicle, false for a station.  Once the entry point is
        in ``reach`` and sight the frame is on air, even if the contention
        draw then loses it: a backoff is drawn, the frame is registered from
        ``t``, and a delivered hop's delay includes the backoff.
        """
        near = (lambda pos: self.channel.concurrent_near(pos, t)) if contend else None
        out = evaluate_hop(
            sender_pos, entry_pos, reach, self.params, self.obstacles, near, self.loss_rng
        )
        if not out.delivered and out.loss_cause != CHANNEL_LOSS:
            return out
        backoff = self.channel.draw_backoff()
        self.channel.register(t, t + self.tx_time_us(msg.size_bytes), sender_pos)
        return HopOutcome(True, out.delay_us + backoff) if out.delivered else out

    def _fire_infra(self, job: InfraTx, t: SimTime) -> str:
        bs = self.station(job.bs_id)
        reach = self.knobs.bs_coverage_m
        # Scheduled infrastructure downlink: no contention draw.
        results = [
            (rid, evaluate_hop(bs.pos, self.pos(rid, t), reach, self.params, self.obstacles))
            for rid in job.receivers
        ]
        self.channel.register(t, t + self.tx_time_us(job.msg.size_bytes), bs.pos)
        return self.protocol.after_infra(job, t, results)

    def _on_cloud(self, event) -> str:
        return self.protocol.on_cloud(event.payload, event.fire_at)

    def _on_tick(self, event) -> Optional[str]:
        base = self.protocol.on_tick(event.fire_at)
        nxt = event.fire_at + self._tick_us
        if nxt <= self.end_us:
            self.sim.schedule(nxt, MOBILITY_TICK)
        return base

    def _on_maintenance(self, event) -> Optional[str]:
        base = self.protocol.on_maintenance(event.fire_at)
        nxt = event.fire_at + self._maintenance_us
        if nxt <= self.end_us:
            self.sim.schedule(nxt, FOG_MAINTENANCE)
        return base

    def _on_beacon(self, event) -> str:
        """A metered beacon: one delivery record per vehicle in range.

        The frame is on air through the channel's beacon schedule, like
        every unmetered beacon; this event only writes the records.
        """
        job: BeaconJob = event.payload
        t = event.fire_at
        v = job.vehicle
        pos = self.channel.beacon_origin(v, t)
        cand = [r for r in self.neighbors(pos, self.params.range_m, t) if r != v]
        self._msg_seq += 1
        msg = Message(
            self._msg_seq,
            v,
            t,
            tuple(cand),
            size_bytes=self.params.msg_size_bytes,
            ttl_hops=1,
            kind=KIND_BEACON,
        )
        self.address(msg)
        for rid, out in self._v2v_hops(pos, cand, t, own=pos):
            if out.delivered:
                self.record_delivery(msg, rid, t + out.delay_us, 1)
            else:
                self.record_loss(msg, rid, out.loss_cause)
        nxt = t + self._beacon_us
        if nxt <= self.end_us:
            self.sim.schedule(nxt, BEACON_EMIT, job)
        return f"v={v} msg={msg.msg_id} targets={fmt_ids(cand)}"

    def _on_sim_end(self, event) -> str:
        self.protocol.on_end(event.fire_at)
        swept = len(self._open)
        for mid, dst in sorted(self._open):
            self.record_loss(self.messages[mid], dst, OUT_OF_RANGE)
        # nothing fires after the accounting sweep, not even events due at end_us
        self.sim.stop()
        return f"records={len(self.records)} swept={swept}"


@dataclass
class RunResult:
    summary: MetricsSummary
    records: list[DeliveryRecord]
    stats: RunStats
    log: Optional[list[str]]
    audit: list


def run_single(
    cfg: ScenarioConfig,
    protocol: str,
    vehicle_count: int,
    seed: int,
    capture_log: bool = False,
) -> RunResult:
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}")
    spec = dataclasses.replace(cfg.mobility, vehicle_count=vehicle_count)
    log: Optional[list[str]] = [] if capture_log else None
    sim = Simulator(seed=seed, event_budget=cfg.knobs.event_budget, log=log)
    provider = build_provider(spec, sim.rng("mobility"))
    obstacles = cfg.load_obstacles()
    stations = place_stations(spec, provider, cfg.knobs)
    rt = Runtime(sim, cfg, spec, provider, obstacles, stations, protocol)
    rt.setup()
    stats = sim.run(until=rt.end_us)
    if len(rt.records) != rt.opened or rt._open:
        missing = max(abs(rt.opened - len(rt.records)), len(rt._open))
        raise SimulationError(
            f"delivery accounting out of balance: {missing} (message, target) "
            f"pairs without exactly one record"
        )
    records = rt.ordered_records()
    summary = summarize(
        records,
        protocol,
        vehicle_count,
        seed,
        window_s=cfg.sim_duration_s,
        msg_size_bytes=cfg.radio.msg_size_bytes,
    )
    audit = getattr(rt.protocol, "audit", [])
    return RunResult(summary, records, stats, log, audit)


def _run_ident(protocol: str, density: int, seed: int) -> str:
    return f"protocol={protocol} density={density} seed={seed}"


def _run_task(task, capture_log: bool = False) -> RunResult:
    """run_single for one sweep task; a failure names the run it came from."""
    cfg, protocol, density, seed = task
    ident = _run_ident(protocol, density, seed)
    try:
        return run_single(cfg, protocol, density, seed, capture_log=capture_log)
    except VanetSimError as exc:
        raise type(exc)(f"run {ident}: {exc}") from None
    except Exception as exc:  # pragma: no cover - defensive identification
        raise SimulationError(f"run {ident}: {exc!r}") from exc


def _sweep_task(task) -> MetricsSummary:
    return _run_task(task).summary


def run_sweep(
    cfg: ScenarioConfig,
    workers: int = 1,
    collect_logs: bool = False,
) -> tuple[list[MetricsSummary], Optional[list[tuple[str, list[str]]]]]:
    """Run the full (protocol, density, seed) grid.

    Returns (summaries, logs); logs is None unless collect_logs, which
    forces serial execution so the log order matches the task order.
    """
    tasks = [
        (cfg, protocol, density, seed)
        for protocol in cfg.protocols
        for density in cfg.densities
        for seed in cfg.seeds
    ]
    if collect_logs or workers <= 1:
        summaries = []
        logs: Optional[list[tuple[str, list[str]]]] = [] if collect_logs else None
        for task in tasks:
            result = _run_task(task, capture_log=collect_logs)
            summaries.append(result.summary)
            if collect_logs:
                logs.append((_run_ident(*task[1:]), result.log or []))
        return summaries, logs
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_task, tasks)), None
