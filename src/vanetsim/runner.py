"""Run orchestration: wires mobility, stations, channel and a protocol
into the event loop, injects the workload, and sweeps densities/seeds.

One run = one (protocol, vehicle_count, seed) triple.  The medium itself,
carrier sense and contention included, is ``radio.Channel``; the Runtime
schedules each transmission's deferrals and backoff as events.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property
from dataclasses import dataclass
from typing import Collection, Mapping, Optional

from .config import ScenarioConfig
from .engine import (
    BEACON_EMIT,
    CLOUD_DELIVER,
    FOG_MAINTENANCE,
    MESSAGE_INJECT,
    MOBILITY_TICK,
    RADIO_DELIVER,
    SIM_END,
    Record,
    RunStats,
    SimTime,
    Simulator,
    to_us,
)
from .errors import ConfigError, SimulationError, VanetSimError
from .metrics import DeliveryRecord, MetricsSummary, Row, summarize
from .mobility import (
    MODE_GRID,
    MODE_HIGHWAY,
    MobilitySpec,
    NeighborIndex,
    Position,
    Track,
    build_provider,
    distance,
    load_tracks,
)
from .protocols import (
    PROTOCOLS,
    BaseStation,
    InfraTx,
    KIND_BEACON,
    Message,
    StationIndex,
    TxJob,
    nearest_station,
)
from .radio import LOSS_CAUSES, OUT_OF_RANGE, Channel, note_cause


def _snap_to_grid(v: float, spacing: float, extent: float) -> float:
    k = int(v / spacing + 0.5)
    return min(max(k * spacing, 0.0), extent)


def _tile_centers(lo: float, width: float, spacing: float) -> list[float]:
    """The centers of an even split of [lo, lo + width] into parts at most
    ``spacing`` wide, in increasing order; one center at ``lo`` for a zero width."""
    n = max(1, math.ceil(width / spacing))
    return [lo + (i + 0.5) * width / n if width > 0 else lo for i in range(n)]


def place_stations(spec: MobilitySpec, provider, knobs) -> list[BaseStation]:
    """Fixed infrastructure along the scenario geometry.

    Every layout numbers its stations row by row.  Highway: one row on the
    roadside (y=0), every bs_spacing_m, centered in their segment.  Grid
    and traces share one even tiling: a trace tiles ``provider.bounds()``,
    the box of the recorded positions; the grid tiles its street box
    [0, extent]², each center snapped to the nearest street and the
    repeats dropped.  The synthetic layouts come from ``spec`` alone.
    """
    spacing = knobs.bs_spacing_m
    if spec.mode == MODE_HIGHWAY:
        xs = []
        x = spacing / 2
        while x < spec.road_length_m:
            xs.append(x)
            x += spacing
        xs = xs or [spec.road_length_m / 2]
        ys = [0.0]
    elif spec.mode == MODE_GRID:
        street = spec.grid_spacing_m
        extent = spec.grid_blocks * street
        centers = _tile_centers(0.0, extent, spacing)
        xs = ys = sorted({_snap_to_grid(c, street, extent) for c in centers})
    else:
        x0, y0, x1, y1 = provider.bounds()
        xs, ys = _tile_centers(x0, x1 - x0, spacing), _tile_centers(y0, y1 - y0, spacing)
    return [
        BaseStation(j * len(xs) + i, (x, y))
        for j, y in enumerate(ys)
        for i, x in enumerate(xs)
    ]


class Runtime:
    """Owns one run: positions, channel, delivery ledger, and the protocol."""

    __slots__ = (
        "sim", "cfg", "params", "knobs", "cloud", "provider", "obstacles", "stations",
        "station_index", "index", "channel", "gateway_ids",
        "rows", "opened", "_open", "messages", "_msg_seq",
        "_pos_t", "_pos", "_regions_t", "_regions", "_logging",
        "end_us", "_beacon_us", "_tick_us", "_maintenance_us", "_explicit", "protocol",
    )

    def __init__(
        self,
        sim: Simulator,
        cfg: ScenarioConfig,
        provider,
        obstacles,
        stations: list[BaseStation],
        protocol_name: str,
    ):
        self.sim = sim
        self.cfg = cfg
        self.params = cfg.radio
        self.knobs = cfg.knobs
        self.cloud = cfg.cloud
        self.provider = provider
        self.obstacles = obstacles
        self.stations = stations
        self.station_index = StationIndex(stations, cfg.knobs.bs_coverage_m)
        self.index = NeighborIndex(provider, max(cfg.radio.range_m, 1.0), self.fleet_positions)
        backoff_rng, loss_rng = sim.rng("radio-backoff"), sim.rng("radio-loss")
        self.channel = Channel(cfg.radio, obstacles, backoff_rng, loss_rng)
        self.gateway_ids = [v for v in provider.vehicle_ids if provider.is_gateway(v)]
        # the ledger: one row per closed (message, target) pair, in close order
        self.rows: list[Row] = []
        self.opened = 0  # (message, target) pairs addressed so far
        # the open pairs, addressed with no row yet: by message id, each
        # target with the worst loss cause noted for it so far (None until
        # one is); a message leaves with its last open pair
        self._open: dict[int, dict[int, Optional[str]]] = {}
        # the messages with an open pair, which the accounting sweep closes
        self.messages: dict[int, Message] = {}
        self._msg_seq = 0
        # per-instant caches, each reset when t changes: each vehicle's
        # position at _pos_t by its id, and each station's region at
        # _regions_t by its BaseStation
        self._pos_t: SimTime = -1
        self._pos: dict[int, Position] = {}
        self._regions_t: SimTime = -1
        self._regions: dict[BaseStation, tuple[int, ...]] = {}
        self._logging = sim.has_log
        self.end_us: SimTime = 0
        # per-event intervals in microseconds, converted once in setup()
        self._beacon_us: SimTime = 0
        self._tick_us: SimTime = 0
        self._maintenance_us: SimTime = 0
        # the explicit targets in the fleet, sorted, set in setup(); None
        # when each inject addresses its nearest station's region
        self._explicit: Optional[tuple[int, ...]] = None
        self.protocol = PROTOCOLS[protocol_name](self)

    # -- geometry and lookups ------------------------------------------------

    def pos(self, vehicle_id: int, t: SimTime) -> Position:
        """Where ``vehicle_id`` is at ``t``; looked up once per vehicle while
        the queries stay at one ``t``.

        Only the lookups that repeat at one instant come here: inject-time
        and tick-time protocol work, ``neighbors``' exact checks and
        ``fleet_positions``.  On the seed-1 benchmark batches (counted by
        ``tests/pos_sites.py``) they hit: the protocols' inject lookups
        after ``_targets_for`` and the hybrid gateway path, every time;
        the station shadow test, 40.7%; ``fleet_positions``, up to 24.9%
        (dfcv, whose maintenance and index rebuilds share instants);
        ``neighbors``, 0–19%.  The radio path, where a lookup almost never repeats, asks
        ``provider.position_at`` itself: the firing sender, hop receivers,
        carrier-sensing senders and metered beacons look it up at each
        call, and beacon frames at ``setup``, so a provider patched before
        the run is the one called.
        """
        if t != self._pos_t:
            self._pos_t = t
            self._pos = {}
        p = self._pos.get(vehicle_id)
        if p is None:
            p = self._pos[vehicle_id] = self.provider.position_at(vehicle_id, t)
        return p

    def fleet_positions(self, t: SimTime) -> dict[int, Position]:
        """Every vehicle's position at ``t``: the per-``t`` dict that ``pos``
        fills, completed and returned itself, so callers only read it."""
        if t != self._pos_t:
            self._pos_t = t
            self._pos = {}
        known = self._pos
        locate = self.provider.position_at
        for v in self.provider.vehicle_ids:
            if v not in known:
                known[v] = locate(v, t)
        return known

    def neighbors(
        self, center: Position, radius_m: float, t: SimTime, exclude: Collection[int] = ()
    ) -> list[int]:
        """Every vehicle within ``radius_m`` of ``center`` at ``t`` and not in
        ``exclude``, sorted by id.  Excluded ids are never located."""
        # through the cache: hybrid's shadow test and gateway path read these entries again
        pos = self.pos
        return [
            v
            for v, certain in self.index.candidates(center, radius_m, t, exclude)
            if certain or distance(center, pos(v, t)) <= radius_m
        ]

    def region_members(
        self, bs: BaseStation, t: SimTime, exclude: Collection[int] = ()
    ) -> tuple[int, ...]:
        """The vehicles within ``bs``'s coverage at ``t`` and not in
        ``exclude``, sorted by id.

        The region is queried once per station and instant, with no
        ``exclude``, and ``exclude`` is applied to that answer: positions
        depend only on (vehicle, t), and an excluded id is only skipped
        before the distance math, so the result is the one a query with
        ``exclude`` returns.
        """
        if t != self._regions_t:
            self._regions_t = t
            self._regions = {}
        region = self._regions.get(bs)
        if region is None:
            region = tuple(self.neighbors(bs.pos, self.knobs.bs_coverage_m, t))
            self._regions[bs] = region
        return tuple(v for v in region if v not in exclude) if exclude else region

    def nearest_station(self, pos: Position) -> BaseStation:
        """The nearest station by (distance, id), whether it covers ``pos`` or not.

        A covering station is the nearest one, so the index answers unless
        no station is within coverage; only then are all stations scanned.
        """
        bs = self.station_index.covering(pos)
        return bs if bs is not None else nearest_station(self.stations, pos)

    # -- scheduling helpers ---------------------------------------------------

    def schedule_tx(self, job: TxJob | InfraTx, at: SimTime) -> None:
        self.sim.schedule(at, RADIO_DELIVER, job)

    def schedule_cloud(self, job: TxJob | InfraTx, at: SimTime) -> None:
        """Have the infrastructure put ``job`` on the radio at ``at``."""
        self.sim.schedule(at, CLOUD_DELIVER, job)

    def _repeat(self, kind: str, at: SimTime, payload: object = None) -> None:
        """Schedule the next round of a periodic event unless it falls past
        end_us.  Handlers call this last, so what they scheduled at their
        instant keeps the lower seq numbers."""
        if at <= self.end_us:
            self.sim.schedule(at, kind, payload)

    # -- delivery accounting ----------------------------------------------------

    def address(self, msg: Message) -> None:
        """Open a (message, target) pair per target, and keep ``msg`` while
        any of them is open."""
        self.opened += len(msg.targets)
        if msg.targets:
            self.messages[msg.msg_id] = msg
            self._open[msg.msg_id] = dict.fromkeys(msg.targets)

    # record_delivery and record_loss are the only methods that close a
    # pair (the benchmark's tracer counts records there): each appends its
    # row, and drops the message with its last pair.  They run once per
    # pair, so each tests _logging before it calls note.

    def record_delivery(self, msg: Message, dst: int, recv_us: SimTime, hops: int) -> bool:
        """Close an open pair as delivered; False, writing nothing, for any other."""
        mid = msg.msg_id
        pending = self._open.get(mid)
        if pending is None or dst not in pending:
            return False
        sent_us = msg.origin_us
        if recv_us < sent_us:
            raise SimulationError(
                f"pair (msg={mid}, dst={dst}) received at {recv_us} us, "
                f"before it was sent at {sent_us} us"
            )
        del pending[dst]
        if not pending:
            del self._open[mid], self.messages[mid]
        self.rows.append((mid, msg.src, dst, sent_us, recv_us, None, hops))
        if self._logging:
            self.sim.note("rec={}:{}:ok:{}", mid, dst, recv_us)
        return True

    def record_loss(self, msg: Message, dst: int, cause: Optional[str] = None) -> bool:
        """Close an open pair as lost; False, writing nothing, for any other.

        Without ``cause`` the worst noted cause is recorded, or out_of_range
        when none was noted.
        """
        mid = msg.msg_id
        pending = self._open.get(mid)
        if pending is None or dst not in pending:
            return False
        cause = cause or pending[dst] or OUT_OF_RANGE
        if cause not in LOSS_CAUSES:
            raise SimulationError(f"pair (msg={mid}, dst={dst}) lost to unknown cause {cause!r}")
        del pending[dst]
        if not pending:
            del self._open[mid], self.messages[mid]
        self.rows.append((mid, msg.src, dst, msg.origin_us, None, cause, 0))
        if self._logging:
            self.sim.note("rec={}:{}:{}", mid, dst, cause)
        return True

    def settle(
        self, msg: Message, results, t: SimTime, hops: int, final: bool = True
    ) -> list[tuple[int, SimTime]]:
        """Apply one transmission's hop outcomes, sent at ``t``, to ``msg``'s
        open pairs, and return ``(rid, recv_us)`` for every delivered hop in
        results order, open pair or not.

        A delivered hop closes its pair as delivered.  A miss closes it as
        lost when ``final``; otherwise the miss is only noted on the open
        pair, which keeps the worst cause noted for the accounting sweep.
        """
        reached = []
        deliver = self.record_delivery
        for rid, out in results:
            if out.delivered:
                recv_us = t + out.delay_us
                deliver(msg, rid, recv_us, hops)
                reached.append((rid, recv_us))
            elif final:
                self.record_loss(msg, rid, out.loss_cause)
            else:
                pending = self._open.get(msg.msg_id, {})
                if rid in pending:
                    note_cause(pending, rid, out.loss_cause)
        return reached

    # -- setup ------------------------------------------------------------------

    def setup(self) -> None:
        sim = self.sim
        duration_us = to_us(self.cfg.sim_duration_s)
        self.end_us = duration_us + to_us(self.knobs.drain_s)
        self._beacon_us = to_us(self.knobs.beacon_interval_s)
        self._tick_us = to_us(self.knobs.mobility_tick_s)
        self._maintenance_us = to_us(self.knobs.maintenance_interval_s)
        wanted = self.cfg.workload.explicit_targets
        if wanted:
            self._explicit = tuple(sorted(set(wanted).intersection(self.provider.vehicle_ids)))

        for kind, handler in (
            (MESSAGE_INJECT, self._on_inject),
            (RADIO_DELIVER, self._on_radio),
            (CLOUD_DELIVER, self._on_cloud),
            (MOBILITY_TICK, self._on_tick),
            (FOG_MAINTENANCE, self._on_maintenance),
            (BEACON_EMIT, self._on_beacon),
            (SIM_END, self._on_sim_end),
        ):
            sim.on(kind, handler)

        if self.protocol.wants_maintenance:
            sim.schedule(0, FOG_MAINTENANCE)
        if self.protocol.wants_ticks:
            sim.schedule(self._tick_us, MOBILITY_TICK)

        if self._beacon_us > 0:
            phase_rng = sim.rng("beacon-phase")
            phases = [(phase_rng.randrange(self._beacon_us), v) for v in self.provider.vehicle_ids]
            self.channel.set_beacons(sorted(phases), self._beacon_us, self.provider.position_at)
            # beacons are events only to write their delivery records
            if self.knobs.include_beacons_in_metrics:
                for phase, v in phases:
                    sim.schedule(phase, BEACON_EMIT, v)

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
            sim.schedule(t_k, MESSAGE_INJECT, (self._msg_seq, src))

        sim.schedule(self.end_us, SIM_END)

    # -- handlers ---------------------------------------------------------------

    def _targets_for(self, src: int, t: SimTime) -> tuple[int, ...]:
        if self._explicit is not None:
            return tuple(v for v in self._explicit if v != src)
        bs = self.nearest_station(self.pos(src, t))
        return self.region_members(bs, t, exclude=(src,))

    def _on_inject(self, t: SimTime, payload: tuple[int, int]) -> Record:
        msg_id, src = payload
        targets = self._targets_for(src, t)
        msg = Message(msg_id, src, t, targets, ttl_hops=self.knobs.ttl_hops)
        self.address(msg)
        self.protocol.on_inject(msg, t)
        return "msg={} src={} targets={}", msg_id, src, targets

    def _on_radio(self, t: SimTime, job: TxJob | InfraTx) -> Record:
        if isinstance(job, InfraTx):
            return self._fire_infra(job, t)
        if not job.fire:
            pos = self.provider.position_at(job.sender, t)
            busy = self.channel.busy_until_near(pos, t)
            if busy is not None and job.defers < self.params.max_defers:
                job.defers += 1
                self.sim.schedule(busy, RADIO_DELIVER, job)
                return "defer msg={} from={} until={}", job.msg.msg_id, job.sender, busy
            job.fire = True
            wait = self.channel.draw_backoff()
            self.sim.schedule(t + wait, RADIO_DELIVER, job)
            return "wait msg={} from={} backoff={}", job.msg.msg_id, job.sender, wait
        return self._fire_tx(job, t)

    def _fire_tx(self, job: TxJob, t: SimTime) -> Record:
        sender_pos = self.provider.position_at(job.sender, t)
        receivers = self.protocol.tx_receivers(job, t, sender_pos)
        results = self.channel.hops(
            sender_pos, receivers, self.provider.position_at, self.params.range_m, t
        )
        self.channel.register(t, t + self.channel.frame_us, sender_pos)
        return self.protocol.after_tx(job, t, results)

    def _fire_infra(self, job: InfraTx, t: SimTime) -> Record:
        bs = job.bs
        reach = self.knobs.bs_coverage_m
        # Scheduled infrastructure downlink: no contention draw.
        results = self.channel.hops(
            bs.pos, job.receivers, self.provider.position_at, reach, t, contend=False
        )
        self.channel.register(t, t + self.channel.frame_us, bs.pos)
        return self.protocol.after_infra(job, t, results)

    def _on_cloud(self, t: SimTime, job: TxJob | InfraTx) -> Record:
        """A gateway drop (``TxJob``) or a station downlink (``InfraTx``)
        reaches its transmitter and goes on the radio."""
        self.schedule_tx(job, t)
        if isinstance(job, InfraTx):
            return "msg={} bs={} n={}", job.msg.msg_id, job.bs.station_id, len(job.receivers)
        return "msg={} gw={} n={}", job.msg.msg_id, job.sender, len(job.receivers)

    def _on_tick(self, t: SimTime, _payload: None) -> Optional[Record]:
        summary = self.protocol.on_tick(t)
        self._repeat(MOBILITY_TICK, t + self._tick_us)
        return summary

    def _on_maintenance(self, t: SimTime, _payload: None) -> Optional[Record]:
        summary = self.protocol.on_maintenance(t)
        self._repeat(FOG_MAINTENANCE, t + self._maintenance_us)
        return summary

    def _on_beacon(self, t: SimTime, v: int) -> Record:
        """A metered beacon: one delivery record per vehicle in range.

        The frame is on air through the channel's beacon schedule, like
        every unmetered beacon; this event only writes the records.
        """
        pos = self.provider.position_at(v, t)
        reach = self.params.range_m
        cand = self.neighbors(pos, reach, t, exclude=(v,))
        self._msg_seq += 1
        msg = Message(self._msg_seq, v, t, tuple(cand), ttl_hops=1, kind=KIND_BEACON)
        self.address(msg)
        results = self.channel.hops(pos, cand, self.provider.position_at, reach, t, own=pos)
        self.settle(msg, results, t, 1)
        self._repeat(BEACON_EMIT, t + self._beacon_us, v)
        return "v={} msg={} targets={}", v, msg.msg_id, cand

    def _on_sim_end(self, t: SimTime, _payload: None) -> Record:
        self.protocol.on_end(t)
        swept = 0
        for mid in sorted(self._open):
            msg, targets = self.messages[mid], sorted(self._open[mid])
            swept += len(targets)
            for dst in targets:
                self.record_loss(msg, dst)
        # nothing fires after the accounting sweep, not even events due at end_us
        self.sim.stop()
        return "records={} swept={}", len(self.rows), swept


@dataclass
class RunResult:
    summary: MetricsSummary
    rows: list[Row]
    stats: RunStats
    log: Optional[list[str]]

    @cached_property
    def records(self) -> list[DeliveryRecord]:
        """The run's delivery records in close order, built from its rows
        when first read."""
        return [DeliveryRecord(*row) for row in self.rows]


def run_single(
    cfg: ScenarioConfig,
    protocol: str,
    vehicle_count: int,
    seed: int,
    capture_log: bool = False,
    tracks: Optional[Mapping[str, Track]] = None,
) -> RunResult:
    """One (protocol, vehicle_count, seed) run.  ``tracks`` is the parsed
    trace of a trace config (see ``sweep_tracks``); None parses it here."""
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}")
    spec = dataclasses.replace(cfg.mobility, vehicle_count=vehicle_count)
    log: Optional[list[str]] = [] if capture_log else None
    sim = Simulator(seed=seed, event_budget=cfg.knobs.event_budget, log=log)
    provider = build_provider(spec, sim.rng("mobility"), tracks)
    obstacles = cfg.load_obstacles()
    stations = place_stations(spec, provider, cfg.knobs)
    rt = Runtime(sim, cfg, provider, obstacles, stations, protocol)
    rt.setup()
    stats = sim.run(until=rt.end_us)
    rows = rt.rows
    if len(rows) != rt.opened or rt._open:
        still_open = sum(map(len, rt._open.values()))
        missing = max(abs(rt.opened - len(rows)), still_open)
        raise SimulationError(
            f"delivery accounting out of balance: {missing} (message, target) "
            f"pairs without exactly one record"
        )
    summary = summarize(
        rows,
        protocol,
        vehicle_count,
        seed,
        window_s=cfg.sim_duration_s,
        msg_size_bytes=cfg.radio.msg_size_bytes,
    )
    return RunResult(summary, rows, stats, log)


def sweep_tracks(cfg: ScenarioConfig) -> Optional[dict[str, Track]]:
    """The parsed trace of a trace config, None for a synthetic one.  A
    trace fixes the fleet, so every density must equal its vehicle count."""
    tracks = load_tracks(cfg.mobility)
    if tracks is not None:
        for density in cfg.densities:
            if density != len(tracks):
                raise ConfigError(
                    f"densities: {density} but trace '{cfg.mobility.trace_path}' "
                    f"contains {len(tracks)} vehicles"
                )
    return tracks


def _run_ident(protocol: str, density: int, seed: int) -> str:
    return f"protocol={protocol} density={density} seed={seed}"


def _run_task(task, tracks, capture_log: bool = False) -> RunResult:
    """run_single for one sweep task; a failure names the run it came from."""
    cfg, protocol, density, seed = task
    ident = _run_ident(protocol, density, seed)
    try:
        return run_single(cfg, protocol, density, seed, capture_log=capture_log, tracks=tracks)
    except VanetSimError as exc:
        raise type(exc)(f"run {ident}: {exc}") from None
    except Exception as exc:  # pragma: no cover - defensive identification
        raise SimulationError(f"run {ident}: {exc!r}") from exc


# The parsed trace of the sweep a pool worker serves.  The pool sets it once
# in each worker process, so the tracks reach a worker once instead of being
# pickled with every task.
_worker_tracks: Optional[Mapping[str, Track]] = None


def _start_worker(tracks: Optional[Mapping[str, Track]]) -> None:
    global _worker_tracks
    _worker_tracks = tracks


def _sweep_task(task) -> MetricsSummary:
    return _run_task(task, _worker_tracks).summary


def run_sweep(
    cfg: ScenarioConfig,
    workers: int = 1,
    collect_logs: bool = False,
) -> tuple[list[MetricsSummary], Optional[list[tuple[str, list[str]]]]]:
    """Run the full (protocol, density, seed) grid.

    A trace is parsed and checked against the densities once, before any
    run, and every run plays the same tracks; a trace error therefore names
    no run.  Returns (summaries, logs); logs is None unless collect_logs,
    which forces serial execution so the log order matches the task order.
    """
    tracks = sweep_tracks(cfg)
    tasks = [
        (cfg, protocol, density, seed)
        for protocol in cfg.protocols
        for density in cfg.densities
        for seed in cfg.seeds
    ]
    # a pool forks all its workers on its first task, so never more than runs
    workers = min(workers, len(tasks))
    if collect_logs or workers <= 1:
        summaries = []
        logs: Optional[list[tuple[str, list[str]]]] = [] if collect_logs else None
        for task in tasks:
            result = _run_task(task, tracks, capture_log=collect_logs)
            summaries.append(result.summary)
            if collect_logs:
                logs.append((_run_ident(*task[1:]), result.log or []))
        return summaries, logs
    # imported here, so a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_start_worker, initargs=(tracks,)
    ) as pool:
        return list(pool.map(_sweep_task, tasks)), None
