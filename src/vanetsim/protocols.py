"""Dissemination protocols: multi-hop flooding, cloud-assisted gateway
relay for shadowed vehicles, and fog-cell directed dissemination.

Each protocol is driven by a Runtime (see runner.py) that owns the event
loop, the channel, positions and the delivery records.  Protocols receive
injected messages, decide who transmits what and when, and are called back
with per-receiver radio outcomes after every transmission fires.  They
hand those outcomes to ``Runtime.settle``, saying only whether a miss is
final; the Runtime writes a record only for an addressed (message,
recipient) pair that has none yet, and its accounting sweep at the end of
the run closes every pair nothing reached.  All iteration is over sorted
ids so a given seed always produces the same event sequence.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import hypot, inf
from typing import Any, NamedTuple, Optional, Sequence

from . import fog
from .engine import Record, SimTime, to_us
from .errors import NON_NEGATIVE, check_bounds
from .mobility import CellGrid, Position, distance
from .radio import (
    SHADOWED,
    HopOutcome,
    ObstacleMap,
    RadioParams,
    line_of_sight,
)

KIND_BEACON = "beacon"
KIND_EVENT = "event_driven"


class Message(NamedTuple):
    """One addressed message; a tuple, so it is immutable and cheap to build."""

    msg_id: int
    src: int
    origin_us: SimTime
    targets: tuple[int, ...]
    ttl_hops: int = 8
    kind: str = KIND_EVENT


@dataclass(frozen=True)
class BaseStation:
    station_id: int
    pos: Position


@dataclass(frozen=True)
class CloudModel:
    """Cloud access latencies; defaults keep the cloud round trip well
    above the fog processing delay."""

    uplink_us: SimTime = 50_000
    downlink_us: SimTime = 50_000
    processing_us: SimTime = 10_000

    def __post_init__(self):
        latencies = ("uplink_us", "downlink_us", "processing_us")
        check_bounds("cloud", self, dict.fromkeys(latencies, NON_NEGATIVE))


def nearest_station(stations: Sequence[BaseStation], pos: Position) -> BaseStation:
    if not stations:
        raise ValueError("no base stations placed")
    return min(stations, key=lambda s: (distance(s.pos, pos), s.station_id))


class StationIndex:
    """The station covering a point, found without scanning every station.

    ``covering(pos)`` is the nearest station by ``(distance, station_id)``
    when that distance is at most ``coverage_m``, else None: exactly what
    ``nearest_station`` plus a coverage test gives.  Stations are fixed for
    a run, so they are filed once in a ``CellGrid`` of reach ``coverage_m``,
    whose neighbourhood of a point holds every station covering it.

    Each station also has a sure radius, ``min(coverage_m, gap / 2 -
    1e-6)``, where ``gap`` is the distance to its nearest other station;
    with no other station the radius is the coverage, and two stations at
    one spot get a negative one.
    Every other station is then at least ``2 * radius + 2e-6`` away, so a
    point within the radius is nearer to the station than to any other by
    more than ``2e-6``, far more than the float rounding of either
    distance: the disc lies inside the station's Voronoi cell.
    ``covering(pos, guess)`` returns ``guess`` after one distance when
    ``pos`` lies in its disc, and scans otherwise, so a guess changes only
    the cost of the answer.
    """

    def __init__(self, stations: Sequence[BaseStation], coverage_m: float):
        self.coverage_m = coverage_m
        self._stations = stations
        self._grid = CellGrid(coverage_m)
        for s in stations:
            self._grid.add(*s.pos, s)

    @cached_property
    def _sure(self) -> dict[int, float]:
        """Each station's sure radius by its id, worked out at the first
        guess, so a run that never guesses never pays for it."""
        coverage_m, stations = self.coverage_m, self._stations
        sure = {}
        for s in stations:
            sx, sy = s.pos
            gaps = [hypot(o.pos[0] - sx, o.pos[1] - sy) for o in stations if o is not s]
            sure[s.station_id] = min(coverage_m, min(gaps, default=inf) / 2 - 1e-6)
        return sure

    def covering(
        self, pos: Position, guess: Optional[BaseStation] = None
    ) -> Optional[BaseStation]:
        px, py = pos
        if guess is not None:
            gx, gy = guess.pos
            if hypot(gx - px, gy - py) <= self._sure[guess.station_id]:
                return guess
        best, best_d = None, 0.0
        for s in self._grid.near(px, py):
            sx, sy = s.pos
            d = hypot(sx - px, sy - py)  # the float distance() gives
            # the neighbourhood is not in id order, so a tie is broken here, to the lower id
            if best is None or d < best_d or d == best_d and s.station_id < best.station_id:
                best, best_d = s, d
        return best if best is not None and best_d <= self.coverage_m else None


def obstacle_shadowing(vehicle_pos: Position, station_pos: Position, obstacles: ObstacleMap) -> int:
    """1 if the vehicle-to-station segment is blocked, else 0."""
    return 0 if line_of_sight(vehicle_pos, station_pos, obstacles) else 1


def select_gateways(
    shadowed: Sequence[int],
    gateway_ids: Sequence[int],
    positions: dict[int, Position],
    params: RadioParams,
    obstacles: ObstacleMap,
    k_max: int,
) -> tuple[list[int], dict[int, list[int]]]:
    """Greedy maximum-coverage pick of at most k_max gateways.

    A gateway covers a shadowed vehicle when the vehicle is within radio
    range and line of sight of it.  Ties go to the smaller gateway id;
    selection stops when everyone is covered, no gateway adds coverage,
    or k_max picks were made.  Returns (chosen ids in pick order,
    coverage sets for every candidate gateway).

    Only the ``CellGrid`` neighbourhood of a gateway can hold shadowed
    vehicles in its range, and sight is tested against the obstacles near
    it.  Picks run as lazy greedy: a gain only falls as vehicles get
    covered, so a re-scored top entry that still beats every stale key is
    the eager pick.
    """
    reach = params.range_m
    grid = CellGrid(reach)
    for v in shadowed:
        p = positions[v]
        grid.add(p[0], p[1], (v, p))
    covers: dict[int, list[int]] = {}
    for g in sorted(gateway_ids):
        gpos = positions[g]
        gx, gy = gpos
        # the cell width, not reach: the padding also covers rounding in the distance
        near = obstacles.near(gx, gy, grid.cell)
        cover = []
        for v, p in grid.near(gx, gy):
            # hypot: the float distance() gives, without its call
            if v != g and hypot(gx - p[0], gy - p[1]) <= reach and line_of_sight(gpos, p, near):
                cover.append(v)
        cover.sort()
        covers[g] = cover
    chosen: list[int] = []
    uncovered = set(shadowed)
    heap = [(-len(cover), g) for g, cover in covers.items() if cover]
    heapq.heapify(heap)
    while heap and uncovered and len(chosen) < k_max:
        _, g = heapq.heappop(heap)
        gain = sum(1 for v in covers[g] if v in uncovered)
        if gain == 0:
            continue
        if heap and (-gain, g) > heap[0]:
            heapq.heappush(heap, (-gain, g))
            continue
        chosen.append(g)
        uncovered.difference_update(covers[g])
    return chosen, covers


# ---------------------------------------------------------------------------
# Event payloads

@dataclass
class TxJob:
    """A vehicle transmission going through carrier sense and backoff.

    receivers=None means broadcast to whoever the protocol finds in range
    at fire time; an explicit list is an addressed delivery attempt whose
    misses must be accounted for.  ``state`` is the protocol's own record
    of the message, one object shared by all jobs of one message: the
    flood's set of vehicles that have it, hybrid's ``_HybridState``.
    """

    msg: Message
    sender: int
    hop: int
    purpose: str  # flood | direct | gateway | newcomer
    receivers: Optional[list[int]] = None
    state: Any = None
    defers: int = 0
    fire: bool = False


@dataclass
class InfraTx:
    """Downlink broadcast from a base station to listed vehicles."""

    msg: Message
    bs: BaseStation
    receivers: list[int]


class Protocol:
    """Shared callbacks; the Runtime dispatches events to these.  A hook
    whose value is the event's summary returns a Record (see engine.py);
    the rest of the log goes to ``rt.sim.note``, ``on_inject``'s summary first."""

    name = "?"
    wants_ticks = False
    wants_maintenance = False

    def __init__(self, rt):
        self.rt = rt

    def on_inject(self, msg: Message, t: SimTime) -> None:
        raise NotImplementedError

    def tx_receivers(self, job: TxJob, t: SimTime, sender_pos: Position) -> list[int]:
        raise NotImplementedError

    def after_tx(self, job: TxJob, t: SimTime, results) -> Record:
        raise NotImplementedError

    def on_cloud(self, payload, t: SimTime) -> str:
        # Never called: the Runtime relays cloud arrivals itself.  Kept
        # because benchmark/tracing.py patches every hook in PROTOCOL_HOOKS.
        raise NotImplementedError

    def after_infra(self, job: InfraTx, t: SimTime, results) -> Record:
        raise NotImplementedError

    def on_tick(self, t: SimTime) -> Optional[Record]:
        return None

    def on_maintenance(self, t: SimTime) -> Optional[Record]:
        return None

    def on_end(self, t: SimTime) -> None:
        return None


class BaselineFlood(Protocol):
    """Multi-hop flood: every first-time recipient rebroadcasts once.

    A target missed by one relay may still be reached by another, so no
    miss is final; the accounting sweep at the end of the run records the
    worst cause noted for a target nothing reached.
    """

    name = "baseline"

    def on_inject(self, msg: Message, t: SimTime) -> None:
        start = t + self.rt.knobs.route_setup_delay_us
        self.rt.schedule_tx(TxJob(msg, msg.src, hop=1, purpose="flood", state={msg.src}), start)
        self.rt.sim.note("flood start={}", start)

    def tx_receivers(self, job: TxJob, t: SimTime, sender_pos: Position) -> list[int]:
        # the visited set always holds the sender, so the query skips it too
        return self.rt.neighbors(sender_pos, self.rt.params.range_m, t, exclude=job.state)

    def after_tx(self, job: TxJob, t: SimTime, results) -> Record:
        rt = self.rt
        msg = job.msg
        reached = rt.settle(msg, results, t, job.hop, final=False)
        job.state.update(rid for rid, _ in reached)
        relays = reached if job.hop < msg.ttl_hops else []
        for rid, at in relays:
            rt.schedule_tx(TxJob(msg, rid, hop=job.hop + 1, purpose="flood", state=job.state), at)
        fmt = "tx msg={} from={} hop={} ok={} relay={}"
        return fmt, msg.msg_id, job.sender, job.hop, len(reached), len(relays)


@dataclass
class _HybridState:
    msg: Message
    bs: BaseStation
    loc: dict[int, int]
    window_end: SimTime
    seen: set = field(default_factory=set)  # vehicles that have the message
    handled: set = field(default_factory=set)
    uplink: Optional[HopOutcome] = None  # the sender's hop into the cloud, once tried
    cloud_ready: SimTime = 0


class HybridVehcloud(Protocol):
    """Direct broadcast for line-of-sight vehicles; shadowed ones get the
    message through the vehicular cloud via selected mobile gateways.

    A miss is recorded at once when nothing else can reach the target: the
    direct broadcast is a line-of-sight target's one shot, and a shadowed
    target is lost when the uplink fails or no chosen gateway covers it.
    A gateway miss and a late joiner's re-delivery miss are only noted,
    since another transmission of the message may still reach the target;
    the Runtime's accounting sweep closes what none reached, with the worst
    noted cause.

    Late joiners entering the sender's region during the dissemination
    window get a one-shot re-delivery down whichever branch applies.  The
    window bounds only those late attempts: a message's state travels on
    its jobs, so a broadcast or gateway drop already scheduled still runs
    when the window has closed.  Without ``explicit_targets`` the region
    is addressed at inject time, so no late joiner is a target: the window
    then affects delivery metrics only through the channel load of its
    sends.

    Nothing asks sight of a map without rectangles: not the hops, not the
    station shadow test at inject, not a late joiner's.  Every vehicle
    there is in sight of its station, so none is shadowed and no gateway
    path runs.
    """

    name = "hybrid_vehcloud"
    wants_ticks = True

    def __init__(self, rt):
        super().__init__(rt)
        # the states of messages whose window may still be open, in inject
        # order; each window is one fixed length, so they close from the front
        self._windows: deque[_HybridState] = deque()
        self._window_us = to_us(rt.knobs.window_s)

    # -- injection -----------------------------------------------------

    def on_inject(self, msg: Message, t: SimTime) -> None:
        rt = self.rt
        src_pos = rt.pos(msg.src, t)
        bs = rt.nearest_station(src_pos)
        region = rt.region_members(bs, t, exclude=(msg.src,))
        loc = self._shadowing(bs, region, t)
        st = _HybridState(msg, bs, loc, window_end=t + self._window_us, seen={msg.src})
        st.handled = set(region)
        st.handled.add(msg.src)
        self._windows.append(st)
        if not region:
            # Nobody around the sender's station: nothing to transmit.
            rt.sim.note("bs={} n=0 no nearby vehicles", bs.station_id)
            return

        rt.schedule_tx(TxJob(msg, msg.src, hop=1, purpose="direct", state=st), t)
        shadowed = sorted(v for v in region if loc[v] == 1)
        rt.sim.note("bs={} n={} shadowed={}", bs.station_id, len(region), len(shadowed))
        if shadowed:
            self._cloud_round(st, shadowed, t)

    def _cloud_round(self, st: _HybridState, shadowed: list[int], t: SimTime):
        """Uplink once, pick gateways over this shadowed batch, schedule drops."""
        rt = self.rt
        msg = st.msg
        self._establish_uplink(st, t)
        if not st.uplink.delivered:
            for v in shadowed:
                rt.record_loss(msg, v, st.uplink.loss_cause)
            return
        positions = {v: rt.pos(v, t) for v in shadowed}
        gws = [g for g in rt.gateway_ids if g != msg.src]
        for g in gws:
            positions[g] = rt.pos(g, t)
        chosen, covers = select_gateways(
            shadowed, gws, positions, rt.params, rt.obstacles, rt.knobs.k_max_gateways
        )
        covered = set().union(*(covers[g] for g in chosen))
        for v in shadowed:
            if v not in covered:
                rt.record_loss(msg, v, SHADOWED)
        for g in chosen:
            self._drop_at_gateway(st, g, covers[g], t)
        rt.sim.note("gw={}", chosen)

    def _drop_at_gateway(self, st: _HybridState, g: int, receivers: list[int], t: SimTime):
        """Have the cloud hand the message to gateway ``g`` once it is there."""
        rt = self.rt
        arrive = max(t, st.cloud_ready) + rt.cloud.downlink_us + rt.knobs.gateway_access_us
        rt.schedule_cloud(
            TxJob(st.msg, g, hop=2, purpose="gateway", receivers=receivers, state=st), arrive
        )

    def _nearest_gateway(
        self, pos: Position, t: SimTime, skip: tuple[int, ...]
    ) -> Optional[tuple[float, int, Position]]:
        """(distance, id, position) of the nearest gateway in range and sight
        of ``pos``, ties to the smaller id, leaving out the ids in ``skip``."""
        rt = self.rt
        best = None
        for g in rt.gateway_ids:
            if g in skip:
                continue
            gpos = rt.pos(g, t)
            d = distance(pos, gpos)
            if d <= rt.params.range_m and line_of_sight(pos, gpos, rt.obstacles):
                if best is None or (d, g) < best[:2]:
                    best = (d, g, gpos)
        return best

    def _establish_uplink(self, st: _HybridState, t: SimTime):
        """Send the message into the cloud once: through the nearest gateway
        in range and sight, else straight to the station."""
        if st.uplink is not None:
            return
        rt = self.rt
        msg = st.msg
        src_pos = rt.pos(msg.src, t)
        best = self._nearest_gateway(src_pos, t, (msg.src,))
        if best is not None:
            _, g, gpos = best
            st.uplink = rt.channel.uplink(src_pos, gpos, rt.params.range_m, t, contend=True)
            sent, lost = "uplink=gw:{}", "uplink=gw:{}:{}"
        else:
            g, reach = None, rt.knobs.bs_coverage_m
            st.uplink = rt.channel.uplink(src_pos, st.bs.pos, reach, t, contend=False)
            sent, lost = "uplink=bs", "uplink=bs:{1}"  # {1}: the cause, after g=None
        if st.uplink.delivered:
            st.cloud_ready = t + st.uplink.delay_us + rt.cloud.uplink_us + rt.cloud.processing_us
            rt.sim.note(sent, g)
        else:
            rt.sim.note(lost, g, st.uplink.loss_cause)

    # -- transmissions ---------------------------------------------------

    def _shadowing(
        self, bs: BaseStation, vehicles: Sequence[int], t: SimTime
    ) -> dict[int, int]:
        """Each vehicle's ``obstacle_shadowing`` toward ``bs`` at ``t``.  A
        map without rectangles shadows no one: there, as in ``Channel.hops``,
        no vehicle is located and sight is not asked."""
        rt = self.rt
        if not rt.obstacles.rects:
            return dict.fromkeys(vehicles, 0)
        return {v: obstacle_shadowing(rt.pos(v, t), bs.pos, rt.obstacles) for v in vehicles}

    def _loc_of(self, st: _HybridState, v: int, t: SimTime) -> int:
        if v in st.loc:
            return st.loc[v]
        return self._shadowing(st.bs, (v,), t)[v]

    def tx_receivers(self, job: TxJob, t: SimTime, sender_pos: Position) -> list[int]:
        rt = self.rt
        st = job.state
        seen = st.seen
        if job.purpose == "direct":
            cand = rt.neighbors(sender_pos, rt.params.range_m, t, exclude=seen)
            out = {v for v in cand if self._loc_of(st, v, t) == 0}
            # Addressed line-of-sight targets beyond range must still be
            # accounted for, so they join the evaluation explicitly.
            for v in job.msg.targets:
                if v not in seen and st.loc.get(v) == 0:
                    out.add(v)
            return sorted(out)
        return [v for v in (job.receivers or []) if v not in seen]

    def after_tx(self, job: TxJob, t: SimTime, results) -> Record:
        msg = job.msg
        # One shot for line-of-sight vehicles: a direct miss is final.
        final = job.purpose == "direct"
        reached = self.rt.settle(msg, results, t, job.hop, final=final)
        job.state.seen.update(rid for rid, _ in reached)
        fmt = "tx msg={} from={} purpose={} ok={}"
        return fmt, msg.msg_id, job.sender, job.purpose, len(reached)

    # -- late joiners ------------------------------------------------------

    def on_tick(self, t: SimTime) -> Optional[Record]:
        rt = self.rt
        windows = self._windows
        while windows and t > windows[0].window_end:
            windows.popleft()
        attempts = 0
        for st in windows:
            # the region is sorted by id, and handled holds the source
            fresh = [v for v in rt.region_members(st.bs, t) if v not in st.handled]
            if not fresh:
                continue
            st.handled.update(fresh)
            late_shadowed = []
            for v in fresh:
                if v in st.seen:
                    continue
                if self._loc_of(st, v, t) == 0:
                    rt.schedule_tx(
                        TxJob(
                            st.msg, st.msg.src, hop=1, purpose="newcomer", receivers=[v], state=st
                        ),
                        t,
                    )
                    attempts += 1
                else:
                    late_shadowed.append(v)
            if late_shadowed:
                self._establish_uplink(st, t)
                if not st.uplink.delivered:
                    continue
                for v in late_shadowed:
                    g = self._covering_gateway(st, v, t)
                    if g is None:
                        continue
                    self._drop_at_gateway(st, g, [v], t)
                    attempts += 1
        return ("late_attempts={}", attempts) if attempts else None

    def _covering_gateway(self, st: _HybridState, v: int, t: SimTime) -> Optional[int]:
        best = self._nearest_gateway(self.rt.pos(v, t), t, (v, st.msg.src))
        return None if best is None else best[1]


class Dfcv(Protocol):
    """Fog-cell dissemination: base stations keep their vehicles grouped
    into bounded cells; a sender hands the message to its fog node which
    broadcasts to every cell intersecting the target set, crossing the
    cloud for recipients parked under other stations."""

    name = "dfcv"
    wants_maintenance = True

    def __init__(self, rt):
        super().__init__(rt)
        self._cells: dict[int, list] = {}
        # each covered vehicle's station, as of the last maintenance
        self._assoc: dict[int, BaseStation] = {}
        self._cell_seq = itertools.count(1)
        # Maintenance reaches a fixed point, so the hooks maintain each t once.
        self._maintained_at: Optional[SimTime] = None

    # -- membership upkeep -------------------------------------------------

    def maintain(self, t: SimTime) -> tuple[int, int]:
        """Re-associate vehicles, reconcile cells, split/merge to fixed point.

        Returns (total cells, total maintenance steps) across stations.
        """
        rt = self.rt
        positions = rt.fleet_positions(t)
        covering = rt.station_index.covering
        # a vehicle's last station is the guess: most have not left its sure disc
        last = self._assoc.get
        assoc: dict[int, BaseStation] = {}
        by_bs: dict[int, list[int]] = {s.station_id: [] for s in rt.stations}
        # the fleet's ids, in order, are exactly the keys of positions
        for v in rt.provider.vehicle_ids:
            bs = covering(positions[v], last(v))
            if bs is not None:
                assoc[v] = bs
                by_bs[bs.station_id].append(v)
        self._assoc = assoc

        total_cells = 0
        total_steps = 0
        th_cap = rt.knobs.th_cap
        d_min = rt.knobs.d_min_m
        for bs_id in sorted(by_bs):
            current = by_bs[bs_id]
            current_set = set(current)
            cells = self._cells.get(bs_id, [])
            kept = []
            claimed = set()
            for cell in cells:
                members = [m for m in cell.members if m in current_set]
                if not members:
                    continue
                cell.members = members
                if cell.anchor not in current_set:
                    cell.anchor = fog.nearest_to_centroid(members, positions)
                claimed.update(members)
                kept.append(cell)
            if current and not kept:
                # no cell left here: the newcomers, in id order, form one
                kept = [fog.FogCell(next(self._cell_seq), anchor=current[0], members=current)]
                claimed = current_set
            for v in current:
                if v in claimed:
                    continue
                # a newcomer joins the nearest anchor's cell, ties to the lower id
                p = positions[v]
                home = min(kept, key=lambda c: (distance(positions[c.anchor], p), c.cell_id))
                insort(home.members, v)
            kept, steps = fog.run_maintenance(
                kept, positions, d_min, th_cap, lambda: next(self._cell_seq)
            )
            fog.check_partition(kept, current_set, th_cap)
            self._cells[bs_id] = kept
            total_cells += len(kept)
            total_steps += steps
        self._maintained_at = t
        return total_cells, total_steps

    def on_maintenance(self, t: SimTime) -> Record:
        if t == self._maintained_at:
            # what a rerun at the fixed point returns: the cells, one round per station
            cells, steps = sum(map(len, self._cells.values())), len(self.rt.stations)
        else:
            cells, steps = self.maintain(t)
        return "cells={} steps={}", cells, steps

    # -- dissemination -------------------------------------------------------

    def on_inject(self, msg: Message, t: SimTime) -> None:
        rt = self.rt
        if t != self._maintained_at:
            self.maintain(t)
        src_bs = self._assoc.get(msg.src)
        if src_bs is None:
            rt.sim.note("sender outside coverage")
            return
        reach = rt.knobs.bs_coverage_m
        up = rt.channel.uplink(rt.pos(msg.src, t), src_bs.pos, reach, t, contend=False)
        if not up.delivered:
            rt.sim.note("bs={} uplink {}", src_bs.station_id, up.loss_cause)
            for dst in msg.targets:
                rt.record_loss(msg, dst, up.loss_cause)
            return
        fog_ready = t + up.delay_us + rt.knobs.fog_processing_us

        by_bs: dict[BaseStation, set[int]] = {}
        for dst in msg.targets:
            dst_bs = self._assoc.get(dst)
            if dst_bs is not None:
                by_bs.setdefault(dst_bs, set()).add(dst)
        for bs in sorted(by_bs, key=lambda s: s.station_id):
            wanted = by_bs[bs]
            receivers: set = set()
            for cell in self._cells.get(bs.station_id, []):
                if not wanted.isdisjoint(cell.members):
                    receivers.update(cell.members)
            if bs == src_bs:
                at = fog_ready
            else:
                at = (
                    fog_ready
                    + rt.cloud.uplink_us
                    + rt.cloud.processing_us
                    + rt.cloud.downlink_us
                    + rt.knobs.fog_processing_us
                )
            rt.schedule_cloud(InfraTx(msg, bs, sorted(receivers)), at)
        rt.sim.note("bs={} ready={} drops={}", src_bs.station_id, fog_ready, len(by_bs))

    def after_infra(self, job: InfraTx, t: SimTime, results) -> Record:
        # the Runtime records only targets, and the targets among these
        # receivers (this station's cells) are the ones this drop is for
        reached = self.rt.settle(job.msg, results, t, 2)
        return "i2v msg={} bs={} ok={}", job.msg.msg_id, job.bs.station_id, len(reached)


PROTOCOLS = {
    BaselineFlood.name: BaselineFlood,
    HybridVehcloud.name: HybridVehcloud,
    Dfcv.name: Dfcv,
}
