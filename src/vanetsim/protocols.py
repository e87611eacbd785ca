"""Dissemination protocols: multi-hop flooding, cloud-assisted gateway
relay for shadowed vehicles, and fog-cell directed dissemination.

Each protocol is driven by a Runtime (see runner.py) that owns the event
loop, the channel, positions and the delivery records.  Protocols receive
injected messages, decide who transmits what and when, and are called back
with per-receiver radio outcomes after every transmission fires.  They
report those outcomes to the Runtime, which writes a record only for an
addressed (message, recipient) pair that has none yet.  All iteration is
over sorted ids so a given seed always produces the same event sequence.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from dataclasses import dataclass, field
from math import floor
from typing import Optional, Sequence

from .engine import SimTime, to_us
from .errors import ConfigError
from .mobility import Position, distance
from .radio import (
    OUT_OF_RANGE,
    SHADOWED,
    HopOutcome,
    ObstacleMap,
    RadioParams,
    line_of_sight,
)

KIND_BEACON = "beacon"
KIND_EVENT = "event_driven"


@dataclass(frozen=True)
class Message:
    msg_id: int
    src: int
    origin_us: SimTime
    targets: tuple[int, ...]
    size_bytes: int = 256
    ttl_hops: int = 8
    kind: str = KIND_EVENT

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError("message size must be positive")
        if self.ttl_hops < 1:
            raise ValueError("ttl_hops must be >= 1")


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
        for name in ("uplink_us", "downlink_us", "processing_us"):
            if getattr(self, name) < 0:
                raise ConfigError(f"cloud.{name}: must be non-negative")


def nearest_station(stations: Sequence[BaseStation], pos: Position) -> BaseStation:
    if not stations:
        raise ValueError("no base stations placed")
    return min(stations, key=lambda s: (distance(s.pos, pos), s.station_id))


class StationIndex:
    """The station covering a point, found without scanning every station.

    ``covering(pos)`` is the nearest station by ``(distance, station_id)``
    when that distance is at most ``coverage_m``, else None: exactly what
    ``nearest_station`` plus a coverage test gives.  Stations are fixed for
    a run, so they are bucketed once, in square cells a hair wider than the
    coverage, and each cell keeps the stations of its 3x3 neighbourhood in
    id order; a query reads one such list.  Every station within coverage
    of a point is in that list: the padding is far wider than the float
    rounding in ``floor(x / cell)`` and in ``distance`` for coordinates up
    to a billion coverages from the origin.
    """

    def __init__(self, stations: Sequence[BaseStation], coverage_m: float):
        self.coverage_m = coverage_m
        self._cell = cell = coverage_m * (1.0 + 1e-6)
        near: dict[tuple[int, int], list[BaseStation]] = {}
        for s in sorted(stations, key=lambda s: s.station_id):
            cx, cy = floor(s.pos.x / cell), floor(s.pos.y / cell)
            for i in (cx - 1, cx, cx + 1):
                for j in (cy - 1, cy, cy + 1):
                    near.setdefault((i, j), []).append(s)
        self._near = near

    def covering(self, pos: Position) -> Optional[BaseStation]:
        cell = self._cell
        best = None
        best_d = 0.0
        for s in self._near.get((floor(pos.x / cell), floor(pos.y / cell)), ()):
            d = distance(s.pos, pos)
            # id order, so a tie keeps the lower id
            if best is None or d < best_d:
                best, best_d = s, d
        if best is not None and best_d <= self.coverage_m:
            return best
        return None


def obstacle_shadowing(vehicle_pos: Position, station_pos: Position, obstacles: ObstacleMap) -> int:
    """1 if the vehicle-to-station segment is blocked, else 0."""
    return 0 if line_of_sight(vehicle_pos, station_pos, obstacles) else 1


def select_gateways(
    shadowed: Sequence[int],
    gateway_ids: Sequence[int],
    positions: dict[int, Position],
    params: RadioParams,
    obstacles: ObstacleMap,
    k_max: int = 4,
) -> tuple[list[int], dict[int, list[int]]]:
    """Greedy maximum-coverage pick of at most k_max gateways.

    A gateway covers a shadowed vehicle when the vehicle is within radio
    range and line of sight of it.  Ties go to the smaller gateway id;
    selection stops when everyone is covered, no gateway adds coverage,
    or k_max picks were made.  Returns (chosen ids in pick order,
    coverage sets for every candidate gateway).

    Only the 3x3 cells of shadowed vehicles around a gateway can hold
    vehicles in its range, and sight is tested against the obstacles near
    it.  Picks run as lazy greedy: a gain only falls as vehicles get
    covered, so a re-scored top entry that still beats every stale key is
    the eager pick.
    """
    reach = params.range_m
    # Cells a hair wider than the range: a pair at exactly range_m stays
    # in neighbouring cells whatever floor(x / cell) rounds to.
    cell = reach * (1.0 + 1e-6)
    cells: dict[tuple[int, int], list[tuple[int, Position]]] = {}
    for v in shadowed:
        p = positions[v]
        cells.setdefault((floor(p.x / cell), floor(p.y / cell)), []).append((v, p))
    covers: dict[int, list[int]] = {}
    for g in sorted(gateway_ids):
        gpos = positions[g]
        # cell, not reach: the margin also covers rounding in distance()
        near = obstacles.near(gpos.x, gpos.y, cell)
        cx, cy = floor(gpos.x / cell), floor(gpos.y / cell)
        cover = []
        for i in (cx - 1, cx, cx + 1):
            for j in (cy - 1, cy, cy + 1):
                for v, p in cells.get((i, j), ()):
                    if v != g and distance(gpos, p) <= reach and line_of_sight(gpos, p, near):
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
    misses must be accounted for.
    """

    msg: Message
    sender: int
    hop: int
    purpose: str  # flood | direct | gateway | newcomer
    receivers: Optional[list[int]] = None
    defers: int = 0
    fire: bool = False


@dataclass
class InfraTx:
    """Downlink broadcast from a base station to listed vehicles."""

    msg: Message
    bs_id: int
    receivers: list[int]


@dataclass
class BeaconJob:
    vehicle: int


class Protocol:
    """Shared callbacks; the Runtime dispatches events to these."""

    name = "?"
    wants_ticks = False
    wants_maintenance = False

    def __init__(self, rt):
        self.rt = rt

    def on_inject(self, msg: Message, t: SimTime) -> str:
        raise NotImplementedError

    def tx_receivers(self, job: TxJob, t: SimTime) -> list[int]:
        raise NotImplementedError

    def after_tx(self, job: TxJob, t: SimTime, results) -> str:
        raise NotImplementedError

    def on_cloud(self, payload, t: SimTime) -> str:
        raise NotImplementedError

    def after_infra(self, job: InfraTx, t: SimTime, results) -> str:
        raise NotImplementedError

    def on_tick(self, t: SimTime) -> Optional[str]:
        return None

    def on_maintenance(self, t: SimTime) -> Optional[str]:
        return None

    def on_end(self, t: SimTime) -> None:
        return None


def fmt_ids(ids) -> str:
    return ",".join(str(i) for i in ids)


class BaselineFlood(Protocol):
    """Multi-hop flood: every first-time recipient rebroadcasts once.

    Losses are provisional until the flood dies out: a target missed by
    one relay may still be reached by another, so causes are only noted
    with the Runtime and recorded when no transmission is pending.
    """

    name = "baseline"

    def __init__(self, rt):
        super().__init__(rt)
        self._seen: dict[int, set] = {}
        self._pending: dict[int, int] = {}

    def on_inject(self, msg: Message, t: SimTime) -> str:
        self._seen[msg.msg_id] = {msg.src}
        self._pending[msg.msg_id] = 1
        start = t + self.rt.knobs.route_setup_delay_us
        self.rt.schedule_tx(TxJob(msg, msg.src, hop=1, purpose="flood"), start)
        return f"flood start={start}"

    def tx_receivers(self, job: TxJob, t: SimTime) -> list[int]:
        seen = self._seen[job.msg.msg_id]
        pos = self.rt.pos(job.sender, t)
        cand = self.rt.neighbors(pos, self.rt.params.range_m, t)
        return [v for v in cand if v != job.sender and v not in seen]

    def after_tx(self, job: TxJob, t: SimTime, results) -> str:
        rt = self.rt
        msg = job.msg
        mid = msg.msg_id
        seen = self._seen[mid]
        relays = 0
        delivered = 0
        for rid, out in results:
            if out.delivered:
                recv = t + out.delay_us
                seen.add(rid)
                delivered += 1
                rt.record_delivery(msg, rid, recv, job.hop)
                if job.hop < msg.ttl_hops:
                    self._pending[mid] += 1
                    rt.schedule_tx(TxJob(msg, rid, hop=job.hop + 1, purpose="flood"), recv)
                    relays += 1
            else:
                rt.note_loss(msg, rid, out.loss_cause)
        self._pending[mid] -= 1
        tail = ""
        if self._pending[mid] == 0:
            self._finalize(mid)
            tail = " final"
        return f"tx msg={mid} from={job.sender} hop={job.hop} ok={delivered} relay={relays}{tail}"

    def _finalize(self, mid: int):
        msg = self.rt.messages[mid]
        for dst in msg.targets:
            self.rt.record_loss(msg, dst)

    def on_end(self, t: SimTime) -> None:
        # Floods cut off by the horizon finalize with what was noted.
        for mid, n in self._pending.items():
            if n > 0:
                self._finalize(mid)
                self._pending[mid] = 0


@dataclass
class _HybridState:
    msg: Message
    bs: BaseStation
    loc: dict[int, int]
    window_end: SimTime
    handled: set = field(default_factory=set)
    chances: dict[int, int] = field(default_factory=dict)
    uplink: Optional[HopOutcome] = None  # the sender's hop into the cloud, once tried
    cloud_ready: SimTime = 0


class HybridVehcloud(Protocol):
    """Direct broadcast for line-of-sight vehicles; shadowed ones get the
    message through the vehicular cloud via selected mobile gateways.

    Late joiners entering the sender's region during the dissemination
    window get a one-shot re-delivery down whichever branch applies.
    """

    name = "hybrid_vehcloud"
    wants_ticks = True

    def __init__(self, rt):
        super().__init__(rt)
        self._live: dict[int, _HybridState] = {}
        self._seen: dict[int, set] = {}
        self._window_us = to_us(rt.knobs.window_s)

    # -- injection -----------------------------------------------------

    def on_inject(self, msg: Message, t: SimTime) -> str:
        rt = self.rt
        src_pos = rt.pos(msg.src, t)
        bs = rt.nearest_station(src_pos)
        region = rt.region_members(bs, t, exclude=msg.src)
        loc = {
            v: obstacle_shadowing(rt.pos(v, t), bs.pos, rt.obstacles) for v in region
        }
        st = _HybridState(msg, bs, loc, window_end=t + self._window_us)
        st.handled = set(region)
        st.handled.add(msg.src)
        self._live[msg.msg_id] = st
        self._seen[msg.msg_id] = {msg.src}
        if not region:
            # Nobody around the sender's station: nothing to transmit.
            self._drop_if_done(msg.msg_id, t)
            return f"bs={bs.station_id} n=0 no nearby vehicles"

        rt.schedule_tx(TxJob(msg, msg.src, hop=1, purpose="direct"), t)
        shadowed = sorted(v for v in region if loc[v] == 1)
        if shadowed:
            self._cloud_round(st, shadowed, t)
        return f"bs={bs.station_id} n={len(region)} shadowed={len(shadowed)}"

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
        covered_count = {v: 0 for v in shadowed}
        for g in chosen:
            for v in covers[g]:
                covered_count[v] += 1
        for v in shadowed:
            if rt.is_open(msg.msg_id, v):
                if covered_count[v] == 0:
                    rt.record_loss(msg, v, SHADOWED)
                else:
                    st.chances[v] = st.chances.get(v, 0) + covered_count[v]
        for g in chosen:
            self._drop_at_gateway(st, g, covers[g], t)
        rt.note(f"gw={fmt_ids(chosen)}")

    def _drop_at_gateway(self, st: _HybridState, g: int, receivers: list[int], t: SimTime):
        """Have the cloud hand the message to gateway ``g`` once it is there."""
        rt = self.rt
        arrive = max(t, st.cloud_ready) + rt.cloud.downlink_us + rt.knobs.gateway_access_us
        rt.schedule_cloud(
            TxJob(st.msg, g, hop=2, purpose="gateway", receivers=receivers), arrive
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
            if d <= rt.params.range_m and rt.los(pos, gpos):
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
            st.uplink = rt.uplink(msg, src_pos, gpos, rt.params.range_m, t, contend=True)
            entry = f"gw:{g}"
        else:
            st.uplink = rt.uplink(
                msg, src_pos, st.bs.pos, rt.knobs.bs_coverage_m, t, contend=False
            )
            entry = "bs"
        if st.uplink.delivered:
            st.cloud_ready = t + st.uplink.delay_us + rt.cloud.uplink_us + rt.cloud.processing_us
            rt.note(f"uplink={entry}")
        else:
            rt.note(f"uplink={entry}:{st.uplink.loss_cause}")

    # -- transmissions ---------------------------------------------------

    def _loc_of(self, st: _HybridState, v: int, t: SimTime) -> int:
        if v in st.loc:
            return st.loc[v]
        return obstacle_shadowing(self.rt.pos(v, t), st.bs.pos, self.rt.obstacles)

    def tx_receivers(self, job: TxJob, t: SimTime) -> list[int]:
        rt = self.rt
        mid = job.msg.msg_id
        seen = self._seen[mid]
        st = self._live.get(mid)
        if job.purpose == "direct":
            pos = rt.pos(job.sender, t)
            cand = rt.neighbors(pos, rt.params.range_m, t)
            out = {
                v
                for v in cand
                if v != job.sender and v not in seen and self._loc_of(st, v, t) == 0
            }
            # Addressed line-of-sight targets beyond range must still be
            # accounted for, so they join the evaluation explicitly.
            for v in job.msg.targets:
                if v not in seen and st.loc.get(v) == 0:
                    out.add(v)
            return sorted(out)
        return [v for v in (job.receivers or []) if v not in seen]

    def after_tx(self, job: TxJob, t: SimTime, results) -> str:
        msg = job.msg
        mid = msg.msg_id
        rt = self.rt
        seen = self._seen[mid]
        st = self._live.get(mid)
        delivered = 0
        for rid, out in results:
            if out.delivered:
                seen.add(rid)
                delivered += 1
                rt.record_delivery(msg, rid, t + out.delay_us, job.hop)
                if st is not None:
                    st.chances.pop(rid, None)
                continue
            if not rt.is_open(mid, rid):
                continue
            if job.purpose == "direct":
                # One shot for line-of-sight vehicles: the miss is final.
                rt.record_loss(msg, rid, out.loss_cause)
            elif job.purpose == "gateway":
                rt.note_loss(msg, rid, out.loss_cause)
                if st is not None and rid in st.chances:
                    st.chances[rid] -= 1
                    if st.chances[rid] <= 0:
                        rt.record_loss(msg, rid)
        self._drop_if_done(mid, t)
        return f"tx msg={mid} from={job.sender} purpose={job.purpose} ok={delivered}"

    def on_cloud(self, job: TxJob, t: SimTime) -> str:
        self.rt.schedule_tx(job, t)
        return f"msg={job.msg.msg_id} gw={job.sender} n={len(job.receivers)}"

    # -- late joiners ------------------------------------------------------

    def on_tick(self, t: SimTime) -> Optional[str]:
        rt = self.rt
        attempts = 0
        for mid in sorted(self._live):
            st = self._live[mid]
            if t > st.window_end:
                continue
            current = rt.region_members(st.bs, t, exclude=st.msg.src)
            fresh = sorted(set(current) - st.handled)
            if not fresh:
                continue
            st.handled.update(fresh)
            seen = self._seen[mid]
            late_shadowed = []
            for v in fresh:
                if v in seen:
                    continue
                if obstacle_shadowing(rt.pos(v, t), st.bs.pos, rt.obstacles) == 0:
                    rt.schedule_tx(
                        TxJob(st.msg, st.msg.src, hop=1, purpose="newcomer", receivers=[v]),
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
        self._expire(t)
        return f"late_attempts={attempts}" if attempts else None

    def _covering_gateway(self, st: _HybridState, v: int, t: SimTime) -> Optional[int]:
        best = self._nearest_gateway(self.rt.pos(v, t), t, (v, st.msg.src))
        return None if best is None else best[1]

    def _expire(self, t: SimTime):
        for mid in sorted(self._live):
            if t > self._live[mid].window_end:
                self._drop_if_done(mid, t, force=True)

    def _drop_if_done(self, mid: int, t: SimTime, force: bool = False):
        st = self._live.get(mid)
        if st is None:
            return
        if force or (t > st.window_end and not st.chances):
            self._live.pop(mid, None)

    def on_end(self, t: SimTime) -> None:
        self._live.clear()


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
        self._assoc: dict[int, Optional[int]] = {}
        self._cell_seq = itertools.count(1)
        self.audit: list[tuple[SimTime, int, int, int]] = []

    # -- membership upkeep -------------------------------------------------

    def maintain(self, t: SimTime) -> tuple[int, int]:
        """Re-associate vehicles, reconcile cells, split/merge to fixed point.

        Returns (total cells, total maintenance steps) across stations.
        """
        # Imported at call time: benchmark/tracing.py times these by patching
        # the fog module's attributes, which a module-level import would bypass.
        from .fog import FogCell, nearest_to_centroid, run_maintenance, check_partition

        rt = self.rt
        positions = rt.fleet_positions(t)
        covering = rt.station_index.covering
        assoc: dict[int, Optional[int]] = {}
        by_bs: dict[int, list[int]] = {s.station_id: [] for s in rt.stations}
        for v in sorted(positions):
            bs = covering(positions[v])
            if bs is None:
                assoc[v] = None
            else:
                assoc[v] = bs.station_id
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
                    cell.anchor = nearest_to_centroid(members, positions)
                claimed.update(members)
                kept.append(cell)
            # anchors stay put while newcomers join, so look each up once
            homes = [(c.cell_id, positions[c.anchor], c) for c in kept]
            for v in current:
                if v in claimed:
                    continue
                if homes:
                    # min over (distance to anchor, cell id)
                    p = positions[v]
                    best_key = None
                    for cid, anchor_pos, c in homes:
                        key = (distance(anchor_pos, p), cid)
                        if best_key is None or key < best_key:
                            best_key, home = key, c
                    insort(home.members, v)
                else:
                    cell = FogCell(
                        cell_id=next(self._cell_seq),
                        base_station_id=bs_id,
                        anchor=v,
                        members=[v],
                    )
                    kept.append(cell)
                    homes.append((cell.cell_id, positions[v], cell))
            kept, steps = run_maintenance(
                kept, positions, d_min, th_cap, lambda: next(self._cell_seq)
            )
            check_partition(kept, current_set, th_cap)
            self._cells[bs_id] = kept
            self.audit.append((t, bs_id, steps, len(kept)))
            total_cells += len(kept)
            total_steps += steps
        return total_cells, total_steps

    def on_maintenance(self, t: SimTime) -> Optional[str]:
        cells, steps = self.maintain(t)
        return f"cells={cells} steps={steps}"

    # -- dissemination -------------------------------------------------------

    def on_inject(self, msg: Message, t: SimTime) -> str:
        rt = self.rt
        self.maintain(t)
        src_bs_id = self._assoc.get(msg.src)
        if src_bs_id is None:
            for dst in msg.targets:
                rt.record_loss(msg, dst, OUT_OF_RANGE)
            return "sender outside coverage"
        bs = rt.station(src_bs_id)
        up = rt.uplink(msg, rt.pos(msg.src, t), bs.pos, rt.knobs.bs_coverage_m, t, contend=False)
        if not up.delivered:
            for dst in msg.targets:
                rt.record_loss(msg, dst, up.loss_cause)
            return f"bs={src_bs_id} uplink {up.loss_cause}"
        fog_ready = t + up.delay_us + rt.knobs.fog_processing_us

        by_bs: dict[int, list[int]] = {}
        for dst in msg.targets:
            dst_bs = self._assoc.get(dst)
            if dst_bs is None:
                rt.record_loss(msg, dst, OUT_OF_RANGE)
            else:
                by_bs.setdefault(dst_bs, []).append(dst)
        hops = 0
        for bs_id in sorted(by_bs):
            wanted = set(by_bs[bs_id])
            receivers: set = set()
            for cell in self._cells.get(bs_id, []):
                if wanted.intersection(cell.members):
                    receivers.update(cell.members)
            if bs_id == src_bs_id:
                at = fog_ready
            else:
                at = (
                    fog_ready
                    + rt.cloud.uplink_us
                    + rt.cloud.processing_us
                    + rt.cloud.downlink_us
                    + rt.knobs.fog_processing_us
                )
            rt.schedule_cloud(InfraTx(msg, bs_id, sorted(receivers)), at)
            hops += 1
        return f"bs={src_bs_id} ready={fog_ready} drops={hops}"

    def on_cloud(self, job: InfraTx, t: SimTime) -> str:
        self.rt.schedule_tx(job, t)
        return f"msg={job.msg.msg_id} bs={job.bs_id} n={len(job.receivers)}"

    def after_infra(self, job: InfraTx, t: SimTime, results) -> str:
        rt = self.rt
        msg = job.msg
        delivered = 0
        for rid, out in results:
            # the Runtime records only targets, and the targets among these
            # receivers (this station's cells) are the ones this drop is for
            if out.delivered:
                rt.record_delivery(msg, rid, t + out.delay_us, 2)
                delivered += 1
            else:
                rt.record_loss(msg, rid, out.loss_cause)
        return f"i2v msg={msg.msg_id} bs={job.bs_id} ok={delivered}"


PROTOCOLS = {
    BaselineFlood.name: BaselineFlood,
    HybridVehcloud.name: HybridVehcloud,
    Dfcv.name: Dfcv,
}
