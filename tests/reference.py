"""What the tests hold the simulator to, kept apart from ``src/``.

``evaluate_hop`` and ``hop_delay_us`` evaluate one hop on their own, as
``Channel.hops`` does for each of its receivers.

The four metric functions recompute each summary metric on its own from a
record list, so ``metrics.summarize`` and a run's summary can be checked
against them.  ``closed_pairs`` and ``spy_addresses`` read a
``Runtime``'s ledger by (message, target) pair: the rows it closed, and
every pair it was asked to open.  ``spy_maintenance`` collects each
station's fog rounds and cells at every dfcv maintenance.
``unshared_regions`` swaps in the hybrid late-joiner tick that walks
every message and a region query made afresh by every caller, so a whole
run can be compared byte for byte with the per-instant region memo and
the open-window tick.
``brute_force_channel`` does the same for the channel: carrier sense and
contention counted from every registered frame and every beacon.
``brute_force_neighbors`` stands in for ``Runtime.neighbors``: every
vehicle located afresh and checked at its exact distance.
``all_items_grid`` answers every ``CellGrid`` query with every item the
grid holds, which turns the neighbor index, the station index and the
gateway cover into scans of every entry, station and shadowed vehicle.
``parse_log`` reads a run's event log back into fields, for laws checked
over every event of a run.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import hypot
from typing import NamedTuple, Optional, Sequence
from unittest import mock

from vanetsim import protocols, runner
from vanetsim.engine import US_PER_S
from vanetsim.metrics import DeliveryRecord
from vanetsim.mobility import CellGrid, distance
from vanetsim.protocols import TxJob, obstacle_shadowing
from vanetsim.radio import (
    CHANNEL_LOSS,
    OUT_OF_RANGE,
    SHADOWED,
    Channel,
    HopOutcome,
    RadioParams,
    channel_loss,
    line_of_sight,
)


def hop_delay_us(params: RadioParams, distance_m: float) -> int:
    """Transmission plus propagation, in whole microseconds.

    The fractional transmission and propagation terms are rounded half-up;
    the result is always at least one microsecond.
    """
    tx = params.msg_size_bytes * 8 * US_PER_S / params.data_rate_bps
    prop = distance_m * US_PER_S / params.prop_speed_mps
    return max(1, int(tx + prop + 0.5))


def evaluate_hop(src, dst, reach_m, params, obstacles, contention=None, rng=None):
    """The per-hop reference that ``Channel.hops`` is checked against.

    Checks run range, sight, then channel.  ``contention(dst)`` counts the
    transmissions audible at the receiver; it is called, and one
    ``channel_loss`` draw is taken from ``rng``, only after range and sight
    pass.  Without a contention check the hop draws nothing.
    """
    d = distance(src, dst)
    if d > reach_m:
        return HopOutcome(False, loss_cause=OUT_OF_RANGE)
    if not line_of_sight(src, dst, obstacles):
        return HopOutcome(False, loss_cause=SHADOWED)
    if contention is not None and channel_loss(params, contention(dst), rng):
        return HopOutcome(False, loss_cause=CHANNEL_LOSS)
    return HopOutcome(True, delay_us=hop_delay_us(params, d))


def end_to_end_delay_s(records: Sequence[DeliveryRecord]) -> Optional[float]:
    """Mean (recv - sent) in seconds over delivered records; None if none."""
    delays = [r.recv_us - r.sent_us for r in records if r.delivered]
    if not delays:
        return None
    return (sum(delays) / len(delays)) / US_PER_S


def delivery_probability(records: Sequence[DeliveryRecord]) -> Optional[float]:
    if not records:
        return None
    return sum(1 for r in records if r.delivered) / len(records)


def packet_loss_ratio(records: Sequence[DeliveryRecord]) -> Optional[float]:
    if not records:
        return None
    return sum(1 for r in records if not r.delivered) / len(records)


def average_throughput_bps(
    records: Sequence[DeliveryRecord], window_s: float, msg_size_bytes: int
) -> float:
    """Delivered payload bits per second of observation window."""
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    delivered = sum(1 for r in records if r.delivered)
    return delivered * msg_size_bytes * 8 / window_s


def closed_pairs(rt: runner.Runtime) -> dict[tuple[int, int], DeliveryRecord]:
    """The record of every pair ``rt`` has closed, by (msg_id, dst)."""
    return {(row[0], row[2]): DeliveryRecord(*row) for row in rt.rows}


@contextmanager
def spy_addresses():
    """Yield a set that collects every (msg_id, target) pair any Runtime
    addresses while the block runs."""
    addressed: set[tuple[int, int]] = set()
    address = runner.Runtime.address

    def spy(rt, msg):
        addressed.update((msg.msg_id, dst) for dst in msg.targets)
        return address(rt, msg)

    with mock.patch.object(runner.Runtime, "address", spy):
        yield addressed


@contextmanager
def spy_maintenance():
    """Yield a list that collects a row ``(t, station_id, rounds, cells)``
    for each station of each ``Dfcv.maintain`` call while the block runs.

    A spy on ``Dfcv.maintain`` gives the instant and the stations; one on
    ``fog.run_maintenance``, which ``maintain`` looks up at call time and
    calls once per station in station-id order, gives each station's
    rounds and the cells it keeps.
    """
    rows: list[tuple[int, int, int, int]] = []
    rounds: list[tuple[int, int]] = []
    maintain, run_maintenance = protocols.Dfcv.maintain, protocols.fog.run_maintenance

    def spy_run(cells, *args):
        kept, steps = run_maintenance(cells, *args)
        rounds.append((steps, len(kept)))
        return kept, steps

    def spy_maintain(dfcv, t):
        del rounds[:]
        out = maintain(dfcv, t)
        ids = sorted(s.station_id for s in dfcv.rt.stations)
        assert len(rounds) == len(ids), "one fog round per station"
        rows.extend((t, bs_id, steps, n_cells) for bs_id, (steps, n_cells) in zip(ids, rounds))
        return out

    with mock.patch.object(protocols.fog, "run_maintenance", spy_run), mock.patch.object(
        protocols.Dfcv, "maintain", spy_maintain
    ):
        yield rows


def region_members(rt, bs, t, exclude=()):
    """A station's region at ``t`` from a query of its own, ``exclude`` and all."""
    return tuple(rt.neighbors(bs.pos, rt.knobs.bs_coverage_m, t, exclude))


def hybrid_on_tick(self, t):
    """Hybrid's late-joiner tick over every message ever injected, each
    open one querying its station's region without its source.  Nothing
    pops the window deque under this tick, so it holds every message, in
    inject order."""
    rt = self.rt
    attempts = 0
    for st in list(self._windows):
        if t > st.window_end:
            continue
        current = rt.region_members(st.bs, t, exclude=(st.msg.src,))
        fresh = sorted(set(current) - st.handled)
        if not fresh:
            continue
        st.handled.update(fresh)
        late_shadowed = []
        for v in fresh:
            if v in st.seen:
                continue
            if obstacle_shadowing(rt.pos(v, t), st.bs.pos, rt.obstacles) == 0:
                rt.schedule_tx(
                    TxJob(st.msg, st.msg.src, hop=1, purpose="newcomer", receivers=[v], state=st),
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


@contextmanager
def unshared_regions():
    """Run every Runtime with ``region_members`` and hybrid's ``on_tick`` above."""
    with mock.patch.object(runner.Runtime, "region_members", region_members):
        with mock.patch.object(protocols.HybridVehcloud, "on_tick", hybrid_on_tick):
            yield


def brute_force_neighbors(rt, center, radius_m, t, exclude=()):
    """``Runtime.neighbors`` without the index or the position cache: every
    vehicle not in ``exclude`` within ``radius_m`` of ``center`` at ``t``,
    located through ``provider.position_at``, sorted by id."""
    locate = rt.provider.position_at
    return sorted(
        v
        for v in rt.provider.vehicle_ids
        if v not in exclude and distance(center, locate(v, t)) <= radius_m
    )


def frames_on_air(ch: Channel, t) -> list[tuple[int, float, float]]:
    """(end, x, y) of every frame on air at ``t``: each registered frame with
    start <= t < end, and each beacon of each vehicle, enumerated start by
    start from its phase and located at its start."""
    frames = [(end, x, y) for end, start, x, y in ch._active if start <= t < end]
    if ch._period:
        for phase, v in zip(ch._phases, ch._beaconers):
            for start in range(phase, t + 1, ch._period):
                if t < start + ch.frame_us:
                    x, y = ch._locate(v, start)
                    frames.append((start + ch.frame_us, x, y))
    return frames


def concurrent_near(ch, pos, t, own=None):
    """``Channel.concurrent_near`` from ``frames_on_air``."""
    r, (px, py) = ch.params.range_m, pos
    n = sum(1 for _, x, y in frames_on_air(ch, t) if hypot(x - px, y - py) <= r)
    if own is not None and hypot(own[0] - px, own[1] - py) <= r:
        n -= 1
    return n


def busy_until_near(ch, pos, t):
    """``Channel.busy_until_near`` from ``frames_on_air``."""
    r, (px, py) = ch.params.range_m, pos
    ends = [end for end, x, y in frames_on_air(ch, t) if hypot(x - px, y - py) <= r]
    return max(ends, default=None)


@contextmanager
def brute_force_channel():
    """Run every Channel with the two queries above.  Nothing is pruned and
    no beacon is pushed, so the heap holds every transmission registered."""
    with mock.patch.object(Channel, "concurrent_near", concurrent_near):
        with mock.patch.object(Channel, "busy_until_near", busy_until_near):
            yield


def every_item(grid: CellGrid, *_) -> list:
    """Every item filed in ``grid``, whatever point is asked about, sorted
    by the grid's ``order`` key when it has one, as ``near`` sorts."""
    items = [item for items in grid._cells.values() for item in items]
    if grid._order is not None:
        items.sort(key=grid._order)
    return items


@contextmanager
def all_items_grid():
    """Run every CellGrid with ``near`` answering every item."""
    with mock.patch.object(CellGrid, "near", every_item):
        yield


class LogLine(NamedTuple):
    """One event-log line: its time and kind, the bare words of its notes
    (``tx``, ``wait``, ...), its ``key=value`` notes (the first of each key)
    and its ``rec=`` notes as (msg, dst, ``ok`` or the loss cause, recv_us
    or None)."""

    t: int
    kind: str
    words: tuple[str, ...]
    fields: dict[str, str]
    records: list[tuple[int, int, str, Optional[int]]]


def parse_log(log: Sequence[str]) -> list[LogLine]:
    """The lines of an event log (``time seq kind notes``, tab-separated)."""
    lines = []
    for line in log:
        t, _seq, kind, notes = line.split("\t")
        words, fields, records = [], {}, []
        for note in notes.split(" "):
            key, eq, value = note.partition("=")
            if not eq:
                words.append(note)
            elif key == "rec":
                mid, dst, outcome, *recv = value.split(":")
                records.append((int(mid), int(dst), outcome, int(recv[0]) if recv else None))
            else:
                fields.setdefault(key, value)
        lines.append(LogLine(int(t), kind, tuple(words), fields, records))
    return lines
