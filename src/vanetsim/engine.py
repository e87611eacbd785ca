"""Deterministic discrete-event core: integer clock, event queue, RNG streams.

Simulation time is an integer number of microseconds.  Events are ordered
by (fire_at, seq) where seq is a monotonically increasing schedule counter,
so ties fire in the order they were scheduled and a rerun with the same
seed and configuration replays the exact same event sequence.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import BudgetError, SchedulingError

SimTime = int  # microseconds since simulation start

US_PER_S = 1_000_000

DEFAULT_EVENT_BUDGET = 50_000_000


def to_us(seconds: float) -> SimTime:
    """Seconds to whole microseconds, rounding half up."""
    return int(seconds * US_PER_S + 0.5)


# Event kinds understood by the engine.  The engine itself only orders and
# dispatches; the meaning of each kind lives in the scenario runtime.
MOBILITY_TICK = "MobilityTick"
BEACON_EMIT = "BeaconEmit"
MESSAGE_INJECT = "MessageInject"
RADIO_DELIVER = "RadioDeliver"
FOG_MAINTENANCE = "FogMaintenance"
CLOUD_DELIVER = "CloudDeliver"
SIM_END = "SimEnd"

EVENT_KINDS = frozenset(
    {
        MOBILITY_TICK,
        BEACON_EMIT,
        MESSAGE_INJECT,
        RADIO_DELIVER,
        FOG_MAINTENANCE,
        CLOUD_DELIVER,
        SIM_END,
    }
)


def derive_stream_seed(seed: int, stream_id: str) -> int:
    """Derive a child seed for a named stream from the run seed.

    Uses SHA-256 so the mapping is stable across platforms and Python
    versions; the same (seed, stream_id) always yields the same stream.
    """
    digest = hashlib.sha256(f"{seed}:{stream_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(order=True)
class Event:
    fire_at: SimTime
    seq: int
    kind: str = field(compare=False)
    payload: object = field(compare=False, default=None)


@dataclass
class RunStats:
    events_processed: int
    clock: SimTime
    queued: int


class Simulator:
    """Single-threaded event loop with named deterministic RNG streams.

    Handlers are registered per event kind and may schedule further events
    while the loop runs.  A handler may return a short summary string; when
    an event log is attached, one tab-separated line per processed event is
    appended to it: ``time_us seq kind summary``.
    """

    def __init__(
        self,
        seed: int = 0,
        event_budget: int = DEFAULT_EVENT_BUDGET,
        log: Optional[list] = None,
    ):
        self.seed = seed
        self.event_budget = event_budget
        self.clock: SimTime = 0
        self.events_processed = 0
        self._queue: list[Event] = []
        self._next_seq = 0
        self._handlers: dict[str, Callable[[Event], Optional[str]]] = {}
        self._streams: dict[str, random.Random] = {}
        self._log = log

    def rng(self, stream_id: str) -> random.Random:
        """Return the named RNG stream, creating it on first use.

        Draw n of a stream depends only on (seed, stream_id, n), never on
        what other streams were asked for in between.
        """
        stream = self._streams.get(stream_id)
        if stream is None:
            stream = random.Random(derive_stream_seed(self.seed, stream_id))
            self._streams[stream_id] = stream
        return stream

    def on(self, kind: str, handler: Callable[[Event], Optional[str]]) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self._handlers[kind] = handler

    def schedule(self, fire_at: SimTime, kind: str, payload: object = None) -> Event:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        fire_at = int(fire_at)
        if fire_at < self.clock:
            raise SchedulingError(
                f"cannot schedule {kind} at {fire_at}us: clock is already at {self.clock}us"
            )
        event = Event(fire_at, self._next_seq, kind, payload)
        self._next_seq += 1
        heapq.heappush(self._queue, event)
        return event

    def run(self, until: SimTime) -> RunStats:
        """Process events with fire_at <= until in (fire_at, seq) order."""
        until = int(until)
        while self._queue and self._queue[0].fire_at <= until:
            event = heapq.heappop(self._queue)
            self.events_processed += 1
            if self.events_processed > self.event_budget:
                raise BudgetError(
                    f"event budget exceeded: {self.event_budget} events processed, "
                    f"clock={self.clock}us, next={event.kind}@{event.fire_at}us, "
                    f"{len(self._queue)} still queued"
                )
            self.clock = event.fire_at
            handler = self._handlers.get(event.kind)
            summary = handler(event) if handler is not None else None
            if self._log is not None:
                self._log.append(
                    f"{event.fire_at}\t{event.seq}\t{event.kind}\t{summary or '-'}"
                )
        return RunStats(self.events_processed, self.clock, len(self._queue))
