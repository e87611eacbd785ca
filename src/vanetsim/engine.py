"""Deterministic discrete-event core: integer clock, event queue, RNG streams.

Simulation time is an integer number of microseconds.  Events are ordered
by (fire_at, seq) where seq is a monotonically increasing schedule counter,
so ties fire in the order they were scheduled and a rerun with the same
seed and configuration replays the exact same event sequence.  An event is
nothing but its heap entry, a (fire_at, seq, kind, payload) tuple:
(fire_at, seq) is unique, so the heap never compares kinds or payloads.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from typing import Callable, Optional

from .errors import BudgetError, SchedulingError

SimTime = int  # microseconds since simulation start

# an event-log record: a constant str.format template, then its raw fields
Record = tuple

# called with an event's (fire_at, payload); returns None or the event's Record
Handler = Callable[[SimTime, object], Optional[Record]]

US_PER_S = 1_000_000

DEFAULT_EVENT_BUDGET = 50_000_000


def to_us(seconds: float | str) -> SimTime:
    """Seconds to whole microseconds, rounding half up on the exact decimal.

    A number is taken at its shortest decimal form (``repr``), text as
    written, so 0.0001245 s is 125 us whether it comes from a config value
    or from a trace file.  Bad text raises ``decimal.InvalidOperation``.
    """
    text = seconds if isinstance(seconds, str) else repr(float(seconds))
    exact = Decimal(text) * US_PER_S
    return int(exact.quantize(Decimal(1), rounding=ROUND_HALF_UP))


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


def render(fmt: str, fields: tuple) -> str:
    """One record's text; a list or tuple field is written comma-joined."""
    return fmt.format(*[",".join(map(str, f)) if type(f) in (list, tuple) else f for f in fields])


def derive_stream_seed(seed: int, stream_id: str) -> int:
    """Derive a child seed for a named stream from the run seed.

    Uses SHA-256 so the mapping is stable across platforms and Python
    versions; the same (seed, stream_id) always yields the same stream.
    """
    digest = hashlib.sha256(f"{seed}:{stream_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class RunStats:
    events_processed: int
    clock: SimTime
    queued: int


class Simulator:
    """Single-threaded event loop with named deterministic RNG streams.

    Handlers are registered per event kind and called as
    ``handler(fire_at, payload)`` with the two ends of the event's
    (fire_at, seq, kind, payload) heap entry; they may schedule further
    events while the loop runs.  With an event log attached, one
    tab-separated line per event is appended to it, ``time_us seq kind
    summary``: the Record the handler returns, then each ``note`` made while
    the event ran, joined by spaces, or ``-`` for neither.  Without a log
    nothing is rendered and ``note`` returns at once.
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
        self._queue: list[tuple[SimTime, int, str, object]] = []
        self._next_seq = 0
        self._handlers: dict[str, Handler] = {}
        self._streams: dict[str, random.Random] = {}
        self._log = log
        self._notes: list[str] = []  # the rendered notes of the event being handled

    @property
    def has_log(self) -> bool:
        """True when an event log is attached, so handler summaries are kept."""
        return self._log is not None

    def note(self, fmt: str, *fields) -> None:
        """Add the Record ``(fmt, *fields)`` to the current event's log line,
        after the handler's own; returns at once without a log."""
        if self._log is not None:
            self._notes.append(render(fmt, fields))

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

    def on(self, kind: str, handler: Handler) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self._handlers[kind] = handler

    def schedule(self, fire_at: SimTime, kind: str, payload: object = None) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        fire_at = int(fire_at)
        if fire_at < self.clock:
            raise SchedulingError(
                f"cannot schedule {kind} at {fire_at}us: clock is already at {self.clock}us"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._queue, (fire_at, seq, kind, payload))

    def stop(self) -> None:
        """Drop every queued event, so the event being handled is the last
        one ``run`` processes."""
        self._queue.clear()

    def run(self, until: SimTime) -> RunStats:
        """Process events with fire_at <= until in (fire_at, seq) order."""
        until = int(until)
        queue, handlers, log = self._queue, self._handlers, self._log
        budget = self.event_budget
        pop = heapq.heappop
        processed = self.events_processed
        try:
            while queue and queue[0][0] <= until:
                fire_at, seq, kind, payload = pop(queue)
                processed += 1
                if processed > budget:
                    raise BudgetError(
                        f"event budget exceeded: {budget} events processed, "
                        f"clock={self.clock}us, next={kind}@{fire_at}us, "
                        f"{len(queue)} still queued"
                    )
                self.clock = fire_at
                handler = handlers.get(kind)
                if log is None:
                    if handler is not None:
                        handler(fire_at, payload)
                    continue
                notes = self._notes = []
                record = handler(fire_at, payload) if handler is not None else None
                if record:
                    notes.insert(0, render(record[0], record[1:]))
                log.append(f"{fire_at}\t{seq}\t{kind}\t{' '.join(notes) or '-'}")
        finally:
            self.events_processed = processed
        return RunStats(self.events_processed, self.clock, len(queue))
