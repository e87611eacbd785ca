"""Host-speed normalisation for timings on a shared, drifting host.

On a shared VM the interpreter's speed swings by up to a factor of two
within a fraction of a second, and by +-25% over minutes, because other
tenants contend for the same cores and caches.  A raw host time therefore
mixes the work done with the host's mood.

``SpeedMeter`` samples the host's speed while the timed code runs: a
``SIGALRM`` every ``INTERVAL_S`` runs a fixed probe (a short loop of
interpreter work) in the main thread, between two bytecodes of the timed
code.  ``reference_seconds`` then turns a host-time interval into
reference seconds: each stretch of timed code between probes is scaled by
``REFERENCE_PROBE_S / probe duration`` measured next to it, and the probes'
own time is left out.  A reference second is the time the same work would
take on a host where one probe takes ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import math
import signal
import time
from bisect import bisect_left

INTERVAL_S = 0.02
PROBE_STEPS = 400
# About one probe's duration on a 2-vCPU Intel Xeon VM with Python 3.11.  It
# only sets the unit: comparisons do not depend on it.
REFERENCE_PROBE_S = 0.00014

# The probe's scratch containers are made once: making them per probe would
# allocate tracked containers and could start a collection inside a probe.
_TABLE = {i: float(i) for i in range(256)}
_RING = [float(i) for i in range(64)]


def probe() -> None:
    """A fixed slice of dict, list and float work that allocates no
    container, so it can never start a garbage collection."""
    table, ring = _TABLE, _RING
    x = 0.5
    for i in range(PROBE_STEPS):
        x = 3.9 * x * (1.0 - x)
        k = i & 255
        table[k] = table[k] * 0.5 + x
        ring[k & 63] = math.hypot(ring[(k + 1) & 63], x)


class SpeedMeter:
    """Probe the host every ``INTERVAL_S`` while active.

    ``spans`` holds (start, end) of every probe taken, in host seconds of
    ``time.perf_counter``.  Use as a context manager around timed code,
    from the main thread only.
    """

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        probe()
        self.spans.append((start, time.perf_counter()))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def reference_seconds(start: float, end: float, spans) -> float:
    """Reference seconds of the timed work between host times start and end.

    ``spans`` are the probes' (start, end), sorted, with at least one.  Each
    stretch of work between probes inside [start, end] is scaled by the mean
    speed of the probes on either side of it; a stretch before the first or
    after the last probe uses the nearest probe.
    """
    if not spans:
        raise ValueError("no speed samples")
    starts = [s for s, _ in spans]
    i = bisect_left(starts, start)
    total = 0.0
    cursor = start
    while cursor < end:
        if i < len(spans) and spans[i][0] < end:
            stretch_end, next_cursor = spans[i][0], spans[i][1]
        else:
            stretch_end, next_cursor = end, end
        left = spans[i - 1] if i > 0 else spans[i]
        right = spans[i] if i < len(spans) else spans[i - 1]
        duration = ((left[1] - left[0]) + (right[1] - right[0])) / 2
        total += max(0.0, stretch_end - cursor) * REFERENCE_PROBE_S / duration
        cursor = next_cursor
        i += 1
    return total
