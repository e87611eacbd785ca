"""What the tests hold the simulator to, kept apart from ``src/``.

The four metric functions recompute each summary metric on its own from a
record list, so ``metrics.summarize`` and a run's running counts can be
checked against them.  ``closed_pairs`` and ``spy_addresses`` read a
``Runtime``'s ledger by (message, target) pair: the rows it closed, and
every pair it was asked to open.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence
from unittest import mock

from vanetsim import runner
from vanetsim.engine import US_PER_S
from vanetsim.metrics import DeliveryRecord


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
