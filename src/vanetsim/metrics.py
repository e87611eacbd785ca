"""Delivery records and the four summary metrics, plus CSV emission.

A DeliveryRecord stands for one (message, intended recipient) pair:
either the recipient got the message (recv_us set) or it did not
(loss_cause set), never both.  A run keeps its pairs as flat rows, the
fields of a DeliveryRecord in order (see ``runner.Runtime``), and
``summarize`` counts a run's summary from those rows in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .engine import SimTime, US_PER_S
from .radio import LOSS_CAUSES

CSV_HEADER = (
    "protocol,vehicle_count,seed,mean_e2e_delay_s,delivery_probability,"
    "plr,avg_throughput_bps,n_sent,n_delivered,n_lost"
)

METRIC_NAMES = (
    "mean_e2e_delay_s",
    "delivery_probability",
    "plr",
    "avg_throughput_bps",
)


@dataclass
class DeliveryRecord:
    msg_id: int
    src: int
    dst: int
    sent_us: SimTime
    recv_us: Optional[SimTime] = None
    loss_cause: Optional[str] = None
    hop_count: int = 0

    def __post_init__(self):
        delivered = self.recv_us is not None
        lost = self.loss_cause is not None
        if delivered == lost:
            raise ValueError(
                f"record (msg={self.msg_id}, dst={self.dst}) must set exactly one "
                f"of recv_us / loss_cause"
            )
        if lost and self.loss_cause not in LOSS_CAUSES:
            raise ValueError(f"unknown loss cause {self.loss_cause!r}")
        if delivered and self.recv_us < self.sent_us:
            raise ValueError("recv_us earlier than sent_us")

    @property
    def delivered(self) -> bool:
        return self.recv_us is not None


# One closed (message, target) pair: (msg_id, src, dst, sent_us, recv_us,
# loss_cause, hop_count), the fields of a DeliveryRecord in order.  Exactly
# one of recv_us and loss_cause is None; a loss has hop_count 0.
Row = tuple[int, int, int, SimTime, Optional[SimTime], Optional[str], int]


@dataclass
class MetricsSummary:
    protocol: str
    vehicle_count: int
    seed: int
    n_sent: int
    n_delivered: int
    n_lost: int
    mean_e2e_delay_s: Optional[float]
    delivery_probability: Optional[float]
    plr: Optional[float]
    avg_throughput_bps: float


def summarize(
    rows: Sequence[Row],
    protocol: str,
    vehicle_count: int,
    seed: int,
    window_s: float,
    msg_size_bytes: int,
) -> MetricsSummary:
    """The summary of ``rows``, counted in one pass; the one place its
    floats are computed."""
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    n_sent = len(rows)
    delivered = delay_sum = 0
    for row in rows:
        recv_us = row[4]
        if recv_us is not None:
            delivered += 1
            delay_sum += recv_us - row[3]
    return MetricsSummary(
        protocol=protocol,
        vehicle_count=vehicle_count,
        seed=seed,
        n_sent=n_sent,
        n_delivered=delivered,
        n_lost=n_sent - delivered,
        mean_e2e_delay_s=(delay_sum / delivered) / US_PER_S if delivered else None,
        delivery_probability=delivered / n_sent if n_sent else None,
        plr=(n_sent - delivered) / n_sent if n_sent else None,
        avg_throughput_bps=delivered * msg_size_bytes * 8 / window_s,
    )


@dataclass
class AggregateRow:
    protocol: str
    vehicle_count: int
    n_runs: int
    mean_e2e_delay_s: Optional[float]
    std_e2e_delay_s: float
    delivery_probability: Optional[float]
    std_delivery_probability: float
    plr: Optional[float]
    std_plr: float
    avg_throughput_bps: float
    std_throughput_bps: float


def _mean_std(values: list[float]) -> tuple[Optional[float], float]:
    # Sample standard deviation (n - 1); a single value has zero spread.
    if not values:
        return None, 0.0
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def aggregate_sweep(summaries: Iterable[MetricsSummary]) -> list[AggregateRow]:
    """Seed-average summaries into one row per (protocol, vehicle_count)."""
    groups: dict[tuple[str, int], list[MetricsSummary]] = {}
    for s in summaries:
        groups.setdefault((s.protocol, s.vehicle_count), []).append(s)
    rows = []
    for (protocol, vc) in sorted(groups):
        runs = groups[(protocol, vc)]
        # each metric's mean, then its spread, in METRIC_NAMES order
        stats = []
        for metric in METRIC_NAMES:
            stats += _mean_std([v for r in runs if (v := getattr(r, metric)) is not None])
        rows.append(AggregateRow(protocol, vc, len(runs), *stats))
    return rows


def _fmt(value: Optional[float]) -> str:
    # Decimal reals at 9 significant digits; absent values stay empty.
    if value is None:
        return ""
    return format(value, ".9g")


def csv_text(summaries: Iterable[MetricsSummary]) -> str:
    lines = [CSV_HEADER]
    for s in sorted(summaries, key=lambda s: (s.protocol, s.vehicle_count, s.seed)):
        lines.append(
            f"{s.protocol},{s.vehicle_count},{s.seed},{_fmt(s.mean_e2e_delay_s)},"
            f"{_fmt(s.delivery_probability)},{_fmt(s.plr)},{_fmt(s.avg_throughput_bps)},"
            f"{s.n_sent},{s.n_delivered},{s.n_lost}"
        )
    return "\n".join(lines) + "\n"


def plot_data_texts(summaries: Iterable[MetricsSummary]) -> dict[str, str]:
    """One two-column file body per (protocol, metric), seed-averaged.

    Keys are file names like ``baseline_plr.dat``; each body starts with a
    '#' header line followed by ``vehicle_count value`` rows.
    """
    rows = aggregate_sweep(summaries)
    out: dict[str, str] = {}
    protocols = sorted({r.protocol for r in rows})
    for protocol in protocols:
        mine = [r for r in rows if r.protocol == protocol]
        for metric in METRIC_NAMES:
            lines = [f"# vehicle_count {metric}"]
            for row in mine:
                value = getattr(row, metric)
                if value is None:
                    continue
                lines.append(f"{row.vehicle_count} {_fmt(value)}")
            out[f"{protocol}_{metric}.dat"] = "\n".join(lines) + "\n"
    return out
