"""Metric definitions, aggregation, and CSV/plot emission."""

import dataclasses
import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetsim.metrics import (
    CSV_HEADER,
    DeliveryRecord,
    MetricsSummary,
    aggregate_sweep,
    csv_text,
    plot_data_texts,
    summarize,
)
from vanetsim.radio import CHANNEL_LOSS, OUT_OF_RANGE, SHADOWED

from reference import (
    average_throughput_bps,
    delivery_probability,
    end_to_end_delay_s,
    packet_loss_ratio,
)


def ok(msg_id, dst, sent_us, recv_us, **kw):
    return DeliveryRecord(msg_id, 0, dst, sent_us, recv_us=recv_us, **kw)


def lost(msg_id, dst, sent_us, cause=OUT_OF_RANGE, **kw):
    return DeliveryRecord(msg_id, 0, dst, sent_us, loss_cause=cause, **kw)


def as_rows(records):
    """The rows a run keeps for ``records``: each record's fields in order."""
    return [dataclasses.astuple(r) for r in records]


# -- record validity ---------------------------------------------------------

def test_record_requires_exactly_one_outcome():
    with pytest.raises(ValueError):
        DeliveryRecord(1, 0, 2, 10)
    with pytest.raises(ValueError):
        DeliveryRecord(1, 0, 2, 10, recv_us=20, loss_cause=SHADOWED)
    with pytest.raises(ValueError):
        DeliveryRecord(1, 0, 2, 10, loss_cause="gremlins")
    with pytest.raises(ValueError):
        DeliveryRecord(1, 0, 2, 10, recv_us=9)
    assert ok(1, 2, 10, 10).delivered  # zero delay is legal
    assert not lost(1, 2, 10, CHANNEL_LOSS).delivered


# -- the four metrics --------------------------------------------------------

def test_mean_delay_two_known_hops():
    # 2 ms and 4 ms one-way delays average to 3 ms
    records = [ok(1, 5, 0, 2_000), ok(2, 6, 1_000, 5_000)]
    assert end_to_end_delay_s(records) == pytest.approx(0.003)


def test_mean_delay_ignores_losses_and_handles_empty():
    records = [ok(1, 5, 0, 2_000), lost(2, 6, 0)]
    assert end_to_end_delay_s(records) == pytest.approx(0.002)
    assert end_to_end_delay_s([]) is None
    assert end_to_end_delay_s([lost(1, 2, 0)]) is None


def test_delivery_probability_ratio():
    records = [ok(1, v, 0, 50) for v in range(8)] + [lost(2, v, 0) for v in range(2)]
    assert delivery_probability(records) == pytest.approx(0.8)
    assert packet_loss_ratio(records) == pytest.approx(0.2)
    assert delivery_probability([]) is None
    assert packet_loss_ratio([]) is None


def test_lossless_run_has_zero_plr():
    records = [ok(1, v, 0, 50) for v in range(4)]
    assert packet_loss_ratio(records) == 0.0
    assert delivery_probability(records) == 1.0


def test_complementarity_on_random_record_sets():
    rng = random.Random(404)
    for _ in range(50):
        records = []
        for i in range(rng.randrange(1, 40)):
            if rng.random() < 0.5:
                records.append(ok(i, i + 1, 0, rng.randrange(0, 9_999)))
            else:
                records.append(lost(i, i + 1, 0, rng.choice((OUT_OF_RANGE, SHADOWED, CHANNEL_LOSS))))
        assert abs(delivery_probability(records) + packet_loss_ratio(records) - 1.0) < 1e-9


def test_throughput_counts_delivered_payload_bits():
    records = [ok(1, 1, 0, 10), ok(2, 2, 0, 10), lost(3, 3, 0)]
    # 2 delivered * 256 B * 8 / 4 s
    assert average_throughput_bps(records, 4.0, 256) == pytest.approx(1024.0)
    # linear in n_delivered, inverse-linear in window
    assert average_throughput_bps(records * 2, 4.0, 256) == pytest.approx(2048.0)
    assert average_throughput_bps(records, 8.0, 256) == pytest.approx(512.0)
    with pytest.raises(ValueError):
        average_throughput_bps(records, 0.0, 256)


def test_metrics_are_permutation_invariant():
    rng = random.Random(7)
    records = [ok(i, i, 0, rng.randrange(1, 500)) for i in range(20)]
    records += [lost(i, i, 0) for i in range(20, 30)]
    shuffled = records[:]
    rng.shuffle(shuffled)
    assert end_to_end_delay_s(shuffled) == end_to_end_delay_s(records)
    assert delivery_probability(shuffled) == delivery_probability(records)
    assert packet_loss_ratio(shuffled) == packet_loss_ratio(records)
    assert average_throughput_bps(shuffled, 2.0, 256) == average_throughput_bps(
        records, 2.0, 256
    )


# -- summaries and aggregation ----------------------------------------------

def test_summarize_counts_add_up():
    records = [ok(1, 1, 0, 100), ok(1, 2, 0, 300), lost(1, 3, 0)]
    s = summarize(as_rows(records), "baseline", 50, 9, window_s=10.0, msg_size_bytes=256)
    assert (s.n_sent, s.n_delivered, s.n_lost) == (3, 2, 1)
    assert s.n_sent == s.n_delivered + s.n_lost
    assert s.mean_e2e_delay_s == pytest.approx(0.0002)
    assert s.delivery_probability + s.plr == pytest.approx(1.0, abs=1e-9)
    assert s.avg_throughput_bps == pytest.approx(2 * 256 * 8 / 10.0)


@st.composite
def record_lists(draw):
    """The empty list, all lost, all delivered, or a mix."""
    shape = draw(st.sampled_from(["empty", "lost", "delivered", "mixed"]))
    if shape == "empty":
        return []
    records = []
    for i in range(draw(st.integers(1, 60))):
        sent = draw(st.integers(0, 10**9))
        if shape == "delivered" or (shape == "mixed" and draw(st.booleans())):
            records.append(ok(i, i + 1, sent, sent + draw(st.integers(0, 10**7))))
        else:
            cause = draw(st.sampled_from([OUT_OF_RANGE, SHADOWED, CHANNEL_LOSS]))
            records.append(lost(i, i + 1, sent, cause))
    return records


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    record_lists(),
    st.floats(1e-3, 1e4, allow_nan=False),
    st.integers(1, 4096),
)
def test_summarize_equals_the_metric_functions(records, window_s, msg_size_bytes):
    s = summarize(as_rows(records), "dfcv", 50, 3, window_s, msg_size_bytes)
    delivered = sum(1 for r in records if r.delivered)
    assert (s.n_sent, s.n_delivered, s.n_lost) == (
        len(records), delivered, len(records) - delivered
    )
    # the same floats, not merely close ones
    assert s.mean_e2e_delay_s == end_to_end_delay_s(records)
    assert s.delivery_probability == delivery_probability(records)
    assert s.plr == packet_loss_ratio(records)
    assert s.avg_throughput_bps == average_throughput_bps(records, window_s, msg_size_bytes)


@pytest.mark.parametrize("window_s", [0.0, -1.0])
def test_summarize_rejects_a_window_that_is_not_positive(window_s):
    for records in ([], [ok(1, 1, 0, 100), lost(1, 2, 0)]):
        with pytest.raises(ValueError):
            summarize(as_rows(records), "dfcv", 50, 3, window_s, 256)


def test_aggregate_mean_and_sample_std():
    # two seeds with 1 ms and 3 ms mean delay -> mean 2 ms, std 1.414... ms
    runs = [
        summarize(as_rows([ok(1, 1, 0, 1_000)]), "dfcv", 50, 1, 1.0, 256),
        summarize(as_rows([ok(1, 1, 0, 3_000)]), "dfcv", 50, 2, 1.0, 256),
    ]
    row, = aggregate_sweep(runs)
    assert row.n_runs == 2
    assert row.mean_e2e_delay_s == pytest.approx(0.002)
    assert row.std_e2e_delay_s == pytest.approx(math.sqrt(2) * 0.001)
    # single run has zero spread
    solo, = aggregate_sweep(runs[:1])
    assert solo.std_e2e_delay_s == 0.0


def test_aggregate_gives_each_metric_its_mean_and_spread():
    # three seeds: one delivers one of two pairs, one delivers its one pair,
    # one loses its one pair, so it has no delay
    runs = [
        summarize(as_rows([ok(1, 1, 0, 1_000), lost(1, 2, 0)]), "dfcv", 50, 1, 1.0, 256),
        summarize(as_rows([ok(1, 1, 0, 3_000)]), "dfcv", 50, 2, 1.0, 256),
        summarize(as_rows([lost(1, 1, 0)]), "dfcv", 50, 3, 1.0, 256),
    ]
    row, = aggregate_sweep(runs)
    expected = ["dfcv", 50, 3]
    for values in ([0.001, 0.003], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0], [2048.0, 2048.0, 0.0]):
        expected += [statistics.mean(values), statistics.stdev(values)]
    assert dataclasses.astuple(row) == pytest.approx(tuple(expected))
    # a group that delivered nothing has no mean delay, and no spread
    none, = aggregate_sweep(runs[2:])
    assert (none.mean_e2e_delay_s, none.std_e2e_delay_s) == (None, 0.0)
    assert (none.plr, none.avg_throughput_bps) == (1.0, 0.0)


def test_aggregate_rows_sorted_and_grouped():
    runs = [
        summarize(as_rows([ok(1, 1, 0, 100)]), p, n, seed, 1.0, 256)
        for p in ("dfcv", "baseline")
        for n in (150, 50)
        for seed in (1, 2)
    ]
    rows = aggregate_sweep(runs)
    assert [(r.protocol, r.vehicle_count) for r in rows] == [
        ("baseline", 50),
        ("baseline", 150),
        ("dfcv", 50),
        ("dfcv", 150),
    ]
    assert all(r.n_runs == 2 for r in rows)


# -- emission -----------------------------------------------------------------

def test_csv_header_is_pinned():
    assert CSV_HEADER == (
        "protocol,vehicle_count,seed,mean_e2e_delay_s,delivery_probability,"
        "plr,avg_throughput_bps,n_sent,n_delivered,n_lost"
    )


def test_csv_golden_bytes():
    runs = [
        summarize(as_rows([ok(1, 1, 0, 2_000), lost(1, 2, 0)]), "baseline", 50, 2, 10.0, 256),
        summarize(as_rows([ok(1, 1, 0, 1_000)]), "baseline", 50, 1, 10.0, 256),
    ]
    text = csv_text(runs)
    assert text == (
        CSV_HEADER + "\n"
        "baseline,50,1,0.001,1,0,204.8,1,1,0\n"
        "baseline,50,2,0.002,0.5,0.5,204.8,2,1,1\n"
    )


def test_csv_blank_fields_when_nothing_delivered():
    s = summarize([], "baseline", 10, 1, 1.0, 256)
    line = csv_text([s]).splitlines()[1]
    assert line == "baseline,10,1,,,,0,0,0,0"


def test_csv_uses_nine_significant_digits():
    s = summarize(as_rows([ok(1, 1, 0, 1)]), "x", 1, 1, 3.0, 256)
    # 1 us delay -> 1e-06; throughput 2048/3 = 682.666...667
    line = csv_text([s]).splitlines()[1]
    assert ",1e-06," in line
    assert ",682.666667," in line


def test_plot_data_layout():
    runs = [
        summarize(as_rows([ok(1, 1, 0, 1_000)]), "dfcv", 50, 1, 1.0, 256),
        summarize(as_rows([ok(1, 1, 0, 2_000)]), "dfcv", 150, 1, 1.0, 256),
    ]
    out = plot_data_texts(runs)
    assert sorted(out) == [
        "dfcv_avg_throughput_bps.dat",
        "dfcv_delivery_probability.dat",
        "dfcv_mean_e2e_delay_s.dat",
        "dfcv_plr.dat",
    ]
    assert out["dfcv_mean_e2e_delay_s.dat"] == (
        "# vehicle_count mean_e2e_delay_s\n50 0.001\n150 0.002\n"
    )
