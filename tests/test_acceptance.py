"""Acceptance gate: twelve end-to-end checks covering determinism, link
arithmetic, reachability and coverage oracles, fog partition invariants,
density trends, metric bookkeeping, and trace ingestion, plus the pinned
metrics CSV of the acceptance-size sweep.

Each numbered check prints one `ACCEPTANCE <nn> PASS/FAIL` line on the
terminal.
"""

import hashlib
import math
import os
import random
import re

import pytest

from vanetsim.config import ProtocolKnobs, ScenarioConfig, WorkloadSpec
from vanetsim.engine import US_PER_S
from vanetsim.metrics import aggregate_sweep, csv_text
from vanetsim.mobility import MobilitySpec, build_provider, distance, parse_fcd
from vanetsim.protocols import select_gateways
from vanetsim.radio import EMPTY_MAP, RadioParams, line_of_sight, tx_time_us
from vanetsim.runner import run_single, run_sweep

DENSITIES = (50, 150, 250, 350, 450)
SWEEP_SEEDS = (3, 9, 12)
DIP_TOLERANCE = 0.05
# SHA-256 of the metrics CSV of the sweep in ``sweep_runs``
DENSITY_SWEEP_SHA256 = "ba24ae1712dfa445f86b6634b71c47e6ee156398e32a17dc9916e1793cdb8575"

WORKERS = min(4, os.cpu_count() or 1)


@pytest.fixture
def verdict(capfd):
    """One PASS/FAIL line per check, written past pytest's capture."""

    def _verdict(nn: int, failures: list):
        status = "PASS" if not failures else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {nn:02d} {status}", flush=True)
        assert not failures, f"acceptance {nn:02d}: " + "; ".join(
            str(f) for f in failures[:8]
        )

    return _verdict


# -- shared fixture plumbing --------------------------------------------------

def static_trace(tmp_path, positions, name):
    lines = ["<fcd-export>", '  <timestep time="0">']
    for i, (x, y) in enumerate(positions):
        lines.append(f'    <vehicle id="v{i}" x="{x}" y="{y}" speed="0"/>')
    lines.extend(["  </timestep>", "</fcd-export>"])
    fp = tmp_path / name
    fp.write_text("\n".join(lines) + "\n")
    return str(fp)


def lossless_cfg(trace_path, n, rects=(), ttl_hops=64):
    return ScenarioConfig(
        mobility=MobilitySpec(mode="trace", trace_path=trace_path, vehicle_count=n),
        radio=RadioParams(base_loss=0.0, loss_slope=0.0, max_backoff_us=0),
        workload=WorkloadSpec(rate_per_s=1.0, explicit_targets=tuple(range(n))),
        knobs=ProtocolKnobs(ttl_hops=ttl_hops, beacon_interval_s=0.0),
        obstacles=tuple(rects),
        sim_duration_s=1.0,
    )


def small_sweep_cfg():
    return ScenarioConfig(
        mobility=MobilitySpec(road_length_m=2_000.0),
        workload=WorkloadSpec(rate_per_s=2.0),
        densities=(10, 20),
        seeds=(1, 2),
        sim_duration_s=3.0,
    )


@pytest.fixture(scope="module")
def sweep_runs():
    """The acceptance-size highway sweep: one summary per (protocol,
    density, seed) run, in task order."""
    cfg = ScenarioConfig(
        workload=WorkloadSpec(rate_per_s=4.0),
        densities=DENSITIES,
        seeds=SWEEP_SEEDS,
        sim_duration_s=15.0,
    )
    summaries, _ = run_sweep(cfg, workers=WORKERS)
    return summaries


@pytest.fixture(scope="module")
def density_sweep(sweep_runs):
    """Seed-averaged highway sweep shared by the three trend checks."""
    return {(r.protocol, r.vehicle_count): r for r in aggregate_sweep(sweep_runs)}


def dip_failures(series, label):
    out = []
    for (d0, v0), (d1, v1) in zip(series, series[1:]):
        if v1 < v0 * (1 - DIP_TOLERANCE):
            out.append(f"{label}: {v1:.6g} @ {d1} drops >5% below {v0:.6g} @ {d0}")
    return out


# -- 01..05: mechanics and oracles --------------------------------------------

def test_01_reruns_and_parallel_sweeps_are_byte_identical(verdict):
    cfg = small_sweep_cfg()
    first = csv_text(run_sweep(cfg, workers=1)[0])
    again = csv_text(run_sweep(cfg, workers=1)[0])
    parallel = csv_text(run_sweep(cfg, workers=3)[0])
    failures = []
    if again != first:
        failures.append("serial rerun differs")
    if parallel != first:
        failures.append("parallel sweep differs")
    verdict(1, failures)


def test_02_default_frame_takes_1024_microseconds(verdict):
    got = tx_time_us(RadioParams())
    verdict(2, [] if got == 1024 else [f"tx time {got} != 1024"])


def test_03_flood_reaches_exactly_the_connected_component(tmp_path, verdict):
    failures = []
    params = RadioParams(base_loss=0.0, loss_slope=0.0, max_backoff_us=0)
    for trial in range(200):
        rng = random.Random(9_000 + trial)
        n = rng.randrange(2, 51)
        positions = [(rng.uniform(0, 1_500), rng.uniform(0, 600)) for _ in range(n)]
        rects = []
        if trial % 2:
            for _ in range(rng.randrange(1, 4)):
                x0, y0 = rng.uniform(0, 1_400), rng.uniform(0, 500)
                rects.append((x0, y0, x0 + rng.uniform(20, 220), y0 + rng.uniform(20, 160)))
        cfg = lossless_cfg(static_trace(tmp_path, positions, f"t{trial}.xml"), n, rects)
        res = run_single(cfg, "baseline", n, seed=trial + 1)
        src = res.records[0].src
        pts = [(x, y) for x, y in positions]
        obstacles = cfg.load_obstacles()
        component = {src}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in range(n):
                    if v in component:
                        continue
                    if distance(pts[u], pts[v]) > params.range_m:
                        continue
                    if not line_of_sight(pts[u], pts[v], obstacles):
                        continue
                    component.add(v)
                    nxt.append(v)
            frontier = nxt
        got = {r.dst for r in res.records if r.delivered} | {src}
        if got != component:
            failures.append(f"trial {trial}: {sorted(got ^ component)} mismatch")
    verdict(3, failures)


def test_04_fog_partitions_hold_over_a_long_run(verdict):
    cfg = ScenarioConfig(protocols=("dfcv",), densities=(250,), sim_duration_s=60.0)
    failures = []
    try:
        res = run_single(cfg, "dfcv", 250, seed=1)
    except Exception as exc:
        failures.append(f"run failed: {exc}")
    else:
        if len(res.audit) < 60:
            failures.append(f"only {len(res.audit)} maintenance audits")
        for t, bs_id, rounds, n_cells in res.audit:
            if rounds > 2 * max(n_cells, 1) + 2:
                failures.append(f"t={t} bs={bs_id}: {rounds} rounds for {n_cells} cells")
        if not any(row[3] > 1 for row in res.audit):
            failures.append("fog never split into multiple cells")
    verdict(4, failures)


def test_05_greedy_gateway_cover_stays_near_optimal(verdict):
    failures = []
    for trial in range(100):
        rng = random.Random(40_000 + trial)
        shadowed = list(range(100, 100 + rng.randrange(1, 16)))
        gws = list(range(1, 1 + rng.randrange(1, 11)))
        positions = {
            v: (rng.uniform(0, 1_200), rng.uniform(0, 800))
            for v in shadowed + gws
        }
        k_max = rng.randrange(1, 5)
        chosen, covers = select_gateways(
            shadowed, gws, positions, RadioParams(), EMPTY_MAP, k_max
        )
        covered = set()
        for g in chosen:
            covered.update(covers[g])
        best = 0
        import itertools

        for r in range(0, min(k_max, len(gws)) + 1):
            for combo in itertools.combinations(gws, r):
                u = set()
                for g in combo:
                    u.update(covers[g])
                best = max(best, len(u))
        if len(covered) > best:
            failures.append(f"trial {trial}: greedy {len(covered)} beats optimum {best}")
        if len(covered) < (1 - 1 / math.e) * best:
            failures.append(f"trial {trial}: greedy {len(covered)} under bound of {best}")
    verdict(5, failures)


# -- 06..09: density trends ----------------------------------------------------

def test_06_delay_grows_with_density(density_sweep, verdict):
    failures = []
    for protocol in ("baseline", "hybrid_vehcloud", "dfcv"):
        series = [
            (d, density_sweep[(protocol, d)].mean_e2e_delay_s) for d in DENSITIES
        ]
        if any(v is None for _, v in series):
            failures.append(f"{protocol}: missing delay value")
            continue
        failures += dip_failures(series, f"{protocol} delay")
    verdict(6, failures)


def test_07_gateways_beat_flooding_among_obstacles(verdict):
    blocks, spacing, inset = 5, 200.0, 15.0
    rects = []
    for i in range(blocks):
        for j in range(blocks):
            rects.append(
                (
                    i * spacing + inset,
                    j * spacing + inset,
                    (i + 1) * spacing - inset,
                    (j + 1) * spacing - inset,
                )
            )
    extent = blocks * spacing
    blocked = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rects)
    assert blocked / extent**2 >= 0.30

    cfg = ScenarioConfig(
        mobility=MobilitySpec(
            mode="synthetic_grid",
            grid_blocks=blocks,
            grid_spacing_m=spacing,
            speed_range_mph=(15.0, 35.0),
            gateway_fraction=0.25,
        ),
        radio=RadioParams(loss_slope=0.02),
        workload=WorkloadSpec(rate_per_s=2.0),
        knobs=ProtocolKnobs(ttl_hops=3, k_max_gateways=16),
        obstacles=tuple(rects),
        protocols=("baseline", "hybrid_vehcloud"),
        densities=DENSITIES,
        seeds=SWEEP_SEEDS,
        sim_duration_s=15.0,
    )
    summaries, _ = run_sweep(cfg, workers=WORKERS)
    rows = {(r.protocol, r.vehicle_count): r for r in aggregate_sweep(summaries)}
    failures = []
    for d in DENSITIES:
        flood = rows[("baseline", d)].delivery_probability
        cloud = rows[("hybrid_vehcloud", d)].delivery_probability
        if not cloud > flood:
            failures.append(f"density {d}: hybrid {cloud:.4f} <= baseline {flood:.4f}")
    verdict(7, failures)


def test_08_loss_ratio_creeps_up_with_density(density_sweep, verdict):
    failures = []
    for protocol in ("hybrid_vehcloud", "dfcv"):
        series = [(d, density_sweep[(protocol, d)].plr) for d in DENSITIES]
        failures += dip_failures(series, f"{protocol} plr")
    dfcv = density_sweep[("dfcv", 450)].plr
    flood = density_sweep[("baseline", 450)].plr
    if not dfcv <= flood:
        failures.append(f"dfcv plr {dfcv:.4f} > baseline {flood:.4f} at 450")
    verdict(8, failures)


def test_09_throughput_grows_with_density(density_sweep, verdict):
    failures = []
    for protocol in ("dfcv", "hybrid_vehcloud"):
        series = [(d, density_sweep[(protocol, d)].avg_throughput_bps) for d in DENSITIES]
        for (d0, v0), (d1, v1) in zip(series, series[1:]):
            if v1 < v0:
                failures.append(f"{protocol}: {v1:.1f} bps @ {d1} < {v0:.1f} bps @ {d0}")
    verdict(9, failures)


def test_density_sweep_csv_is_pinned(sweep_runs):
    # The sweep's metrics CSV is the same serial or parallel and on every
    # supported Python; a change that moves it must say which bytes and why.
    digest = hashlib.sha256(csv_text(sweep_runs).encode("utf-8")).hexdigest()
    assert digest == DENSITY_SWEEP_SHA256


# -- 10..12: equivalences and ingestion ----------------------------------------

def test_10_without_obstacles_the_cloud_path_is_never_needed(tmp_path, verdict):
    failures = []
    params = RadioParams(base_loss=0.0, loss_slope=0.0, max_backoff_us=0)
    for trial in range(50):
        rng = random.Random(70_000 + trial)
        n = rng.randrange(2, 26)
        positions = [(rng.uniform(0, 900), rng.uniform(0, 400)) for _ in range(n)]
        cfg = lossless_cfg(static_trace(tmp_path, positions, f"h{trial}.xml"), n)
        res = run_single(cfg, "hybrid_vehcloud", n, seed=trial + 1)
        src = res.records[0].src
        got = {r.dst for r in res.records if r.delivered}
        here = tuple(positions[src])
        want = {
            v
            for v in range(n)
            if v != src and distance(here, tuple(positions[v])) <= params.range_m
        }
        if got != want:
            failures.append(f"trial {trial}: {sorted(got ^ want)} mismatch")
    verdict(10, failures)


def test_11_metrics_reconcile_with_an_event_log_recount(verdict):
    cfg = small_sweep_cfg()
    summaries, logs = run_sweep(cfg, workers=1, collect_logs=True)
    failures = []
    for summary, (ident, lines) in zip(summaries, logs):
        if summary.delivery_probability is not None:
            gap = abs(summary.delivery_probability + summary.plr - 1.0)
            if gap > 1e-9:
                failures.append(f"{ident}: probability + plr off by {gap:g}")
        sent_at = {}
        pairs = {}
        for line in lines:
            fields = line.split("\t")
            if fields[2] == "MessageInject":
                m = re.search(r"msg=(\d+) src=\d+ targets=([\d,]*)", fields[3])
                if m:
                    sent_at[int(m.group(1))] = int(fields[0])
                    for dst in m.group(2).split(","):
                        if dst:
                            pairs[(int(m.group(1)), int(dst))] = None
            for m in re.finditer(r"rec=(\d+):(\d+):(\S+)", fields[3]):
                pairs[(int(m.group(1)), int(m.group(2)))] = m.group(3)
        delays = [
            int(token.split(":")[1]) - sent_at[mid]
            for (mid, _), token in pairs.items()
            if token and token.startswith("ok:")
        ]
        delivered = len(delays)
        lost = sum(1 for v in pairs.values() if v and not v.startswith("ok:"))
        if None in pairs.values():
            failures.append(f"{ident}: unaccounted pairs in log")
            continue
        want_mean = (sum(delays) / len(delays)) / US_PER_S if delays else None
        want_tp = delivered * cfg.radio.msg_size_bytes * 8 / cfg.sim_duration_s
        total = len(pairs)
        checks = [
            ("n_sent", summary.n_sent, total),
            ("n_delivered", summary.n_delivered, delivered),
            ("n_lost", summary.n_lost, lost),
            ("mean delay", summary.mean_e2e_delay_s, want_mean),
            ("probability", summary.delivery_probability, delivered / total if total else None),
            ("plr", summary.plr, lost / total if total else None),
            ("throughput", summary.avg_throughput_bps, want_tp),
        ]
        for name, got, want in checks:
            if got != want:
                failures.append(f"{ident}: {name} {got!r} != recount {want!r}")
    verdict(11, failures)


def test_12_recorded_traces_drive_the_same_pipeline(tmp_path, verdict):
    fp = tmp_path / "two.xml"
    fp.write_text(
        "<fcd-export>\n"
        '  <timestep time="0.0">\n'
        '    <vehicle id="veh_a" x="0.0" y="0.0" speed="10.0"/>\n'
        '    <vehicle id="veh_b" x="100.0" y="3.5" speed="8.0"/>\n'
        "  </timestep>\n"
        '  <timestep time="1.0">\n'
        '    <vehicle id="veh_a" x="10.0" y="0.0" speed="10.0"/>\n'
        '    <vehicle id="veh_b" x="92.0" y="3.5" speed="8.0"/>\n'
        "  </timestep>\n"
        '  <timestep time="2.0">\n'
        '    <vehicle id="veh_a" x="20.0" y="0.0" speed="10.0"/>\n'
        '    <vehicle id="veh_b" x="84.0" y="3.5" speed="8.0"/>\n'
        "  </timestep>\n"
        "</fcd-export>\n"
    )
    failures = []
    spec = MobilitySpec(mode="trace", trace_path=str(fp), vehicle_count=2)
    provider = build_provider(spec, random.Random(0))
    expected = {
        (0, 0): (0.0, 0.0), (0, 1_000_000): (10.0, 0.0), (0, 2_000_000): (20.0, 0.0),
        (1, 0): (100.0, 3.5), (1, 1_000_000): (92.0, 3.5), (1, 2_000_000): (84.0, 3.5),
        (0, 500_000): (5.0, 0.0), (0, 1_500_000): (15.0, 0.0),
        (1, 500_000): (96.0, 3.5), (1, 1_500_000): (88.0, 3.5),
    }
    for (vid, t), (x, y) in expected.items():
        pos = provider.position_at(vid, t)
        if (pos[0], pos[1]) != (x, y):
            failures.append(f"vehicle {vid} at {t}: ({pos[0]}, {pos[1]}) != ({x}, {y})")

    cfg = ScenarioConfig(
        mobility=spec,
        workload=WorkloadSpec(rate_per_s=1.0),
        sim_duration_s=2.0,
    )
    for protocol in ("baseline", "hybrid_vehcloud", "dfcv"):
        try:
            res = run_single(cfg, protocol, 2, seed=1)
        except Exception as exc:
            failures.append(f"{protocol}: run failed: {exc}")
            continue
        if res.summary.n_sent < 1:
            failures.append(f"{protocol}: nothing was sent")
        if res.summary.n_sent != res.summary.n_delivered + res.summary.n_lost:
            failures.append(f"{protocol}: accounting broken")
    verdict(12, failures)
