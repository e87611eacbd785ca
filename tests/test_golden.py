"""Golden digests: the metrics CSV and the event log of a small fixed matrix.

Every scenario runs all three protocols, with beacons unmetered and
metered; two highway variants run unmetered only: 1 ms ticks, which pin
when hybrid's late-joiner attempts are scheduled, and explicit targets
with 10 ms ticks, which pin the cause recorded for an addressed late
joiner whose re-delivery is lost.  One more highway row runs dfcv alone
with stations much closer than their coverage, which pins the station each
vehicle is associated with as vehicles cross from one station's Voronoi
cell to the next.  A
refactor that claims to keep behaviour must leave every digest here
unchanged; a change that moves one must say which bytes moved and why.
Run this file directly, with or without pytest installed, to print the
current digests; it exits 1 when any differs from ``GOLDEN``:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
import tempfile

try:
    import pytest
except ImportError:  # run as a script: only the test's parametrize needs pytest
    pytest = None

from vanetsim.config import ProtocolKnobs, ScenarioConfig, WorkloadSpec
from vanetsim.metrics import csv_text
from vanetsim.mobility import MobilitySpec
from vanetsim.radio import RadioParams
from vanetsim.runner import run_sweep

TRACE_VEHICLES = 40


def grid_buildings(blocks=5, spacing=200.0, inset=15.0):
    return tuple(
        (i * spacing + inset, j * spacing + inset, (i + 1) * spacing - inset, (j + 1) * spacing - inset)
        for i in range(blocks)
        for j in range(blocks)
    )


def write_static_trace(directory) -> str:
    # Positions from integer arithmetic only, so the file is the same everywhere.
    lines = ["<fcd-export>", '  <timestep time="0.00">']
    for i in range(TRACE_VEHICLES):
        x, y = (i * 137) % 1500, (i * 61) % 300
        lines.append(f'    <vehicle id="car{i}" x="{x}.0" y="{y}.0" speed="0.00"/>')
    lines += ["  </timestep>", "</fcd-export>"]
    path = f"{directory}/static.fcd.xml"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def scenario(name: str, metered: bool, directory) -> ScenarioConfig:
    knobs = dict(include_beacons_in_metrics=metered)
    if name == "highway_1ms_ticks":
        # hybrid looks for late joiners every millisecond, so some get a late attempt
        knobs.update(mobility_tick_s=0.001)
    if name == "highway_explicit_10ms_ticks":
        # addressed late joiners: the rec= tokens of the SimEnd line pin the
        # cause recorded when a late joiner's re-delivery is lost
        return ScenarioConfig(
            mobility=MobilitySpec(road_length_m=2_000.0),
            workload=WorkloadSpec(
                rate_per_s=2.0,
                explicit_targets=(0, 1, 4, 5, 7, 8, 9, 10, 14, 16, 17, 19),
            ),
            knobs=ProtocolKnobs(
                mobility_tick_s=0.01, bs_coverage_m=300.0, bs_spacing_m=600.0, **knobs
            ),
            densities=(20,),
            seeds=(9,),
            sim_duration_s=2.0,
        )
    if name == "highway_dfcv_dense_stations":
        # stations 300 m apart with 1 km coverage: each station's sure radius
        # is far below its coverage, so vehicles associated last time cross
        # Voronoi edges and the station index must scan for them
        return ScenarioConfig(
            workload=WorkloadSpec(rate_per_s=4.0),
            knobs=ProtocolKnobs(bs_spacing_m=300.0, bs_coverage_m=1_000.0, **knobs),
            protocols=("dfcv",),
            densities=(120,),
            seeds=(7,),
            sim_duration_s=4.0,
        )
    common = dict(seeds=(7,), sim_duration_s=1.5)
    if name.startswith("highway"):
        return ScenarioConfig(
            workload=WorkloadSpec(rate_per_s=4.0),
            knobs=ProtocolKnobs(**knobs),
            densities=(120,),
            **common,
        )
    if name == "grid":
        return ScenarioConfig(
            mobility=MobilitySpec(
                mode="synthetic_grid",
                grid_blocks=5,
                grid_spacing_m=200.0,
                speed_range_mph=(15.0, 35.0),
                gateway_fraction=0.25,
            ),
            radio=RadioParams(loss_slope=0.02),
            workload=WorkloadSpec(rate_per_s=4.0),
            knobs=ProtocolKnobs(ttl_hops=3, k_max_gateways=16, **knobs),
            obstacles=grid_buildings(),
            densities=(60,),
            **common,
        )
    return ScenarioConfig(
        mobility=MobilitySpec(
            mode="trace",
            trace_path=write_static_trace(directory),
            vehicle_count=TRACE_VEHICLES,
            gateway_fraction=0.1,
        ),
        workload=WorkloadSpec(
            rate_per_s=2.0, explicit_targets=tuple(range(0, TRACE_VEHICLES, 3))
        ),
        knobs=ProtocolKnobs(bs_spacing_m=800.0, bs_coverage_m=600.0, **knobs),
        obstacles=((300.0, 100.0, 500.0, 200.0), (900.0, 0.0, 950.0, 250.0)),
        densities=(TRACE_VEHICLES,),
        **common,
    )


def digests(name: str, metered: bool, directory) -> tuple[str, str]:
    summaries, logs = run_sweep(scenario(name, metered, directory), collect_logs=True)
    log_text = "".join(
        f"# run {ident}\n" + "".join(line + "\n" for line in lines) for ident, lines in logs
    )
    return (
        hashlib.sha256(csv_text(summaries).encode("utf-8")).hexdigest(),
        hashlib.sha256(log_text.encode("utf-8")).hexdigest(),
    )


# (scenario, beacons metered) -> (metrics CSV SHA-256, event log SHA-256)
GOLDEN = {
    ("highway", False): (
        "f6bd08add6f751ecf09217960bf348d9d0a3e4d7562fe985242f499593437989",
        "a747fd96d75cf3a13d36c6d21a3c8eb0d36a19304c9af3b025a718d4ffb6f3d8",
    ),
    ("highway", True): (
        "d6fe79ab6b9c08a79bead5b38afac3544c5eb130ad0ca2d458949ed4e15452b4",
        "b6d2040e5eafa0cba86589a6c7525ea1205c145f2cf370acc4a68fb111128f8b",
    ),
    ("highway_1ms_ticks", False): (
        "f6bd08add6f751ecf09217960bf348d9d0a3e4d7562fe985242f499593437989",
        "f1329de5b8244555dd9070de50cbc76b650e6a6d2da43cf450e8c2d37e410b95",
    ),
    ("highway_explicit_10ms_ticks", False): (
        "9da08d9780fde32bebc5bb2bba127d4d9c8687e571ad4991917b930b8094601c",
        "9505f663c89a0dd996552752382b15713789f891ece21ed8dfa9953eb0d9e9fa",
    ),
    ("highway_dfcv_dense_stations", False): (
        "0a275b5478d32b071c4e5d6aaf905612a90104645b223b130411a12fcc19281b",
        "ecc1d2b7de4b952cb77268d7a981a9cff6ce146295a8a0a69d8557822f240fc7",
    ),
    ("grid", False): (
        "c3a61aad5fbb6d31663a3e58053e10d95bb50d12db296c893ad13920f6fae1e5",
        "240697183393c7b800f1838e56d33c9d11ec87681f27196cd576051e1994ab5e",
    ),
    ("grid", True): (
        "ebaa038b1733f2cbd80f0a7620889f7a65a327242eba8d3c571e4f394183e66c",
        "9149521dcb34bad2951e50c8953164e975aa25c7d0bb4fe3949246a6e1bc4911",
    ),
    ("trace", False): (
        "591985656e0cdf82c3cb6264d60e051ee6836faa3a3a994b8ad64b9665854e6c",
        "6c97f3d0bd0ceb6be09431c7688a7db96e1b550d2a487689bddcdfce8d08790f",
    ),
    ("trace", True): (
        "723ff75cdd120fab4ed4078022183d6a42d3fc327b4e1d0304316fb3e8f3112c",
        "336afb3648be035192588f75c533febe5c08d9807930495acafe2ce994a78b3f",
    ),
}


def test_outputs_match_the_golden_digests(name, metered, tmp_path):
    assert digests(name, metered, tmp_path) == GOLDEN[(name, metered)]


if pytest is not None:
    test_outputs_match_the_golden_digests = pytest.mark.parametrize(
        "name,metered", sorted(GOLDEN)
    )(test_outputs_match_the_golden_digests)


if __name__ == "__main__":
    moved = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, metered in GOLDEN:
            csv_sha, log_sha = digests(name, metered, tmp)
            print(f'    ("{name}", {metered}): (\n        "{csv_sha}",\n        "{log_sha}",\n    ),')
            if (csv_sha, log_sha) != GOLDEN[(name, metered)]:
                moved.append(f"({name!r}, {metered})")
    if moved:
        sys.exit("digests differ from GOLDEN: " + ", ".join(moved))
