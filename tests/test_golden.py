"""Golden digests: the metrics CSV and the event log of a small fixed matrix.

Every scenario runs all three protocols, with beacons unmetered and
metered; the 1 ms tick variant of the highway, which exists to pin when
hybrid's late-joiner attempts are scheduled, runs unmetered only.  A
refactor that claims to keep behaviour must leave every digest here
unchanged; a change that moves one must say which bytes moved and why.
Run this file directly to print the current digests:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import tempfile

import pytest

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
            obstacle_rects=grid_buildings(),
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
            rate_per_s=2.0, target_rule="explicit", explicit_targets=tuple(range(0, TRACE_VEHICLES, 3))
        ),
        knobs=ProtocolKnobs(bs_spacing_m=800.0, bs_coverage_m=600.0, **knobs),
        obstacle_rects=((300.0, 100.0, 500.0, 200.0), (900.0, 0.0, 950.0, 250.0)),
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
        "cd9e665529be0c84c1b07216eb34257f05b50366d1b599d10790ccb616eed1e0",
    ),
    ("highway", True): (
        "d6fe79ab6b9c08a79bead5b38afac3544c5eb130ad0ca2d458949ed4e15452b4",
        "7b75680abf3a862ff018fa8ec5227b6eea8b756447e581bd37aabff1f09ab54e",
    ),
    ("highway_1ms_ticks", False): (
        "f6bd08add6f751ecf09217960bf348d9d0a3e4d7562fe985242f499593437989",
        "8d71f8f339c7e1940033ee866de5d00e023e6cd51f6dc5af58699dc8a199b760",
    ),
    ("grid", False): (
        "c3a61aad5fbb6d31663a3e58053e10d95bb50d12db296c893ad13920f6fae1e5",
        "4f2f0198024783c6792df24649966d94e1c28e95cb2b293c75b27a08512d6294",
    ),
    ("grid", True): (
        "ebaa038b1733f2cbd80f0a7620889f7a65a327242eba8d3c571e4f394183e66c",
        "5005b8d10901ce137036c75d40c7d31784c38c48d58850fb663ecca90ffa4ac8",
    ),
    ("trace", False): (
        "591985656e0cdf82c3cb6264d60e051ee6836faa3a3a994b8ad64b9665854e6c",
        "4b485b13340180e55e82af335ef3b060fc1a338d35537cf43f573d38c0ecafdf",
    ),
    ("trace", True): (
        "723ff75cdd120fab4ed4078022183d6a42d3fc327b4e1d0304316fb3e8f3112c",
        "bdcac664929980908cb016d90a99be8e57223b3053b1a0913ff957337f00f613",
    ),
}


@pytest.mark.parametrize("name,metered", sorted(GOLDEN))
def test_outputs_match_the_golden_digests(name, metered, tmp_path):
    assert digests(name, metered, tmp_path) == GOLDEN[(name, metered)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, metered in GOLDEN:
            csv_sha, log_sha = digests(name, metered, tmp)
            print(f'    ("{name}", {metered}): (\n        "{csv_sha}",\n        "{log_sha}",\n    ),')
