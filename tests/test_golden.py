"""Golden digests: the metrics CSV and the event log of a small fixed matrix.

Every scenario runs all three protocols, with beacons unmetered and
metered.  A refactor that claims to keep behaviour must leave every digest
here unchanged; a change that moves one must say which bytes moved and why.
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
    common = dict(seeds=(7,), sim_duration_s=1.5)
    if name == "highway":
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
    ("grid", False): (
        "f32318a4de70ebedf327cf2d0b9e86483e7afcb70f800ea7972302689a225ce7",
        "4bab84d09132565ca6f7dbcdcca9721502e50ba034eba6eb802a0d0617d36272",
    ),
    ("grid", True): (
        "58a6e9671ddb972728b8e53fb67edb250fe34da7e7ac0e94b41a7967344c4e54",
        "7e79f0333c37d61fec324470c1b66e09099ea84c81a5f708846d13a48e278930",
    ),
    ("trace", False): (
        "492c4fbb917ba77c117df273fba8e2a3b32c6bde720bf6c9e8b625ecc9c397d3",
        "3d84aaf6fc51e91df189bceb6e88a9ab7298a452e93e67088fa7200f21f959fd",
    ),
    ("trace", True): (
        "6b8d8a1ae12cde63e847a782d8f9a256846d5f06351393f76ee326f36e7ef9d8",
        "6182b97df7b2b5e04a7325e2b4d7b10a62ecde01c07bbc468bedd995e001bf97",
    ),
}


@pytest.mark.parametrize("name,metered", sorted(GOLDEN))
def test_outputs_match_the_golden_digests(name, metered, tmp_path):
    assert digests(name, metered, tmp_path) == GOLDEN[(name, metered)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("highway", "grid", "trace"):
            for metered in (False, True):
                csv_sha, log_sha = digests(name, metered, tmp)
                print(f'    ("{name}", {metered}): (\n        "{csv_sha}",\n        "{log_sha}",\n    ),')
