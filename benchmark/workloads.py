"""The benchmark's four workloads as config dicts, plus the generated trace.

Everything here is a pure function of (workload, seed): the run seeds, the
config dict handed to ``vanetsim.config.from_dict`` and the FCD XML bytes
of the trace workload.  Nothing imports vanetsim, so the inputs can be
checked without running the simulator.

Each workload is a closed batch: every protocol runs at every listed
density for every run seed, one run after another.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("highway_sweep", "grid_obstacles", "metered_beacons", "trace_replay")

PROTOCOLS = ["baseline", "dfcv", "hybrid_vehcloud"]

# Generated inputs live here, relative to the checkout root; it is gitignored.
WORK_DIR = ".bench_work"

# trace_replay geometry: vehicles shuttle along a square street grid.
TRACE_VEHICLES = 200
TRACE_SIDE_M = 3_000.0
TRACE_STREET_M = 250.0
TRACE_HZ = 10
TRACE_SIM_S = 8.0
TRACE_DRAIN_S = 2.0  # the default knobs.drain_s; samples cover the drain too


def derived_int(*parts) -> int:
    """A 32-bit integer that depends only on ``parts``, stable everywhere."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")


def run_seeds(workload: str, seed: int, n: int) -> list[int]:
    return [derived_int(workload, seed, i) for i in range(n)]


def grid_rects(blocks: int = 5, spacing: float = 200.0, inset: float = 15.0) -> list:
    """One building per block, inset from the streets (the test_07 layout)."""
    return [
        [i * spacing + inset, j * spacing + inset, (i + 1) * spacing - inset, (j + 1) * spacing - inset]
        for i in range(blocks)
        for j in range(blocks)
    ]


def trace_path(seed: int) -> str:
    return f"{WORK_DIR}/trace_replay-{seed}.fcd.xml"


def config_dict(workload: str, seed: int) -> dict:
    """The scenario for one workload; only the run seeds (and trace) vary."""
    if workload == "highway_sweep":
        # The acceptance sweep users run: default 10 km highway, no obstacles.
        return {
            "workload": {"rate_per_s": 4.0},
            "protocols": PROTOCOLS,
            "densities": [50, 250, 450],
            "seeds": run_seeds(workload, seed, 1),
            "sim_duration_s": 15.0,
        }
    if workload == "grid_obstacles":
        # 25 buildings on a wrapping 5x5 grid with one base station.
        return {
            "mobility": {
                "mode": "synthetic_grid",
                "grid_blocks": 5,
                "grid_spacing_m": 200.0,
                "speed_range_mph": [15.0, 35.0],
                "gateway_fraction": 0.25,
            },
            "radio": {"loss_slope": 0.02},
            "workload": {"rate_per_s": 4.0},
            "knobs": {"ttl_hops": 3, "k_max_gateways": 16},
            "obstacles": grid_rects(),
            "protocols": PROTOCOLS,
            "densities": [400],
            "seeds": run_seeds(workload, seed, 4),
            "sim_duration_s": 2.5,
        }
    if workload == "metered_beacons":
        # Every beacon becomes delivery records: a write-heavy run.
        return {
            "workload": {"rate_per_s": 4.0},
            "knobs": {"include_beacons_in_metrics": True},
            "protocols": PROTOCOLS,
            "densities": [100],
            "seeds": run_seeds(workload, seed, 4),
            "sim_duration_s": 2.0,
        }
    if workload == "trace_replay":
        # Positions come from a recorded trace that every run parses again.
        return {
            "mobility": {
                "mode": "trace",
                "trace_path": trace_path(seed),
                "vehicle_count": TRACE_VEHICLES,
                "gateway_fraction": 0.25,
            },
            "workload": {"rate_per_s": 8.0},
            "protocols": PROTOCOLS,
            "densities": [TRACE_VEHICLES],
            "seeds": run_seeds(workload, seed, 2),
            "sim_duration_s": TRACE_SIM_S,
        }
    raise ValueError(f"unknown workload {workload!r}")


def fcd_bytes(seed: int) -> bytes:
    """SUMO-style FCD XML for ``TRACE_VEHICLES`` vehicles, fixed by ``seed``.

    Each vehicle drives along one street of a square grid at a constant
    speed and turns back at the edge of the map, sampled at ``TRACE_HZ``
    for the simulated time plus the drain.
    """
    rng = random.Random(derived_int("trace_replay-fcd", seed))
    streets = int(TRACE_SIDE_M // TRACE_STREET_M) + 1
    fleet = []
    for _ in range(TRACE_VEHICLES):
        horizontal = rng.random() < 0.5
        fixed = rng.randrange(streets) * TRACE_STREET_M
        along = rng.uniform(0.0, TRACE_SIDE_M)
        velocity = rng.uniform(8.0, 17.0) * (1 if rng.random() < 0.5 else -1)
        fleet.append([horizontal, fixed, along, velocity])
    steps = int(round((TRACE_SIM_S + TRACE_DRAIN_S) * TRACE_HZ))
    dt = 1.0 / TRACE_HZ
    lines = ["<fcd-export>"]
    for k in range(steps + 1):
        lines.append(f'  <timestep time="{k * dt:.2f}">')
        for i, (horizontal, fixed, along, velocity) in enumerate(fleet):
            x, y = (along, fixed) if horizontal else (fixed, along)
            lines.append(
                f'    <vehicle id="veh{i}" x="{x:.2f}" y="{y:.2f}" speed="{abs(velocity):.2f}"/>'
            )
        lines.append("  </timestep>")
        for car in fleet:
            along = car[2] + car[3] * dt
            if not 0.0 <= along <= TRACE_SIDE_M:
                car[3] = -car[3]
                along = min(max(along, 0.0), TRACE_SIDE_M)
            car[2] = along
    lines.append("</fcd-export>")
    return ("\n".join(lines) + "\n").encode("utf-8")
