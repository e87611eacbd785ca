"""A two-worker sweep under the ``spawn`` start method gives the serial CSV.

Workers started by ``spawn`` import the package afresh instead of inheriting
the parent's memory, so any state a run reads from the parent process shows
up here as a CSV difference.  The config is a tiny highway sweep of all
three protocols with 10 ms mobility ticks, so hybrid's late-joiner tick
runs in a spawned worker.  Run it directly; it prints whether the CSVs are
equal and exits 1 when they differ:

    PYTHONPATH=src python tests/spawn_sweep.py
"""

import multiprocessing
import sys

from vanetsim.config import from_dict
from vanetsim.metrics import csv_text
from vanetsim.runner import run_sweep

CONFIG = {
    "mobility": {"road_length_m": 2000.0},
    "workload": {"rate_per_s": 2.0},
    "knobs": {"mobility_tick_s": 0.01},
    "densities": [30],
    "seeds": [1, 2],
    "sim_duration_s": 2.0,
}


def main() -> int:
    multiprocessing.set_start_method("spawn")
    cfg = from_dict(CONFIG)
    serial, _ = run_sweep(cfg, workers=1)
    parallel, _ = run_sweep(cfg, workers=2)
    same = csv_text(parallel) == csv_text(serial)
    print(same)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
