"""Count, per call site, what ``Runtime.pos``'s per-instant cache stores and answers.

    python tests/pos_sites.py WORKLOAD PROTOCOL

Runs PROTOCOL over the seed-1 batch of one benchmark workload (every
density and run seed that ``benchmark/workloads.py`` lists for it, with
its generated trace for ``trace_replay``) and prints, for each function
that calls ``Runtime.pos``, the entries it stored and how many of them
any later call read, the calls the cache answered, and which site had
stored each entry that answered one.
``Runtime.fleet_positions`` fills the same cache, so it is a site too: it
stores what it locates, and an entry already there counts as its hit.

The workload module is read, not changed.  The script is not a test
module, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import workloads  # noqa: E402
from vanetsim import config  # noqa: E402
from vanetsim.runner import Runtime, run_single  # noqa: E402

FLEET = "Runtime.fleet_positions"


def count_sites(workload: str, protocol: str):
    """(stores, stores read, hits, hits by storing site) per call site over the batch."""
    stores, read, hits = Counter(), Counter(), Counter()
    stored_by_hits: dict[str, Counter] = defaultdict(Counter)
    # vehicle id -> [the site that stored its entry at rt._pos_t, read since]
    owner: dict[int, list] = {}
    pos, fleet_positions = Runtime.pos, Runtime.fleet_positions

    def cached(rt, t) -> dict:
        """The entries the cache holds for ``t``; the storing sites reset with it."""
        if t != rt._pos_t:
            owner.clear()
            return {}
        return rt._pos

    def look(site: str, known: dict, v: int) -> None:
        if v in known:
            hits[site] += 1
            entry = owner[v]
            stored_by_hits[site][entry[0]] += 1
            if not entry[1]:
                entry[1] = True
                read[entry[0]] += 1
        else:
            stores[site] += 1
            owner[v] = [site, False]

    def spied_pos(rt, vehicle_id, t):
        look(sys._getframe(1).f_code.co_qualname, cached(rt, t), vehicle_id)
        return pos(rt, vehicle_id, t)

    def spied_fleet_positions(rt, t):
        known = cached(rt, t)
        for v in rt.provider.vehicle_ids:
            look(FLEET, known, v)
        return fleet_positions(rt, t)

    Runtime.pos, Runtime.fleet_positions = spied_pos, spied_fleet_positions
    try:
        with tempfile.TemporaryDirectory() as base:
            if workload == "trace_replay":
                trace = Path(base) / workloads.trace_path(1)
                trace.parent.mkdir()
                trace.write_bytes(workloads.fcd_bytes(1))
            cfg = config.from_dict(workloads.config_dict(workload, 1), base_dir=base)
            for density in cfg.densities:
                for seed in cfg.seeds:
                    run_single(cfg, protocol, density, seed)
    finally:
        Runtime.pos, Runtime.fleet_positions = pos, fleet_positions
    return stores, read, hits, stored_by_hits


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in workloads.WORKLOADS or argv[1] not in workloads.PROTOCOLS:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print(f"WORKLOAD: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        print(f"PROTOCOL: {', '.join(workloads.PROTOCOLS)}", file=sys.stderr)
        return 2
    stores, read, hits, stored_by_hits = count_sites(*argv)
    print(f"{argv[0]} {argv[1]} seed 1: Runtime.pos cache by call site")
    for site in sorted(set(stores) | set(hits)):
        calls = stores[site] + hits[site]
        by = ", ".join(f"{n} {s}" for s, n in stored_by_hits[site].most_common())
        print(
            f"  {site}: {calls} calls, {hits[site]} hits ({hits[site] / calls:.1%}), "
            f"{stores[site]} stores ({read[site]} read again)"
            + (f"; hit entries stored by: {by}" if by else "")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
