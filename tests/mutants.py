"""Seeded mutation check: each mutant is a small, deliberate bug that named
tests must catch.

    python tests/mutants.py [NAME ...] [--tests NODE ...]

With no argument every mutant runs against its own tests.  Names run only
those mutants, and ``--tests`` runs the given test files or node ids
instead of each mutant's own, so a new test's kills can be checked before
it joins a mutant's list.

A mutant is a file under ``src/vanetsim``, an exact old text, a new text,
and the tests that must fail on it (test files or pytest node ids).  For
each mutant the script copies ``src/`` to a temporary directory, replaces
the old text by the new one there, and runs the named tests with ``-x``
against the copy.  The mutant is killed when they fail, or when they are
still running at the time limit (a mutant can make a run endless); it
survives when they pass.

The script exits 1 when a mutant survives, when its tests cannot run (a
node id that no longer exists), or when its old text is not found exactly
once: a refactor that moves guarded code must update the mutant here, not
drop it without a trace.  It needs pytest and hypothesis, and is not a
test module itself, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

LIMIT_S = 90.0  # per mutant; the slowest kill here takes under 10 s


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/vanetsim
    old: str
    new: str
    tests: tuple[str, ...]  # relative to the checkout


HYBRID_DIFFERENTIAL = (
    "tests/test_protocols.py::test_hybrid_matches_a_run_with_unshared_region_queries",
)

NEIGHBOR_DIFFERENTIAL = "tests/test_invariants.py::test_runs_match_a_brute_force_neighbor_query"

IMAGE_MERGE = "tests/test_mobility.py::test_neighbor_index_merges_an_image_with_its_owner"

FLOOD_LAWS = "tests/test_invariants.py::test_a_flood_sends_once_per_vehicle_and_sweeps_its_losses"

HYBRID_LAWS = (
    "tests/test_invariants.py::"
    "test_hybrid_late_attempts_stay_in_their_window_once_each_in_inject_order"
)

EDGE_QUERIES = "tests/test_radio.py::test_queries_on_frame_edges_match_the_frames_on_air"

SOURCE_LAW = "tests/test_invariants.py::test_no_message_addresses_its_own_source"

PROVIDER_LOOKUPS = (
    "tests/test_runner.py::"
    "test_hop_receivers_and_carrier_senses_locate_straight_from_the_provider"
)

SIGHT_SPY = "tests/test_invariants.py::test_hybrid_asks_sight_only_of_a_map_with_rectangles"

FCD_DIFFERENTIAL = (
    "tests/test_mobility.py::test_parse_fcd_and_trace_provider_match_the_flat_sample_reference",
)

STATION_SCAN = "tests/test_protocols.py::test_station_index_matches_the_linear_scan"

DFCV_SCAN_DIFFERENTIAL = (
    "tests/test_invariants.py::test_dfcv_runs_match_runs_that_scan_every_association"
)

NEWCOMER_RULE = (
    "tests/test_protocols.py::test_a_newcomer_joins_the_nearest_anchor_ties_to_the_lower_cell_id"
)

LOADS = "tests/test_runner.py::test_a_single_process_run_loads_no_pool_and_no_xml_parser"

CONFIG_BOUNDS = (
    "tests/test_config.py::test_every_numeric_bound_refuses_just_outside_and_accepts_its_edge"
)

SUMMARY_REFERENCE = "tests/test_metrics.py::test_summarize_equals_the_metric_functions"

RUN_REFERENCE = "tests/test_invariants.py::test_every_small_config_keeps_the_run_invariants"

MUTANTS = (
    # -- the event log: the engine writes the line ------------------------
    Mutant(
        "log-summary-after-notes",
        "engine.py",
        "notes.insert(0, render(record[0], record[1:]))",
        "notes.append(render(record[0], record[1:]))",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "log-sequence-not-comma-joined",
        "engine.py",
        '",".join(map(str, f))',
        '", ".join(map(str, f))',
        ("tests/test_engine.py",),
    ),
    Mutant(
        "log-note-rendered-without-a-log",
        "engine.py",
        """        if self._log is not None:
            self._notes.append(render(fmt, fields))""",
        """        self._notes.append(render(fmt, fields))""",
        ("tests/test_engine.py",),
    ),
    # -- config bounds: each written once, in errors.py -------------------------
    Mutant(
        "non-negative-refuses-zero",
        "errors.py",
        "(lambda v: v < 0, ",
        "(lambda v: v <= 0, ",
        (CONFIG_BOUNDS,),
    ),
    Mutant(
        "unit-interval-refuses-zero",
        "errors.py",
        "(lambda v: not 0 <= v <= 1, ",
        "(lambda v: not 0 < v <= 1, ",
        (CONFIG_BOUNDS,),
    ),
    # -- neighbor queries ----------------------------------------------------
    Mutant(
        "neighbourhood-beyond-its-reach",
        "mobility.py",
        "if reach <= self._span else",
        "if reach <= self._span * 1.1 else",
        (
            "tests/test_mobility.py::test_neighbor_index_answers_do_not_depend_on_the_cell_size",
            NEIGHBOR_DIFFERENTIAL,
        ),
    ),
    Mutant(
        # an image's flag overwrites its owner's: a certain owner can end up
        # uncertain when its image comes after it in the neighbourhood
        "image-flag-overwrites-its-owner",
        "mobility.py",
        """                elif certain:
                    out[-1] = (vid, True)""",
        """                else:
                    out[-1] = (vid, certain)""",
        (IMAGE_MERGE,),
    ),
    Mutant(
        "owner-and-image-emitted-twice",
        "mobility.py",
        "if vid != last:",
        "if True:",
        (IMAGE_MERGE,),
    ),
    Mutant(
        # a vehicle just below the top y seam gets no image across it
        "top-seam-ignored",
        "mobility.py",
        "(d := wrap_y - y)",
        "(d := wrap_y + y)",
        ("tests/test_mobility.py::test_neighbor_index_misses_no_one_on_a_torus",),
    ),
    Mutant(
        "image-entry-certain",
        "mobility.py",
        "(vid, ix, iy, -inf)",
        "(vid, ix, iy, inf)",
        ("tests/test_mobility.py", NEIGHBOR_DIFFERENTIAL),
    ),
    Mutant(
        "certain-without-float-margin",
        "mobility.py",
        "sure = radius_m - slack - 1e-6",
        "sure = radius_m - slack",
        ("tests/test_mobility.py::test_a_vehicle_one_float_step_beyond_the_radius_is_never_certain",),
    ),
    # -- the cell grid: one padded-cell rule for every neighbourhood -----------
    Mutant(
        "grid-cells-without-padding",
        "mobility.py",
        "self.cell = reach * (1.0 + 1e-6)",
        "self.cell = reach",
        (
            STATION_SCAN,
            "tests/test_protocols.py::test_select_gateways_matches_the_all_pairs_scan",
            "tests/test_mobility.py::test_a_query_as_wide_as_a_neighbourhood_finds_an_entry_two_cell_edges_away",
        ),
    ),
    Mutant(
        "neighbourhood-missing-a-column",
        "mobility.py",
        "for a in (i - 1, i, i + 1)",
        "for a in (i, i + 1)",
        (
            "tests/test_invariants.py::test_runs_match_an_all_items_cell_grid",
            STATION_SCAN,
        ),
    ),
    Mutant(
        # the same bytes, so only the grid's own cells see it
        "grid-read-files-a-cell",
        "mobility.py",
        "for item in cells.get((a, b), ())",
        "for item in cells[a, b]",
        ("tests/test_mobility.py::test_a_grid_read_files_no_cell",),
    ),
    # -- the station index: a sure disc around each station ----------------------
    Mutant(
        "sure-radius-is-the-whole-gap",
        "protocols.py",
        "sure[s.station_id] = min(coverage_m, min(gaps, default=inf) / 2 - 1e-6)",
        "sure[s.station_id] = min(coverage_m, min(gaps, default=inf) - 1e-6)",
        (STATION_SCAN, DFCV_SCAN_DIFFERENTIAL),
    ),
    Mutant(
        "sure-radius-without-slack",
        "protocols.py",
        "sure[s.station_id] = min(coverage_m, min(gaps, default=inf) / 2 - 1e-6)",
        "sure[s.station_id] = min(coverage_m, min(gaps, default=inf) / 2)",
        (STATION_SCAN,),
    ),
    # -- one location per vehicle per instant ------------------------------------
    Mutant(
        "index-locates-the-fleet-itself",
        "mobility.py",
        "x, y = positions[vid]",
        "x, y = self._provider.position_at(vid, t_us)",
        (
            "tests/test_runner.py::"
            "test_an_instant_that_rebuilds_the_index_and_maintains_dfcv_locates_each_vehicle_once",
        ),
    ),
    # -- trace parsing -----------------------------------------------------------
    Mutant(
        "fcd-parsed-into-a-tree",
        "mobility.py",
        """        with open(path, "rb") as fh:""",
        """        ET.parse(path)
        with open(path, "rb") as fh:""",
        ("tests/test_mobility.py::test_parse_fcd_holds_little_more_than_its_tracks_at_its_peak",),
    ),
    Mutant(
        "fcd-sample-error-raised-mid-parse",
        "mobility.py",
        "self.error = exc",
        "raise exc",
        FCD_DIFFERENTIAL,
    ),
    Mutant(
        "fcd-sample-error-before-root-check",
        "mobility.py",
        """    if target.root != "fcd-export":""",
        """    if target.error is not None:
        raise target.error
    if target.root != "fcd-export":""",
        FCD_DIFFERENTIAL,
    ),
    # -- the channel -----------------------------------------------------------
    Mutant(
        # bound when hops is defined: a patched channel_loss is never called
        "loss-draw-bound-at-definition",
        "radio.py",
        """        own: Optional[Position] = None,
    ) -> list[tuple[int, HopOutcome]]:""",
        """        own: Optional[Position] = None,
        channel_loss=channel_loss,
    ) -> list[tuple[int, HopOutcome]]:""",
        ("tests/test_radio.py::test_hops_reach_a_patched_loss_draw_and_contention_count",),
    ),
    Mutant(
        "contention-draw-without-contention",
        "radio.py",
        "elif contend and lossy(params, concurrent(dst, t, own), rng):",
        "elif lossy(params, concurrent(dst, t, own), rng) and contend:",
        ("tests/test_radio.py",),
    ),
    Mutant(
        "frame-heard-before-its-start",
        "radio.py",
        """            if -r <= (dx := x - px) <= r and start <= t and hypot(dx, y - py) <= r:
                n += 1""",
        """            if -r <= (dx := x - px) <= r and hypot(dx, y - py) <= r:
                n += 1""",
        ("tests/test_radio.py::test_channel_expires_and_ignores_future_starts", EDGE_QUERIES),
    ),
    Mutant(
        "frame-skipped-at-exact-range",
        "radio.py",
        """            if -r <= (dx := x - px) <= r and start <= t and hypot(dx, y - py) <= r:
                if busy is None or end > busy:""",
        """            if -r < (dx := x - px) < r and start <= t and hypot(dx, y - py) <= r:
                if busy is None or end > busy:""",
        ("tests/test_radio.py::test_a_frame_exactly_at_range_is_heard_along_either_axis",),
    ),
    Mutant(
        "carrier-sensed-before-a-frame-start",
        "radio.py",
        """            if -r <= (dx := x - px) <= r and start <= t and hypot(dx, y - py) <= r:
                if busy is None or end > busy:""",
        """            if -r <= (dx := x - px) <= r and hypot(dx, y - py) <= r:
                if busy is None or end > busy:""",
        ("tests/test_radio.py::test_channel_expires_and_ignores_future_starts", EDGE_QUERIES),
    ),
    # the one prune: both queries pop ended frames through it
    Mutant(
        "frame-heard-at-its-end",
        "radio.py",
        "while active and active[0][0] <= t:",
        "while active and active[0][0] < t:",
        ("tests/test_radio.py::test_channel_expires_and_ignores_future_starts",),
    ),
    Mutant(
        "carrier-sensed-at-a-frame-end",
        "radio.py",
        "while active and active[0][0] <= t:",
        "while active and active[0][0] < t:",
        ("tests/test_radio.py::test_carrier_sense_does_not_hear_a_frame_at_its_end",),
    ),
    Mutant(
        "beacon-registered-again",
        "radio.py",
        "after = max(self._asked, t - frame)",
        "after = t - frame",
        ("tests/test_radio.py::test_beacons_on_air_match_brute_force",),
    ),
    Mutant(
        # bisect_left over the integer phases: the frame starting at t is left out
        "beacon-missed-at-its-start",
        "radio.py",
        "bisect_right(phases, t - base)",
        "bisect_right(phases, t - base - 1)",
        ("tests/test_radio.py::test_beacons_on_air_match_brute_force",),
    ),
    Mutant(
        # hops and hybrid's shadow test ask sight only of a map with
        # rectangles, but gateway cover asks it of the rectangles near a
        # gateway, which may be none
        "sight-blocked-on-an-empty-map",
        "radio.py",
        """    if not rects:
        return True""",
        """    if not rects:
        return False""",
        (
            "tests/test_protocols.py::test_obstacle_shadowing_binary",
            "tests/test_protocols.py::test_select_gateways_overlapping_coverage_example",
        ),
    ),
    # -- the slab clip: one window per rectangle, clipped once per axis --------
    Mutant(
        "descending-segment-clipped-as-ascending",
        "radio.py",
        """            if dy < 0.0:
                enter, leave = leave, enter
""",
        "",
        ("tests/test_radio.py::test_los_matches_point_sampling_oracle",),
    ),
    Mutant(
        "grazing-clip-blocks",
        "radio.py",
        "if t1 <= t0:",
        "if t1 < t0:",
        ("tests/test_radio.py::test_los_matches_the_per_rectangle_clip",),
    ),
    Mutant(
        "boundary-midpoint-blocks",
        "radio.py",
        "if x0 < mx < x1 and y0 < my < y1:",
        "if x0 <= mx <= x1 and y0 <= my <= y1:",
        ("tests/test_radio.py::test_los_edge_grazing_does_not_block",),
    ),
    Mutant(
        "loss-capped-below-certain",
        "radio.py",
        "rng.random() < params.base_loss + params.loss_slope * concurrent_tx",
        "rng.random() < min(0.99, params.base_loss + params.loss_slope * concurrent_tx)",
        ("tests/test_invariants.py::test_certain_loss_delivers_nothing_over_vehicle_hops",),
    ),
    Mutant(
        "rectangle-not-checked-finite",
        "radio.py",
        "if not all(map(isfinite, rect)):",
        "if False:",
        ("tests/test_radio.py::test_obstacle_map_rejects_non_finite_rects",),
    ),
    Mutant(
        "sight-asked-only-without-buildings",
        "radio.py",
        "elif walls and not line_of_sight(src, dst, obstacles):",
        "elif not walls and not line_of_sight(src, dst, obstacles):",
        ("tests/test_radio.py::test_unicast_checks_range_then_sight_then_channel",),
    ),
    Mutant(
        "delay-rounded-down",
        "radio.py",
        "delay = int(tx + d * US_PER_S / speed + 0.5)",
        "delay = int(tx + d * US_PER_S / speed)",
        (
            "tests/test_radio.py::test_hop_delay_sums_tx_prop_backoff",
            "tests/test_radio.py::test_hops_equal_the_per_hop_reference",
        ),
    ),
    # -- sweeps and config files -------------------------------------------------
    Mutant(
        "run-seeded-by-its-sweep",
        "runner.py",
        "sim = Simulator(seed=seed, event_budget=cfg.knobs.event_budget, log=log)",
        "sim = Simulator(seed=cfg.seeds[0], event_budget=cfg.knobs.event_budget, log=log)",
        ("tests/test_invariants.py::test_a_sweep_split_by_seed_gives_the_same_summaries",),
    ),
    Mutant(
        "run-sized-by-its-sweep",
        "runner.py",
        "spec = dataclasses.replace(cfg.mobility, vehicle_count=vehicle_count)",
        "spec = dataclasses.replace(cfg.mobility, vehicle_count=cfg.densities[0])",
        ("tests/test_invariants.py::test_a_sweep_split_by_seed_gives_the_same_summaries",),
    ),
    Mutant(
        "budget-reached-is-exceeded",
        "engine.py",
        "if processed > budget:",
        "if processed >= budget:",
        ("tests/test_invariants.py::test_a_larger_event_budget_changes_nothing",),
    ),
    Mutant(
        "obstacle-file-ignored",
        "config.py",
        "            return ObstacleMap.load(self.obstacles)",
        "            return EMPTY_MAP",
        ("tests/test_invariants.py::test_rectangles_from_a_file_play_as_inline_rectangles",),
    ),
    # -- imports: the pool and the XML parser load only where they are used -----
    Mutant(
        # the same bytes, so only the modules a run loads see it
        "pool-imported-at-load",
        "runner.py",
        "from functools import cached_property\n",
        "from functools import cached_property\nfrom concurrent.futures import ProcessPoolExecutor\n",
        (LOADS,),
    ),
    Mutant(
        "fcd-parser-imported-at-load",
        "mobility.py",
        "import math\n",
        "import math\nimport xml.etree.ElementTree\n",
        (LOADS,),
    ),
    # -- delivery accounting ---------------------------------------------------
    Mutant(
        "every-miss-final",
        "runner.py",
        "elif final:",
        "elif True:",
        ("tests/test_runner.py::test_horizon_sweep_records_the_worst_noted_cause", FLOOD_LAWS),
    ),
    Mutant(
        # a row's recv_us is right, so only the log's rec= note shows it
        "delivery-noted-at-its-send-time",
        "runner.py",
        'self.sim.note("rec={}:{}:ok:{}", mid, dst, recv_us)',
        'self.sim.note("rec={}:{}:ok:{}", mid, dst, sent_us)',
        (SOURCE_LAW,),
    ),
    # -- the summary: counted from a run's rows ----------------------------------
    Mutant(
        "delay-from-the-field-before-sent",
        "metrics.py",
        "delay_sum += recv_us - row[3]",
        "delay_sum += recv_us - row[2]",
        (SUMMARY_REFERENCE, RUN_REFERENCE),
    ),
    Mutant(
        "sent-counts-only-delivered",
        "metrics.py",
        "n_sent = len(rows)",
        "n_sent = sum(1 for row in rows if row[4] is not None)",
        (SUMMARY_REFERENCE, RUN_REFERENCE),
    ),
    # -- fog cells ------------------------------------------------------------------
    Mutant(
        "newcomers-each-alone",
        "protocols.py",
        "kept = [fog.FogCell(next(self._cell_seq), anchor=current[0], members=current)]",
        "kept = [fog.FogCell(next(self._cell_seq), anchor=v, members=[v]) for v in current]",
        (
            "tests/test_protocols.py::"
            "test_a_station_without_cells_puts_all_its_newcomers_in_one_cell",
        ),
    ),
    Mutant(
        "newcomer-ties-to-the-higher-cell",
        "protocols.py",
        "(distance(positions[c.anchor], p), c.cell_id)",
        "(distance(positions[c.anchor], p), -c.cell_id)",
        (NEWCOMER_RULE,),
    ),
    Mutant(
        "newcomer-joins-the-farthest-anchor",
        "protocols.py",
        "home = min(kept, ",
        "home = max(kept, ",
        (NEWCOMER_RULE,),
    ),
    # -- scheduled station downlinks ---------------------------------------------
    Mutant(
        "station-downlink-contends",
        "runner.py",
        "bs.pos, job.receivers, self.provider.position_at, reach, t, contend=False",
        "bs.pos, job.receivers, self.provider.position_at, reach, t, contend=True",
        ("tests/test_invariants.py::test_dfcv_bytes_do_not_depend_on_the_loss_rate",),
    ),
    Mutant(
        "beacon-receivers-through-the-cache",
        "runner.py",
        "results = self.channel.hops(pos, cand, self.provider.position_at, reach, t, own=pos)",
        "results = self.channel.hops(pos, cand, self.pos, reach, t, own=pos)",
        (PROVIDER_LOOKUPS,),
    ),
    Mutant(
        "carrier-sense-through-the-cache",
        "runner.py",
        "pos = self.provider.position_at(job.sender, t)",
        "pos = self.pos(job.sender, t)",
        (PROVIDER_LOOKUPS,),
    ),
    Mutant(
        "downlink-from-the-senders-station",
        "protocols.py",
        "rt.schedule_cloud(InfraTx(msg, bs, sorted(receivers)), at)",
        "rt.schedule_cloud(InfraTx(msg, src_bs, sorted(receivers)), at)",
        (
            "tests/test_invariants.py::"
            "test_a_station_downlink_carries_whole_fog_cells_of_its_own_station",
        ),
    ),
    # -- the flood's visited set -------------------------------------------------
    Mutant(
        "relay-with-its-own-visited-set",
        "protocols.py",
        'purpose="flood", state=job.state), at)',
        'purpose="flood", state=set(job.state)), at)',
        ("tests/test_protocols.py::test_flood_never_rebroadcasts_twice", FLOOD_LAWS),
    ),
    # -- hybrid's shared region query and open windows ---------------------------
    Mutant(
        "region-cache-kept-across-instants",
        "runner.py",
        """        if t != self._regions_t:
            self._regions_t = t
            self._regions = {}
        region = self._regions.get(bs)""",
        """        region = self._regions.get(bs)""",
        HYBRID_DIFFERENTIAL,
    ),
    Mutant(
        "region-memo-in-the-position-dict",
        "runner.py",
        """        if t != self._regions_t:
            self._regions_t = t
            self._regions = {}
        region = self._regions.get(bs)
        if region is None:
            region = tuple(self.neighbors(bs.pos, self.knobs.bs_coverage_m, t))
            self._regions[bs] = region""",
        """        if t != self._pos_t:
            self._pos_t = t
            self._pos = {}
        region = self._pos.get(bs)
        if region is None:
            region = tuple(self.neighbors(bs.pos, self.knobs.bs_coverage_m, t))
            self._pos[bs] = region""",
        ("tests/test_runner.py::test_fleet_positions_hold_only_the_fleet_after_region_queries",),
    ),
    Mutant(
        "region-ignores-exclude",
        "runner.py",
        "return tuple(v for v in region if v not in exclude) if exclude else region",
        "return region",
        (*HYBRID_DIFFERENTIAL, SOURCE_LAW),
    ),
    # -- hybrid's shadow test: asked only of a map with rectangles --------------
    Mutant(
        # the same bytes, so only a count of sight questions sees it
        "open-map-asks-sight",
        "protocols.py",
        "if not rt.obstacles.rects:",
        "if False:",
        (SIGHT_SPY,),
    ),
    Mutant(
        "walled-map-skips-sight",
        "protocols.py",
        "if not rt.obstacles.rects:",
        "if True:",
        (SIGHT_SPY, "tests/test_protocols.py::test_hybrid_shadowed_target_rides_the_cloud"),
    ),
    Mutant(
        "window-closed-at-its-end",
        "protocols.py",
        "while windows and t > windows[0].window_end:",
        "while windows and t >= windows[0].window_end:",
        HYBRID_DIFFERENTIAL,
    ),
    Mutant(
        "window-never-closed",
        "protocols.py",
        "while windows and t > windows[0].window_end:",
        "while False:",
        (HYBRID_LAWS,),
    ),
    Mutant(
        "windows-walked-in-reverse",
        "protocols.py",
        "for st in windows:",
        "for st in reversed(windows):",
        (*HYBRID_DIFFERENTIAL, HYBRID_LAWS),
    ),
    Mutant(
        "late-joiners-never-handled",
        "protocols.py",
        "fresh = [v for v in rt.region_members(st.bs, t) if v not in st.handled]",
        "fresh = list(rt.region_members(st.bs, t))",
        (*HYBRID_DIFFERENTIAL, HYBRID_LAWS),
    ),
)


# pytest with hypothesis shrinking off: a mutant needs one failing example,
# not the smallest, and shrinking a failure took up to a minute
RUN_PYTEST = """
import sys
import pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""


def apply(src: Path, mutant: Mutant) -> None:
    path = src / "vanetsim" / mutant.path
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def stale(mutant: Mutant) -> str:
    """Why the mutant no longer applies to the checkout, or ''."""
    path = ROOT / "src" / "vanetsim" / mutant.path
    if not path.is_file():
        return f"no file src/vanetsim/{mutant.path}"
    found = path.read_text(encoding="utf-8").count(mutant.old)
    return "" if found == 1 else f"old text found {found} times in src/vanetsim/{mutant.path}"


def run_tests(src: Path, tests: tuple[str, ...]) -> str:
    """'killed', 'survived' or 'error', running ``tests`` against ``src``;
    a run still going at the limit is killed."""
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-c", RUN_PYTEST, "-x", "-q", "-p", "no:cacheprovider", *tests]
    # its own session, so a run stopped at the limit takes its children along
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "killed"
    # pytest: 0 all passed, 1 some failed; anything else ran no verdict
    return {0: "survived", 1: "killed"}.get(code, "error")


def imported_from(src: Path) -> Path:
    """Where ``vanetsim`` is imported from with ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import vanetsim; print(vanetsim.__file__)"],
        cwd=src, env=env, capture_output=True, text=True, check=True,
    )
    return Path(out.stdout.strip()).resolve()


def chosen_mutants(argv: list[str]) -> list[Mutant]:
    """The mutants that the command line names, each with the tests to run."""
    parser = argparse.ArgumentParser(description="Run seeded mutants against their tests.")
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default: all)")
    parser.add_argument(
        "--tests", nargs="+", metavar="NODE",
        help="test files or node ids to run instead of each mutant's own",
    )
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}")
    mutants = [by_name[name] for name in args.names] if args.names else list(MUTANTS)
    if args.tests:
        mutants = [m._replace(tests=tuple(args.tests)) for m in mutants]
    return mutants


def main(argv: list[str]) -> int:
    mutants = chosen_mutants(argv)
    failed = []
    for m in mutants:
        why = stale(m)
        if why:
            print(f"stale     {m.name}: {why}")
            failed.append(m.name)
    if failed:
        return 1

    with tempfile.TemporaryDirectory(prefix="vanetsim-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not imported_from(src).is_relative_to(src.resolve()):
            print("the tests would not import the copy of src/", file=sys.stderr)
            return 1
        for m in mutants:
            shutil.rmtree(src)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            apply(src, m)
            started = time.monotonic()
            verdict = run_tests(src, m.tests)
            print(f"{verdict:9} {m.name} ({time.monotonic() - started:.1f} s)", flush=True)
            if verdict != "killed":
                failed.append(m.name)
    print(f"{len(mutants) - len(failed)} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
