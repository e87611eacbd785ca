"""Cell spread, split/merge mechanics, and maintenance convergence."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vanetsim.fog as fog
from vanetsim.errors import MaintenanceError
from vanetsim.fog import (
    FogCell,
    check_partition,
    merge_cells,
    nearest_to_centroid,
    run_maintenance,
    split_cell,
)
from vanetsim.mobility import distance


def cell(cid, members, anchor=None):
    members = sorted(members)
    return FogCell(cid, members[0] if anchor is None else anchor, members)


def line_positions(xs):
    return {i: (float(x), 0.0) for i, x in enumerate(xs)}


def fresh_ids(start=1000):
    counter = itertools.count(start)
    return lambda: next(counter)


def maintain(cells, pos, d_min=300.0, th_cap=20):
    return run_maintenance(cells, pos, d_min, th_cap, fresh_ids())


def dfcv_distance(cell, pos):
    """A cell's spread: the largest anchor-to-member distance."""
    anchor_pos = pos[cell.anchor]
    return max(distance(anchor_pos, pos[m]) for m in cell.members)


# -- spread -------------------------------------------------------------------

def test_dfcv_distance_is_max_anchor_member_distance():
    pos = line_positions([0, 50, 120, 260])
    c = cell(0, [0, 1, 2, 3], anchor=0)  # spread 260
    assert fog._needs_split(c, pos, 259.9, th_cap=20)
    assert not fog._needs_split(c, pos, 260.0, th_cap=20)
    # measured from the anchor (spread 140), not between members (260)
    c2 = cell(0, [0, 1, 2, 3], anchor=2)
    assert fog._needs_split(c2, pos, 139.0, th_cap=20)
    assert not fog._needs_split(c2, pos, 200.0, th_cap=20)


def test_dfcv_distance_singleton_is_zero():
    pos = {4: (9, 9)}
    # a lone member is its own anchor: no spread to split on, however small d_min
    for d_min in (1e-9, 0.0, -1.0):
        assert not fog._needs_split(cell(0, [4], anchor=4), pos, d_min, th_cap=1)
    assert fog._needs_split(cell(0, [4], anchor=4), pos, 1e-9, th_cap=0)  # capacity still counts


def test_nearest_to_centroid_breaks_ties_low():
    pos = {1: (0, 0), 2: (10, 0), 3: (5, 0)}
    assert nearest_to_centroid([1, 2, 3], pos) == 3
    sym = {1: (0, 0), 2: (10, 0)}
    assert nearest_to_centroid([1, 2], sym) == 1


# -- split --------------------------------------------------------------------

def test_split_halves_at_distance_median():
    pos = line_positions([0, 10, 20, 400, 410, 420])
    near, far = split_cell(cell(7, range(6), anchor=0), pos, fresh_ids())
    assert near.cell_id == 7 and near.anchor == 0
    assert near.members == [0, 1, 2]
    assert far.members == [3, 4, 5]
    assert far.cell_id == 1000
    assert far.anchor == 4  # middle of the far clump


def test_split_odd_count_keeps_extra_near():
    pos = line_positions([0, 10, 20, 400, 410])
    near, far = split_cell(cell(0, range(5), anchor=0), pos, fresh_ids())
    assert near.members == [0, 1, 2]
    assert far.members == [3, 4]


def test_split_respects_half_bound_on_random_cells():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randrange(2, 41)
        pos = {i: (rng.uniform(0, 2000), rng.uniform(0, 2000)) for i in range(n)}
        parent = cell(5, range(n), anchor=rng.randrange(n))
        near, far = split_cell(parent, pos, fresh_ids())
        bound = (n + 1) // 2
        assert len(near.members) <= bound and len(far.members) <= bound
        assert sorted(near.members + far.members) == list(range(n))
        assert near.anchor in near.members and far.anchor in far.members
        # near keeps everything not farther than any far member
        apos = pos[parent.anchor]
        worst_near = max(distance(apos, pos[m]) for m in near.members)
        best_far = min(distance(apos, pos[m]) for m in far.members)
        assert worst_near <= best_far + 1e-9


# -- merge --------------------------------------------------------------------

def test_merge_keeps_smaller_id_and_its_anchor():
    a = cell(3, [11, 12], anchor=12)
    b = cell(9, [1, 2], anchor=1)
    merged = merge_cells(a, b)
    assert merged.cell_id == 3
    assert merged.anchor == 12
    assert merged.members == [1, 2, 11, 12]
    flipped = merge_cells(b, a)  # argument order must not matter
    assert (flipped.cell_id, flipped.anchor, flipped.members) == (3, 12, merged.members)


# -- maintenance fixed point --------------------------------------------------

def test_maintenance_splits_overspread_cell():
    # two clumps 1 km apart in one cell
    pos = line_positions([0, 20, 40, 1000, 1020, 1040])
    cells, rounds = maintain([cell(0, range(6), anchor=0)], pos)
    assert len(cells) == 2
    assert rounds <= 2
    groups = sorted(sorted(c.members) for c in cells)
    assert groups == [[0, 1, 2], [3, 4, 5]]
    for c in cells:
        assert dfcv_distance(c, pos) <= 300.0


def test_maintenance_splits_over_capacity_cell():
    # all at nearly the same spot, but 25 members > th_cap 20
    pos = {i: (float(i), 0.0) for i in range(25)}
    cells, _ = maintain([cell(0, range(25), anchor=0)], pos)
    assert all(len(c.members) <= 20 for c in cells)
    assert sum(len(c.members) for c in cells) == 25
    assert len(cells) == 2


def test_maintenance_merges_adjacent_small_cells():
    pos = line_positions([0, 10, 20, 30])
    cells, _ = maintain([cell(0, [0, 1]), cell(1, [2, 3])], pos)
    assert len(cells) == 1
    assert cells[0].members == [0, 1, 2, 3]
    assert cells[0].cell_id == 0


def test_maintenance_does_not_merge_across_d_min():
    pos = line_positions([0, 10, 500, 510])
    cells, _ = maintain([cell(0, [0, 1]), cell(1, [2, 3])], pos)
    assert len(cells) == 2


def test_maintenance_does_not_merge_past_capacity():
    pos = {i: (float(i % 40), 0.0) for i in range(24)}
    a = cell(0, range(12))
    b = cell(1, range(12, 24))
    cells, _ = maintain([a, b], pos, th_cap=20)
    # 12 + 12 >= 20: both stay
    assert sorted(c.cell_id for c in cells) == [0, 1]


def test_maintenance_is_idempotent_at_fixed_point():
    rng = random.Random(17)
    pos = {i: (rng.uniform(0, 2000), 0.0) for i in range(60)}
    first, _ = maintain([cell(0, range(60), anchor=0)], pos)
    again, rounds = maintain([FogCell(c.cell_id, c.anchor, list(c.members)) for c in first], pos)
    assert rounds == 1  # nothing to do
    assert [(c.cell_id, c.members, c.anchor) for c in again] == [
        (c.cell_id, c.members, c.anchor) for c in first
    ]


def test_maintenance_settles_on_random_fleets_within_cap():
    for trial in range(30):
        rng = random.Random(trial)
        n = rng.randrange(1, 120)
        pos = {
            i: (rng.uniform(0, 3000), rng.uniform(0, 40)) for i in range(n)
        }
        start = [cell(0, range(n), anchor=rng.randrange(n))]
        cells, rounds = maintain(start, pos)
        assert rounds <= 2 * 1 + 2
        check_partition(cells, set(range(n)), 20)
        for c in cells:
            assert not (len(c.members) > 20) and (
                len(c.members) == 1 or dfcv_distance(c, pos) <= 300.0
            )


def test_maintenance_rejects_zero_capacity():
    with pytest.raises(ValueError, match="th_cap"):
        run_maintenance([cell(0, [0])], line_positions([0]), 300.0, 0, fresh_ids())


def test_maintenance_cap_trips_on_an_oscillator(monkeypatch):
    # force a split/merge tug of war: every pair merges, every merged
    # cell immediately re-splits; the round cap must cut this off
    monkeypatch.setattr(fog, "_merge_ok", lambda a, b, pos, d_min, th_cap: True)
    pos = line_positions([0, 1000])
    with pytest.raises(MaintenanceError, match="did not settle"):
        fog.run_maintenance([cell(0, [0, 1], anchor=0)], pos, 300.0, 20, fresh_ids())


# -- partition validation -----------------------------------------------------

def test_check_partition_passes_a_clean_layout():
    cells = [cell(0, [0, 1]), cell(1, [2])]
    check_partition(cells, {0, 1, 2}, th_cap=20)


@pytest.mark.parametrize(
    "cells, vehicles, msg",
    [
        ([FogCell(0, 0, [])], set(), "empty"),
        ([cell(0, [1, 2], anchor=3)], {1, 2}, "not a member"),
        ([cell(0, [0, 1, 2])], {0, 1, 2}, "exceeds"),
        ([cell(0, [0, 1]), cell(1, [1, 2])], {0, 1, 2}, "twice"),
        ([cell(0, [0])], {0, 1}, "missing"),
        ([cell(0, [0, 5])], {0}, "extra"),
    ],
)
def test_check_partition_rejects_violations(cells, vehicles, msg):
    th_cap = 2 if msg == "exceeds" else 20
    with pytest.raises(MaintenanceError, match=msg):
        check_partition(cells, vehicles, th_cap=th_cap)


# -- one-pass scans against the restarting loop -------------------------------

def restarting_run_maintenance(cells, pos, d_min, th_cap, new_id):
    # the reference: the loop the one-pass scans replaced, which restarts
    # the split scan from the first cell after every split and the merge
    # scan from pair (0, 1) after every merge
    if th_cap < 1:
        raise ValueError(f"th_cap must be at least 1, got {th_cap}")
    cells = sorted(cells, key=lambda c: c.cell_id)
    rounds = 0
    while True:
        rounds += 1
        if rounds > 2 * len(cells) + 2:
            raise MaintenanceError(
                f"cell maintenance did not settle after {rounds} rounds "
                f"({len(cells)} cells)"
            )
        changed = False
        while True:
            idx = next(
                (k for k, c in enumerate(cells) if fog._needs_split(c, pos, d_min, th_cap)),
                None,
            )
            if idx is None:
                break
            near, far = fog.split_cell(cells[idx], pos, new_id)
            cells[idx] = near
            cells.append(far)
            cells.sort(key=lambda c: c.cell_id)
            changed = True
        while True:
            pair = None
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    if fog._merge_ok(cells[i], cells[j], pos, d_min, th_cap):
                        pair = (i, j)
                        break
                if pair is not None:
                    break
            if pair is None:
                break
            i, j = pair
            cells[i] = fog.merge_cells(cells[i], cells[j])
            del cells[j]
            changed = True
        if not changed:
            return cells, rounds


def id_source(kind, seed):
    """Fresh-id callables: above every drawn id, below them, or anywhere
    among them (duplicates included)."""
    if kind == "above":
        return fresh_ids(1000)
    if kind == "below":
        counter = itertools.count(-1, -1)
        return lambda: next(counter)
    rng = random.Random(seed)
    return lambda: rng.randrange(-5, 60)


@st.composite
def maintenance_cases(draw):
    d_min = draw(st.sampled_from((300.0, 50.0, 1.0)) | st.floats(0.5, 500.0))
    th_cap = draw(st.integers(1, 25))
    n = draw(st.integers(1, 40))
    # clumps about d_min wide, some closer than d_min and some farther apart
    centers = draw(st.lists(st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 2.0)), min_size=1, max_size=6))
    pos = {}
    for v in range(n):
        cx, cy = draw(st.sampled_from(centers))
        dx, dy = draw(st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)))
        pos[v] = ((cx + dx) * d_min, (cy + dy) * d_min)
    vehicles = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(vehicles)
    cuts = sorted(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=8, unique=True)))
    groups = [vehicles[a:b] for a, b in zip([0] + cuts, cuts + [n]) if vehicles[a:b]]
    ids = draw(st.lists(st.integers(0, 50), min_size=len(groups), max_size=len(groups), unique=True))
    cells = [cell(cid, g, anchor=draw(st.sampled_from(g))) for cid, g in zip(ids, groups)]
    ids_kind = draw(st.sampled_from(("above", "below", "among")))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        # near a fixed point: settle once, then nudge a few vehicles
        cells, _ = run_maintenance(cells, pos, d_min, th_cap, id_source(ids_kind, seed + 1))
        for v in draw(st.lists(st.sampled_from(range(n)), max_size=4)):
            nudge = draw(st.floats(-0.5, 0.5)) * d_min
            pos[v] = (pos[v][0] + nudge, pos[v][1])
    return cells, pos, d_min, th_cap, ids_kind, seed


def traced_maintenance(run, case):
    """(outcome, split_cell and merge_cells calls) of one maintenance run."""
    cells, pos, d_min, th_cap, ids_kind, seed = case
    calls = []
    split, merge = fog.split_cell, fog.merge_cells

    def traced_split(c, pos, new_id):
        calls.append(("split", c.cell_id, c.anchor, list(c.members)))
        return split(c, pos, new_id)

    def traced_merge(a, b):
        calls.append(("merge", a.cell_id, b.cell_id))
        return merge(a, b)

    fresh = [FogCell(c.cell_id, c.anchor, list(c.members)) for c in cells]
    with mock.patch.object(fog, "split_cell", traced_split), mock.patch.object(
        fog, "merge_cells", traced_merge
    ):
        try:
            out, rounds = run(fresh, pos, d_min, th_cap, id_source(ids_kind, seed))
        except MaintenanceError as exc:
            return str(exc), calls
    return ([(c.cell_id, c.anchor, c.members) for c in out], rounds), calls


@settings(max_examples=300, deadline=None, derandomize=True)
@given(maintenance_cases())
def test_one_pass_maintenance_matches_the_restarting_loop(case):
    got = traced_maintenance(fog.run_maintenance, case)
    want = traced_maintenance(restarting_run_maintenance, case)
    assert got == want
