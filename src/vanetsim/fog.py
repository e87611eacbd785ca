"""Fog cell bookkeeping: spread measurement, split and merge maintenance.

Vehicles under one base station are grouped into cells.  Each cell has an
anchor vehicle; the cell's spread is the largest distance from the anchor
to any member.  Maintenance restores two bounds: a cell splits while its
spread exceeds d_min or its capacity exceeds th_cap, and two cells merge
when the combined cell would respect both bounds and their anchors sit
within d_min of each other.  Because a merge is only applied when its
result cannot trigger a split, the split/merge loop always terminates.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import hypot
from typing import Callable, Mapping

from .errors import MaintenanceError
from .mobility import Position, distance


@dataclass
class FogCell:
    cell_id: int
    anchor: int  # vehicle id the spread is measured from; always a member
    members: list[int] = field(default_factory=list)  # sorted vehicle ids


def _centroid(members: list[int], pos: Mapping[int, Position]) -> Position:
    x = sum(pos[m][0] for m in members) / len(members)
    y = sum(pos[m][1] for m in members) / len(members)
    return (x, y)


def nearest_to_centroid(members: list[int], pos: Mapping[int, Position]) -> int:
    """Member closest to the member centroid; ties go to the smaller id."""
    center = _centroid(members, pos)
    return min(members, key=lambda m: (distance(pos[m], center), m))


def split_cell(
    cell: FogCell, pos: Mapping[int, Position], new_id: Callable[[], int]
) -> tuple[FogCell, FogCell]:
    """Split at the distance-to-anchor median.

    The near half keeps the anchor and the cell id; the far half gets a
    fresh id and is re-anchored on the member nearest its own centroid.
    Both halves stay within ceil(n/2) members.
    """
    anchor_pos = pos[cell.anchor]
    order = sorted(cell.members, key=lambda m: (distance(anchor_pos, pos[m]), m))
    near_n = len(order) - len(order) // 2
    near, far = sorted(order[:near_n]), sorted(order[near_n:])
    near_cell = FogCell(cell.cell_id, cell.anchor, near)
    far_cell = FogCell(new_id(), nearest_to_centroid(far, pos), far)
    return near_cell, far_cell


def merge_cells(a: FogCell, b: FogCell) -> FogCell:
    """Combine two cells; the smaller cell id and its anchor survive."""
    keep, other = (a, b) if a.cell_id <= b.cell_id else (b, a)
    return FogCell(keep.cell_id, keep.anchor, sorted(keep.members + other.members))


def _needs_split(cell: FogCell, pos: Mapping[int, Position], d_min: float, th_cap: int) -> bool:
    members = cell.members
    if len(members) > th_cap:
        return True
    if len(members) > 1:
        # the spread exceeds d_min: stop at the first far member
        ax, ay = pos[cell.anchor]
        for m in members:
            mx, my = pos[m]
            if hypot(ax - mx, ay - my) > d_min:  # the float distance() gives
                return True
    return False


def _merge_ok(
    a: FogCell, b: FogCell, pos: Mapping[int, Position], d_min: float, th_cap: int
) -> bool:
    if len(a.members) + len(b.members) >= th_cap:
        return False
    if distance(pos[a.anchor], pos[b.anchor]) >= d_min:
        return False
    # The merged cell must not immediately violate the split bound, or the
    # loop would never settle.
    ax, ay = pos[a.anchor] if a.cell_id <= b.cell_id else pos[b.anchor]
    for members in (a.members, b.members):
        for m in members:
            mx, my = pos[m]
            if hypot(ax - mx, ay - my) > d_min:
                return False
    return True


def _cell_id(cell: FogCell) -> int:
    return cell.cell_id


def run_maintenance(
    cells: list[FogCell],
    pos: Mapping[int, Position],
    d_min: float,
    th_cap: int,
    new_id: Callable[[], int],
) -> tuple[list[FogCell], int]:
    """Split and merge to a fixed point; returns (cells, rounds).

    One round applies every pending split (cascading until no cell
    violates either bound) and then every possible merge.  A merged cell
    can never trigger a re-split, so any input settles within two rounds;
    the 2 * |cells| + 2 round cap therefore only trips on a logic
    regression that oscillates.

    Cells stay sorted by id.  Splits go to the first cell that needs one,
    and merges to the lexicographically first (i, j) slot pair that may
    merge; each scan makes one pass instead of restarting after every
    change, and reaches the same cells in the same order:

    - Split scan: a split leaves every cell but the one at slot k as it
      was, and the cells before k needed no split.  So the scan resumes at
      k, or at the slot of the new far cell when its id sorts before k
      (``new_id`` may return any id).
    - Merge scan: after merging (i, j) the scan goes on at (i, j), which
      now holds the next cell.  Every pair before it failed, and still
      fails, because ``_merge_ok`` is monotone under a merge: the cell at
      i keeps its id and anchor, its capacity only grows, and the set of
      members that must lie within d_min of the surviving anchor only
      grows.  A pair that failed before the merge fails after it.
    """
    if th_cap < 1:
        # splitting a singleton makes no progress, so the sweep would spin
        raise ValueError(f"th_cap must be at least 1, got {th_cap}")
    cells = sorted(cells, key=_cell_id)
    rounds = 0
    while True:
        rounds += 1
        if rounds > 2 * len(cells) + 2:
            raise MaintenanceError(
                f"cell maintenance did not settle after {rounds} rounds "
                f"({len(cells)} cells)"
            )
        changed = False
        k = 0
        while k < len(cells):
            if not _needs_split(cells[k], pos, d_min, th_cap):
                k += 1
                continue
            near, far = split_cell(cells[k], pos, new_id)
            cells[k] = near
            # where append-then-stable-sort would put it
            slot = bisect_right(cells, far.cell_id, key=_cell_id)
            cells.insert(slot, far)
            k = min(k, slot)
            changed = True
        i = 0
        while i < len(cells):
            j = i + 1
            while j < len(cells):
                if _merge_ok(cells[i], cells[j], pos, d_min, th_cap):
                    # Smaller id sits at i, so the merged cell keeps slot order.
                    cells[i] = merge_cells(cells[i], cells[j])
                    del cells[j]
                    changed = True
                else:
                    j += 1
            i += 1
        if not changed:
            return cells, rounds


def check_partition(cells: list[FogCell], vehicles: set[int], th_cap: int) -> None:
    """Raise unless the cells exactly partition the vehicle set."""
    seen: set[int] = set()
    for cell in cells:
        if not cell.members:
            raise MaintenanceError(f"cell {cell.cell_id} is empty")
        if cell.anchor not in cell.members:
            raise MaintenanceError(
                f"cell {cell.cell_id}: anchor {cell.anchor} is not a member"
            )
        if len(cell.members) > th_cap:
            raise MaintenanceError(
                f"cell {cell.cell_id}: capacity {len(cell.members)} exceeds {th_cap}"
            )
        overlap = seen.intersection(cell.members)
        if overlap:
            raise MaintenanceError(
                f"cell {cell.cell_id}: members {sorted(overlap)} appear twice"
            )
        seen.update(cell.members)
    if seen != vehicles:
        missing = sorted(vehicles - seen)
        extra = sorted(seen - vehicles)
        raise MaintenanceError(
            f"cells do not cover the station's vehicles (missing {missing}, extra {extra})"
        )
