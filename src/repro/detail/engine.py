"""The detailed placement engine and its three operators."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.detail.rows import PlacementRows
from repro.netlist import Netlist
from repro.wirelength import hpwl as hpwl_fn


@dataclass
class DetailedPlacementResult:
    """Output of one detailed placement run."""

    x: np.ndarray
    y: np.ndarray
    hpwl_before: float
    hpwl_after: float
    dp_seconds: float
    passes: int
    moves_applied: int
    #: Applied moves per operator (``reorder``/``swap``/``ism``); they
    #: sum to ``moves_applied``.
    moves_by_operator: Dict[str, int] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        if self.hpwl_before == 0:
            return 0.0
        return 1.0 - self.hpwl_after / self.hpwl_before


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` for each (s, n) pair."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


class DetailedPlacer:
    """Sequential ABCDPlace-style detailed placer.

    Runs passes of (local reordering → global swap → independent-set
    matching) until a pass improves HPWL by less than ``min_gain`` or
    ``max_passes`` is reached.  Requires a legal input placement and
    keeps it legal.

    Moves are applied one at a time, but each decision scores all of its
    candidates at once: a window's permutations, a cell's swap partners
    and an ISM batch's cost matrix are each one :meth:`_trial_hpwl` call.
    The scores are bit-identical to evaluating the candidates one by
    one, so every decision matches the sequential rule.
    """

    def __init__(
        self,
        netlist: Netlist,
        max_passes: int = 2,
        window: int = 3,
        swap_candidates: int = 8,
        swap_radius_rows: int = 3,
        ism_batch: int = 8,
        min_gain: float = 1e-4,
    ) -> None:
        self.netlist = netlist
        self.max_passes = max_passes
        self.window = window
        self.swap_candidates = swap_candidates
        self.swap_radius_rows = swap_radius_rows
        self.ism_batch = ism_batch
        self.min_gain = min_gain
        identity = tuple(range(window))
        self._perms = np.array(
            [p for p in itertools.permutations(identity) if p != identity],
            dtype=np.int64,
        ).reshape(-1, window)
        self._build_adjacency()

    def _fence_ok(self, cell: int, new_x: float, new_y: float) -> bool:
        """True if a fenced cell's box at (new_x, new_y) stays inside its
        fence (always True for unconstrained cells)."""
        nl = self.netlist
        g = nl.cell_fence[cell]
        if g < 0:
            return True
        fence = nl.fences[g]
        hw = np.array([nl.cell_w[cell] / 2])
        hh = np.array([nl.cell_h[cell] / 2])
        return bool(
            fence.contains_box(
                np.array([new_x]), np.array([new_y]), hw, hh
            )[0]
        )

    def _build_adjacency(self) -> None:
        nl = self.netlist
        # cell -> distinct nets CSR, each cell's nets ascending.
        pairs = np.unique(
            nl.pin2cell.astype(np.int64) * np.int64(nl.num_nets) + nl.pin2net
        )
        cells = (pairs // nl.num_nets).astype(np.int64)
        nets = (pairs % nl.num_nets).astype(np.int64)
        counts = np.bincount(cells, minlength=nl.num_cells)
        self._cell_net_start = np.concatenate(([0], np.cumsum(counts)))
        self._cell_nets = nets

    # ------------------------------------------------------------------
    def nets_of(self, cells: Sequence[int]) -> np.ndarray:
        pieces = [
            self._cell_nets[self._cell_net_start[c] : self._cell_net_start[c + 1]]
            for c in cells
        ]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(pieces))

    def _cell_net_slice(self, cell: int) -> np.ndarray:
        """The nets of one cell, ascending (a view into the CSR)."""
        return self._cell_nets[
            self._cell_net_start[cell] : self._cell_net_start[cell + 1]
        ]

    def _trial_hpwl(
        self,
        nets: np.ndarray,
        counts: np.ndarray,
        moved: np.ndarray,
        mx: np.ndarray,
        my: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
    ) -> np.ndarray:
        """Weighted HPWL of a batch of trials in one gather + ``reduceat``.

        Trial ``t`` owns the next ``counts[t]`` entries of ``nets`` (its
        nets, ascending) and places cell ``moved[t, j]`` at
        ``(mx[t, j], my[t, j])``; ``-1`` pads ``moved``.  Every other cell
        sits at ``(x, y)``.  Nets of fewer than two pins are skipped and
        each trial is reduced by its own ``np.dot`` in net order, so a
        trial's score is bit-identical to scoring it alone.
        """
        nl = self.netlist
        trials = len(counts)
        out = np.zeros(trials)
        trial = np.repeat(np.arange(trials), counts)
        wide = nl.net_mask[nets]
        nets, trial = nets[wide], trial[wide]
        if not len(nets):
            return out
        degree = nl.net_degree[nets]
        pins = _segments(nl.net_start[nets], degree)
        owners = nl.pin2cell[pins]
        px = x[owners]
        py = y[owners]
        pin_trial = np.repeat(trial, degree)
        hit, slot = np.nonzero(owners[:, None] == moved[pin_trial])
        px[hit] = mx[pin_trial[hit], slot]
        py[hit] = my[pin_trial[hit], slot]
        px += nl.pin_dx[pins]
        py += nl.pin_dy[pins]
        starts = np.cumsum(degree) - degree
        spans = (
            np.maximum.reduceat(px, starts)
            - np.minimum.reduceat(px, starts)
            + np.maximum.reduceat(py, starts)
            - np.minimum.reduceat(py, starts)
        )
        weights = nl.net_weight[nets]
        bounds = np.searchsorted(trial, np.arange(trials + 1)).tolist()
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if hi > lo:
                out[t] = np.dot(spans[lo:hi], weights[lo:hi])
        return out

    # ------------------------------------------------------------------
    def place(self, x: np.ndarray, y: np.ndarray) -> DetailedPlacementResult:
        start = time.perf_counter()
        rows = PlacementRows(self.netlist, x, y)
        before = hpwl_fn(self.netlist, rows.x, rows.y)
        current = before
        moves = {"reorder": 0, "swap": 0, "ism": 0}
        passes = 0
        for passes in range(1, self.max_passes + 1):
            moves["reorder"] += self._local_reorder_pass(rows)
            moves["swap"] += self._global_swap_pass(rows)
            moves["ism"] += self._ism_pass(rows)
            after = hpwl_fn(self.netlist, rows.x, rows.y)
            gain = (current - after) / max(current, 1e-12)
            current = after
            if gain < self.min_gain:
                break
        return DetailedPlacementResult(
            x=rows.x,
            y=rows.y,
            hpwl_before=before,
            hpwl_after=current,
            dp_seconds=time.perf_counter() - start,
            passes=passes,
            moves_applied=sum(moves.values()),
            moves_by_operator=moves,
        )

    # ------------------------------------------------------------------
    # Operator 1: local reordering
    # ------------------------------------------------------------------
    def _local_reorder_pass(self, rows: PlacementRows) -> int:
        nl = self.netlist
        perms = self._perms
        applied = 0
        for row_i, seg_i, window in rows.iter_windows(self.window):
            window = np.array(window)
            # Fence guard: reordering across groups could leak a cell out
            # of (or into) a fence; same-group windows are always safe.
            if len(np.unique(nl.cell_fence[window])) > 1:
                continue
            nets = self.nets_of(window)
            widths = nl.cell_w[window]
            left0 = rows.x[window[0]] - widths[0] / 2
            # Right bound: next neighbour or segment end.
            cells = rows.members[row_i][seg_i]
            last_pos = cells.index(window[-1])
            if last_pos + 1 < len(cells):
                nxt = cells[last_pos + 1]
                right_bound = rows.x[nxt] - nl.cell_w[nxt] / 2
            else:
                right_bound = rows.space.segments[row_i][seg_i].xh
            # Each permutation packs the window from left0; the running
            # sum rounds exactly like a cursor advanced cell by cell.
            perm_w = widths[perms]
            edges = np.cumsum(
                np.column_stack((np.full(len(perms), left0), perm_w)), axis=1
            )
            fits = np.flatnonzero(edges[:, -1] <= right_bound + 1e-9)
            if not len(fits):
                continue
            order = window[perms[fits]]
            centers = edges[fits, :-1] + perm_w[fits] / 2
            # Trial 0 is the window as placed; then the fitting permutations.
            trials = len(fits) + 1
            moved = np.vstack((np.full(self.window, -1), order))
            mx = np.vstack((np.zeros(self.window), centers))
            my = np.vstack((np.zeros(self.window), rows.y[order]))
            scores = self._trial_hpwl(
                np.tile(nets, trials), np.full(trials, len(nets)),
                moved, mx, my, rows.x, rows.y,
            )
            best = int(np.argmin(scores[1:]))
            if scores[1 + best] < scores[0] - 1e-9:
                rows.x[order[best]] = centers[best]
                # Restore sorted order inside the segment.
                cells.sort(key=lambda c: rows.x[c])
                applied += 1
        return applied

    # ------------------------------------------------------------------
    # Operator 2: global swap
    # ------------------------------------------------------------------
    def _optimal_point(self, cell: int, rows: PlacementRows) -> Tuple[float, float]:
        """Median of the other-pin bounding boxes of the cell's nets."""
        nl = self.netlist
        nets = self._cell_net_slice(cell)
        if not len(nets):
            return rows.x[cell], rows.y[cell]
        degree = nl.net_degree[nets]
        pins = _segments(nl.net_start[nets], degree)
        owners = nl.pin2cell[pins]
        other = owners != cell
        # Other-pin count per net; nets with none drop out.
        kept = np.add.reduceat(other.astype(np.int64), np.cumsum(degree) - degree)
        kept = kept[kept > 0]
        if not len(kept):
            return rows.x[cell], rows.y[cell]
        pins, owners = pins[other], owners[other]
        starts = np.cumsum(kept) - kept
        # Row 0: x, row 1: y; each row holds every net's (min, max).
        bounds = np.empty((2, 2 * len(kept)))
        for axis, pos, offset in ((0, rows.x, nl.pin_dx), (1, rows.y, nl.pin_dy)):
            p = pos[owners] + offset[pins]
            bounds[axis, 0::2] = np.minimum.reduceat(p, starts)
            bounds[axis, 1::2] = np.maximum.reduceat(p, starts)
        # The median (``np.median``'s rounding: mean of the middle pair).
        bounds.sort(axis=1)
        mid = len(kept)
        opt_x, opt_y = (bounds[:, mid - 1] + bounds[:, mid]) / 2
        return float(opt_x), float(opt_y)

    def _global_swap_pass(self, rows: PlacementRows) -> int:
        nl = self.netlist
        applied = 0
        radius_x = 4 * float(np.mean(nl.cell_w[nl.movable_index])) * self.swap_candidates
        for a in nl.movable_index.tolist():
            opt_x, opt_y = self._optimal_point(a, rows)
            if abs(opt_x - rows.x[a]) + abs(opt_y - rows.y[a]) < 1e-9:
                continue
            near = rows.cells_near(opt_x, opt_y, self.swap_radius_rows, radius_x)
            candidates = near[
                (near != a) & (nl.cell_fence[near] == nl.cell_fence[a])
            ][: self.swap_candidates]
            if not len(candidates):
                continue
            la, ra = rows.span(a)
            wa = nl.cell_w[a]
            trials: List[Tuple[int, float, float, float, float]] = []
            for b in candidates.tolist():
                lb, rb = rows.span(b)
                wb = nl.cell_w[b]
                if rb - lb < wa - 1e-9 or ra - la < wb - 1e-9:
                    continue
                ax_new = min(max(rows.x[b], lb + wa / 2), rb - wa / 2)
                bx_new = min(max(rows.x[a], la + wb / 2), ra - wb / 2)
                ya_new = rows.row_y_center(b) - nl.cell_h[b] / 2 + nl.cell_h[a] / 2
                yb_new = rows.y[a] - nl.cell_h[a] / 2 + nl.cell_h[b] / 2
                if nl.cell_fence[a] >= 0 and not (
                    self._fence_ok(a, ax_new, ya_new)
                    and self._fence_ok(b, bx_new, yb_new)
                ):
                    continue
                if rows.cell_slot[a] == rows.cell_slot[b]:
                    # Same segment: the exchanged intervals must stay disjoint.
                    lx, lw, rx, rw = (
                        (ax_new, wa, bx_new, wb)
                        if ax_new <= bx_new
                        else (bx_new, wb, ax_new, wa)
                    )
                    if lx + lw / 2 > rx - rw / 2 + 1e-9:
                        continue
                trials.append((b, ax_new, bx_new, ya_new, yb_new))
            if not trials:
                continue
            best = None
            best_delta = -1e-9
            for trial, delta in zip(trials, self._swap_deltas(a, trials, rows)):
                if delta > best_delta:
                    best_delta = delta
                    best = trial
            if best is not None:
                b, ax_new, bx_new = best[:3]
                slot_a = rows.cell_slot[a]
                slot_b = rows.cell_slot[b]
                rows.members[slot_a[0]][slot_a[1]].remove(a)
                rows.members[slot_b[0]][slot_b[1]].remove(b)
                rows.x[a] = ax_new
                rows.y[a] = rows.space.rows[slot_b[0]].y + nl.cell_h[a] / 2
                rows.x[b] = bx_new
                rows.y[b] = rows.space.rows[slot_a[0]].y + nl.cell_h[b] / 2
                rows.set_slot(a, slot_b)
                rows.set_slot(b, slot_a)
                rows._sorted_insert(slot_b, a)
                rows._sorted_insert(slot_a, b)
                applied += 1
        return applied

    def _swap_deltas(
        self,
        a: int,
        trials: List[Tuple[int, float, float, float, float]],
        rows: PlacementRows,
    ) -> np.ndarray:
        """HPWL gain of each candidate swap of ``a``, over the union of
        both cells' nets: one scoring call for all bases and swaps."""
        nl = self.netlist
        count = len(trials)
        partners = np.array([t[0] for t in trials], dtype=np.int64)
        # Per-trial sorted union of a's and b's nets: unique (trial, net) keys.
        nets_a = self._cell_net_slice(a)
        starts = self._cell_net_start[partners]
        lengths = self._cell_net_start[partners + 1] - starts
        nets_b = self._cell_nets[_segments(starts, lengths)]
        keys = np.unique(np.concatenate((
            np.repeat(np.arange(count), len(nets_a)) * nl.num_nets
            + np.tile(nets_a, count),
            np.repeat(np.arange(count), lengths) * nl.num_nets + nets_b,
        )))
        nets = keys % nl.num_nets
        counts = np.bincount(keys // nl.num_nets, minlength=count)
        # Trials 0..count-1 are the unmoved bases, then the swaps.
        moved = np.full((2 * count, 2), -1, dtype=np.int64)
        moved[count:, 0] = a
        moved[count:, 1] = partners
        mx = np.zeros((2 * count, 2))
        my = np.zeros((2 * count, 2))
        mx[count:] = [t[1:3] for t in trials]
        my[count:] = [t[3:5] for t in trials]
        scores = self._trial_hpwl(
            np.tile(nets, 2), np.tile(counts, 2), moved, mx, my, rows.x, rows.y
        )
        return scores[:count] - scores[count:]

    # ------------------------------------------------------------------
    # Operator 3: independent-set matching
    # ------------------------------------------------------------------
    def _ism_pass(self, rows: PlacementRows) -> int:
        nl = self.netlist
        applied = 0
        movable = nl.movable_index
        widths = nl.cell_w[movable]
        fences = nl.cell_fence[movable]
        # Batches mix neither widths (slot compatibility) nor fence
        # groups (slot exchange would cross fence boundaries).
        keys = [(w, g) for w, g in zip(widths, fences)]
        for key in sorted(set(keys)):
            width, fence_group = key
            group = movable[(widths == width) & (fences == fence_group)]
            if len(group) < 3:
                continue
            batch: List[int] = []
            batch_nets: set = set()
            for cell in group.tolist():
                cell_nets = set(self._cell_net_slice(cell).tolist())
                if batch_nets & cell_nets:
                    continue
                batch.append(cell)
                batch_nets |= cell_nets
                if len(batch) == self.ism_batch:
                    applied += self._match_batch(batch, rows)
                    batch = []
                    batch_nets = set()
            if len(batch) >= 3:
                applied += self._match_batch(batch, rows)
        return applied

    def _match_batch(self, batch: List[int], rows: PlacementRows) -> int:
        """Optimally permute net-disjoint equal-width cells over their
        current slots (costs decompose exactly by independence)."""
        k = len(batch)
        slots = [(rows.x[c], rows.y[c], rows.cell_slot[c]) for c in batch]
        # cost[i, j]: HPWL of cell i's nets with cell i in slot j.
        cells = np.array(batch)
        starts = self._cell_net_start[cells]
        lengths = np.repeat(self._cell_net_start[cells + 1] - starts, k)
        cost = self._trial_hpwl(
            self._cell_nets[_segments(np.repeat(starts, k), lengths)],
            lengths,
            np.repeat(cells, k)[:, None],
            np.tile(rows.x[cells], k)[:, None],
            np.tile(rows.y[cells], k)[:, None],
            rows.x,
            rows.y,
        ).reshape(k, k)
        row_ind, col_ind = linear_sum_assignment(cost)
        baseline = float(np.trace(cost))
        optimal = float(cost[row_ind, col_ind].sum())
        if optimal >= baseline - 1e-9:
            return 0
        # Apply the permutation (equal widths ⇒ slots interchangeable).
        for i, j in zip(row_ind, col_ind):
            if i == j:
                continue
            cell = batch[i]
            sx, sy, slot = slots[j]
            old_slot = rows.cell_slot[cell]
            rows.members[old_slot[0]][old_slot[1]].remove(cell)
            rows.x[cell] = sx
            rows.y[cell] = sy
            rows.set_slot(cell, slot)
            rows._sorted_insert(slot, cell)
        return 1
