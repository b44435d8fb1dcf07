"""The detailed placement engine and its three operators."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.detail.rows import PlacementRows, RowIndex, concat_ranges
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
    #: Wall-clock seconds per operator, summed over passes.
    seconds_by_operator: Dict[str, float] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        if self.hpwl_before == 0:
            return 0.0
        return 1.0 - self.hpwl_after / self.hpwl_before


#: Movable cells whose swaps are planned against one snapshot.  Any size
#: gives the same decisions; swaps are rare, so a batch is seldom cut short.
SWAP_BATCH = 32


class DetailedPlacer:
    """Sequential ABCDPlace-style detailed placer.

    Runs passes of (local reordering → global swap → independent-set
    matching) until a pass improves HPWL by less than ``min_gain`` or
    ``max_passes`` is reached.  Requires a legal input placement and
    keeps it legal.

    Moves are applied one at a time.  Local reordering scores each window
    in scalar Python (:meth:`_window_scores`): the other pins' box of each
    net is built once per window and every permutation only folds in the
    window's own pins.  Global swap and ISM score all of a decision's
    candidates at once: a swap batch's trials and an ISM batch's cost
    matrix are each one :meth:`_trial_hpwl` call.  Every score is
    bit-identical to evaluating the candidates one by one, so every
    decision matches the sequential rule.

    Global swap goes further and plans in snapshot batches.  It takes the
    next ``SWAP_BATCH`` movable cells in order and computes, against one
    snapshot of the placement, every cell's optimal point, candidate
    band, spans, fence checks and swap scores (one scoring call for the
    whole batch).  The decisions are then replayed in cell order: the
    first cell whose best swap gains is swapped, everything planned after
    it is discarded, and the next batch starts at the following cell.
    Until that swap nothing moves, so each decision is the one the
    per-cell rule would make.
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
        self._perms = [
            p for p in itertools.permutations(identity) if p != identity
        ]
        self._build_adjacency()

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
        # Scalar views for local reordering: each cell's wide nets (two
        # or more pins) ascending, each wide net's (cell, dx) pins.
        wide = nl.net_mask[nets]
        self._cell_wide_nets: List[List[int]] = [[] for _ in range(nl.num_cells)]
        for cell, net in zip(cells[wide].tolist(), nets[wide].tolist()):
            self._cell_wide_nets[cell].append(net)
        pins = list(zip(nl.pin2cell.tolist(), nl.pin_dx.tolist()))
        bounds = nl.net_start.tolist()
        self._net_pins = [
            pins[lo:hi] if keep else []
            for keep, lo, hi in zip(nl.net_mask.tolist(), bounds, bounds[1:])
        ]

    # ------------------------------------------------------------------
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
        pins = concat_ranges(nl.net_start[nets], degree)
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
        operators = (
            ("reorder", self._local_reorder_pass),
            ("swap", self._global_swap_pass),
            ("ism", self._ism_pass),
        )
        moves = {name: 0 for name, _ in operators}
        seconds = {name: 0.0 for name, _ in operators}
        passes = 0
        for passes in range(1, self.max_passes + 1):
            for name, operator in operators:
                tic = time.perf_counter()
                moves[name] += operator(rows)
                seconds[name] += time.perf_counter() - tic
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
            seconds_by_operator=seconds,
        )

    # ------------------------------------------------------------------
    # Operator 1: local reordering
    # ------------------------------------------------------------------
    def _net_y_bounds(self, y: np.ndarray) -> Tuple[List[float], List[float]]:
        """Each wide net's lowest and highest pin y (inf/-inf for the
        rest); local reordering never moves a cell off its row."""
        nl = self.netlist
        lo = np.full(nl.num_nets, np.inf)
        hi = np.full(nl.num_nets, -np.inf)
        wide = np.flatnonzero(nl.net_mask)
        if len(wide):
            degree = nl.net_degree[wide]
            pins = concat_ranges(nl.net_start[wide], degree)
            py = y[nl.pin2cell[pins]] + nl.pin_dy[pins]
            starts = np.cumsum(degree) - degree
            lo[wide] = np.minimum.reduceat(py, starts)
            hi[wide] = np.maximum.reduceat(py, starts)
        return lo.tolist(), hi.tolist()

    def _window_scores(
        self,
        window: List[int],
        trials: List[List[float]],
        xs: List[float],
        y_bounds: Tuple[List[float], List[float]],
    ) -> List[float]:
        """Weighted HPWL of the window's wide nets for each trial, the
        window's cells at x ``trials[t]`` (``[]`` if it has no wide net).

        Each net's x box over its pins outside the window is built once;
        a trial only folds in the window's own pins.  Every score equals
        :meth:`_trial_hpwl`'s bit for bit: min/max are exact, each span
        is formed in the same order and each trial is reduced by the same
        ``np.dot``.
        """
        nets = sorted(set().union(*(self._cell_wide_nets[c] for c in window)))
        if not nets:
            return []
        net_pins = self._net_pins
        lo_y, hi_y = y_bounds
        slot = {c: j for j, c in enumerate(window)}
        boxes = []
        for net in nets:
            lo_x, hi_x = np.inf, -np.inf
            own = []
            for cell, dx in net_pins[net]:
                if cell in slot:
                    own.append((slot[cell], dx))
                    continue
                px = xs[cell] + dx
                if px < lo_x:
                    lo_x = px
                if px > hi_x:
                    hi_x = px
            boxes.append((lo_x, hi_x, lo_y[net], hi_y[net], own))
        spans = []
        for pos in trials:
            for lo_x, hi_x, lo, hi, own in boxes:
                for j, dx in own:
                    px = pos[j] + dx
                    if px < lo_x:
                        lo_x = px
                    if px > hi_x:
                        hi_x = px
                spans.append(hi_x - lo_x + hi - lo)
        weights = self.netlist.net_weight[nets]
        return [
            np.dot(row, weights)
            for row in np.array(spans).reshape(len(trials), len(nets))
        ]

    def _local_reorder_pass(self, rows: PlacementRows) -> int:
        """Slide a window of ``self.window`` consecutive cells along every
        segment and apply its best repacking when that shortens its nets.

        Windows slide by one over the live segment lists, so each sees
        the moves applied before it; see :meth:`_window_scores`.
        """
        nl = self.netlist
        size = self.window
        width = nl.cell_w.tolist()
        fence = nl.cell_fence.tolist()
        y_bounds = self._net_y_bounds(rows.y)
        # Moves are written to both this copy and ``rows.x``.
        xs = rows.x.tolist()
        applied = 0
        segments = zip(
            itertools.chain.from_iterable(rows.members),
            itertools.chain.from_iterable(rows.space.segments),
        )
        for cells, segment in segments:
            for start in range(len(cells) - size + 1):
                window = cells[start : start + size]
                # Fence guard: reordering across groups could leak a cell
                # out of (or into) a fence.
                group = fence[window[0]]
                if any(fence[c] != group for c in window):
                    continue
                widths = [width[c] for c in window]
                left0 = xs[window[0]] - widths[0] / 2
                # Right bound: next neighbour or segment end.
                if start + size < len(cells):
                    nxt = cells[start + size]
                    right_bound = xs[nxt] - width[nxt] / 2
                else:
                    right_bound = segment.xh
                # Each permutation packs the window from left0, a cursor
                # advanced cell by cell (``np.cumsum``'s rounding); trial 0
                # is the window as placed.
                trials = [[xs[c] for c in window]]
                for perm in self._perms:
                    edge = left0
                    centers = [0.0] * size
                    for j in perm:
                        centers[j] = edge + widths[j] / 2
                        edge += widths[j]
                    if edge <= right_bound + 1e-9:
                        trials.append(centers)
                if len(trials) == 1:
                    continue
                scores = self._window_scores(window, trials, xs, y_bounds)
                if not scores:
                    continue
                # The first best permutation, if it gains.
                best = min(range(1, len(trials)), key=scores.__getitem__)
                if scores[best] < scores[0] - 1e-9:
                    for cell, cx in zip(window, trials[best]):
                        xs[cell] = cx
                        rows.x[cell] = cx
                    # Restore sorted order inside the segment.
                    cells.sort(key=xs.__getitem__)
                    applied += 1
        return applied

    # ------------------------------------------------------------------
    # Operator 2: global swap
    # ------------------------------------------------------------------
    def _optimal_points(
        self, cells: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each cell's optimal point: the median of the other-pin bounding
        boxes of its nets, or its own position if no net has another pin."""
        nl = self.netlist
        opt_x, opt_y = x[cells], y[cells]
        starts = self._cell_net_start[cells]
        counts = self._cell_net_start[cells + 1] - starts
        nets = self._cell_nets[concat_ranges(starts, counts)]
        # One entry per (cell, net); keep the pins of other cells.
        owner = np.repeat(np.arange(len(cells)), counts)
        degree = nl.net_degree[nets]
        pins = concat_ranges(nl.net_start[nets], degree)
        entry = np.repeat(np.arange(len(nets)), degree)
        other = nl.pin2cell[pins] != cells[owner[entry]]
        pins, entry = pins[other], entry[other]
        if not len(pins):
            return opt_x, opt_y
        # Entries with no other pin drop out; the rest stay grouped by cell.
        starts = np.flatnonzero(np.r_[True, entry[1:] != entry[:-1]])
        who = owner[entry[starts]]
        kept = np.bincount(who, minlength=len(cells))
        who = np.tile(who, 2)
        has = kept > 0
        # The median of each cell's net bounds (``np.median``'s rounding:
        # mean of the middle pair).
        mid = (np.cumsum(2 * kept) - kept)[has]
        for pos, offset, out in ((x, nl.pin_dx, opt_x), (y, nl.pin_dy, opt_y)):
            p = pos[nl.pin2cell[pins]] + offset[pins]
            bounds = np.concatenate(
                (np.minimum.reduceat(p, starts), np.maximum.reduceat(p, starts))
            )
            bounds = bounds[np.lexsort((bounds, who))]
            out[has] = (bounds[mid - 1] + bounds[mid]) / 2
        return opt_x, opt_y

    def _global_swap_pass(self, rows: PlacementRows) -> int:
        """Swap each movable cell, in order, with the best partner near its
        optimal point, planned in snapshot batches (see the class doc)."""
        nl = self.netlist
        movable = nl.movable_index
        radius_x = 4 * float(np.mean(nl.cell_w[movable])) * self.swap_candidates
        index = rows.index()
        applied = 0
        start = 0
        while start < len(movable):
            chunk = movable[start : start + SWAP_BATCH]
            swap = self._first_swap(chunk, index, radius_x)
            if swap is None:
                start += len(chunk)
                continue
            i, b, ax_new, bx_new = swap
            a = int(chunk[i])
            slot_a, slot_b = rows.cell_slot[a], rows.cell_slot[b]
            rows.move(a, ax_new, *slot_b)
            rows.move(b, bx_new, *slot_a)
            applied += 1
            start += i + 1
            index = rows.index()
        return applied

    def _first_swap(
        self, chunk: np.ndarray, index: RowIndex, radius_x: float
    ) -> Optional[Tuple[int, int, float, float]]:
        """Plan every swap of ``chunk`` against one snapshot and return the
        first cell's (its chunk position, partner, new x of both) whose
        best swap gains HPWL, or None if no cell's does."""
        nl = self.netlist
        rows = index.rows
        x, y = rows.x, rows.y
        opt_x, opt_y = self._optimal_points(chunk, x, y)
        moving = np.flatnonzero(
            np.abs(opt_x - x[chunk]) + np.abs(opt_y - y[chunk]) >= 1e-9
        )
        query, b = index.cells_near(
            opt_x[moving], opt_y[moving], self.swap_radius_rows, radius_x
        )
        a = chunk[moving][query]
        keep = (b != a) & (nl.cell_fence[b] == nl.cell_fence[a])
        query, a, b = query[keep], a[keep], b[keep]
        # Each cell's candidates: the first swap_candidates of its band.
        rank = np.arange(len(query)) - np.searchsorted(query, query)
        keep = rank < self.swap_candidates
        query, a, b = query[keep], a[keep], b[keep]
        la, ra = index.left[a], index.right[a]
        lb, rb = index.left[b], index.right[b]
        wa, wb = nl.cell_w[a], nl.cell_w[b]
        ha, hb = nl.cell_h[a], nl.cell_h[b]
        ax_new = np.minimum(np.maximum(x[b], lb + wa / 2), rb - wa / 2)
        bx_new = np.minimum(np.maximum(x[a], la + wb / 2), ra - wb / 2)
        ya_new = rows.row_y[rows.row_of[b]] + hb / 2 - hb / 2 + ha / 2
        yb_new = y[a] - ha / 2 + hb / 2
        ok = (rb - lb >= wa - 1e-9) & (ra - la >= wb - 1e-9)
        fence = nl.cell_fence[a]
        for g in np.unique(fence[fence >= 0]).tolist():
            box, sel = nl.fences[g], fence == g
            ok[sel] &= box.contains_box(
                ax_new[sel], ya_new[sel], wa[sel] / 2, ha[sel] / 2
            ) & box.contains_box(
                bx_new[sel], yb_new[sel], wb[sel] / 2, hb[sel] / 2
            )
        # Same segment: the exchanged intervals must stay disjoint.
        a_left = ax_new <= bx_new
        lx = np.where(a_left, ax_new, bx_new)
        rx = np.where(a_left, bx_new, ax_new)
        lw, rw = np.where(a_left, wa, wb), np.where(a_left, wb, wa)
        same = (rows.row_of[a] == rows.row_of[b]) & (
            rows.seg_of[a] == rows.seg_of[b]
        )
        ok &= ~same | (lx + lw / 2 <= rx - rw / 2 + 1e-9)
        if not ok.any():
            return None
        query, a, b = query[ok], a[ok], b[ok]
        ax_new, bx_new = ax_new[ok], bx_new[ok]
        deltas = self._swap_deltas(
            a, b, ax_new, bx_new, ya_new[ok], yb_new[ok], x, y
        )
        # Each cell's best: the first of its largest deltas, if it gains.
        firsts = np.flatnonzero(np.r_[True, query[1:] != query[:-1]])
        gains = np.flatnonzero(np.maximum.reduceat(deltas, firsts) > -1e-9)
        if not len(gains):
            return None
        lo = firsts[gains[0]]
        hi = firsts[gains[0] + 1] if gains[0] + 1 < len(firsts) else len(deltas)
        t = lo + int(np.argmax(deltas[lo:hi]))
        return int(moving[query[t]]), int(b[t]), ax_new[t], bx_new[t]

    def _swap_deltas(
        self,
        a: np.ndarray,
        b: np.ndarray,
        ax_new: np.ndarray,
        bx_new: np.ndarray,
        ya_new: np.ndarray,
        yb_new: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
    ) -> np.ndarray:
        """HPWL gain of each swap of ``a[t]`` with ``b[t]`` over the union
        of both cells' nets: one scoring call for all bases and swaps."""
        nl = self.netlist
        count = len(a)
        # Per-trial sorted union of a's and b's nets: unique (trial, net) keys.
        trial = np.arange(count)
        keys = []
        for cells in (a, b):
            starts = self._cell_net_start[cells]
            lengths = self._cell_net_start[cells + 1] - starts
            keys.append(
                np.repeat(trial, lengths) * nl.num_nets
                + self._cell_nets[concat_ranges(starts, lengths)]
            )
        keys = np.unique(np.concatenate(keys))
        nets = keys % nl.num_nets
        counts = np.bincount(keys // nl.num_nets, minlength=count)
        # Trials 0..count-1 are the unmoved bases, then the swaps.
        moved = np.full((2 * count, 2), -1, dtype=np.int64)
        moved[count:, 0] = a
        moved[count:, 1] = b
        mx = np.zeros((2 * count, 2))
        my = np.zeros((2 * count, 2))
        mx[count:, 0], mx[count:, 1] = ax_new, bx_new
        my[count:, 0], my[count:, 1] = ya_new, yb_new
        scores = self._trial_hpwl(
            np.tile(nets, 2), np.tile(counts, 2), moved, mx, my, x, y
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
            self._cell_nets[concat_ranges(np.repeat(starts, k), lengths)],
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
