"""The detailed placement engine and its three operators."""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.detail.rows import PlacementRows, concat_ranges
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


class DetailedPlacer:
    """Sequential ABCDPlace-style detailed placer.

    Runs passes of (local reordering → global swap → independent-set
    matching) until a pass improves HPWL by less than ``min_gain`` or
    ``max_passes`` is reached.  Requires a legal input placement and
    keeps it legal.

    Moves are applied one at a time, and every decision is the
    sequential rule's: each score is bit-identical to evaluating the
    candidates one by one with :meth:`_trial_hpwl`.  Local reordering and
    global swap score in scalar Python; ISM builds its cost matrix with
    one :meth:`_trial_hpwl` call.

    * Local reordering (:meth:`_window_scores`) builds the other pins' box
      of each net once per window; every permutation only folds in the
      window's own pins.
    * Global swap visits the movable cells in order.  Every cell's
      other-pin box on each of its nets and every optimal point come from
      one vectorized pass at the start (:meth:`_other_pin_boxes`); a
      candidate is scored from the cached boxes of both cells, folding in
      only the moved cell's own pins (a net of both is walked pin by
      pin).  After a swap only the two touched segments' spans, the
      swapped cells' nets and the cells on them are refreshed.
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
        # cell -> distinct nets CSR, each cell's nets ascending: the pins
        # sorted by (cell, net), one pair per run.
        key = nl.pin2cell.astype(np.int64) * np.int64(nl.num_nets) + nl.pin2net
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        pairs = key[starts]
        cells = (pairs // nl.num_nets).astype(np.int64)
        nets = (pairs % nl.num_nets).astype(np.int64)
        counts = np.bincount(cells, minlength=nl.num_cells)
        self._cell_net_start = np.concatenate(([0], np.cumsum(counts)))
        self._cell_nets = nets
        self._pair_cell = cells
        # Each wide pair (two or more pins on the net) in this order, with
        # the cell's lowest and highest own pin dx and dy: rounding is
        # monotone, so the cell's pins on the net reach from exactly
        # ``x + lowest dx`` to ``x + highest dx``.
        wide = nl.net_mask[nets]
        self._wide_pairs = wide
        self._wide_start = np.concatenate(
            ([0], np.cumsum(np.bincount(cells[wide], minlength=nl.num_cells)))
        ).tolist()
        self._own_offsets = np.column_stack([
            pick.reduceat(offset[order], starts)[wide]
            for offset in (nl.pin_dx, nl.pin_dy)
            for pick in (np.minimum, np.maximum)
        ])
        # Scalar views for local reordering and global swap: each cell's
        # wide nets (two or more pins) ascending, each wide net's
        # (cell, dx, dy) pins, each net's weight.
        self._cell_wide_nets: List[List[int]] = [[] for _ in range(nl.num_cells)]
        for cell, net in zip(cells[wide].tolist(), nets[wide].tolist()):
            self._cell_wide_nets[cell].append(net)
        pins = list(
            zip(nl.pin2cell.tolist(), nl.pin_dx.tolist(), nl.pin_dy.tolist())
        )
        bounds = nl.net_start.tolist()
        self._net_pins = [
            pins[lo:hi] if keep else []
            for keep, lo, hi in zip(nl.net_mask.tolist(), bounds, bounds[1:])
        ]
        self._net_weight: List[float] = nl.net_weight.tolist()

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
    def _net_bounds(
        self, pos: np.ndarray, offset: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each wide net's lowest and highest pin coordinate along one
        axis (``inf``/``-inf`` for the other nets)."""
        nl = self.netlist
        lo = np.full(nl.num_nets, np.inf)
        hi = np.full(nl.num_nets, -np.inf)
        wide = np.flatnonzero(nl.net_mask)
        if len(wide):
            degree = nl.net_degree[wide]
            pins = concat_ranges(nl.net_start[wide], degree)
            p = pos[nl.pin2cell[pins]] + offset[pins]
            starts = np.cumsum(degree) - degree
            lo[wide] = np.minimum.reduceat(p, starts)
            hi[wide] = np.maximum.reduceat(p, starts)
        return lo, hi

    def _net_y_bounds(self, y: np.ndarray) -> Tuple[List[float], List[float]]:
        """Each wide net's lowest and highest pin y; local reordering
        never moves a cell off its row."""
        lo, hi = self._net_bounds(y, self.netlist.pin_dy)
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
            for cell, dx, __ in net_pins[net]:
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
    def _other_pin_boxes(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """``(lo_x, hi_x, lo_y, hi_y)`` for every (cell, net) pair, in
        ``_cell_nets`` order: the net's box over the pins of other cells
        (``inf``/``-inf`` if it has none).

        Each side of a net's box is held by one cell (the first pin
        reaching it); for every other cell on the net the side is the
        same, and for the holder it is the extreme over the pins of all
        other cells.
        """
        nl = self.netlist
        nets = np.flatnonzero(nl.net_degree)
        starts = nl.net_start[nets]
        net_of_pin = np.repeat(nets, nl.net_degree[nets])
        cell, net = self._pair_cell, self._cell_nets
        boxes = []
        for pos, offset in ((x, nl.pin_dx), (y, nl.pin_dy)):
            p = pos[nl.pin2cell] + offset
            for pick, empty in ((np.minimum, np.inf), (np.maximum, -np.inf)):
                side = np.full(nl.num_nets, empty)
                side[nets] = pick.reduceat(p, starts)
                hit = np.flatnonzero(p == side[net_of_pin])
                first = hit[np.diff(net_of_pin[hit], prepend=-1) != 0]
                holder = np.full(nl.num_nets, -1)
                holder[nets] = nl.pin2cell[first]
                rest = np.where(nl.pin2cell == holder[net_of_pin], empty, p)
                other = np.full(nl.num_nets, empty)
                other[nets] = pick.reduceat(rest, starts)
                boxes.append(np.where(cell == holder[net], other[net], side[net]))
        return tuple(boxes)

    def _optimal_points(
        self, cells: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each cell's optimal point: the median of the other-pin bounding
        boxes of its nets, or its own position if no net has another pin."""
        starts = self._cell_net_start[cells]
        counts = self._cell_net_start[cells + 1] - starts
        pairs = concat_ranges(starts, counts)
        owner = np.repeat(np.arange(len(cells)), counts)
        boxes = self._other_pin_boxes(x, y)
        return _box_medians(
            x[cells], y[cells], owner, *(side[pairs] for side in boxes)
        )

    @staticmethod
    def _optimal_point(cell: int, boxes: "_NetBoxes") -> Tuple[float, float]:
        """One cell's optimal point from its cached other-pin boxes, equal
        to :meth:`_optimal_points`' bit for bit."""
        bounds_x: List[float] = []
        bounds_y: List[float] = []
        for __, (lo_x, hi_x, lo_y, hi_y, *__) in boxes.of(cell):
            if lo_x <= hi_x:
                bounds_x += (lo_x, hi_x)
                bounds_y += (lo_y, hi_y)
        if not bounds_x:
            return boxes.xs[cell], boxes.ys[cell]
        bounds_x.sort()
        bounds_y.sort()
        k = len(bounds_x) // 2
        return (
            (bounds_x[k - 1] + bounds_x[k]) / 2,
            (bounds_y[k - 1] + bounds_y[k]) / 2,
        )

    def _global_swap_pass(self, rows: PlacementRows) -> int:
        """Swap each movable cell, in order, with its best partner near its
        optimal point (see the class doc)."""
        nl = self.netlist
        movable = nl.movable_index
        radius_x = 4 * float(np.mean(nl.cell_w[movable])) * self.swap_candidates
        width = nl.cell_w.tolist()
        height = nl.cell_h.tolist()
        fence = nl.cell_fence.tolist()
        row_y = rows.row_y.tolist()
        left, right = (side.tolist() for side in rows.spans())
        # Every cell's other-pin boxes, for the optimal points and the
        # scores alike.
        pair_boxes = self._other_pin_boxes(rows.x, rows.y)
        opt_x, opt_y = _box_medians(rows.x, rows.y, self._pair_cell, *pair_boxes)
        boxes = _NetBoxes(self, rows.x, rows.y, pair_boxes)
        del pair_boxes
        # Moves are written to ``boxes.xs``/``ys`` and to ``rows``.
        xs, ys = boxes.xs, boxes.ys
        applied = 0
        for a, ox, oy in zip(
            movable.tolist(), opt_x[movable].tolist(), opt_y[movable].tolist()
        ):
            if a in boxes.moved:
                ox, oy = self._optimal_point(a, boxes)
            if abs(ox - xs[a]) + abs(oy - ys[a]) < 1e-9:
                continue
            slot_a = rows.cell_slot[a]
            la, ra = left[a], right[a]
            wa, ha = width[a], height[a]
            group = fence[a]
            best, best_delta = None, -1e-9
            for b in self._swap_candidates(a, ox, oy, rows, xs, fence, radius_x):
                lb, rb = left[b], right[b]
                wb, hb = width[b], height[b]
                if rb - lb < wa - 1e-9 or ra - la < wb - 1e-9:
                    continue
                ax_new = min(max(xs[b], lb + wa / 2), rb - wa / 2)
                bx_new = min(max(xs[a], la + wb / 2), ra - wb / 2)
                slot_b = rows.cell_slot[b]
                ya_new = row_y[slot_b[0]] + hb / 2 - hb / 2 + ha / 2
                yb_new = ys[a] - ha / 2 + hb / 2
                if group >= 0:
                    region = nl.fences[group]
                    if not (
                        region.contains_cell(ax_new, ya_new, wa / 2, ha / 2)
                        and region.contains_cell(bx_new, yb_new, wb / 2, hb / 2)
                    ):
                        continue
                # Same segment: the exchanged intervals must stay disjoint.
                if slot_a == slot_b:
                    lx, lw, rx, rw = (
                        (ax_new, wa, bx_new, wb) if ax_new <= bx_new
                        else (bx_new, wb, ax_new, wa)
                    )
                    if lx + lw / 2 > rx - rw / 2 + 1e-9:
                        continue
                delta = self._swap_delta(
                    a, b, ax_new, ya_new, bx_new, yb_new, boxes
                )
                if delta > best_delta:
                    best, best_delta = (b, ax_new, bx_new, slot_b), delta
            if best is None:
                continue
            b, ax_new, bx_new, slot_b = best
            rows.move(a, ax_new, *slot_b)
            rows.move(b, bx_new, *slot_a)
            for cell in (a, b):
                xs[cell] = float(rows.x[cell])
                ys[cell] = float(rows.y[cell])
            for slot in {slot_a, slot_b}:
                _respan(rows, slot, xs, width, left, right)
            boxes.forget((a, b))
            applied += 1
        return applied

    def _swap_candidates(
        self,
        a: int,
        ox: float,
        oy: float,
        rows: PlacementRows,
        xs: List[float],
        fence: List[int],
        radius_x: float,
    ) -> List[int]:
        """The first ``swap_candidates`` movable cells of ``a``'s fence
        group, ``a`` excluded, in the rows within ``swap_radius_rows`` of
        the row nearest ``(ox, oy)`` whose centre lies within ``radius_x``
        of ``ox``, in (row, segment, x) order (the live segment lists; two
        cells of a legal segment share an x only if one has zero width)."""
        count = self.swap_candidates
        if count <= 0:
            return []
        # The nearest row, first on a tie like ``np.argmin``; rows are
        # indexed bottom to top, so the centres ascend.
        centers = rows.row_centers
        row = min(bisect_left(centers, oy), len(centers) - 1)
        while row and abs(centers[row - 1] - oy) <= abs(centers[row] - oy):
            row -= 1
        radius = self.swap_radius_rows
        band = rows.members[max(0, row - radius) : row + radius + 1]
        key = xs.__getitem__
        group = fence[a]
        out: List[int] = []
        for cells in itertools.chain.from_iterable(band):
            # ``|x - ox| <= radius_x`` holds on one run of a sorted list;
            # bisect near its ends, then settle them by the exact test.
            lo = bisect_left(cells, ox - radius_x, key=key)
            while lo and abs(xs[cells[lo - 1]] - ox) <= radius_x:
                lo -= 1
            hi = bisect_right(cells, ox + radius_x, lo, key=key)
            while hi < len(cells) and abs(xs[cells[hi]] - ox) <= radius_x:
                hi += 1
            for b in cells[lo:hi]:
                if b != a and fence[b] == group and abs(xs[b] - ox) <= radius_x:
                    out.append(b)
                    if len(out) == count:
                        return out
        return out

    def _swap_delta(
        self,
        a: int,
        b: int,
        ax: float,
        ay: float,
        bx: float,
        by: float,
        boxes: "_NetBoxes",
    ) -> float:
        """HPWL gain of moving ``a`` to ``(ax, ay)`` and ``b`` to
        ``(bx, by)``, over the union of both cells' wide nets.

        A net of one cell folds that cell's pins into its cached
        other-pin box; a net of both is walked pin by pin.  Min and max are
        exact, each span is formed in :meth:`_trial_hpwl`'s order and each
        side is reduced by the same ``np.dot`` in ascending net order, so
        the gain equals the difference of its scores bit for bit.
        """
        xs, ys = boxes.xs, boxes.ys
        weight, span = self._net_weight, boxes.spans
        shared = set(self._cell_wide_nets[a]).intersection(
            self._cell_wide_nets[b]
        )
        spans = []
        for net in shared:
            pins = self._net_pins[net]
            px = [
                (ax if c == a else bx if c == b else xs[c]) + dx
                for c, dx, __ in pins
            ]
            py = [
                (ay if c == a else by if c == b else ys[c]) + dy
                for c, __, dy in pins
            ]
            after = max(px) - min(px) + max(py) - min(py)
            spans.append((net, weight[net], span[net], after))
        for cell, cx, cy in ((a, ax, ay), (b, bx, by)):
            for net, box in boxes.of(cell):
                if net in shared:
                    continue
                lo_x, hi_x, lo_y, hi_y, dx_lo, dx_hi, dy_lo, dy_hi = box
                # Fold in the cell's own pins (see ``_own_offsets``).
                px, py = cx + dx_lo, cy + dy_lo
                if px < lo_x:
                    lo_x = px
                if py < lo_y:
                    lo_y = py
                px, py = cx + dx_hi, cy + dy_hi
                if px > hi_x:
                    hi_x = px
                if py > hi_y:
                    hi_y = py
                spans.append((net, weight[net], span[net], hi_x - lo_x + hi_y - lo_y))
        if not spans:
            return 0.0
        spans.sort()
        __, weights, before, after = zip(*spans)
        weights = np.array(weights)
        count = len(spans)
        both = np.array(before + after)
        return np.dot(both[:count], weights) - np.dot(both[count:], weights)

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


class _NetBoxes:
    """Global swap's per-pass view of the placement and its cache.

    ``xs``/``ys`` are list copies of the positions; the pass writes its
    moves to them.  ``spans`` holds each wide net's span as placed, and
    ``table`` one row per wide (cell, net) pair, cell by cell and each
    cell's nets ascending: ``lo_x, hi_x, lo_y, hi_y``, the net's box over
    the pins of other cells (empty as ``inf``/``-inf``), then ``dx_lo,
    dx_hi, dy_lo, dy_hi``, the extremes of the cell's own pin offsets on
    it.  :meth:`forget` brings both up to date after a swap.
    """

    def __init__(
        self,
        placer: DetailedPlacer,
        x: np.ndarray,
        y: np.ndarray,
        pair_boxes: Tuple[np.ndarray, ...],
    ) -> None:
        self.cell_nets = placer._cell_wide_nets
        self.net_pins = placer._net_pins
        self.xs = x.tolist()
        self.ys = y.tolist()
        nl = placer.netlist
        lo_x, hi_x = placer._net_bounds(x, nl.pin_dx)
        lo_y, hi_y = placer._net_bounds(y, nl.pin_dy)
        self.spans = (hi_x - lo_x + hi_y - lo_y).tolist()
        wide = placer._wide_pairs
        self.table = np.empty((len(placer._own_offsets), 8))
        for column, side in enumerate(pair_boxes):
            self.table[:, column] = side[wide]
        self.table[:, 4:] = placer._own_offsets
        self._start = placer._wide_start
        #: Cells that moved or share a net with one that did.
        self.moved: set = set()

    def of(self, cell: int):
        """``(net, row)`` for each wide net of ``cell``, ascending."""
        lo, hi = self._start[cell], self._start[cell + 1]
        return zip(self.cell_nets[cell], self.table[lo:hi].tolist())

    def forget(self, cells: Sequence[int]) -> None:
        """``cells`` moved: re-span their nets, refresh the boxes of the
        cells on them and mark those cells as moved.

        One walk over each net's pins finds, for each side of its box,
        the extreme, its holder (the cell of the first pin reaching it)
        and the extreme over the pins of all other cells: the side of
        the other-pin box is that last one for the holder and the
        extreme for every other cell, as in :meth:`_other_pin_boxes`.
        When a pin of another cell passes the extreme, the old extreme
        was held by a cell other than the new holder, so it becomes the
        new holder's other-cell extreme.
        """
        xs, ys = self.xs, self.ys
        table, start, cell_nets = self.table, self._start, self.cell_nets
        inf = np.inf
        self.moved.update(cells)
        for net in set().union(*(cell_nets[c] for c in cells)):
            # Per side: extreme, holder, extreme over the other cells.
            lx = ly = inf
            hx = hy = -inf
            lxc = hxc = lyc = hyc = -1
            lxo = lyo = inf
            hxo = hyo = -inf
            for c, dx, dy in self.net_pins[net]:
                px = xs[c] + dx
                py = ys[c] + dy
                if px < lx:
                    if c != lxc:
                        lxo, lxc = lx, c
                    lx = px
                elif c != lxc and px < lxo:
                    lxo = px
                if px > hx:
                    if c != hxc:
                        hxo, hxc = hx, c
                    hx = px
                elif c != hxc and px > hxo:
                    hxo = px
                if py < ly:
                    if c != lyc:
                        lyo, lyc = ly, c
                    ly = py
                elif c != lyc and py < lyo:
                    lyo = py
                if py > hy:
                    if c != hyc:
                        hyo, hyc = hy, c
                    hy = py
                elif c != hyc and py > hyo:
                    hyo = py
            self.spans[net] = hx - lx + hy - ly
            for cell in {c for c, __, __ in self.net_pins[net]}:
                self.moved.add(cell)
                table[start[cell] + cell_nets[cell].index(net), :4] = (
                    lxo if cell == lxc else lx,
                    hxo if cell == hxc else hx,
                    lyo if cell == lyc else ly,
                    hyo if cell == hyc else hy,
                )


def _box_medians(
    x: np.ndarray,
    y: np.ndarray,
    owner: np.ndarray,
    lo_x: np.ndarray,
    hi_x: np.ndarray,
    lo_y: np.ndarray,
    hi_y: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Each owner's median of its non-empty boxes' bounds (``np.median``'s
    rounding: mean of the middle pair), or its ``(x, y)`` if it has none."""
    x, y = x.copy(), y.copy()
    full = lo_x <= hi_x
    who = owner[full]
    kept = np.bincount(who, minlength=len(x))
    has = kept > 0
    mid = (np.cumsum(2 * kept) - kept)[has]
    who = np.tile(who, 2)
    for lo, hi, out in ((lo_x, hi_x, x), (lo_y, hi_y, y)):
        bounds = np.concatenate((lo[full], hi[full]))
        bounds = bounds[np.lexsort((bounds, who))]
        out[has] = (bounds[mid - 1] + bounds[mid]) / 2
    return x, y


def _respan(
    rows: PlacementRows,
    slot: Tuple[int, int],
    xs: List[float],
    width: List[float],
    left: List[float],
    right: List[float],
) -> None:
    """Recompute the free span of every cell of one segment, as
    :meth:`PlacementRows.spans` does."""
    row_i, seg_i = slot
    segment = rows.space.segments[row_i][seg_i]
    cells = rows.members[row_i][seg_i]
    edge = segment.xl
    for cell, nxt in zip(cells, cells[1:]):
        left[cell] = edge
        right[cell] = xs[nxt] - width[nxt] / 2
        edge = xs[cell] + width[cell] / 2
    if cells:
        left[cells[-1]] = edge
        right[cells[-1]] = segment.xh
