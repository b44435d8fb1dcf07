"""Area-accumulation density scatter (Eq. 8) and its adjoint gather.

Standard cells are inflated to at least √2× the bin extents with an
area-preserving scale factor (ePlace "density smoothing"), which bounds
the bin window each cell touches and lets the scatter run as a handful of
vectorised ``np.add.at`` passes — the CPU analogue of the GPU area
accumulation kernel.  The gather is the exact adjoint: the electric force
on a cell is the overlap-weighted average of the field over the bins the
cell's charge was scattered into, so energy gradients are consistent.

``rasterize_exact`` is the unsmoothed exact rasteriser, used for fixed
macros (computed once) and as the brute-force reference in tests.

Scatter and gather run through the operator's
:class:`~repro.perf.workspace.Workspace` arena (``sc.*`` buffers): the
per-axis overlap/validity rows are computed once per offset into
``(k, n)`` arrays (instead of once per ``(dx, dy)`` pair), window passes
compress into reused scratch, and a fresh scatter with an all-zero
destination accumulates every pass through a single flat
``np.bincount``.  Returned maps (unless the caller passes ``out=``) and
per-cell vectors are freshly allocated, never arena buffers.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.density.bins import BinGrid
from repro.dtypes import BOOL, FLOAT, INT
from repro.ops import profiled, timed
from repro.perf.workspace import Workspace

_SQRT2 = math.sqrt(2.0)


def _overlap_matrix(
    lo: np.ndarray,
    hi: np.ndarray,
    m: int,
    bin_size: float,
    edges: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(N, m) overlap lengths of the intervals ``[lo, hi]`` with all bins.

    One broadcasted min/max against the full bin-edge vector; the basis
    of the einsum paths that handle cells spanning many bins without
    per-cell Python iteration.  ``edges`` lets callers pass a cached
    bin-edge vector instead of recomputing it.
    """
    if edges is None:
        edges = np.arange(m + 1, dtype=FLOAT) * bin_size
    ov = np.minimum(hi[:, None], edges[None, 1:]) - np.maximum(
        lo[:, None], edges[None, :-1]
    )
    return np.clip(ov, 0.0, None)


class DensityScatter:
    """Vectorised scatter/gather between cells and a :class:`BinGrid`.

    Parameters
    ----------
    grid : target bin grid
    smooth : inflate cells below √2·bin size (area preserved).  Disable
        only for exact-accounting tests.

    The operator owns a private arena; :meth:`attach_workspace` shares
    another one (the density system hands over its own).
    """

    def __init__(self, grid: BinGrid, smooth: bool = True) -> None:
        self.grid = grid
        self.smooth = smooth
        self.workspace = Workspace()
        # Cached bin-edge vectors for the (L, m) overlap-matrix paths.
        self._edges_x = np.arange(grid.m + 1, dtype=FLOAT) * grid.bin_w
        self._edges_y = np.arange(grid.m + 1, dtype=FLOAT) * grid.bin_h

    def attach_workspace(self, workspace: Workspace) -> None:
        """Run the operator on ``workspace`` from now on."""
        self.workspace = workspace

    # ------------------------------------------------------------------
    def _smoothed_boxes(self, w: np.ndarray, h: np.ndarray, tag: str = ""):
        """Smoothed extents and the area-preserving density scale.

        ``tag`` namespaces the returned ``scale`` buffer so externally
        held window handles for different populations never alias even
        when the populations have the same size.
        """
        ws = self.workspace
        n = w.shape[0]
        if self.smooth:
            we = ws.get("sc.we", n)
            he = ws.get("sc.he", n)
            np.maximum(w, _SQRT2 * self.grid.bin_w, out=we)
            np.maximum(h, _SQRT2 * self.grid.bin_h, out=he)
        else:
            we, he = w, h
        area = ws.get("sc.area", n)
        eff = ws.get("sc.eff", n)
        np.multiply(w, h, out=area)
        np.multiply(we, he, out=eff)
        emask = ws.get("sc.emask", n, BOOL)
        np.greater(eff, 0.0, out=emask)
        scale = ws.get(f"sc.scale{tag}", n)
        scale.fill(0.0)
        np.divide(area, eff, out=scale, where=emask)
        return we, he, scale

    def _partition_large(self, w: np.ndarray, h: np.ndarray, limit: int = 6):
        """Split cells into vectorised-window (small) and per-cell (large)
        populations; movable macros would otherwise blow up the window
        loop of the vectorised path."""
        bw, bh = self.grid.bin_w, self.grid.bin_h
        large = (w > limit * bw) | (h > limit * bh)
        return ~large, large

    # ------------------------------------------------------------------
    def _axis_overlaps(
        self,
        tag: str,
        lo: np.ndarray,
        hi: np.ndarray,
        i0: np.ndarray,
        k: int,
        bin_size: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-offset overlap and validity rows for one axis.

        Row ``d`` holds the overlap of ``[lo, hi]`` with bin ``i0 + d``
        and whether that bin is on the grid and overlapped at all.
        """
        ws = self.workspace
        n = lo.shape[0]
        m = self.grid.m
        ov = ws.get(f"sc.ov{tag}", (k, n))
        vv = ws.get(f"sc.vv{tag}", (k, n), BOOL)
        ci = ws.get("sc.ci", n, INT)
        ftmp = ws.get("sc.ftmp", n)
        btmp = ws.get("sc.btmp", n, BOOL)
        for d in range(k):
            row = ov[d]
            vrow = vv[d]
            np.add(i0, d, out=ci)
            np.multiply(ci, bin_size, out=ftmp)
            np.maximum(lo, ftmp, out=ftmp)
            np.add(ci, 1, out=ci)
            np.multiply(ci, bin_size, out=row)
            np.minimum(hi, row, out=row)
            np.subtract(row, ftmp, out=row)
            np.clip(row, 0.0, None, out=row)
            np.subtract(ci, 1, out=ci)
            np.greater_equal(ci, 0, out=vrow)
            np.less(ci, m, out=btmp)
            np.logical_and(vrow, btmp, out=vrow)
            np.greater(row, 0.0, out=btmp)
            np.logical_and(vrow, btmp, out=vrow)
        return ov, vv

    def _prepare_windows(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        tag: str = "",
    ):
        """Boxes, base bin indices and per-axis overlap rows (arena-backed).

        ``tag`` namespaces the buffers that outlive this call (scale,
        base indices, overlap/validity rows) for externally held
        handles; scratch buffers stay shared.
        """
        ws = self.workspace
        grid = self.grid
        n = x.shape[0]
        we, he, scale = self._smoothed_boxes(w, h, tag)
        bw, bh = grid.bin_w, grid.bin_h

        xl = ws.get("sc.xl", n)
        np.divide(we, 2, out=xl)
        np.subtract(x, xl, out=xl)
        np.subtract(xl, grid.region.xl, out=xl)
        xh = ws.get("sc.xh", n)
        np.add(xl, we, out=xh)
        yl = ws.get("sc.yl", n)
        np.divide(he, 2, out=yl)
        np.subtract(y, yl, out=yl)
        np.subtract(yl, grid.region.yl, out=yl)
        yh = ws.get("sc.yh", n)
        np.add(yl, he, out=yh)

        ftmp = ws.get("sc.ftmp", n)
        ix0 = ws.get(f"sc.ix0{tag}", n, INT)
        np.divide(xl, bw, out=ftmp)
        np.floor(ftmp, out=ftmp)
        np.copyto(ix0, ftmp, casting="unsafe")
        iy0 = ws.get(f"sc.iy0{tag}", n, INT)
        np.divide(yl, bh, out=ftmp)
        np.floor(ftmp, out=ftmp)
        np.copyto(iy0, ftmp, casting="unsafe")

        # Window sizes derived from the largest cell this call sees.
        kx = int(np.ceil(we.max() / bw)) + 1
        ky = int(np.ceil(he.max() / bh)) + 1
        ovx, vvx = self._axis_overlaps(f"x{tag}", xl, xh, ix0, kx, bw)
        ovy, vvy = self._axis_overlaps(f"y{tag}", yl, yh, iy0, ky, bh)
        return scale, ix0, iy0, ovx, vvx, ovy, vvy, kx, ky

    def prepare_windows(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        tag: str = "",
    ):
        """Precompute the shared window state for one cell population.

        A scatter and its adjoint gathers over the *same* positions and
        sizes recompute identical boxes, bin indices and overlap rows;
        the density system computes them once per population per
        iteration and passes the handle to :meth:`scatter` /
        :meth:`gather_pair` via ``windows=``.

        The handle references arena buffers: it is only valid until the
        next ``prepare_windows`` call with the same ``tag`` for a
        same-shaped population (give concurrently live handles distinct
        tags), and the caller must not mutate ``x, y, w, h`` while it
        is live.
        Returns ``None`` (callers fall back to self-prepared windows)
        when the population is empty or contains large cells that take
        the per-cell exact path.
        """
        if x.size == 0:
            return None
        _small, large = self._partition_large(w, h)
        if large.any():
            return None
        return self._prepare_windows(x, y, w, h, tag)

    # ------------------------------------------------------------------
    def scatter(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        out: Optional[np.ndarray] = None,
        windows=None,
    ) -> np.ndarray:
        """Accumulate cell areas into a density map of bin *areas*.

        Returns a map of summed overlap areas (divide by ``bin_area`` for
        the dimensionless density D_b of Eq. 8).  ``out`` accumulates in
        place when given (in-place operators, Section 3.1.3).  Cells much
        larger than a bin (movable macros) take an exact per-cell path.
        ``windows`` is an optional :meth:`prepare_windows` handle for
        these exact cells (skips recomputing the overlap rows).
        """
        with timed("density_scatter"):
            return self._scatter(x, y, w, h, out, windows)

    def _scatter(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        out: Optional[np.ndarray],
        windows=None,
    ) -> np.ndarray:
        ws = self.workspace
        grid = self.grid
        m = grid.m
        density = out
        if x.size == 0:
            if density is None:
                density = np.zeros(grid.shape, dtype=FLOAT)
            return density
        if windows is None:
            small, large = self._partition_large(w, h)
            if large.any():
                if density is None:
                    density = np.zeros(grid.shape, dtype=FLOAT)
                density += rasterize_exact(
                    grid, x[large], y[large], w[large], h[large]
                )
                if not small.any():
                    return density
                ns = int(np.count_nonzero(small))
                xs = ws.get("sc.xs", ns)
                ys = ws.get("sc.ys", ns)
                wsz = ws.get("sc.wsz", ns)
                hsz = ws.get("sc.hsz", ns)
                np.compress(small, x, out=xs)
                np.compress(small, y, out=ys)
                np.compress(small, w, out=wsz)
                np.compress(small, h, out=hsz)
                x, y, w, h = xs, ys, wsz, hsz
            windows = self._prepare_windows(x, y, w, h)

        n = x.shape[0]
        scale, ix0, iy0, ovx, vvx, ovy, vvy, kx, ky = windows
        profiled("density_scatter", kx * ky)
        # Work metric: cells processed per window pass (operator
        # extraction saves duplicated passes over the same cells).
        profiled("density_scatter_cells", n * kx * ky)

        vbuf = ws.get("sc.valid", n, BOOL)
        cb = ws.get("sc.cb", n)
        itmp = ws.get("sc.itmp", n, INT)

        if density is None:
            # Fresh all-zero destination: collect every window pass and
            # accumulate them in one flat bincount, which adds the
            # per-bin addends in the same (pass, element) order as
            # per-pass np.add.at would.
            cap = n * kx * ky
            flat = ws.get("sc.flat", cap, INT)
            vals = ws.get("sc.vals", cap)
            total = 0
            for dx in range(kx):
                vxrow = vvx[dx]
                if not vxrow.any():
                    continue
                for dy in range(ky):
                    np.logical_and(vxrow, vvy[dy], out=vbuf)
                    k = int(np.count_nonzero(vbuf))
                    if k == 0:
                        continue
                    seg = vals[total:total + k]
                    np.compress(vbuf, ovx[dx], out=seg)
                    np.compress(vbuf, ovy[dy], out=cb[:k])
                    np.multiply(seg, cb[:k], out=seg)
                    np.compress(vbuf, scale, out=cb[:k])
                    np.multiply(seg, cb[:k], out=seg)
                    iseg = flat[total:total + k]
                    np.compress(vbuf, ix0, out=iseg)
                    np.add(iseg, dx, out=iseg)
                    np.multiply(iseg, m, out=iseg)
                    np.compress(vbuf, iy0, out=itmp[:k])
                    np.add(itmp[:k], dy, out=itmp[:k])
                    np.add(iseg, itmp[:k], out=iseg)
                    total += k
            return np.bincount(
                flat[:total], weights=vals[:total], minlength=m * m
            ).reshape(grid.shape)

        # Pre-populated destination (caller out= or large-cell raster):
        # accumulate pass by pass into it; adding a separately summed
        # map instead would regroup the floating-point additions.
        ci = ws.get("sc.cols", n, INT)
        for dx in range(kx):
            vxrow = vvx[dx]
            if not vxrow.any():
                continue
            for dy in range(ky):
                np.logical_and(vxrow, vvy[dy], out=vbuf)
                k = int(np.count_nonzero(vbuf))
                if k == 0:
                    continue
                seg = ws.get("sc.pass", n)[:k]
                np.compress(vbuf, ovx[dx], out=seg)
                np.compress(vbuf, ovy[dy], out=cb[:k])
                np.multiply(seg, cb[:k], out=seg)
                np.compress(vbuf, scale, out=cb[:k])
                np.multiply(seg, cb[:k], out=seg)
                np.compress(vbuf, ix0, out=ci[:k])
                np.add(ci[:k], dx, out=ci[:k])
                np.compress(vbuf, iy0, out=itmp[:k])
                np.add(itmp[:k], dy, out=itmp[:k])
                np.add.at(density, (ci[:k], itmp[:k]), seg)
        return density

    # ------------------------------------------------------------------
    def gather(
        self,
        field: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        windows=None,
    ) -> np.ndarray:
        """Adjoint of :meth:`scatter`: overlap-weighted field per cell.

        ``field`` is per-bin; the result is Σ_b overlap(i,b)·field_b with
        the same smoothing/scaling as the scatter, i.e. the force on cell
        i whose charge q_i was distributed by :meth:`scatter`.
        ``windows`` is an optional :meth:`prepare_windows` handle for
        these exact cells.
        """
        with timed("density_gather"):
            return self._gather(field, x, y, w, h, windows)

    def gather_pair(
        self,
        field_a: np.ndarray,
        field_b: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        windows=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather two per-bin fields over one shared window computation.

        The x- and y-axis force gathers in the density system use
        identical cell geometry — only the field differs.  Sharing the
        boxes, bin indices and overlap rows between the two halves the
        gather bookkeeping (one window pass instead of two).  Each
        per-cell result is bit-identical to the corresponding single
        :meth:`gather` call: the per-field multiply chain keeps the
        exact same order, only the loop-invariant overlap values are
        reused.  ``windows`` is an optional :meth:`prepare_windows`
        handle for these exact cells.
        """
        with timed("density_gather"):
            return self._gather_pair(field_a, field_b, x, y, w, h, windows)

    def _large_overlaps(self, x, y, w, h) -> Tuple[np.ndarray, np.ndarray]:
        """Full (L, m) per-axis overlap matrices for large cells.

        Large cells (movable macros) span many bins: contracting these
        against a field in one einsum replaces iterating cells.
        """
        grid = self.grid
        xl = x - w / 2 - grid.region.xl
        yl = y - h / 2 - grid.region.yl
        ov_x = _overlap_matrix(xl, xl + w, grid.m, grid.bin_w,
                               edges=self._edges_x)
        ov_y = _overlap_matrix(yl, yl + h, grid.m, grid.bin_h,
                               edges=self._edges_y)
        return ov_x, ov_y

    def _gather(
        self,
        field: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        windows=None,
    ) -> np.ndarray:
        result = np.zeros(x.shape, dtype=FLOAT)
        if x.size == 0:
            return result
        if windows is None:
            small, large = self._partition_large(w, h)
            if large.any():
                ov_x, ov_y = self._large_overlaps(
                    x[large], y[large], w[large], h[large]
                )
                result[large] = np.einsum("im,in,mn->i", ov_x, ov_y, field)
                if small.any():
                    result[small] = self._gather(
                        field, x[small], y[small], w[small], h[small]
                    )
                return result
            windows = self._prepare_windows(x, y, w, h)

        ws = self.workspace
        m = self.grid.m
        n = x.shape[0]
        scale, ix0, iy0, ovx, vvx, ovy, vvy, kx, ky = windows
        profiled("density_gather", kx * ky)
        field_flat = np.ascontiguousarray(field).reshape(-1)
        vbuf = ws.get("sc.valid", n, BOOL)
        cb = ws.get("sc.cb", n)
        fv = ws.get("sc.fv", n)
        ci = ws.get("sc.cols", n, INT)
        itmp = ws.get("sc.itmp", n, INT)
        for dx in range(kx):
            vxrow = vvx[dx]
            if not vxrow.any():
                continue
            for dy in range(ky):
                np.logical_and(vxrow, vvy[dy], out=vbuf)
                k = int(np.count_nonzero(vbuf))
                if k == 0:
                    continue
                np.compress(vbuf, ix0, out=ci[:k])
                np.add(ci[:k], dx, out=ci[:k])
                np.multiply(ci[:k], m, out=ci[:k])
                np.compress(vbuf, iy0, out=itmp[:k])
                np.add(itmp[:k], dy, out=itmp[:k])
                np.add(ci[:k], itmp[:k], out=ci[:k])
                np.take(field_flat, ci[:k], out=fv[:k])
                np.compress(vbuf, ovx[dx], out=cb[:k])
                np.multiply(fv[:k], cb[:k], out=fv[:k])
                np.compress(vbuf, ovy[dy], out=cb[:k])
                np.multiply(fv[:k], cb[:k], out=fv[:k])
                np.compress(vbuf, scale, out=cb[:k])
                np.multiply(fv[:k], cb[:k], out=fv[:k])
                result[vbuf] += fv[:k]
        return result

    def _gather_pair(
        self,
        field_a: np.ndarray,
        field_b: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        windows=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        result_a = np.zeros(x.shape, dtype=FLOAT)
        result_b = np.zeros(x.shape, dtype=FLOAT)
        if x.size == 0:
            return result_a, result_b
        if windows is None:
            small, large = self._partition_large(w, h)
            if large.any():
                ov_x, ov_y = self._large_overlaps(
                    x[large], y[large], w[large], h[large]
                )
                result_a[large] = np.einsum("im,in,mn->i", ov_x, ov_y,
                                            field_a)
                result_b[large] = np.einsum("im,in,mn->i", ov_x, ov_y,
                                            field_b)
                if small.any():
                    result_a[small], result_b[small] = self._gather_pair(
                        field_a, field_b, x[small], y[small], w[small],
                        h[small]
                    )
                return result_a, result_b
            windows = self._prepare_windows(x, y, w, h)

        ws = self.workspace
        m = self.grid.m
        n = x.shape[0]
        scale, ix0, iy0, ovx, vvx, ovy, vvy, kx, ky = windows
        profiled("density_gather", kx * ky)
        fa_flat = np.ascontiguousarray(field_a).reshape(-1)
        fb_flat = np.ascontiguousarray(field_b).reshape(-1)
        vbuf = ws.get("sc.valid", n, BOOL)
        cb = ws.get("sc.cb", n)
        fva = ws.get("sc.fv", n)
        fvb = ws.get("sc.fv2", n)
        ci = ws.get("sc.cols", n, INT)
        itmp = ws.get("sc.itmp", n, INT)
        for dx in range(kx):
            vxrow = vvx[dx]
            if not vxrow.any():
                continue
            for dy in range(ky):
                np.logical_and(vxrow, vvy[dy], out=vbuf)
                k = int(np.count_nonzero(vbuf))
                if k == 0:
                    continue
                np.compress(vbuf, ix0, out=ci[:k])
                np.add(ci[:k], dx, out=ci[:k])
                np.multiply(ci[:k], m, out=ci[:k])
                np.compress(vbuf, iy0, out=itmp[:k])
                np.add(itmp[:k], dy, out=itmp[:k])
                np.add(ci[:k], itmp[:k], out=ci[:k])
                np.take(fa_flat, ci[:k], out=fva[:k])
                np.take(fb_flat, ci[:k], out=fvb[:k])
                np.compress(vbuf, ovx[dx], out=cb[:k])
                np.multiply(fva[:k], cb[:k], out=fva[:k])
                np.multiply(fvb[:k], cb[:k], out=fvb[:k])
                np.compress(vbuf, ovy[dy], out=cb[:k])
                np.multiply(fva[:k], cb[:k], out=fva[:k])
                np.multiply(fvb[:k], cb[:k], out=fvb[:k])
                np.compress(vbuf, scale, out=cb[:k])
                np.multiply(fva[:k], cb[:k], out=fva[:k])
                np.multiply(fvb[:k], cb[:k], out=fvb[:k])
                result_a[vbuf] += fva[:k]
                result_b[vbuf] += fvb[:k]
        return result_a, result_b


def rasterize_exact(
    grid: BinGrid,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    window_limit: int = 6,
) -> np.ndarray:
    """Exact (unsmoothed) overlap-area rasterisation, fully vectorised.

    Cells at most ``window_limit`` bins wide take the windowed
    ``np.add.at`` path (a bounded number of all-cell passes — exact here
    because nothing is smoothed); wider cells (fixed macros spanning the
    die) are rasterised through full (L, m) overlap matrices contracted
    in one einsum.  Used for fixed macros at setup and as the reference
    implementation in tests.
    """
    density = np.zeros(grid.shape, dtype=FLOAT)
    if x.size == 0:
        return density
    bw, bh = grid.bin_w, grid.bin_h
    m = grid.m
    alive = (w > 0) & (h > 0)
    wide = alive & ((w > window_limit * bw) | (h > window_limit * bh))
    narrow = alive & ~wide

    if wide.any():
        xl = x[wide] - w[wide] / 2 - grid.region.xl
        yl = y[wide] - h[wide] / 2 - grid.region.yl
        ov_x = _overlap_matrix(xl, xl + w[wide], m, bw)
        ov_y = _overlap_matrix(yl, yl + h[wide], m, bh)
        density += np.einsum("im,in->mn", ov_x, ov_y)
    if not narrow.any():
        return density

    cw, ch = w[narrow], h[narrow]
    xl = x[narrow] - cw / 2 - grid.region.xl
    yl = y[narrow] - ch / 2 - grid.region.yl
    ix0 = np.floor(xl / bw).astype(INT)
    iy0 = np.floor(yl / bh).astype(INT)
    kx = int(np.ceil(cw.max() / bw)) + 1
    ky = int(np.ceil(ch.max() / bh)) + 1
    for dx in range(kx):
        cols = ix0 + dx
        ov_x = np.minimum(xl + cw, (cols + 1) * bw) - np.maximum(xl, cols * bw)
        ov_x = np.clip(ov_x, 0.0, None)
        valid_x = (cols >= 0) & (cols < m) & (ov_x > 0)
        if not valid_x.any():
            continue
        for dy in range(ky):
            rows = iy0 + dy
            ov_y = np.minimum(yl + ch, (rows + 1) * bh) - np.maximum(yl, rows * bh)
            ov_y = np.clip(ov_y, 0.0, None)
            valid = valid_x & (rows >= 0) & (rows < m) & (ov_y > 0)
            if not valid.any():
                continue
            np.add.at(
                density,
                (cols[valid], rows[valid]),
                ov_x[valid] * ov_y[valid],
            )
    return density
