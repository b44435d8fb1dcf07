"""Area-accumulation density scatter (Eq. 8) and its adjoint gather.

Standard cells are inflated to at least √2× the bin extents with an
area-preserving scale factor (ePlace "density smoothing"), which bounds
the bin window each cell touches to a few bins per axis.  That makes the
cell–bin incidence a dense ``(kx·ky, n)`` pair of arrays — flat bin
index and weight ``ovx·ovy·scale`` per (window offset, cell) — built
once per population per iteration.  Over it the scatter is a single
``np.bincount`` and the gather a single take-multiply-sum: the CPU
analogue of the GPU area-accumulation kernel.  The gather is the exact
adjoint: the electric force on a cell is the overlap-weighted average
of the field over the bins the cell's charge was scattered into, so
energy gradients are consistent.

``rasterize_exact`` is the unsmoothed exact rasteriser, used for fixed
macros (computed once) and as the brute-force reference in tests.

The incidence and its scratch live in the operator's
:class:`~repro.perf.workspace.Workspace` arena (``sc.*`` buffers).
Returned maps (unless the caller passes ``out=``) and per-cell vectors
are freshly allocated, never arena buffers.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.density.bins import BinGrid
from repro.dtypes import BOOL, FLOAT, INT
from repro.ops import get_profiler, profiled, timed
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
    def _smoothed_boxes(self, w: np.ndarray, h: np.ndarray):
        """Smoothed extents and the area-preserving density scale."""
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
        scale = ws.get("sc.scale", n)
        scale.fill(0.0)
        np.divide(area, eff, out=scale, where=emask)
        return we, he, scale

    def _partition_large(self, w: np.ndarray, h: np.ndarray, limit: int = 6):
        """Split cells into incidence (small) and per-cell (large)
        populations; movable macros would otherwise blow up the window
        of every cell in the incidence arrays."""
        bw, bh = self.grid.bin_w, self.grid.bin_h
        large = (w > limit * bw) | (h > limit * bh)
        return ~large, large

    # ------------------------------------------------------------------
    def _axis_overlaps(
        self,
        axis: str,
        lo: np.ndarray,
        hi: np.ndarray,
        k: int,
        bin_size: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-offset bins and overlaps for one axis, as ``(k, n)`` rows.

        Row ``d`` holds bin ``i0 + d`` (``i0`` the bin of ``lo``) and
        the overlap of ``[lo, hi]`` with it.
        Clamping the interval to the grid first zeroes the overlap of
        every off-grid bin while leaving on-grid overlaps bit-identical;
        the off-grid bins are then clamped onto the grid so every index
        is valid.
        """
        ws = self.workspace
        n = lo.shape[0]
        m = self.grid.m
        ftmp = ws.get("sc.ftmp", n)
        np.divide(lo, bin_size, out=ftmp)
        np.floor(ftmp, out=ftmp)
        # Bin i0 + d and its lower edge for d = 0..k; row d + 1 holds
        # the upper edge of row d.  Bins stay float until the final
        # cast: mixed int/float ufuncs are several times slower.
        cf = ws.get(f"sc.cf{axis}", (k + 1, n))
        np.add(ftmp, np.arange(k + 1, dtype=FLOAT)[:, None], out=cf)
        edge = ws.get("sc.edge", (k + 1, n))
        np.multiply(cf, bin_size, out=edge)
        lo_c = ws.get("sc.lo", n)
        hi_c = ws.get("sc.hi", n)
        np.maximum(lo, 0.0, out=lo_c)
        np.minimum(hi, m * bin_size, out=hi_c)
        low = ws.get("sc.low", (k, n))
        np.maximum(lo_c, edge[:-1], out=low)
        ov = ws.get(f"sc.ov{axis}", (k, n))
        np.minimum(hi_c, edge[1:], out=ov)
        np.subtract(ov, low, out=ov)
        np.maximum(ov, 0.0, out=ov)
        bins = cf[:-1]
        np.maximum(bins, 0.0, out=bins)
        np.minimum(bins, m - 1, out=bins)
        ci = ws.get(f"sc.ci{axis}", (k, n), INT)
        np.copyto(ci, bins, casting="unsafe")
        return ci, ov

    def _prepare_windows(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        tag: str = "",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The smoothed cell–bin incidence ``(idx, wgt)`` (arena-backed).

        Both arrays are pass-major ``(kx·ky, n)``: row ``dx·ky + dy``
        holds, per cell, the flat index of bin ``(ix0 + dx, iy0 + dy)``
        and its weight ``ovx·ovy·scale``.  Entries off the grid have
        weight 0 and an index clamped onto the grid.  ``tag`` namespaces
        the two arrays; everything else is scratch.
        """
        ws = self.workspace
        grid = self.grid
        m = grid.m
        n = x.shape[0]
        we, he, scale = self._smoothed_boxes(w, h)
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

        # Window sizes derived from the largest cell this call sees.
        kx = int(np.ceil(we.max() / bw)) + 1
        ky = int(np.ceil(he.max() / bh)) + 1
        cix, ovx = self._axis_overlaps("x", xl, xh, kx, bw)
        ciy, ovy = self._axis_overlaps("y", yl, yh, ky, bh)

        wgt = ws.get(f"sc.wgt{tag}", (kx * ky, n))
        np.multiply(ovx[:, None, :], ovy[None, :, :],
                    out=wgt.reshape(kx, ky, n))
        np.multiply(wgt, scale, out=wgt)
        idx = ws.get(f"sc.idx{tag}", (kx * ky, n), INT)
        np.multiply(cix, m, out=cix)
        np.add(cix[:, None, :], ciy[None, :, :], out=idx.reshape(kx, ky, n))
        return idx, wgt

    def prepare_windows(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        tag: str = "",
    ):
        """Build the cell–bin incidence of one cell population.

        A scatter and its adjoint gathers over the *same* positions and
        sizes share one incidence; the density system builds it once per
        population per iteration and passes the handle to
        :meth:`scatter` / :meth:`gather_pair` via ``windows=``.

        The handle references arena buffers: it is only valid until the
        next ``prepare_windows`` call with the same ``tag`` for a
        same-shaped population (give concurrently live handles distinct
        tags).
        Returns ``None`` (callers fall back to a self-built incidence)
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
        these exact cells.
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

        idx, wgt = windows
        profiled("density_scatter")
        # Work metric, not launches: cell–bin entries scattered (operator
        # extraction saves duplicated entries over the same cells).
        get_profiler().add_entries("density_scatter_cells", idx.size)
        # Pass-major order adds each bin's addends in the same order as
        # one np.add.at per window offset would; the zero-weight
        # off-grid entries add exact zeros.
        if density is None:
            return np.bincount(
                idx.reshape(-1), wgt.reshape(-1), minlength=grid.m * grid.m
            ).reshape(grid.shape)
        # Pre-populated destination (caller out= or large-cell raster):
        # accumulate into it; adding a separately summed map instead
        # would regroup the floating-point additions.
        flat = density.reshape(-1)  # a copy unless C-contiguous
        np.add.at(flat, idx.reshape(-1), wgt.reshape(-1))
        if not np.shares_memory(flat, density):
            density[...] = flat.reshape(density.shape)
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
            return self._gather((field,), x, y, w, h, windows)[0]

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
        """Gather two per-bin fields over one shared incidence.

        The x- and y-axis force gathers in the density system use
        identical cell geometry — only the field differs — so one
        incidence serves both.  Each per-cell result is bit-identical to
        the corresponding single :meth:`gather` call (the same
        take-multiply-sum per field).  ``windows`` is an optional
        :meth:`prepare_windows` handle for these exact cells.
        """
        with timed("density_gather"):
            return self._gather((field_a, field_b), x, y, w, h, windows)

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
        fields: Tuple[np.ndarray, ...],
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        windows=None,
    ) -> Tuple[np.ndarray, ...]:
        if x.size == 0:
            return tuple(np.zeros(x.shape, dtype=FLOAT) for _ in fields)
        if windows is None:
            small, large = self._partition_large(w, h)
            if large.any():
                ov_x, ov_y = self._large_overlaps(
                    x[large], y[large], w[large], h[large]
                )
                parts = None
                if small.any():
                    parts = self._gather(fields, x[small], y[small],
                                         w[small], h[small])
                results = []
                for i, field in enumerate(fields):
                    result = np.zeros(x.shape, dtype=FLOAT)
                    result[large] = np.einsum("im,in,mn->i", ov_x, ov_y,
                                              field)
                    if parts is not None:
                        result[small] = parts[i]
                    results.append(result)
                return tuple(results)
            windows = self._prepare_windows(x, y, w, h)

        idx, wgt = windows
        profiled("density_gather", len(fields))
        vals = self.workspace.get("sc.fv", idx.shape)
        results = []
        for field in fields:
            flat = np.ascontiguousarray(field).reshape(-1)
            # Every index is on the grid: "clip" skips take's buffering.
            np.take(flat, idx, out=vals, mode="clip")
            np.multiply(vals, wgt, out=vals)
            results.append(vals.sum(axis=0))
        return tuple(results)


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
