"""Spectral Poisson solver for the electrostatic system (Eq. 5).

The density model treats cells as positive charge; the potential ψ solves
∇·∇ψ = -ρ with zero-flux (Neumann) boundaries and zero-mean ρ and ψ.  On
a uniform M×M grid the Neumann eigenbasis is the product cosine basis

    cos(w_u (x + ½)π-scaled) · cos(w_v (y + ½)),   w_u = πu / W,

so the solve is: DCT-II of ρ → divide by (w_u² + w_v²) → mixed inverse
sine/cosine transforms for the field E = -∇ψ (the IDSCT/IDCST pair of
ePlace).  The energy Σρψ follows from the coefficients by Parseval; the
inverse DCT for ψ itself runs only when a caller reads it.  Everything
runs through ``scipy.fft``; the sine-series evaluation helpers are
validated against a brute-force spectral sum in tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import fft as sfft

from repro.density.bins import BinGrid
from repro.dtypes import FLOAT
from repro.ops import profiled, timed
from repro.perf.workspace import Workspace


def _eval_cos(coef: np.ndarray, axis: int) -> np.ndarray:
    """Evaluate f_i = Σ_u coef_u cos(πu(2i+1)/2M) along ``axis``.

    scipy's DCT-III gives y_k = x_0 + 2 Σ_{n≥1} x_n cos(πn(2k+1)/2N), so
    the plain cosine series is (y + x_0) / 2, finalised in place on the
    freshly allocated transform output.
    """
    y = sfft.dct(coef, type=3, axis=axis, norm=None)
    lead = np.take(coef, [0], axis=axis)
    np.add(y, lead, out=y)
    np.multiply(y, 0.5, out=y)
    return y


def _eval_sin(coef: np.ndarray, axis: int, scratch: np.ndarray) -> np.ndarray:
    """Evaluate f_i = Σ_u coef_u sin(πu(2i+1)/2M) along ``axis``.

    The u=0 term vanishes; shifting coefficients down by one aligns the
    rest with scipy's DST-III: y_k = (-1)^k x_{N-1} + 2 Σ_{n<N-1} x_n
    sin(π(n+1)(2k+1)/2N).  With x_{N-1} = 0 the series is y / 2.

    ``scratch`` is a buffer shaped like ``coef`` that receives the
    shifted coefficients (zero-filled here first).
    """
    shifted = scratch
    shifted.fill(0.0)
    src = [slice(None)] * coef.ndim
    dst = [slice(None)] * coef.ndim
    src[axis] = slice(1, None)
    dst[axis] = slice(0, coef.shape[axis] - 1)
    shifted[tuple(dst)] = coef[tuple(src)]
    y = sfft.dst(shifted, type=3, axis=axis, norm=None)
    np.multiply(y, 0.5, out=y)
    return y


class FieldSolution:
    """Potential and field maps on the bin grid (axis 0 = x, axis 1 = y).

    Placement only consumes the field and the energy, so a solve hands
    over the potential's spectral coefficients ``phi`` instead and the
    potential is transformed from them on first access.
    """

    def __init__(
        self,
        field_x: np.ndarray,
        field_y: np.ndarray,
        energy: float,
        phi: Optional[np.ndarray] = None,
        potential: Optional[np.ndarray] = None,
    ) -> None:
        self.field_x = field_x
        self.field_y = field_y
        self.energy = energy
        self._phi = phi
        self._potential = potential

    @property
    def potential(self) -> np.ndarray:
        if self._potential is None:
            profiled("idct_potential")
            self._potential = sfft.idctn(self._phi, type=2, norm="ortho")
        return self._potential


class ElectrostaticSolver:
    """DCT-based solver mapping a density map to potential and field.

    The scipy transforms always allocate their outputs, so the returned
    field maps and potential coefficients are safe to retain.  The
    spectral intermediates — shifted ρ, scaled coefficient maps, the DST
    shift scratch — live in reused ``es.*`` buffers of the solver's
    arena (private unless :meth:`attach_workspace` shares another one).
    """

    def __init__(self, grid: BinGrid) -> None:
        self.grid = grid
        self.workspace = Workspace()
        m = grid.m
        # Angular frequencies in physical units: w_u = π u / extent.
        self._wu = np.pi * np.arange(m, dtype=FLOAT) / grid.region.width
        self._wv = np.pi * np.arange(m, dtype=FLOAT) / grid.region.height
        wu2 = self._wu[:, None] ** 2
        wv2 = self._wv[None, :] ** 2
        denom = wu2 + wv2
        denom[0, 0] = 1.0  # the DC mode is projected out, value irrelevant
        self._inv_denom = 1.0 / denom
        # Orthonormal DCT-II scale factors per axis.
        beta = np.full(m, np.sqrt(2.0 / m), dtype=FLOAT)
        beta[0] = np.sqrt(1.0 / m)
        self._beta2d = beta[:, None] * beta[None, :]

    def attach_workspace(self, workspace: Workspace) -> None:
        """Run the solver on ``workspace`` from now on."""
        self.workspace = workspace

    # ------------------------------------------------------------------
    def solve(self, density: np.ndarray) -> FieldSolution:
        """Solve Eq. 5 for a dimensionless density map (shape (m, m)).

        The mean of ``density`` is removed first (Neumann compatibility /
        the ∬ρ = 0 condition); ψ is returned zero-mean as well.
        """
        grid = self.grid
        if density.shape != grid.shape:
            raise ValueError(f"density shape {density.shape} != grid {grid.shape}")
        with timed("field_solve"):
            ws = self.workspace
            shape = grid.shape
            profiled("dct_forward")
            rho = ws.get("es.rho", shape)
            np.subtract(density, density.mean(), out=rho)
            coef = sfft.dctn(rho, type=2, norm="ortho")
            # phi is retained by the solution (lazy potential): fresh.
            phi = np.multiply(coef, self._inv_denom)
            phi[0, 0] = 0.0

            # Field: E = -∇ψ;  ψ = Σ φ_uv β_u β_v cos(w_u x) cos(w_v y)
            #   E_x = Σ φ_uv β_u β_v w_u sin(w_u x) cos(w_v y)   (IDSCT)
            #   E_y = Σ φ_uv β_u β_v w_v cos(w_u x) sin(w_v y)   (IDCST)
            profiled("idsct_field", 2)
            c = ws.get("es.c", shape)
            np.multiply(phi, self._beta2d, out=c)
            cw = ws.get("es.cw", shape)
            shift = ws.get("es.shift", shape)
            np.multiply(c, self._wu[:, None], out=cw)
            field_x = _eval_sin(cw, axis=0, scratch=shift)
            field_x = _eval_cos(field_x, axis=1)
            np.multiply(c, self._wv[None, :], out=cw)
            field_y = _eval_cos(cw, axis=0)
            field_y = _eval_sin(field_y, axis=1, scratch=shift)

            # Parseval (orthonormal DCT): Σ ρ·ψ = Σ coef·φ, so the
            # energy needs no inverse transform of the potential.
            np.multiply(coef, phi, out=coef)
            energy = float(np.sum(coef) * grid.bin_area)
            return FieldSolution(field_x, field_y, energy, phi=phi)

    # ------------------------------------------------------------------
    def solve_reference(self, density: np.ndarray) -> FieldSolution:
        """O(M⁴) brute-force spectral sum — the test oracle for solve()."""
        grid = self.grid
        m = grid.m
        rho = density - density.mean()
        coef = sfft.dctn(rho, type=2, norm="ortho")
        phi = coef * self._inv_denom
        phi[0, 0] = 0.0
        beta = np.full(m, np.sqrt(2.0 / m), dtype=FLOAT)
        beta[0] = np.sqrt(1.0 / m)
        xs = (np.arange(m, dtype=FLOAT) + 0.5) * np.pi / m  # w_u x in grid angle units
        cos_u = np.cos(np.outer(np.arange(m, dtype=FLOAT), xs))  # [u, i]
        sin_u = np.sin(np.outer(np.arange(m, dtype=FLOAT), xs))
        c = phi * beta[:, None] * beta[None, :]
        potential = np.einsum("uv,ui,vj->ij", c, cos_u, cos_u)
        field_x = np.einsum("uv,ui,vj->ij", c * self._wu[:, None], sin_u, cos_u)
        field_y = np.einsum("uv,ui,vj->ij", c * self._wv[None, :], cos_u, sin_u)
        energy = float(np.sum(rho * potential) * grid.bin_area)
        return FieldSolution(field_x, field_y, energy, potential=potential)
