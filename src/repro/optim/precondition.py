"""Jacobi preconditioner H̃ = H_W + λ·H_D and the stage indicator ω.

H_W = diag(|S_1| … |S_N|) counts nets per cell; H_D = diag(A_1 … A_N)
holds cell areas (Section 3.2).  Dividing the gradient by
max(H_W + λ·H_D, 1) removes the systematic advantage high-degree/large
cells would otherwise have in step length.

The *precondition weighted ratio*

    ω = λ·|H_D| / (|H_W| + λ·|H_D|)  ∈ [0, 1]

(|·| = ℓ1 norm of the diagonal over movable cells) measures which term
dominates the optimization: ω < 0.05 wirelength-dominated, 0.05→0.95
spreading, > 0.95 final convergence.  The scheduler and the NN blending
function σ(ω) both key off it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from repro.dtypes import FLOAT

from repro.density.fillers import FillerCells
from repro.netlist import Netlist
from repro.ops import profiled
from repro.perf.workspace import Workspace


class Preconditioner:
    """Preconditions concatenated [movable cells; fillers] gradients.

    The denominator scratch lives in a private arena unless
    :meth:`attach_workspace` shares another one.
    """

    def __init__(self, netlist: Netlist, fillers: FillerCells) -> None:
        self.workspace = Workspace()
        movable = netlist.movable_index
        self._hw = np.concatenate(
            [
                netlist.cell_num_nets[movable].astype(FLOAT),
                np.zeros(fillers.count, dtype=FLOAT),  # fillers touch no nets
            ]
        )
        filler_area = np.asarray(fillers.w) * np.asarray(fillers.h)
        self._hd = np.concatenate([netlist.cell_area[movable], filler_area])
        self._num_movable = len(movable)
        # ω uses movable (real) cells only, per the paper's definition.
        self._hw_norm = float(np.sum(np.abs(self._hw[: self._num_movable])))
        self._hd_norm = float(np.sum(np.abs(self._hd[: self._num_movable])))

    def attach_workspace(self, workspace: Workspace) -> None:
        """Keep the denominator scratch in ``workspace`` from now on."""
        self.workspace = workspace

    # ------------------------------------------------------------------
    def apply(
        self, grad_x: np.ndarray, grad_y: np.ndarray, lam: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return H̃⁻¹·grad for both axes (clamped denominator ≥ 1).

        The returned arrays are always freshly allocated — the Nesterov
        optimizer retains them across iterations as its previous-gradient
        state, so they must never alias arena buffers.  Only the
        denominator scratch is recycled.
        """
        profiled("precondition", 2)
        denom = self.workspace.get("pre.denom", self._hw.shape)
        np.multiply(self._hd, lam, out=denom)
        np.add(denom, self._hw, out=denom)
        np.maximum(denom, 1.0, out=denom)
        return grad_x / denom, grad_y / denom

    def omega(self, lam: float) -> float:
        """Stage indicator ω(λ) ∈ [0, 1]."""
        weighted = lam * self._hd_norm
        total = self._hw_norm + weighted
        if total <= 0:
            return 0.0
        return weighted / total

    def lambda_for_omega(self, omega: float) -> float:
        """Inverse of :meth:`omega` (useful for tests and schedules)."""
        if not 0 <= omega < 1:
            raise ValueError("omega must be in [0, 1)")
        if self._hd_norm == 0:
            return 0.0
        return omega * self._hw_norm / ((1.0 - omega) * self._hd_norm)
