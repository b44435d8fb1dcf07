"""The gradient engine (Figure 1): positions + parameters → cell gradient.

Computes the wirelength gradient through the fused WA operator, the
density gradient through the extracted density system (with early-stage
skipping), optionally blends in a neural field prediction (Eq. 14), and
preconditions the combined gradient.

``compute`` produces the raw components so λ can be initialised from the
first iteration's gradient norms; ``assemble`` folds the components into
the final preconditioned descent direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.analysis.sanitizer import active as _sanitizer_active
from repro.core.params import PlacementParams
from repro.density import DensitySystem
from repro.netlist import Netlist
from repro.ops import DensitySkipController, profiled
from repro.optim import Preconditioner
from repro.perf.workspace import Workspace
from repro.wirelength import WirelengthOp

# predictor(total_density_map) -> (field_x_map, field_y_map)
FieldPredictor = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def sigma_of_omega(omega: float) -> float:
    """Neural blending weight σ(ω) of Eq. 14.

    Implemented as the decaying logistic σ(ω) = 1 − 1/(1 + 5·e^{−(ω/0.05 − 0.5)})
    (the sign inside the printed formula is corrected so that σ ≈ 0.9 in
    the wirelength-dominated stage and decays to 0 as spreading starts,
    matching the paper's description of ∇_nn dominating early).
    """
    return 1.0 - 1.0 / (1.0 + 5.0 * np.exp(-(omega / 0.05 - 0.5)))


@dataclass
class GradientResult:
    """Raw gradient components of one iteration (pre-λ, pre-precondition).

    All arrays cover the optimizer layout: ``[movable cells; fillers]``.
    """

    wl_grad_x: np.ndarray
    wl_grad_y: np.ndarray
    density_grad_x: np.ndarray
    density_grad_y: np.ndarray
    wa: float
    hpwl: float
    overflow: float
    energy: float
    density_map: np.ndarray
    density_computed: bool
    wl_grad_norm: float
    density_grad_norm: float


class GradientEngine:
    """Stateful gradient computation for one netlist."""

    def __init__(
        self,
        netlist: Netlist,
        density: DensitySystem,
        params: PlacementParams,
        field_predictor: Optional[FieldPredictor] = None,
    ) -> None:
        self.netlist = netlist
        self.density = density
        self.params = params
        self.field_predictor = field_predictor
        # The one buffer arena (repro.perf) the engine's operators share.
        self.workspace = Workspace()
        if params.operator_reduction:
            self.wirelength = WirelengthOp(
                netlist, combined=params.combined_wirelength
            )
            self.wirelength.attach_workspace(self.workspace)
        else:
            # OR off: spell the objective as autograd ops and invoke the
            # tape every iteration (the configuration Table 3 starts from).
            from repro.wirelength.wa_autograd import AutogradWirelengthOp

            self.wirelength = AutogradWirelengthOp(netlist)
        self.skip = DensitySkipController(
            ratio_threshold=params.skip_ratio_threshold,
            max_iteration=params.skip_max_iteration,
            period=params.skip_period,
            enabled=params.operator_skipping,
        )
        density.attach_workspace(self.workspace)
        self.preconditioner = Preconditioner(netlist, density.fillers)
        self.preconditioner.attach_workspace(self.workspace)
        self._mov_idx = netlist.movable_index
        self._num_movable = len(self._mov_idx)
        self._num_fillers = density.fillers.count
        self._cache: Optional[GradientResult] = None
        self._init_x, self._init_y = netlist.initial_positions()

    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return self._num_movable + self._num_fillers

    def split(self, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split an optimizer vector into (movable, filler) views."""
        return pos[: self._num_movable], pos[self._num_movable :]

    def full_positions(
        self, pos_x: np.ndarray, pos_y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All-cell position arrays from the optimizer layout.

        The template copy lands in reused ``eng.*`` buffers (safe:
        consumers read them within the iteration and the density system
        re-gathers what it keeps).
        """
        ws = self.workspace
        x = ws.get("eng.full_x", self._init_x.shape)
        y = ws.get("eng.full_y", self._init_y.shape)
        np.copyto(x, self._init_x)
        np.copyto(y, self._init_y)
        x[self._mov_idx] = pos_x[: self._num_movable]
        y[self._mov_idx] = pos_y[: self._num_movable]
        return x, y

    # ------------------------------------------------------------------
    def compute(
        self,
        iteration: int,
        pos_x: np.ndarray,
        pos_y: np.ndarray,
        gamma: float,
        lam_for_skip: float,
    ) -> GradientResult:
        """Evaluate gradient components at the given optimizer positions.

        ``lam_for_skip`` is only used to judge the skip ratio r; the
        returned density gradient is unscaled.
        """
        mov_x, filler_x = self.split(pos_x)
        mov_y, filler_y = self.split(pos_y)
        x, y = self.full_positions(pos_x, pos_y)
        ws = self.workspace
        nm, nv = self._num_movable, self.num_variables

        wl = self.wirelength(x, y, gamma)
        # [movable; fillers] layout in reused eng.* buffers.  Safe to
        # recycle: the cached GradientResult's wirelength half is never
        # read on the skip path, and checkpoints copy what they keep.
        wl_grad_x = ws.get("eng.wl_gx", nv)
        wl_grad_y = ws.get("eng.wl_gy", nv)
        # ``mode="clip"``: the indices are in range, and the default
        # "raise" copies ``out=`` through a buffer.
        np.take(wl.grad_x, self._mov_idx, out=wl_grad_x[:nm], mode="clip")
        np.take(wl.grad_y, self._mov_idx, out=wl_grad_y[:nm], mode="clip")
        wl_grad_x[nm:] = 0.0
        wl_grad_y[nm:] = 0.0
        norm_cat = ws.get("eng.norm_cat", 2 * nv)
        norm_cat[:nv] = wl_grad_x
        norm_cat[nv:] = wl_grad_y
        wl_norm = float(np.linalg.norm(norm_cat))

        if self.skip.should_compute(iteration) or self._cache is None:
            dres = self.density.evaluate(x, y, filler_x, filler_y)
            # These buffers ARE the skip cache between density
            # recomputes — nothing else writes eng.d_g* until the next
            # computed iteration replaces their contents.
            density_grad_x = ws.get("eng.d_gx", nv)
            density_grad_y = ws.get("eng.d_gy", nv)
            np.take(dres.grad_x, self._mov_idx, out=density_grad_x[:nm],
                    mode="clip")
            np.take(dres.grad_y, self._mov_idx, out=density_grad_y[:nm],
                    mode="clip")
            density_grad_x[nm:] = dres.filler_grad_x
            density_grad_y[nm:] = dres.filler_grad_y
            overflow = dres.overflow
            energy = dres.energy
            density_map = dres.total_map
            density_computed = True
            self.skip.notify_computed(iteration)
        else:
            profiled("density_skip_reuse")
            cached = self._cache
            density_grad_x = cached.density_grad_x
            density_grad_y = cached.density_grad_y
            overflow = cached.overflow
            energy = cached.energy
            density_map = cached.density_map
            density_computed = False

        norm_cat = ws.get("eng.norm_cat", 2 * nv)
        norm_cat[:nv] = density_grad_x
        norm_cat[nv:] = density_grad_y
        density_norm = float(np.linalg.norm(norm_cat))
        result = GradientResult(
            wl_grad_x=wl_grad_x,
            wl_grad_y=wl_grad_y,
            density_grad_x=density_grad_x,
            density_grad_y=density_grad_y,
            wa=wl.wa,
            hpwl=wl.hpwl,
            overflow=overflow,
            energy=energy,
            density_map=density_map,
            density_computed=density_computed,
            wl_grad_norm=wl_norm,
            density_grad_norm=density_norm,
        )
        self._cache = result
        sanitizer = _sanitizer_active()
        if sanitizer is not None:
            self._sanitize(sanitizer, result, iteration)
        ratio = (
            lam_for_skip * density_norm / wl_norm if wl_norm > 1e-20 else float("inf")
        )
        self.skip.observe_ratio(ratio)
        return result

    @staticmethod
    def _sanitize(sanitizer, result: GradientResult, iteration: int) -> None:
        """Validate the closed-form gradient components (sanitize mode).

        Names the offending operator so a fault points at the kernel
        that produced it, not at the optimizer step that consumed it.
        """
        checks = (
            ("wirelength.wa", result.wa),
            ("wirelength.hpwl", result.hpwl),
            ("wirelength.grad_x", result.wl_grad_x),
            ("wirelength.grad_y", result.wl_grad_y),
            ("density.overflow", result.overflow),
            ("density.grad_x", result.density_grad_x),
            ("density.grad_y", result.density_grad_y),
        )
        for op, value in checks:
            sanitizer.check_array(
                op, value, stage="gradient-engine", iteration=iteration
            )

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable snapshot of the engine's cross-iteration state.

        Captures the skip controller's decision state and the *density*
        half of the cached :class:`GradientResult` — exactly the fields
        a skipped iteration reuses — so that a restored run makes the
        same skip/recompute decisions, on the same cached gradients, as
        an uninterrupted one.  Wirelength fields are recomputed every
        iteration and need no snapshot.  Flat layout (arrays + scalars
        only) so the checkpoint spill can split it across npz/json.
        """
        state: Dict[str, Any] = {"cached": self._cache is not None}
        for key, value in self.skip.state_dict().items():
            state[f"skip_{key}"] = value
        if self._cache is not None:
            cache = self._cache
            state["cache_density_grad_x"] = cache.density_grad_x.copy()
            state["cache_density_grad_y"] = cache.density_grad_y.copy()
            state["cache_density_map"] = cache.density_map.copy()
            state["cache_overflow"] = float(cache.overflow)
            state["cache_energy"] = float(cache.energy)
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (bit-exact restore).

        The rebuilt cache carries zeroed wirelength fields: the skip
        branch of :meth:`compute` only ever reads the density fields,
        and every other path recomputes before reading.
        """
        self.skip.load_state_dict(
            {
                "last_computed": state["skip_last_computed"],
                "last_ratio": state["skip_last_ratio"],
            }
        )
        if not state.get("cached"):
            self._cache = None
            return
        dgx = np.asarray(state["cache_density_grad_x"]).copy()
        dgy = np.asarray(state["cache_density_grad_y"]).copy()
        zeros = np.zeros_like(dgx)
        self._cache = GradientResult(
            wl_grad_x=zeros,
            wl_grad_y=zeros,
            density_grad_x=dgx,
            density_grad_y=dgy,
            wa=0.0,
            hpwl=0.0,
            overflow=float(state["cache_overflow"]),
            energy=float(state["cache_energy"]),
            density_map=np.asarray(state["cache_density_map"]).copy(),
            density_computed=False,
            wl_grad_norm=0.0,
            density_grad_norm=0.0,
        )

    # ------------------------------------------------------------------
    def assemble(
        self,
        result: GradientResult,
        pos_x: np.ndarray,
        pos_y: np.ndarray,
        lam: float,
        sigma: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Combine components into the preconditioned descent gradient.

        When ``sigma > 0`` and a field predictor is attached, the density
        gradient is blended with the neural prediction per Eq. 14:
        ∇'D = (1−σ)·∇D + σ·∇_nn D.
        """
        dgx, dgy = result.density_grad_x, result.density_grad_y
        if sigma > 0.0 and self.field_predictor is not None:
            nn_gx, nn_gy = self._neural_density_grad(result.density_map, pos_x, pos_y)
            profiled("nn_blend", 2)
            dgx = (1.0 - sigma) * dgx + sigma * nn_gx
            dgy = (1.0 - sigma) * dgy + sigma * nn_gy
        ws = self.workspace
        grad_x = ws.get("eng.asm_x", result.wl_grad_x.shape)
        grad_y = ws.get("eng.asm_y", result.wl_grad_y.shape)
        np.multiply(dgx, lam, out=grad_x)
        np.add(grad_x, result.wl_grad_x, out=grad_x)
        np.multiply(dgy, lam, out=grad_y)
        np.add(grad_y, result.wl_grad_y, out=grad_y)
        return self.preconditioner.apply(grad_x, grad_y, lam)

    def _neural_density_grad(
        self, density_map: np.ndarray, pos_x: np.ndarray, pos_y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-variable density gradient from the NN field prediction.

        The prediction is cached per density-map object: when the density
        operator was skipped this iteration (Section 3.1.4) the same map
        instance comes back and the forward pass is reused for free.
        """
        cached = getattr(self, "_nn_cache", None)
        if cached is not None and cached[0] is density_map:
            fx, fy = cached[1], cached[2]
        else:
            fx, fy = self.field_predictor(density_map)
            self._nn_cache = (density_map, fx, fy)
        scatter = self.density.scatter
        mov_x, filler_x = self.split(pos_x)
        mov_y, filler_y = self.split(pos_y)
        mov_w = self.netlist.cell_w[self._mov_idx]
        mov_h = self.netlist.cell_h[self._mov_idx]
        fillers = self.density.fillers
        mov_gx, mov_gy = scatter.gather_pair(fx, fy, mov_x, mov_y, mov_w,
                                             mov_h)
        fil_gx, fil_gy = scatter.gather_pair(fx, fy, filler_x, filler_y,
                                             fillers.w, fillers.h)
        gx = np.concatenate([-mov_gx, -fil_gx])
        gy = np.concatenate([-mov_gy, -fil_gy])
        return gx, gy
