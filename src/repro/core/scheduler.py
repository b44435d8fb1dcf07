"""Parameter scheduling and stopping (Scheduler block of Figure 1).

Implements the ePlace γ/λ schedules plus the paper's contribution,
placement-stage-aware scheduling (Algorithm 1): in the intermediate
stage 0.5 < ω < 0.95 the parameter update slows down to once every
``slow_update_period`` iterations, letting the optimizer exploit each
penalty level before the weights move again.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.core.params import PlacementParams

#: Ceiling on λ.  While overflow is above ``stop_overflow`` and HPWL
#: does not grow, every update multiplies λ by up to ``mu_max``; a run
#: whose overflow stalls above an unreachable target would overflow
#: float64 after a few thousand iterations and end in a numerical fault
#: instead of at ``max_iterations``.  Converging runs stop with λ
#: below 1 on the suite designs.
LAMBDA_MAX = 1e30


class Scheduler:
    """Owns γ, λ and the stop decision for one GP run."""

    def __init__(self, params: PlacementParams, bin_size: float) -> None:
        self.params = params
        self.bin_size = float(bin_size)
        self.gamma = params.gamma(1.0, self.bin_size)
        self.lam: Optional[float] = params.initial_lambda
        self._prev_hpwl: Optional[float] = None
        self._iterations_since_update = 0

    # ------------------------------------------------------------------
    def initialize_lambda(self, wl_grad_norm: float, density_grad_norm: float) -> float:
        """Auto-balance λ₀ so the initial density force is a small fraction
        of the wirelength force (ePlace's gradient-norm balancing)."""
        if self.lam is None:
            if density_grad_norm <= 1e-20:
                self.lam = 1e-6
            else:
                # Start with the density force at 1e-3 of the wirelength
                # force: small enough that r = λ‖∇D‖/‖∇WL‖ < 0.01 early
                # (the skipping premise of §3.1.4), large enough that λ's
                # geometric ramp carries ω across the full [0, 1] range.
                self.lam = float(wl_grad_norm / density_grad_norm) * 1e-3
        return self.lam

    # ------------------------------------------------------------------
    def should_update_params(self, omega: float) -> bool:
        """Algorithm 1: slow the update cadence mid-flight."""
        params = self.params
        self._iterations_since_update += 1
        if (
            params.stage_aware_schedule
            and params.omega_slow_low < omega < params.omega_slow_high
        ):
            if self._iterations_since_update < params.slow_update_period:
                return False
        self._iterations_since_update = 0
        return True

    def update(self, overflow: float, hpwl: float) -> None:
        """Advance γ (from overflow) and λ (from HPWL progress)."""
        params = self.params
        self.gamma = params.gamma(overflow, self.bin_size)
        if self.lam is None:
            raise RuntimeError("initialize_lambda() must run before update()")
        if self._prev_hpwl is None:
            mu = params.mu_max
        else:
            delta = hpwl - self._prev_hpwl
            mu = params.mu0 ** (1.0 - delta / params.delta_hpwl_ref)
            mu = float(np.clip(mu, params.mu_min, params.mu_max))
        self.lam = min(self.lam * mu, LAMBDA_MAX)
        self._prev_hpwl = hpwl

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable snapshot of the γ/λ schedule state."""
        return {
            "gamma": float(self.gamma),
            "lam": None if self.lam is None else float(self.lam),
            "prev_hpwl": self._prev_hpwl,
            "iterations_since_update": int(self._iterations_since_update),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (bit-exact restore)."""
        self.gamma = float(state["gamma"])
        lam = state["lam"]
        self.lam = None if lam is None else float(lam)
        prev = state["prev_hpwl"]
        self._prev_hpwl = None if prev is None else float(prev)
        self._iterations_since_update = int(state["iterations_since_update"])

    # ------------------------------------------------------------------
    def should_stop(self, iteration: int, overflow: float) -> bool:
        params = self.params
        if iteration + 1 >= params.max_iterations:
            return True
        if iteration + 1 < params.min_iterations:
            return False
        return overflow < params.stop_overflow
