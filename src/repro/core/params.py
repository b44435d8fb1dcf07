"""Global placement parameters (defaults follow ePlace/DREAMPlace)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class PlacementParams:
    """Every knob of the GP engine, grouped by subsystem.

    Scheduling constants implement ePlace's published schedules:
    γ(OVFL) = γ₀·bin·10^(k·OVFL + b) shrinks the WA smoothing as cells
    spread; λ is multiplied each round by μ = μ₀^(1 − ΔHPWL/ΔHPWL_ref)
    clamped to [μ_min, μ_max].

    The four operator-level switches (``combined_wirelength``,
    ``density_extraction``, ``operator_skipping``, plus the baseline's
    autograd mode) and ``stage_aware_schedule`` are the paper's ablation
    axes (Tables 2–3).
    """

    # Density model
    target_density: float = 0.9
    grid_m: int = 0                    # 0 → auto from netlist size
    use_fillers: bool = True

    # Wirelength model
    gamma0: float = 8.0                # γ coefficient, in bin widths
    gamma_k: float = 20.0 / 9.0        # γ exponent slope vs overflow
    gamma_b: float = -11.0 / 9.0       # γ exponent offset

    # Density weight λ schedule
    initial_lambda: Optional[float] = None   # None → auto-balance at iter 0
    mu0: float = 1.1
    mu_min: float = 0.75
    mu_max: float = 1.1
    delta_hpwl_ref: float = 3.5e5

    # Loop control
    max_iterations: int = 1000
    min_iterations: int = 20
    stop_overflow: float = 0.07
    optimizer: str = "nesterov"        # or "adam"
    adam_lr: float = 1.0

    # Operator-level optimizations (Section 3.1)
    operator_reduction: bool = True    # OR: closed-form grads, no autograd
    combined_wirelength: bool = True   # OC
    density_extraction: bool = True    # OE
    operator_skipping: bool = True     # OS
    skip_ratio_threshold: float = 0.01
    skip_max_iteration: int = 100
    skip_period: int = 20

    # Placement-stage-aware scheduling (Section 3.2 / Algorithm 1)
    stage_aware_schedule: bool = True
    omega_slow_low: float = 0.5
    omega_slow_high: float = 0.95
    slow_update_period: int = 3

    # Fence handling: "projection" (constraint projection after every
    # step) or "multi" (DREAMPlace-3.0-style multi-electrostatics, one
    # field per cell group, plus projection as a safety clamp).
    fence_mode: str = "projection"

    # Neural guidance (Section 3.3); the placer wires the model in.
    neural_guidance: bool = False
    # Ceiling on the σ(ω) blend weight: the NN field is a global guide
    # for the early stage, not a replacement for the numerical field —
    # letting σ → 1 makes the spreading phase stall on NN error.
    neural_sigma_max: float = 0.5

    # Checkpoint/rollback recovery (repro.recovery).  ``checkpoint_every``
    # is the master switch: 0 disables recovery entirely; N > 0 snapshots
    # the loop state every N iterations and arms the divergence monitor.
    # The runtime also arms recovery when it supplies a spill directory
    # (``repro batch --resume``), defaulting the cadence if unset.
    checkpoint_every: int = 0
    checkpoint_keep: int = 4           # ring-buffer capacity
    rollback_budget: int = 3           # rollbacks before degrading
    rollback_step_cut: float = 0.5     # step-length factor per rollback
    rollback_perturb: float = 0.25     # movable-cell jitter, in bin sizes
    divergence_hpwl_factor: float = 50.0   # trip at k x best-seen HPWL
    divergence_plateau_window: int = 0     # 0 → plateau check off

    # Misc
    seed: int = 0
    verbose: bool = False

    @property
    def recovery_enabled(self) -> bool:
        """Whether the GP loop should checkpoint and self-heal."""
        return self.checkpoint_every > 0

    def __post_init__(self) -> None:
        if not 0 < self.target_density <= 1:
            raise ValueError("target_density must be in (0, 1]")
        if self.stop_overflow <= 0:
            raise ValueError("stop_overflow must be positive")
        if self.max_iterations < self.min_iterations:
            raise ValueError("max_iterations < min_iterations")
        if self.optimizer not in ("nesterov", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.slow_update_period < 1:
            raise ValueError("slow_update_period must be >= 1")
        if self.fence_mode not in ("projection", "multi"):
            raise ValueError(f"unknown fence_mode {self.fence_mode!r}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables)")
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")
        if self.rollback_budget < 0:
            raise ValueError("rollback_budget must be >= 0")
        if not 0.0 < self.rollback_step_cut <= 1.0:
            raise ValueError("rollback_step_cut must be in (0, 1]")
        if self.rollback_perturb < 0.0:
            raise ValueError("rollback_perturb must be >= 0")
        if self.divergence_hpwl_factor <= 1.0:
            raise ValueError("divergence_hpwl_factor must be > 1")
        if self.divergence_plateau_window < 0:
            raise ValueError("divergence_plateau_window must be >= 0")

    def gamma(self, overflow: float, bin_size: float) -> float:
        """WA smoothing parameter for the current overflow level."""
        exponent = self.gamma_k * min(max(overflow, 0.0), 1.0) + self.gamma_b
        return self.gamma0 * bin_size * 10.0**exponent
