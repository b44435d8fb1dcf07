"""Training data for the field-prediction network.

Per the paper, no real benchmark data is needed: density maps are
generated synthetically and labelled by the numerical solver.  Two
generators are provided:

* :func:`random_density_dataset` — random Gaussian-blob / uniform-noise
  charge distributions (fast, diverse);
* :func:`placement_push_dataset` — the paper's exact recipe: standard
  cells start at random positions and are pushed for ~100 iterations by
  the density objective alone; every iteration's density map and field
  become a sample.

All samples live on the unit square, so one trained model serves any
(square) die: physical fields are recovered by scaling with the die
extent (see :mod:`repro.nn.guidance`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.density import BinGrid, ElectrostaticSolver
from repro.netlist import PlacementRegion


@dataclass(frozen=True)
class FieldSample:
    """One training sample: density map and its x/y field maps.

    Samples are stored *normalized*: the density map has zero mean and
    unit standard deviation, and the fields are divided by the same
    standard deviation.  Because the PDE (Eq. 5) is linear and the solver
    removes the mean anyway, this loses no information while making the
    model scale-equivariant — essential because early-GP density maps
    have peaks two orders of magnitude above spread-out ones.
    """

    density: np.ndarray
    field_x: np.ndarray
    field_y: np.ndarray


def normalize_sample(
    density: np.ndarray, field_x: np.ndarray, field_y: np.ndarray
) -> FieldSample:
    """Produce the normalized :class:`FieldSample` for raw solver data."""
    scale = max(float(density.std()), 1e-12)
    return FieldSample(
        (density - density.mean()) / scale, field_x / scale, field_y / scale
    )


def _unit_solver(m: int) -> ElectrostaticSolver:
    grid = BinGrid(PlacementRegion(0.0, 0.0, 1.0, 1.0), m)
    return ElectrostaticSolver(grid)


def random_density_dataset(
    count: int,
    m: int = 32,
    rng: np.random.Generator = None,
) -> List[FieldSample]:
    """Random multi-blob density maps with numerical field labels."""
    rng = rng or np.random.default_rng(0)
    solver = _unit_solver(m)
    xs, ys = np.meshgrid(np.arange(m) + 0.5, np.arange(m) + 0.5, indexing="ij")
    samples: List[FieldSample] = []
    for index in range(count):
        density = np.zeros((m, m))
        # Alternate diffuse multi-blob maps with sharply concentrated
        # single-peak maps (the early-GP regime: everything in one pile).
        concentrated = index % 3 == 2
        blobs = 1 if concentrated else int(rng.integers(2, 8))
        for __ in range(blobs):
            cx, cy = rng.uniform(0, m, 2)
            if concentrated:
                sx, sy = rng.uniform(m / 40, m / 12, 2)
                amp = rng.uniform(5.0, 50.0)
            else:
                sx, sy = rng.uniform(m / 16, m / 3, 2)
                amp = rng.uniform(0.3, 1.5)
            density += amp * np.exp(
                -((xs - cx) ** 2) / (2 * sx**2) - ((ys - cy) ** 2) / (2 * sy**2)
            )
        density += rng.uniform(0, 0.1, (m, m))
        sol = solver.solve(density)
        samples.append(normalize_sample(density, sol.field_x, sol.field_y))
    return samples


def placement_push_dataset(
    num_cells: int = 400,
    m: int = 32,
    iterations: int = 100,
    record_every: int = 5,
    rng: np.random.Generator = None,
) -> List[FieldSample]:
    """The paper's training recipe: density-only pushing of random cells.

    Random unit-square "cells" start clustered and are pushed along the
    field (pure density objective, no wirelength) for ``iterations``
    steps; sampled iterations yield (density, field) pairs spanning the
    whole clustered → spread trajectory the placer will encounter.
    """
    rng = rng or np.random.default_rng(1)
    solver = _unit_solver(m)
    grid = solver.grid
    from repro.density import DensityScatter

    scatter = DensityScatter(grid)
    n = num_cells
    # Start clustered in a random sub-window (like a GP start).
    center = rng.uniform(0.3, 0.7, 2)
    x = np.clip(rng.normal(center[0], 0.08, n), 0.02, 0.98)
    y = np.clip(rng.normal(center[1], 0.08, n), 0.02, 0.98)
    w = np.full(n, np.sqrt(0.5 / n))
    h = np.full(n, np.sqrt(0.5 / n))

    samples: List[FieldSample] = []
    step = 0.02
    for iteration in range(iterations):
        density = scatter.scatter(x, y, w, h) / grid.bin_area
        sol = solver.solve(density)
        if iteration % record_every == 0:
            samples.append(normalize_sample(density, sol.field_x, sol.field_y))
        fx, fy = scatter.gather_pair(sol.field_x, sol.field_y, x, y, w, h)
        norm = max(np.abs(fx).max(), np.abs(fy).max(), 1e-12)
        x = np.clip(x + step * fx / norm, 0.01, 0.99)
        y = np.clip(y + step * fy / norm, 0.01, 0.99)
    return samples
