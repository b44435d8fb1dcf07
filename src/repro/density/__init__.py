"""Electrostatic density system (ePlace model, Eq. 5–10).

Cell area is rasterised onto an M×M bin grid (Eq. 8), whitespace is
balanced by filler cells (Eq. 9–10), the resulting charge distribution is
fed to a spectral Poisson solver with Neumann boundaries (Eq. 5), and the
returned electric field yields per-cell density gradients.  The overflow
ratio (Eq. 7) measures spreading progress.

:class:`DensitySystem` wires these together and implements the paper's
*operator extraction* (Section 3.1.2): the movable density map D is
computed once and shared between the overflow operator and the solver
input D̃ = D + D_fl.  With ``fence_groups=True`` on a fenced netlist the
same system solves one field per cell group (DREAMPlace 3.0
multi-electrostatics); the plain system is its one-group case.
"""

from repro.density.bins import BinGrid
from repro.density.scatter import DensityScatter, rasterize_exact
from repro.density.fillers import FillerCells
from repro.density.electrostatics import ElectrostaticSolver
from repro.density.overflow import overflow_ratio
from repro.density.system import DensitySystem

__all__ = [
    "BinGrid",
    "DensityScatter",
    "rasterize_exact",
    "FillerCells",
    "ElectrostaticSolver",
    "overflow_ratio",
    "DensitySystem",
]
