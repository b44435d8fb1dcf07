"""Detailed placement: legal-to-legal HPWL refinement.

Implements the operator set of ABCDPlace (the paper's ISPD-2015 DP
engine) in simplified sequential form:

* **local reordering** — exhaustive permutation of small windows of
  consecutive cells in a row;
* **global swap** — pairwise swap of a cell with a cell near its optimal
  region;
* **independent-set matching** — optimal re-assignment of batches of
  mutually net-disjoint, same-width cells via bipartite matching.

:class:`DetailedPlacer` runs passes of these operators until HPWL stops
improving; it both requires and preserves legality.  Moves are applied
one at a time, cell by cell.  Local reordering and global swap score in
scalar Python against each net's box over the pins of other cells,
folding in only the moved cells' own pins; ISM scores a batch's cost
matrix in one batched gather + segment reduction.  All three make the
same decisions as scoring the candidates one by one.
"""

from repro.detail.rows import PlacementRows
from repro.detail.engine import DetailedPlacer, DetailedPlacementResult

__all__ = ["PlacementRows", "DetailedPlacer", "DetailedPlacementResult"]
