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
one at a time.  Local reordering scores each window in scalar Python
against its nets' other-pin boxes; swap and ISM score all of a
decision's candidates in one batched gather + segment reduction.  Both
make the same decisions as scoring the candidates one by one; global
swap plans a batch of cells against one snapshot and replays the
decisions in order.
"""

from repro.detail.rows import PlacementRows
from repro.detail.engine import DetailedPlacer, DetailedPlacementResult

__all__ = ["PlacementRows", "DetailedPlacer", "DetailedPlacementResult"]
