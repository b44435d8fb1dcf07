"""Performance layer: the workspace buffer arena.

``Workspace`` (:mod:`repro.perf.workspace`) is the preallocated scratch
arena the gradient engine threads through the hot operators.  The
operators are timed by the layered benchmark (``bench/run.py``, compared
with ``bench/compare.py``), not from here.
"""

from repro.perf.workspace import Workspace

__all__ = ["Workspace"]
