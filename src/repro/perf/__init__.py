"""Performance layer: the workspace buffer arena and the bench harness.

``Workspace`` (:mod:`repro.perf.workspace`) is the preallocated scratch
arena the gradient engine threads through the hot operators;
:mod:`repro.perf.bench` is the ``repro bench`` harness that times those
operators on sized synthetic designs and gates regressions against a
saved report.
"""

from repro.perf.workspace import Workspace

__all__ = ["Workspace"]
