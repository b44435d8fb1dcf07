"""repro.faults — deterministic fault injection for chaos testing.

Recovery code that is only exercised by real outages is recovery code
that does not work.  This package injects the failure modes the
:mod:`repro.recovery`, :mod:`repro.runtime` and :mod:`repro.service`
layers claim to survive — NaN gradients mid-loop, worker crashes (mid-run
or at pickup), hung workers, slow I/O, shm unlinks, corrupted cache
entries and journals — at *pinned, reproducible* points, so CI can
assert "a NaN at 80% progress recovers to within 5% of the fault-free
HPWL" as a regression test rather than folklore.

See :mod:`repro.faults.plan` for the fault vocabulary and the one
:class:`FaultPlan` that batch manifests and the ``repro chaos`` soak
share, and :mod:`repro.faults.inject` for how worker faults are
delivered.
"""

from repro.faults.inject import (
    FaultCallback,
    InjectedFault,
    corrupt_cache_entry,
    crash_on_attach,
    loop_fault_callback,
)
from repro.faults.plan import (
    FAULT_KINDS,
    LOOP_KINDS,
    SOAK_KINDS,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "FAULT_KINDS",
    "LOOP_KINDS",
    "SOAK_KINDS",
    "FaultCallback",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "corrupt_cache_entry",
    "crash_on_attach",
    "loop_fault_callback",
]
