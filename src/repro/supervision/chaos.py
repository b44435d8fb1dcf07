"""The deterministic service-chaos harness behind ``repro chaos``.

:func:`run_chaos` boots a real :class:`~repro.service.daemon.
PlacementService` (warm workers, journal, supervisor) against a seeded
:class:`~repro.faults.service.ServiceFaultPlan` and soaks it with a
batch of small placement jobs while the plan injects every service
failure class it scheduled — hung workers, mid-run crashes, slow
cache/journal I/O, shared-memory unlinks under readers, cache-entry
corruption, crash-on-attach loops and journal damage discovered at a
mid-soak restart.  The soak then *audits* itself into a
:class:`ChaosReport`:

* every submitted ticket reached a terminal state (zero lost, zero
  duplicated — checked against the journal, damage included);
* the hung job was preempted by the liveness monitor in strictly less
  wall-clock time than its deadline would have taken;
* checkpoint-resumed jobs (preempt / crash) produced *bit-identical*
  placements to their clean twins (same seed, no faults);
* a corrupted cache entry was evicted and recomputed to the same HPWL;
* the supervisor's quarantine machinery restores a flapping worker
  through a canary probe;
* a draining service sheds new submissions with Retry-After.

Everything the plan injects is journaled (``report.injected``), and
:func:`chaos_fingerprint` reduces a report to the schedule-determined
facts — two runs of the same seed must produce equal fingerprints,
which is what the CI ``chaos-soak`` job asserts.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.inject import corrupt_cache_entry
from repro.faults.service import (
    PROCESS_ONLY_KINDS,
    SERVICE_FAULT_KINDS,
    ServiceFaultPlan,
)
from repro.runtime.job import PlacementJob
from repro.service.journal import read_journal
from repro.service.warm import _resolve_context
from repro.supervision.brownout import BrownoutShed
from repro.supervision.supervisor import SupervisionConfig

# NOTE: repro.service.daemon imports this package's submodules, so the
# daemon itself is imported lazily inside run_chaos/_restart_leg.


@dataclass
class ChaosConfig:
    """Knobs of one seeded soak (all deterministic given ``seed``)."""

    seed: int = 0
    jobs: int = 20                    # soak jobs (twins come on top)
    workers: int = 2
    design: str = "fft_1"
    cells: int = 100
    iterations: int = 40              # GP iterations per job
    checkpoint_every: int = 5         # so preempt/crash resume works
    deadline: float = 60.0            # per-job wall-clock budget
    hang_seconds: float = 120.0       # how long a hung worker holds
    hang_timeout: float = 2.0         # liveness silence threshold
    slow_io_seconds: float = 0.25     # injected I/O delay
    heartbeat_every: int = 2          # GP iterations per heartbeat
    soak_timeout: float = 300.0       # overall harness budget
    state_dir: Optional[str] = None   # default: fresh temp dir
    start_method: Optional[str] = None
    restart: bool = True              # run the journal-damage leg
    kinds: tuple = SERVICE_FAULT_KINDS

    def supervision(self) -> SupervisionConfig:
        """The aggressive supervision profile the soak runs under."""
        return SupervisionConfig(
            hang_timeout=self.hang_timeout,
            preempt_retries=2,
            canary_delay=0.2,
            breaker_cooldown=0.5,
            # Injected slow ops sleep slow_io_seconds; anything slower
            # than a fifth of that counts as a breaker failure.
            slow_op_seconds=min(0.05, self.slow_io_seconds / 5.0),
            shed_retry_after=1.0,
        )


@dataclass
class ChaosReport:
    """The audited outcome of one seeded soak."""

    run_id: str
    seed: int
    inline: bool                      # thread-fallback pool (reduced set)
    tickets: Dict[str, str] = field(default_factory=dict)  # ticket→state
    tags: Dict[str, str] = field(default_factory=dict)     # tag→state
    injected: List[Dict[str, Any]] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    pairs: List[Dict[str, Any]] = field(default_factory=list)
    preemption: Dict[str, Any] = field(default_factory=dict)
    quarantine: Dict[str, Any] = field(default_factory=dict)
    shed: Dict[str, Any] = field(default_factory=dict)
    cache_check: Dict[str, Any] = field(default_factory=dict)
    restart: Dict[str, Any] = field(default_factory=dict)
    supervisor: Dict[str, Any] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "seed": self.seed,
            "ok": self.ok,
            "inline": self.inline,
            "seconds": round(self.seconds, 3),
            "tickets": self.tickets,
            "tags": self.tags,
            "injected": self.injected,
            "skipped": self.skipped,
            "pairs": self.pairs,
            "preemption": self.preemption,
            "quarantine": self.quarantine,
            "shed": self.shed,
            "cache_check": self.cache_check,
            "restart": self.restart,
            "supervisor": self.supervisor,
            "violations": self.violations,
            "fingerprint": chaos_fingerprint(self),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        lines = [
            f"chaos soak {self.run_id}: "
            + ("OK" if self.ok else "FAILED"),
            f"  tickets: {len(self.tickets)} "
            f"(terminal {sum(1 for s in self.tickets.values() if s in ('done', 'failed', 'timeout', 'cancelled'))})",
            f"  injected: {sorted(set(e['kind'] for e in self.injected))}",
        ]
        if self.skipped:
            lines.append(f"  skipped (inline pool): {self.skipped}")
        if self.pairs:
            identical = sum(1 for p in self.pairs if p.get("identical"))
            lines.append(f"  resume identity: {identical}/{len(self.pairs)} "
                         f"bit-identical twins")
        if self.preemption:
            lines.append(
                f"  preemption: {self.preemption.get('latency_s')}s "
                f"(deadline {self.preemption.get('deadline_s')}s)")
        if self.restart:
            lines.append(
                f"  restart: dropped={self.restart.get('dropped')} "
                f"duplicates={self.restart.get('duplicates')} "
                f"resumed={self.restart.get('resumed')}")
        counters = (self.supervisor or {}).get("counters", {})
        if any(counters.values()):
            lines.append(
                f"  supervision: {counters.get('preemptions', 0)} "
                f"preemption(s), {counters.get('quarantines', 0)} "
                f"quarantine(s), {counters.get('breaker_trips', 0)} "
                f"breaker trip(s), {counters.get('shed', 0)} shed "
                f"submit(s)")
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def chaos_fingerprint(report: ChaosReport) -> str:
    """A digest of the schedule-determined facts of a soak.

    Wall-clock-sensitive details (latencies, which worker a retry
    landed on, exact breaker failure counts) are excluded; what remains
    — final state per job tag, the set of injected fault kinds, which
    breakers tripped, the quarantine-drill outcome — must be identical
    across two runs of the same seed.
    """
    breakers = report.supervisor.get("breakers", {})
    facts = {
        "run_id": report.run_id,
        "tags": dict(sorted(report.tags.items())),
        "injected_kinds": sorted(set(e["kind"] for e in report.injected)),
        "skipped": sorted(report.skipped),
        "tripped": {name: bool(info.get("trips"))
                    for name, info in sorted(breakers.items())},
        "pairs": [{k: p[k] for k in ("faulted", "twin", "identical")}
                  for p in report.pairs],
        "preempted": bool(report.preemption.get("latency_s") is not None),
        # The drill's restore outcome is schedule-determined; the raw
        # quarantine count is not (organic quarantines depend on which
        # worker a crashing retry lands on).
        "quarantine_restored": report.quarantine.get("restored"),
        "shed": bool(report.shed.get("raised")),
        "cache_recovered": report.cache_check.get("recovered"),
        "restart": {k: report.restart.get(k)
                    for k in ("dropped", "duplicates", "resumed")},
    }
    blob = json.dumps(facts, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- the soak ----------------------------------------------------------

def _positions_digest(result) -> Optional[str]:
    if result is None or result.x is None or result.y is None:
        return None
    blob = json.dumps([list(result.x), list(result.y)])
    return hashlib.sha256(blob.encode()).hexdigest()


def _wait_all(service, tickets: List[str],
              deadline: float, report: ChaosReport,
              plan: ServiceFaultPlan,
              unlink_after: Optional[int]) -> None:
    """Poll until every ticket is terminal, firing the mid-soak
    ``shm-unlink`` once enough jobs finished (so segments are published
    and have been attached by readers)."""
    unlinked = False
    while time.monotonic() < deadline:
        terminal = sum(1 for t in tickets if service.get(t).terminal)
        if not unlinked and unlink_after is not None \
                and terminal >= unlink_after \
                and service.pool is not None \
                and service.pool.store is not None:
            store = service.pool.store
            removed = {key: store.unlink_segments(key)
                       for key in store.keys()}
            if removed:
                plan.record("shm-unlink", segments=removed,
                            after_terminal=terminal)
            unlinked = True
        if terminal == len(tickets):
            return
        time.sleep(0.05)
    stuck = [t for t in tickets if not service.get(t).terminal]
    report.violations.append(f"soak timed out with live tickets: {stuck}")


def run_chaos(config: Optional[ChaosConfig] = None) -> ChaosReport:
    """Run one seeded soak end to end; see the module docstring."""
    from repro.service.daemon import PlacementService

    config = config or ChaosConfig()
    run_id = f"chaos-{config.seed}"
    started = time.monotonic()
    inline = _resolve_context(config.start_method) is None
    plan = ServiceFaultPlan.sample(
        run_id, config.jobs, kinds=config.kinds,
        max_iteration=config.iterations,
        hang_seconds=config.hang_seconds,
        slow_io_seconds=config.slow_io_seconds,
    )
    report = ChaosReport(run_id=run_id, seed=config.seed, inline=inline)
    if inline:
        report.skipped = sorted(
            {s.kind for s in plan.faults if s.kind in PROCESS_ONLY_KINDS})

    state_dir = config.state_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    params = {
        # min == max pins the iteration count: the fault iterations the
        # plan drew are always reached, every seed runs the same loop.
        "max_iterations": config.iterations,
        "min_iterations": config.iterations,
        "checkpoint_every": config.checkpoint_every,
    }

    def make_job(index: int, faulted: bool) -> PlacementJob:
        loop_plan = plan.loop_plan(index) if faulted and not inline else None
        return PlacementJob(
            design=config.design, cells=config.cells,
            seed=100 + index, params=dict(params),
            faults=loop_plan,
            timeout=config.deadline, retries=3, timeout_retries=1,
            tag=(f"chaos-{index}" if faulted else f"twin-{index}"),
        )

    resumable = [] if inline else sorted(
        {s.job_index for s in plan.specs_of("hang", "crash")})
    jobs = [make_job(i, faulted=True) for i in range(config.jobs)]
    twins = {i: make_job(i, faulted=False) for i in resumable}
    for i, job in enumerate(jobs):
        plan.bind_job(i, job.job_id)

    unlink_specs = plan.specs_of("shm-unlink")
    unlink_after = unlink_specs[0].count if (unlink_specs
                                             and not inline) else None

    service = PlacementService(
        state_dir, workers=config.workers,
        start_method=config.start_method,
        heartbeat_every=config.heartbeat_every,
        retry_backoff=0.05, retry_backoff_max=0.5,
        supervision=config.supervision(), fault_plan=plan,
    )
    service.start()
    wave1_tickets: List[str] = []
    tag_of: Dict[str, str] = {}
    try:
        # Priority 1 keeps the soak's own jobs above the brownout
        # shed threshold — degraded phases must not eat the workload.
        for job in list(jobs) + [twins[i] for i in sorted(twins)]:
            entry = service.submit({"job": job.to_dict(), "priority": 1})
            wave1_tickets.append(entry.ticket)
            tag_of[entry.ticket] = job.tag
        deadline = started + config.soak_timeout
        _wait_all(service, wave1_tickets, deadline, report, plan,
                  unlink_after)

        _audit_wave1(service, config, plan, report, jobs, twins,
                     wave1_tickets, tag_of)
        _drill_quarantine(service, config, report, deadline)
        _check_cache_corruption(service, config, plan, report, jobs,
                                deadline)
        _check_drain_shed(service, report)
        report.supervisor = service.supervisor.snapshot()
    finally:
        service.stop()

    if config.restart and not report.violations:
        _restart_leg(config, plan, report, state_dir, wave1_tickets)

    report.injected = plan.injection_log()
    report.seconds = time.monotonic() - started
    return report


def _audit_wave1(service, config, plan, report, jobs, twins,
                 tickets, tag_of) -> None:
    """Terminal states, preemption latency and resume bit-identity."""
    for ticket in tickets:
        entry = service.get(ticket)
        report.tickets[ticket] = entry.state
        report.tags[tag_of[ticket]] = entry.state
        if not entry.terminal:
            report.violations.append(f"ticket {ticket} not terminal")
        elif entry.state not in ("done", "cancelled"):
            report.violations.append(
                f"ticket {ticket} ({tag_of[ticket]}) ended "
                f"{entry.state}: {entry.result.error if entry.result else '?'}")

    # Loop faults (hang / crash) are delivered inside the workers, so
    # the plan cannot journal them at the seam — journal them here from
    # the evidence they must have left in the event stream.
    events = service.events.snapshot()
    if not report.inline:
        for spec in plan.specs_of("crash"):
            job_id = plan.job_id_of(spec.job_index)
            crashes = [e for e in events if e.kind == "retry"
                       and e.job_id == job_id
                       and e.payload.get("reason") == "crash"]
            if crashes:
                plan.record("crash", job_id=job_id,
                            iteration=spec.iteration,
                            retries=len(crashes))
            else:
                report.violations.append(
                    f"crash scheduled for {job_id} but no crash retry "
                    f"was observed")

    # Preemption: the hung job must have been preempted well before its
    # wall-clock deadline would have fired.
    hang_specs = plan.specs_of("hang")
    if hang_specs and not report.inline:
        preempted = [e for e in events if e.kind == "preempted"]
        if not preempted:
            report.violations.append("hang scheduled but nothing was "
                                     "preempted")
        else:
            event = preempted[0]
            plan.record("hang", job_id=event.job_id,
                        iteration=hang_specs[0].iteration,
                        preempted=True)
            starts = [e for e in events
                      if e.kind == "started" and e.job_id == event.job_id
                      and e.ts <= event.ts]
            latency = event.ts - starts[-1].ts if starts else None
            report.preemption = {
                "job_id": event.job_id,
                "latency_s": round(latency, 3) if latency else None,
                "deadline_s": config.deadline,
                "idle_s": event.payload.get("idle_s"),
            }
            if latency is None or latency >= config.deadline:
                report.violations.append(
                    f"preemption took {latency}s, not strictly under "
                    f"the {config.deadline}s deadline")

    # Bit-identity: preempt/crash-resumed jobs vs their clean twins.
    by_tag = {}
    for ticket in tickets:
        by_tag[tag_of[ticket]] = service.get(ticket)
    for index in sorted(twins):
        faulted = by_tag.get(f"chaos-{index}")
        twin = by_tag.get(f"twin-{index}")
        if faulted is None or twin is None:
            continue
        a = _positions_digest(faulted.result)
        b = _positions_digest(twin.result)
        pair = {
            "faulted": f"chaos-{index}", "twin": f"twin-{index}",
            "identical": bool(a is not None and a == b),
            "hpwl_faulted": faulted.result.hpwl if faulted.result else None,
            "hpwl_twin": twin.result.hpwl if twin.result else None,
        }
        report.pairs.append(pair)
        if not pair["identical"]:
            report.violations.append(
                f"resumed job chaos-{index} is not bit-identical to its "
                f"clean twin")
    if twins and not report.pairs:
        report.violations.append("no resume-identity pair was compared")


def _drill_quarantine(service, config, report, deadline) -> None:
    """Deterministically flap worker 0 into quarantine and verify the
    canary probe restores it.  (Organic quarantines from crash-on-attach
    depend on which worker the retries land on — this drill pins the
    outcome so the fingerprint stays seed-deterministic.)"""
    supervisor = service.supervisor
    before = supervisor.counters()
    service.lifecycle.note_worker(0, False)
    service.lifecycle.note_worker(0, False)
    if 0 not in supervisor.quarantined_workers():
        report.violations.append("flap drill did not quarantine worker 0")
        return
    while time.monotonic() < deadline:
        if 0 not in supervisor.quarantined_workers():
            break
        time.sleep(0.05)
    after = supervisor.counters()
    restored = (0 not in supervisor.quarantined_workers()
                and after["restores"] > before["restores"])
    report.quarantine = {
        "worker": 0,
        "restored": restored,
        "quarantines": after["quarantines"] - before["quarantines"],
        "probes": after["probes"] - before["probes"],
    }
    if not restored:
        report.violations.append(
            "canary probe did not restore the quarantined worker")


def _check_cache_corruption(service, config, plan, report, jobs,
                            deadline) -> None:
    """Corrupt a done job's cache entry, resubmit, expect an eviction
    and an equal-HPWL recompute."""
    specs = plan.specs_of("cache-corrupt")
    if not specs:
        return
    index = specs[0].job_index
    job = jobs[index]
    first = None
    for entry in service.entries():
        if entry.job.job_id == job.job_id and entry.state == "done":
            first = entry
            break
    if first is None:
        report.cache_check = {"recovered": None, "reason": "victim job "
                              "did not finish done; nothing to corrupt"}
        return
    path = corrupt_cache_entry(service.cache, job)
    if path is None:
        report.cache_check = {"recovered": None,
                              "reason": "no cache entry on disk"}
        return
    plan.record("cache-corrupt", job_id=job.job_id, path=path)
    evictions_before = service.cache.evictions
    retry = service.submit({"job": job.to_dict(), "priority": 1})
    while time.monotonic() < deadline:
        if service.get(retry.ticket).terminal:
            break
        time.sleep(0.05)
    entry = service.get(retry.ticket)
    report.tickets[retry.ticket] = entry.state
    recovered = (entry.state == "done"
                 and service.cache.evictions > evictions_before
                 and entry.result is not None
                 and first.result is not None
                 and entry.result.hpwl == first.result.hpwl)
    report.cache_check = {
        "recovered": recovered,
        "evicted": service.cache.evictions > evictions_before,
        "hpwl_first": first.result.hpwl if first.result else None,
        "hpwl_recomputed": entry.result.hpwl if entry.result else None,
    }
    if not recovered:
        report.violations.append(
            "corrupted cache entry was not evicted and recomputed to "
            "the same HPWL")


def _check_drain_shed(service, report) -> None:
    """A draining service must refuse new work with Retry-After."""
    service.supervisor.drain()
    try:
        service.submit({"job": {"design": "fft_1", "cells": 32},
                        "priority": 5})
    except BrownoutShed as err:
        report.shed = {"raised": True, "state": err.state,
                       "retry_after_s": err.retry_after}
    else:
        report.shed = {"raised": False}
        report.violations.append("draining service accepted a submit")
    status, payload = service.health()
    if status != 503 or payload["status"] != "draining":
        report.violations.append(
            f"draining /healthz answered {status}/{payload['status']}, "
            f"expected 503/draining")


def _damage_journal(path: str, plan: ServiceFaultPlan) -> Dict[str, Any]:
    """Apply the scheduled restart-time journal damage in place."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    did: Dict[str, Any] = {}
    if plan.specs_of("journal-truncate") and lines:
        # Tear the tail record mid-write, as a crash during append would.
        torn = lines[-1][: max(1, len(lines[-1]) // 2)]
        lines = lines[:-1] + [torn]
        plan.record("journal-truncate", torn_chars=len(torn))
        did["truncated"] = True
    if plan.specs_of("journal-corrupt"):
        terminals = []
        for line in lines:
            try:
                if json.loads(line).get("op") == "terminal":
                    terminals.append(line)
            except ValueError:
                continue
        if terminals:
            # Duplicate one terminal record and interleave a partial one
            # — replay must dedupe the terminal and drop the fragment.
            lines.append('{"op": "terminal", "tick')
            lines.append(terminals[0])
            plan.record("journal-corrupt", duplicated=1, partial=1)
            did["corrupted"] = True
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return did


def _restart_leg(config, plan, report, state_dir, wave1_tickets) -> None:
    """Damage the journal, restart the daemon on the same state dir and
    audit that the ticket table comes back consistent."""
    from repro.service.daemon import PlacementService

    journal_path = os.path.join(state_dir, "journal.jsonl")
    if not os.path.isfile(journal_path):
        report.violations.append("no journal to damage at restart")
        return
    did = _damage_journal(journal_path, plan)
    replay = read_journal(journal_path)
    service2 = PlacementService(
        state_dir, workers=config.workers,
        start_method=config.start_method,
        heartbeat_every=config.heartbeat_every,
        retry_backoff=0.05, retry_backoff_max=0.5,
        supervision=config.supervision(),
    )
    service2.start()
    try:
        deadline = time.monotonic() + config.soak_timeout
        while time.monotonic() < deadline:
            if all(e.terminal for e in service2.entries()):
                break
            time.sleep(0.05)
        entries = {e.ticket: e for e in service2.entries()}
        # Zero lost: every wave-1 ticket is terminal either in the
        # (damaged) journal or after the replay re-ran it.
        lost = []
        for ticket in wave1_tickets:
            in_journal = ticket in replay.finished
            resumed = (ticket in entries
                       and entries[ticket].terminal)
            if not in_journal and not resumed:
                lost.append(ticket)
        if lost:
            report.violations.append(
                f"tickets lost across restart: {lost}")
        not_terminal = [t for t, e in entries.items() if not e.terminal]
        if not_terminal:
            report.violations.append(
                f"restart left live tickets: {not_terminal}")
        report.restart = {
            **did,
            "dropped": service2.journal_dropped,
            "duplicates": service2.journal_duplicates,
            "resumed": len(service2.recovered),
            "lost": len(lost),
        }
        if did.get("truncated") and not service2.recovered \
                and not report.inline:
            # The torn tail was a terminal record, so its ticket must
            # have been replayed back to life and re-finished.
            report.violations.append(
                "journal truncation resumed nothing — the torn terminal "
                "was not recovered")
        for ticket, entry in entries.items():
            report.tickets[ticket] = entry.state
    finally:
        service2.stop()
