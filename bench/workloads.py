"""The benchmark's four workloads; ``run.py`` runs one per fresh process.

Each workload builds its inputs from ``--seed``, repeats identical
rounds of work for about ``--seconds`` seconds, checks that the
program's outputs are correct and writes one result file::

    python bench/workloads.py --workload gp-adaptec3 --seed 0 --seconds 20 \
        --trace 0 --result .bench_out/gp.json

Times are calibrated (see :mod:`speed`): each sample is scaled by the
speed of its cores measured while it ran, and the single-threaded
workloads run each request on the quieter core, so that other tenants
of a shared machine do not show up as changes in the program.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds: the traced ones run with the timing wrappers
of :mod:`tracing` installed and give the per-layer metrics; the gap in
``gp_s`` between the two kinds is the tracing overhead.  Jobs of
``serve-small`` and ``batch-cold`` run in forked workers whose spans are
not collected, so for those two the GP internals come from an in-process
replay of the workload's own job specs.

Every value is measured from outside: calls into public functions, the
``FlowReport`` of each flow or job, the runtime event stream, the
daemon's ``/stats`` and ``KernelProfiler`` counts.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import speed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".bench_tmp")

# (suite design, scale, cell-count override or None)
Design = tuple


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SMOKE`` shrinks every workload to seconds."""

    gp_design: Design = ("adaptec3", 0.01, None)
    flow_designs: Sequence[Design] = (
        ("adaptec1", 0.006, None),
        ("matrix_mult_a", 0.007, None),
        ("fft_2", 0.015, None),
    )
    max_iterations: int = 1000
    serve_cells: int = 150
    serve_iterations: int = 40
    serve_requests: int = 32       # submissions per daemon session
    batch_cells: int = 1000
    batch_jobs: int = 4            # per run_batch call: two per worker


FULL = Sizes()
SMOKE = Sizes(
    gp_design=("fft_2", 0.01, 200),
    flow_designs=(("fft_2", 0.01, 200),),
    max_iterations=60,
    serve_cells=60,
    serve_iterations=20,
    serve_requests=8,
    batch_cells=120,
    batch_jobs=2,
)

WORKERS = 2                        # = nproc of the reference machine
REPEAT_SHARE = 0.25                # serve submissions that repeat a spec
SERVE_SETUPS = 5                   # daemon start-ups per serve round
SEED_RANGE = 1 << 20               # job seeds are drawn from [1, SEED_RANGE)
TERMINAL_KINDS = ("finished", "cached", "failed", "cancelled", "interrupted")
KERNEL_SPANS = ("WirelengthOp.__call__", "DensityScatter.scatter",
                "DensityScatter.gather", "DensityScatter.gather_pair",
                "ElectrostaticSolver.solve")


# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (linear interpolation between samples)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[q - 1])


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def share(part: float, whole: float) -> float:
    return float(part / whole) if whole > 0 else 0.0


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def stage_seconds(report, name: str) -> float:
    for stage in report.stages:
        if stage.name == name:
            return float(stage.seconds)
    return 0.0


@dataclass
class Request:
    """One unit of user-visible work: a placement, a flow or a job.

    ``start``/``end`` are ``perf_counter`` times; ``scale`` is the
    :class:`speed.SpeedMonitor` factor of that interval and ``gp_scale``
    the factor of the GP run inside it, where the run's own interval is
    known.  ``phases`` splits the latency into queue /
    start / gp / post (and submit / delivery for the daemon).  ``fresh``
    is False for requests the program answered from its cache or an
    in-flight duplicate.
    """

    key: Any                       # same key ⇒ same inputs ⇒ same outputs
    round: int
    start: float
    end: float
    gp_raw_s: float
    hpwl: float
    overflow: float
    iterations: int
    scale: float = 1.0
    gp_scale: Optional[float] = None
    traced: bool = False
    fresh: bool = True
    report: Any = None             # FlowReport, when the program gives one
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return (self.end - self.start) * self.scale

    @property
    def gp_seconds(self) -> float:
        return self.gp_raw_s * (self.gp_scale or self.scale)


class Bench:
    """One workload run: settings, speed monitor, tracer, checks, samples.

    Use as a context manager: leaving it stops the speed monitors and
    removes the run's scratch directory.
    """

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, sizes: Sizes) -> None:
        from repro.ops import KernelProfiler

        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.placement_seed = random.Random(
            f"{workload}:{seed}").randrange(1 << 30)
        self.speed = speed.SpeedMonitor(self.scratch)
        # perf_counter() - time.time(): places event times on perf_counter.
        self.wall_offset = time.perf_counter() - time.time()
        self.peak_rss_mb = 0.0            # read before the monitors exit
        self.tracer = tracing.Tracer()
        self.profiler = KernelProfiler()  # launches of traced requests
        self.failed = 0
        self.failures: List[str] = []
        self.requests: List[Request] = []
        # (raw, calibrated) seconds of each untraced round's set-up and work.
        self.setups: List[Tuple[float, float]] = []
        self.rounds: List[Tuple[float, float]] = []
        self.round_size = 0               # requests per round
        # Of a round's fresh placements' GP seconds: their median, or on
        # flow-mixed their sum over the designs.
        self.gp_statistic: Callable[[List[float]], float] = median
        self.quality: List[Request] = []  # fixed set behind hpwl etc.
        # Per traced round: idle worker share, daemon cache and dedupe.
        self.pool_idle: List[float] = []
        self.cache_hit_ratios: List[float] = []
        self.dedupe_ratios: List[float] = []
        self.replays: List[Any] = []      # JobResults of in-process replays
        self._scratch = itertools.count()

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc_info) -> None:
        self.speed.close()
        shutil.rmtree(self.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)

    # -- checks -------------------------------------------------------
    def check(self, ok: bool, message: str) -> bool:
        """Count one failed request (and say why) unless ``ok``."""
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def check_repeats(self) -> None:
        """Repeats of one input must give identical HPWL and iterations."""
        first: Dict[Any, Request] = {}
        for request in self.requests:
            seen = first.setdefault(request.key, request)
            self.check(
                (request.hpwl, request.iterations)
                == (seen.hpwl, seen.iterations),
                f"nondeterministic repeat of {request.key}: hpwl "
                f"{request.hpwl!r} vs {seen.hpwl!r}, iterations "
                f"{request.iterations} vs {seen.iterations}")

    # -- tracing ------------------------------------------------------
    @contextlib.contextmanager
    def traced(self, on: bool = True,
               profile: bool = False) -> Iterator[None]:
        """Install the timing wrappers for the block (when ``on``).

        ``profile`` also counts kernel launches of in-process GP runs.
        """
        if not on:
            yield
            return
        from repro.ops import use_profiler

        tracing.install_repro(self.tracer)
        try:
            with use_profiler(self.profiler) if profile \
                    else contextlib.nullcontext():
                yield
        finally:
            self.tracer.restore()

    @property
    def scratch(self) -> str:
        """This process's directory for state the program writes."""
        return os.path.join(SCRATCH, str(os.getpid()))

    def scratch_dir(self, label: str) -> str:
        path = os.path.join(self.scratch, f"{label}-{next(self._scratch)}")
        os.makedirs(path)
        return path

    # -- measurement loop ---------------------------------------------
    def repeat(self, step: Callable[[int], None], minimum: int) -> None:
        """Run rounds ``step(i)`` until the next would overrun the budget.

        Every round sets up and then repeats the same inputs.  At least
        ``minimum`` rounds run; with tracing, the odd rounds are the
        traced ones.
        """
        start = time.perf_counter()
        durations: List[float] = []
        while (len(durations) < minimum
               or time.perf_counter() - start + median(durations)
               <= self.seconds):
            began = time.perf_counter()
            step(len(durations))
            durations.append(time.perf_counter() - began)

    def traced_step(self, i: int) -> bool:
        return self.trace and i % 2 == 1

    def interval(self, start: float, end: float,
                 cores: Optional[Sequence[int]] = None) -> Tuple[float, float]:
        """Raw and calibrated seconds of ``[start, end]``."""
        return end - start, self.speed.calibrate(start, end, cores)

    def end_round(self, traced: bool, setup: Tuple[float, float],
                  work: Tuple[float, float]) -> None:
        """Record an untraced round's (raw, calibrated) set-up and work."""
        if not traced:
            self.setups.append(setup)
            self.rounds.append(work)


# ----------------------------------------------------------------------
def _make_design(design: Design):
    import repro.benchgen

    name, scale, cells = design
    return repro.benchgen.make_design(name, scale=scale, num_cells=cells)


def _params(bench: Bench, **overrides):
    from repro import PlacementParams

    values = {"seed": bench.placement_seed,
              "max_iterations": bench.sizes.max_iterations}
    values.update(overrides)
    return PlacementParams(**values)


def _job(design: str, cells: int, seed: int, iterations: int):
    from repro.runtime.job import PlacementJob

    return PlacementJob(design=design, cells=cells, seed=seed,
                        params={"max_iterations": iterations})


# -- gp-adaptec3 -------------------------------------------------------
def run_gp(bench: Bench) -> None:
    """Global placement to convergence: one design and seed, repeated."""
    from repro.core import XPlacer

    design = bench.sizes.gp_design
    params = _params(bench)
    # The first GP in a process runs slower: warm up with a short run.
    netlist = _make_design(design)
    XPlacer(netlist, _params(bench, max_iterations=20)).run()

    def step(i: int) -> None:
        traced = bench.traced_step(i)
        cores = bench.speed.pin_quietest()
        with bench.traced(traced, profile=True):
            began = time.perf_counter()
            placer = XPlacer(_make_design(design), params)
            set_up = time.perf_counter()
            result = placer.run()
            ended = time.perf_counter()
        request = Request(
            key=design, round=i, start=set_up, end=ended,
            gp_raw_s=result.gp_seconds, hpwl=result.hpwl,
            overflow=result.overflow, iterations=result.iterations,
            scale=bench.speed.factor(set_up, ended, cores), traced=traced)
        bench.requests.append(request)
        bench.end_round(traced, bench.interval(began, set_up, cores),
                        (ended - set_up, request.latency))

    bench.round_size = 1
    bench.repeat(step, minimum=4 if bench.trace else 3)
    bench.speed.unpin()
    for request in bench.requests:
        bench.check(request.overflow < params.stop_overflow
                    or request.iterations == params.max_iterations,
                    f"GP stopped at overflow {request.overflow}")
    bench.quality = bench.requests[:1]
    if bench.trace:
        _against_baseline(bench, lambda: XPlacer(netlist, params).run(),
                          netlist, params)


def _against_baseline(bench: Bench, place: Callable[[], Any], netlist,
                      params) -> None:
    """Traced: ``place()`` (Xplace) then the baseline, on the quieter core.

    ``baseline.speedup`` pairs each baseline run with the Xplace run just
    before it, so that both ran on the same core at nearly the same time.
    """
    from repro.baseline import DreamPlaceStyleBaseline

    bench.speed.pin_quietest()
    try:
        with bench.traced():
            place()
            DreamPlaceStyleBaseline(netlist, params).run()
    finally:
        bench.speed.unpin()


# -- flow-mixed --------------------------------------------------------
def run_flow_mixed(bench: Bench) -> None:
    """GP→LG→DP→GR on three designs, in repeated passes."""
    from repro import run_flow
    from repro.core import XPlacer

    designs = list(bench.sizes.flow_designs)
    params = _params(bench)
    # Warm every stage up on the smallest design with a short GP.
    netlists = [_make_design(design) for design in designs]
    run_flow(netlists[-1], params=_params(bench, max_iterations=20),
             route=True)

    def step(i: int) -> None:
        traced = bench.traced_step(i)
        cores = bench.speed.pin_quietest()
        began = time.perf_counter()
        with bench.traced(traced, profile=True):
            fresh = [_make_design(design) for design in designs]
        setup = bench.interval(began, time.perf_counter(), cores)
        raw_s = round_s = 0.0
        for design, netlist in zip(designs, fresh):
            cores = bench.speed.pin_quietest()
            with bench.traced(traced, profile=True):
                start = time.perf_counter()
                result = run_flow(netlist, params=params, route=True)
                end = time.perf_counter()
            request = Request(
                key=design, round=i, start=start, end=end,
                gp_raw_s=result.gp_seconds, hpwl=result.final_hpwl,
                overflow=result.report.metrics["gp_overflow"],
                iterations=result.gp_iterations,
                scale=bench.speed.factor(start, end, cores),
                # GP is the flow's first stage.
                gp_scale=bench.speed.factor(
                    start, start + stage_seconds(result.report, "gp"), cores),
                traced=traced, report=result.report)
            bench.requests.append(request)
            raw_s += end - start
            round_s += request.latency
            bench.check(result.legal,
                        f"illegal placement from the flow on {design}")
        bench.end_round(traced, setup, (raw_s, round_s))

    bench.round_size = len(designs)
    bench.gp_statistic = math.fsum
    bench.repeat(step, minimum=2 if bench.trace else 3)
    bench.speed.unpin()
    bench.quality = bench.requests[:len(designs)]
    if bench.trace:
        for netlist in netlists:
            _against_baseline(bench, lambda: XPlacer(netlist, params).run(),
                              netlist, params)


# -- serve-small -------------------------------------------------------
class ServeSession:
    """A ``PlacementService`` behind ``make_server`` on 127.0.0.1:0.

    Set-up runs from ``began`` (entering the block) until ``ready``,
    when ``/healthz`` first answers.  Leaving the block stops the HTTP server and the service
    (which joins its warm workers) and removes the state directory.
    """

    def __init__(self, bench: Bench) -> None:
        self.state_dir = bench.scratch_dir("serve")

    def __enter__(self) -> "ServeSession":
        from repro.service import (PlacementService, ServiceClient,
                                   ServiceError, make_server)

        self.began = time.perf_counter()
        self.service = PlacementService(self.state_dir, workers=WORKERS)
        self.service.start()
        self.server = make_server(self.service, "127.0.0.1", 0)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, name="bench-http")
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(host, port, timeout=120.0)
        while True:
            try:
                self.client.healthz()
                break
            except (OSError, ServiceError):
                time.sleep(0.002)
        self.ready = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.service.stop()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def serve_specs(bench: Bench) -> List[Dict[str, Any]]:
    """The seeded submission sequence of one round.

    A quarter of the submissions repeat one of the four previous specs,
    so some find that spec still running (dedupe) and some find it done
    (cache hit).  The seed picks which ones, never how many, so every
    seed asks for the same amount of fresh work.  It also picks the order
    of the distinct specs, but not their placement seeds: with seeded
    placements, the mean HPWL of the 24 jobs of 150 cells moved by up to
    0.5% from one seed to the next, as much as its bound.
    """
    count = bench.sizes.serve_requests
    rng = random.Random(f"serve-specs:{bench.seed}")
    repeats = set(rng.sample(range(2, count), round(REPEAT_SHARE * count)))
    seeds = random.Random("serve-jobs").sample(range(1, SEED_RANGE),
                                               count - len(repeats))
    rng.shuffle(seeds)
    seeds = iter(seeds)
    specs: List[Dict[str, Any]] = []
    for i in range(count):
        if i in repeats:
            specs.append(specs[i - 1 - rng.randrange(min(i, 4))])
        else:
            specs.append({
                "design": "fft_1", "cells": bench.sizes.serve_cells,
                "seed": next(seeds),
                "params": {"max_iterations": bench.sizes.serve_iterations},
            })
    return specs


@dataclass
class ServeCall:
    """Client-side record of one submission."""

    index: int
    ticket: str
    leader: Optional[str]          # in-flight ticket it was deduped onto
    submit_wall: float
    start: float
    end: float


def _serve_request(client, index: int, spec: Dict[str, Any]) -> ServeCall:
    """Submit, then follow the event stream to this ticket's terminal event.

    The latency ends when the terminal event arrives, not when the
    stream closes (the daemon may hold it open up to 0.5 s longer).
    """
    submit_wall = time.time()
    start = time.perf_counter()
    entry = client.submit(spec)
    ticket = entry["ticket"]
    leader = entry.get("deduped_onto")
    stream = client.stream_events(ticket, follow=True)
    try:
        for event in stream:
            if event["kind"] not in TERMINAL_KINDS \
                    or event["ts"] < submit_wall:
                continue          # an earlier run of the same spec
            if event["kind"] == "finished" \
                    and event.get("ticket") not in (ticket, leader):
                continue
            break
    finally:
        stream.close()
    return ServeCall(index, ticket, leader, submit_wall, start,
                     time.perf_counter())


def _client(client, specs: List[Dict[str, Any]], c: int,
            calls: List[ServeCall], errors: List[BaseException]) -> None:
    """Closed-loop client ``c``: specs ``c, c + 2, ...``, one at a time."""
    try:
        for index in range(c, len(specs), WORKERS):
            calls.append(_serve_request(client, index, specs[index]))
    except Exception as err:  # noqa: BLE001 — re-raised after join
        errors.append(err)


def _drive(client, specs: List[Dict[str, Any]]) -> List[ServeCall]:
    """Two closed-loop clients over the spec sequence.

    Each client submits its next spec only after the previous one's
    result arrived.
    """
    calls: List[ServeCall] = []
    errors: List[BaseException] = []
    threads = [threading.Thread(target=_client,
                                args=(client, specs, c, calls, errors),
                                name=f"client{c}")
               for c in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sorted(calls, key=lambda call: call.index)


def _lifecycle(events, job_id: str, ticket: Optional[str]) -> Dict[str, float]:
    """Wall-clock times of one execution's lifecycle events.

    Scheduler events carry the ticket (daemon) or only the job id
    (batch); loop events from the worker carry only the job id.
    """
    times: Dict[str, float] = {}
    for event in events:
        if event.job_id != job_id:
            continue
        mine = ticket is None or event.payload.get("ticket") == ticket
        if event.kind in ("queued", "started", "finished") and mine:
            times.setdefault(event.kind, event.ts)
        elif event.kind in ("loop_start", "loop_stop") and "started" in times:
            times.setdefault(event.kind, event.ts)
    return times


PHASES = ("queue", "start", "gp", "post")
PHASE_MARKS = ("queued", "started", "loop_start", "loop_stop", "finished")


def _gp_scale(bench: Bench, times: Dict[str, float],
              cores: Optional[Sequence[int]] = None) -> Optional[float]:
    """Speed factor of the GP loop between ``loop_start`` and ``loop_stop``."""
    if "loop_start" not in times or "loop_stop" not in times:
        return None
    return bench.speed.factor(times["loop_start"] + bench.wall_offset,
                              times["loop_stop"] + bench.wall_offset, cores)


def _phases(times: Dict[str, float]) -> Dict[str, float]:
    if not all(mark in times for mark in PHASE_MARKS):
        return {}
    return {phase: times[b] - times[a]
            for phase, a, b in zip(PHASES, PHASE_MARKS, PHASE_MARKS[1:])}


def _serve_round(bench: Bench, specs: List[Dict[str, Any]], i: int) -> None:
    """One daemon session: start, warm up, run the sequence, stop.

    A start-up takes about 10 ms, so an untraced round first starts and
    stops the daemon a few more times, to time its set-up on more
    samples.
    """
    traced = bench.traced_step(i)
    if not traced:
        for _ in range(SERVE_SETUPS - 1):
            with ServeSession(bench) as bare:
                pass
            bench.setups.append(bench.interval(bare.began, bare.ready))
    with bench.traced(traced), ServeSession(bench) as session:
        # Both workers get the design resident before the clock starts;
        # the warm-up seeds lie outside the sequence's seed range.
        warm = [dict(specs[0], seed=SEED_RANGE + w) for w in range(WORKERS)]
        session.service.wait(
            [session.client.submit(spec)["ticket"] for spec in warm],
            timeout=120)
        began = time.perf_counter()
        calls = _drive(session.client, specs)
        ended = time.perf_counter()
        stats = session.client.stats()
        events = session.service.events.snapshot()
        entries = [session.service.get(call.ticket) for call in calls]
    bench.end_round(traced, bench.interval(session.began, session.ready),
                    bench.interval(began, ended))
    busy = 0.0
    for call, entry in zip(calls, entries):
        result = entry.result
        if not bench.check(entry.state == "done" and result is not None
                           and result.report is not None,
                           f"serve ticket {call.ticket} ended {entry.state}"):
            continue
        metrics = result.report.metrics
        request = Request(
            key=entry.job.content_hash(), round=i, start=call.start,
            end=call.end, gp_raw_s=metrics["gp_seconds"], hpwl=result.hpwl,
            overflow=metrics["gp_overflow"],
            iterations=metrics["gp_iterations"],
            scale=bench.speed.factor(call.start, call.end), traced=traced,
            fresh=call.leader is None and not result.cached,
            report=result.report)
        if request.fresh:
            bench.check(metrics["legal"],
                        f"illegal placement from serve ticket {call.ticket}")
            times = _lifecycle(events, entry.job.job_id, call.ticket)
            times["queued"] = entry.submitted_ts
            request.gp_scale = _gp_scale(bench, times)
            request.phases = _phases(times)
            if request.phases:
                request.phases["submit"] = entry.submitted_ts - call.submit_wall
                request.phases["delivery"] = (
                    call.submit_wall + (call.end - call.start)
                    - times["finished"])
                busy += times["finished"] - times["started"]
        bench.requests.append(request)
        if i == 0 and request.key not in {r.key for r in bench.quality}:
            bench.quality.append(request)
    if traced:
        bench.pool_idle.append(1.0 - share(busy, WORKERS * (ended - began)))
        bench.cache_hit_ratios.append(share(stats["cache"]["hits"],
                                            len(calls)))
        bench.dedupe_ratios.append(share(
            sum(1 for call in calls if call.leader), len(calls)))


def run_serve(bench: Bench) -> None:
    """Two closed-loop HTTP clients against an in-process daemon."""
    from repro.runtime.job import PlacementJob

    specs = serve_specs(bench)
    bench.round_size = len(specs)
    bench.repeat(lambda i: _serve_round(bench, specs, i),
                 minimum=4 if bench.trace else 3)
    if bench.trace:
        distinct = list({json.dumps(s, sort_keys=True): s
                         for s in specs[:8]}.values())[:3]
        _replay(bench, [PlacementJob.from_dict(spec) for spec in distinct])


# -- batch-cold --------------------------------------------------------
def _pinning_log(cores: Sequence[int]):
    """An ``EventLog`` that pins each job's process to a core of its own.

    The pool announces a job's fresh process in its ``started`` event;
    the job keeps that core until it ends, so its times can be
    calibrated with that core's speed (``core_of``).
    """
    from repro.runtime import EventLog

    class PinningLog(EventLog):
        def __init__(self) -> None:
            super().__init__()
            self.free = list(cores)
            self.core_of: Dict[str, int] = {}

        def emit(self, kind: str, job_id: str, **payload: Any):
            if kind == "started" and "pid" in payload and self.free:
                core = self.core_of[job_id] = self.free.pop(0)
                with contextlib.suppress(OSError):   # already gone
                    os.sched_setaffinity(payload["pid"], {core})
            elif kind in ("finished", "failed", "retry") \
                    and job_id in self.core_of:
                self.free.append(self.core_of[job_id])
            return super().emit(kind, job_id, **payload)

    return PinningLog()


def run_batch_cold(bench: Bench) -> None:
    """Repeated ``run_batch`` of one job set: a fresh process per job,
    no cache, so every round recomputes every job."""
    from repro.runtime import execute_job, run_batch

    sizes = bench.sizes
    seeds = random.Random(f"batch-seeds:{bench.seed}").sample(
        range(1, SEED_RANGE), sizes.batch_jobs)
    jobs = [_job("fft_1", sizes.batch_cells, seed, sizes.max_iterations)
            for seed in seeds]
    # Warm the parent: forked workers inherit its imports and state.
    execute_job(_job("fft_1", 100, 0, 20))

    def step(i: int) -> None:
        traced = bench.traced_step(i)
        events = _pinning_log(bench.speed.cores)
        with bench.traced(traced):
            called = time.perf_counter()
            results, _ = run_batch(jobs, max_workers=WORKERS, events=events)
            returned = time.perf_counter()
        log = events.snapshot()
        first = min((e.ts + bench.wall_offset for e in log
                     if e.kind == "loop_start"), default=returned)
        bench.end_round(traced, bench.interval(called, first),
                        bench.interval(called, returned))
        busy = 0.0
        for job, result in zip(jobs, results):
            if not bench.check(result.ok and result.report is not None,
                               f"batch job {job.job_id} ended "
                               f"{result.status}: {result.error}"):
                continue
            metrics = result.report.metrics
            bench.check(metrics["legal"],
                        f"illegal placement from batch job {job.job_id}")
            times = _lifecycle(log, job.job_id, None)
            # A job's latency is its run in the pool (cold start
            # included).  Waiting for a free worker depends only on the
            # job's place in the batch; it shows in throughput and in
            # runtime.queue_share instead.
            start = times["started"] + bench.wall_offset
            end = times["finished"] + bench.wall_offset
            core = events.core_of.get(job.job_id)
            cores = None if core is None else [core]
            request = Request(
                key=job.content_hash(), round=i, start=start, end=end,
                gp_raw_s=metrics["gp_seconds"], hpwl=result.hpwl,
                overflow=metrics["gp_overflow"],
                iterations=metrics["gp_iterations"],
                scale=bench.speed.factor(start, end, cores),
                gp_scale=_gp_scale(bench, times, cores), traced=traced,
                report=result.report, phases=_phases(times))
            busy += times["finished"] - times["started"]
            bench.requests.append(request)
            if i == 0:
                bench.quality.append(request)
        if traced:
            bench.pool_idle.append(
                1.0 - share(busy, WORKERS * (returned - called)))

    bench.round_size = len(jobs)
    bench.repeat(step, minimum=4 if bench.trace else 3)
    if bench.trace:
        _replay(bench, jobs[:1])


def _replay(bench: Bench, jobs) -> None:
    """Run jobs in this process under the wrappers, then the baseline on
    the last one.

    Spans recorded in forked workers stay there, so the GP internals of
    the executor workloads are measured on this replay of their specs.
    """
    from repro.runtime import execute_job

    def place() -> None:
        bench.replays.extend(execute_job(job) for job in jobs)

    last = jobs[-1]
    _against_baseline(bench, place, last.load_netlist(),
                      last.effective_params())


WORKLOADS: Dict[str, Callable[[Bench], None]] = {
    "gp-adaptec3": run_gp,
    "flow-mixed": run_flow_mixed,
    "serve-small": run_serve,
    "batch-cold": run_batch_cold,
}


# -- metrics -----------------------------------------------------------
def per_round(requests: Sequence[Request],
              statistic: Callable[[List[Request]], float]) -> float:
    """``statistic`` of each round's requests, then the median over rounds.

    Rounds hold the same mix of requests, so a per-round statistic does
    not depend on how a mix of unequal requests (three designs, cache
    hits and fresh jobs) happens to interleave across rounds.
    """
    rounds: Dict[int, List[Request]] = {}
    for request in requests:
        rounds.setdefault(request.round, []).append(request)
    return median([statistic(group) for group in rounds.values()])


def end_to_end(bench: Bench, raw: bool = False) -> Dict[str, float]:
    """User-visible metrics of the untraced requests.

    With ``raw``, only the timing metrics, from uncalibrated wall times.
    """
    requests = [r for r in bench.requests if not r.traced]
    side = 0 if raw else 1
    latency = (lambda r: r.end - r.start) if raw else (lambda r: r.latency)
    gp = (lambda r: r.gp_raw_s) if raw else (lambda r: r.gp_seconds)
    times = {
        "setup_s": median([setup[side] for setup in bench.setups]),
        "latency_p50_s": per_round(
            requests, lambda rs: median([latency(r) for r in rs])),
        "latency_p90_s": per_round(
            requests, lambda rs: quantile([latency(r) for r in rs], 90)),
        "throughput_per_s": median([bench.round_size / work[side]
                                    for work in bench.rounds]),
        "gp_s": per_round(requests, lambda rs: bench.gp_statistic(
            [gp(r) for r in rs if r.fresh])),
    }
    if raw:
        return times
    quality = bench.quality
    return {
        **times,
        "hpwl": mean([r.hpwl for r in quality]),
        "overflow": mean([r.overflow for r in quality]),
        "gp_iterations": mean([r.iterations for r in quality]),
        "peak_rss_mb": bench.peak_rss_mb,
    }


def _gp_layers(spans: Sequence[tracing.Span]):
    """Per-GP-run layer metrics, and each run's self seconds by span name.

    Only spans under an ``XPlacer.run`` count towards the placer's
    layers; the baseline's own spans give the ``baseline.*`` metrics.
    Span times are raw wall time: a traced round is short, and each
    layer's share of it is what these metrics show.
    """
    index = tracing.SpanIndex(spans)
    groups = index.under(("XPlacer.run", "DreamPlaceStyleBaseline.run"))
    runs = [s for s in spans if s.name == "XPlacer.run"]
    baselines = [s for s in spans if s.name == "DreamPlaceStyleBaseline.run"]
    own: Dict[str, float] = {}
    own_by_run: Dict[int, Dict[str, float]] = {}
    calls: Dict[str, int] = {}
    steps: List[float] = []
    for run in runs:
        group = groups.get(run.id, [])
        mine = own_by_run[run.id] = {}
        for span in group:
            seconds = index.self_time(span)
            own[span.name] = own.get(span.name, 0.0) + seconds
            mine[span.name] = mine.get(span.name, 0.0) + seconds
            calls[span.name] = calls.get(span.name, 0) + 1
        computes = sorted(s.start for s in group
                          if s.name == "GradientEngine.compute")
        # compute #0 bootstraps λ; later ones start loop iterations.
        steps += [(b - a) * 1e3 for a, b in zip(computes[1:], computes[2:])]
    n = len(runs)

    def per_run(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names) / n

    baseline_density = sum(
        s.duration for b in baselines for s in groups.get(b.id, [])
        if s.name == "DensitySystem.evaluate")
    # Each baseline run against the Xplace run just before it.
    pairs = []
    for b in baselines:
        before = [r for r in runs if r.info["design"] == b.info["design"]
                  and r.end <= b.start]
        if before:
            pairs.append((b.duration, max(before, key=lambda r: r.end)
                          .duration))
    designs = [s.duration for s in spans if s.name == "make_design"]
    return {
        "core.compute_s": per_run("GradientEngine.compute"),
        "core.assemble_s": per_run("GradientEngine.assemble"),
        "core.loop_self_s": per_run("XPlacer.run"),
        "core.step_p50_ms": median(steps),
        "core.step_p95_ms": quantile(steps, 95),
        "wirelength.calls": calls.get("WirelengthOp.__call__", 0) / n,
        "wirelength.busy_s": per_run("WirelengthOp.__call__"),
        "density.evaluate_self_s": per_run("DensitySystem.evaluate"),
        "density.windows_s": per_run("DensityScatter.prepare_windows"),
        "density.scatter_s": per_run("DensityScatter.scatter"),
        "density.gather_s": per_run("DensityScatter.gather",
                                    "DensityScatter.gather_pair"),
        "density.solve_s": per_run("ElectrostaticSolver.solve"),
        "density.skip_ratio": 1.0 - share(
            calls.get("DensitySystem.evaluate", 0),
            calls.get("GradientEngine.compute", 0)),
        "optim.precondition_s": per_run("Preconditioner.apply"),
        "optim.step_s": per_run("NesterovOptimizer.step"),
        "perf.arena_bytes": mean([r.info["arena_bytes"] for r in runs]),
        "perf.arena_misses": mean([r.info["arena_misses"] for r in runs]),
        "benchgen.make_design_s": median(designs),
        "baseline.gp_s": mean([b.duration for b in baselines]),
        "baseline.density_s": baseline_density / len(baselines),
        "baseline.speedup": share(sum(b for b, _ in pairs),
                                  sum(x for _, x in pairs)),
    }, own_by_run


def layer_metrics(bench: Bench) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds (and their replays)."""
    traced = [r for r in bench.requests if r.traced]
    spans = bench.tracer.spans
    layers, own_by_run = _gp_layers(spans)
    if bench.replays:
        reports = [r.report for r in bench.replays]
        launches = sum(rep.stage("runtime").metrics["kernel_launches"]
                       for rep in reports)
        iterations = sum(rep.metrics["gp_iterations"] for rep in reports)
        kernel = sum(r.report.stage("runtime").metrics["kernel_seconds_total"]
                     for r in traced if r.phases)
    else:
        # In-process requests: their own GP run splits them into
        # before, inside and after the GP loop.
        runs = [s for s in spans if s.name == "XPlacer.run"]
        launches, iterations, kernel = bench.profiler.total, 0, 0.0
        for request in traced:
            run = next(s for s in runs if request.start <= s.start
                       and s.end <= request.end)
            request.phases = {"queue": 0.0,
                              "start": run.start - request.start,
                              "gp": run.duration,
                              "post": request.end - run.end}
            iterations += run.info["iterations"]
            kernel += sum(own_by_run[run.id].get(name, 0.0)
                          for name in KERNEL_SPANS)
    layers["ops.launches_per_iter"] = share(launches, iterations)

    # Shares of the raw time from request to result (the phases' sum:
    # for batch jobs it includes the wait for a worker).
    timed = [r for r in traced if r.phases]
    total = sum(sum(r.phases.values()) for r in timed)
    for phase in PHASES:
        layers[f"runtime.{phase}_share"] = share(
            sum(r.phases[phase] for r in timed), total)
    layers["runtime.kernel_share"] = share(kernel, total)
    layers["runtime.pool_idle_ratio"] = mean(bench.pool_idle)

    staged = [r for r in timed if r.report is not None]
    for layer, stage in (("legalize", "lg"), ("detail", "dp"),
                         ("route", "gr")):
        layers[f"{layer}.share"] = share(
            sum(stage_seconds(r.report, stage) for r in staged), total)
    metrics = [r.report.metrics for r in staged]
    layers["detail.moves_applied"] = mean(
        [m["dp_moves"] for m in metrics])
    layers["detail.hpwl_gain_ratio"] = mean(
        [1.0 - m["dp_hpwl"] / m["lg_hpwl"] for m in metrics])
    layers["route.top5_overflow"] = mean(
        [m.get("top5_overflow", 0.0) for m in metrics])

    served = [r for r in timed if "submit" in r.phases]
    journal = sum(s.duration for s in spans if s.name == "Journal.append")
    for name in ("submit", "delivery"):
        layers[f"service.{name}_share"] = share(
            sum(r.phases[name] for r in served), total)
    layers["service.journal_share"] = share(
        journal, sum(r.end - r.start for r in traced) if served else 0.0)
    layers["service.cache_hit_ratio"] = mean(bench.cache_hit_ratios)
    layers["service.dedupe_ratio"] = mean(bench.dedupe_ratios)
    # Round 2k runs untraced and round 2k + 1 traced, just after it.
    gp: Dict[int, List[float]] = {}
    for request in bench.requests:
        if request.fresh:
            gp.setdefault(request.round, []).append(request.gp_seconds)
    layers["bench.trace_overhead"] = median(
        [median(gp[k + 1]) / median(gp[k])
         for k in gp if k % 2 == 0 and k + 1 in gp]) - 1.0
    layers["bench.span_cost_us"] = tracing.span_cost() * 1e6
    return layers


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    with Bench(args.workload, args.seed, args.seconds, bool(args.trace),
               SMOKE if args.smoke else FULL) as bench:
        WORKLOADS[args.workload](bench)
        # The workload's own children have been reaped; the monitors
        # have not, so they do not count.
        bench.peak_rss_mb = peak_rss_mb()
        speed_mode = bench.speed.mode
    bench.check_repeats()
    raw: Dict[str, float] = {}
    if bench.trace:
        metrics = layer_metrics(bench)
        if args.trace_file:
            tracing.write_chrome_trace(bench.tracer.spans, args.trace_file)
    else:
        metrics = end_to_end(bench)
        raw = end_to_end(bench, raw=True)
    untraced = [r for r in bench.requests if not r.traced]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": bool(args.smoke),
        "correct": bench.failed == 0,
        "attempted": len(bench.requests),
        "failed": bench.failed,
        "failures": bench.failures[:20],
        "values": metrics,
        "raw_values": raw,
        "speed_mode": speed_mode,
        "samples": {
            "setup_s": [c for _, c in bench.setups],
            "round_s": [c for _, c in bench.rounds],
            "raw_setup_s": [r for r, _ in bench.setups],
            "raw_round_s": [r for r, _ in bench.rounds],
            "latency_s": [r.latency for r in untraced],
            "raw_latency_s": [r.end - r.start for r in untraced],
            "raw_gp_s": [r.gp_raw_s for r in untraced if r.fresh],
            "round": [r.round for r in untraced],
            "speed_factor": bench.speed.factors,
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.result)), exist_ok=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
