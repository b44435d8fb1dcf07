"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``place``     run a placement flow on a bookshelf benchmark or a named
              synthetic design and write the result as a ``.pl`` file
``batch``     run a JSON/JSONL manifest of placement jobs through the
              parallel runtime (worker pool + result cache + events)
``stats``     print Table-1-style statistics for a design
``generate``  write a synthetic design as a bookshelf benchmark directory
``train-fno`` train (and cache) the neural guidance model
``lint``      run the repo-specific static analysis rules (repro.analysis)
              over source paths; exit 0 clean / 1 violations / 2 usage
``serve``     run the placement daemon (HTTP job API, warm workers)
``chaos``     seeded service-chaos soak: boot a real daemon against a
              deterministic service fault plan (hung workers, slow I/O,
              shm unlinks, cache/journal corruption, crash-on-attach),
              audit that no ticket is lost and recovery is bit-identical,
              and write a CHAOS_report.json artifact
``explore``   population-based global exploration over checkpoint forks:
              run a cohort of GP trajectories, rank at synchronization
              rounds, fork the leaders with bounded perturbations, cull
              the laggards; ``--bench`` gates the cohort against the
              single-run baseline at equal core-seconds

Every command accepts either a ``.aux`` path or a named design from the
ISPD-like suites (``adaptec1`` … ``superblue16_a``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.benchgen import ISPD2005_LIKE, ISPD2015_LIKE, make_design
from repro.netlist import Netlist, compute_stats


def _load_design(target: str, scale: float, cells: Optional[int]) -> Netlist:
    """Resolve a CLI design argument: .aux file path or suite name."""
    if target.endswith(".aux") or os.path.exists(target):
        from repro.bookshelf import read_bookshelf

        return read_bookshelf(target)
    if target in ISPD2005_LIKE or target in ISPD2015_LIKE:
        return make_design(target, scale=scale, num_cells=cells)
    raise SystemExit(
        f"error: {target!r} is neither an existing .aux file nor a known "
        f"design name"
    )


def _cmd_place(args: argparse.Namespace) -> int:
    from repro.core import PlacementParams
    from repro.flow import run_flow

    netlist = _load_design(args.design, args.scale, args.cells)
    params = PlacementParams(
        target_density=args.target_density,
        max_iterations=args.max_iterations,
        verbose=args.verbose,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
    )
    predictor = None
    if args.placer == "xplace-nn":
        from repro.nn import get_pretrained_model, make_field_predictor

        model = get_pretrained_model(verbose=args.verbose)
        predictor = make_field_predictor(model, netlist.region)

    # Every placer choice — quadratic included — runs through the same
    # pipeline composition (repro.pipeline) behind run_flow.
    result = run_flow(
        netlist,
        placer=args.placer,
        params=params,
        field_predictor=predictor,
        dp_passes=args.dp_passes,
        route=args.route,
        checkpoint_dir=args.recover,
        resume=args.recover is not None,
    )
    if result.report is not None:
        gp_metrics = result.report.metrics
        if gp_metrics.get("gp_resumed_from") is not None:
            print(f"resumed from checkpoint at iteration "
                  f"{gp_metrics['gp_resumed_from']}")
        if gp_metrics.get("gp_rollbacks"):
            print(f"recovered from {gp_metrics['gp_rollbacks']} "
                  f"divergence rollback(s)"
                  + (" — degraded to best checkpoint"
                     if gp_metrics.get("gp_degraded") else ""))
    if args.placer == "quadratic":
        print(
            f"{netlist.name}: HPWL {result.final_hpwl:.6g} "
            f"(quadratic GP {result.gp_hpwl:.6g} in {result.gp_seconds:.2f}s, "
            f"LG+DP {result.dp_seconds:.2f}s, legal={result.legal})"
        )
    else:
        print(
            f"{netlist.name}: HPWL {result.final_hpwl:.6g} "
            f"(GP {result.gp_hpwl:.6g} in {result.gp_seconds:.2f}s / "
            f"{result.gp_iterations} iters, LG+DP {result.dp_seconds:.2f}s, "
            f"legal={result.legal})"
        )
    if args.route:
        print(f"top5 overflow: {result.top5_overflow:.2f} "
              f"(GR {result.gr_seconds:.2f}s)")
    if args.out:
        from repro.bookshelf import write_pl

        write_pl(netlist, args.out, x=result.x, y=result.y)
        print(f"wrote {args.out}")
    if args.svg:
        from repro.viz import placement_svg

        placement_svg(netlist, result.x, result.y, path=args.svg)
        print(f"wrote {args.svg}")
    return 0 if result.legal else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.runtime import (
        EventLog, ResultCache, load_manifest, run_batch, summary_table,
    )

    jobs = load_manifest(args.manifest)
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    events = EventLog(path=args.events, echo=args.verbose)
    try:
        results, _ = run_batch(
            jobs,
            max_workers=args.workers,
            cache=cache,
            events=events,
            start_method=args.start_method,
            heartbeat_every=args.heartbeat_every,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    finally:
        events.close()
    print(summary_table(jobs, results, cache=cache))
    if args.events:
        print(f"wrote {len(events)} events to {args.events}")
    failed = [r for r in results if r.status in ("failed", "timeout")]
    for result in failed:
        print(f"FAILED {result.job_id}: {result.error}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    netlist = _load_design(args.design, args.scale, args.cells)
    stats = compute_stats(netlist)
    print(f"design       : {stats.design}")
    print(f"cells        : {stats.num_cells} "
          f"({stats.num_movable} movable, {stats.num_fixed} fixed)")
    print(f"nets         : {stats.num_nets}")
    print(f"pins         : {stats.num_pins}")
    print(f"avg net deg  : {stats.avg_net_degree:.2f} "
          f"(max {stats.max_net_degree})")
    print(f"utilization  : {stats.utilization:.3f}")
    region = netlist.region
    print(f"die          : ({region.xl:.0f},{region.yl:.0f})-"
          f"({region.xh:.0f},{region.yh:.0f}), {len(region.rows)} rows")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bookshelf import write_bookshelf

    netlist = _load_design(args.design, args.scale, args.cells)
    aux = write_bookshelf(netlist, args.out)
    print(f"wrote {aux}")
    return 0


def _cmd_train_fno(args: argparse.Namespace) -> int:
    from repro.nn import get_pretrained_model

    model = get_pretrained_model(cache_path=args.cache, verbose=True)
    print(f"guidance model ready ({model.num_parameters()} parameters)")
    return 0


def _split_rules(value: Optional[str]):
    if not value:
        return None
    return frozenset(name.strip() for name in value.split(",") if name.strip())


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        EXIT_CLEAN,
        EXIT_USAGE,
        EXIT_VIOLATIONS,
        Baseline,
        LintConfig,
        LintEngine,
        changed_files,
        default_rules,
        render_json,
        render_text,
    )

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            scope = "kernel-only" if rule.kernel_only else "repo-wide"
            print(
                f"{rule.name:28s} [{scope}, {rule.severity}] {rule.description}"
            )
        return EXIT_CLEAN
    config = LintConfig(
        select=_split_rules(args.select), ignore=_split_rules(args.ignore) or frozenset()
    )
    try:
        config.validate(frozenset(rule.name for rule in rules))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    baseline = Baseline()
    baseline_path = args.baseline
    if not args.no_baseline:
        if baseline_path is None and os.path.isfile("LINT_BASELINE.json"):
            baseline_path = "LINT_BASELINE.json"
        if baseline_path is not None:
            try:
                baseline = Baseline.load(baseline_path)
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(f"error: bad baseline file: {exc}", file=sys.stderr)
                return EXIT_USAGE

    engine = LintEngine(rules=rules, config=config)
    try:
        if args.changed is not None:
            ref = args.changed or "HEAD"
            try:
                changed = changed_files(ref)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            files = [
                f for f in engine._discover(args.paths)
                if os.path.abspath(f) in changed
            ]
            violations = engine.lint_paths(files)
        else:
            violations = engine.lint_paths(args.paths)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    new, suppressed, stale = baseline.partition(violations)
    if args.format == "json":
        print(render_json(new, baselined=len(suppressed), stale_baseline=stale))
    else:
        print(render_text(new, baselined=len(suppressed), stale_baseline=stale))
    return EXIT_VIOLATIONS if new else EXIT_CLEAN


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import serve

    return serve(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        start_method=args.start_method,
        heartbeat_every=args.heartbeat_every,
        default_quota=args.quota,
        max_queue_depth=args.max_queue_depth,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.supervision import ChaosConfig, chaos_fingerprint, run_chaos

    def run() -> "object":
        config = ChaosConfig(
            seed=args.seed,
            jobs=args.jobs,
            workers=args.workers,
            design=args.design,
            cells=args.cells,
            iterations=args.iterations,
            deadline=args.deadline,
            hang_timeout=args.hang_timeout,
            soak_timeout=args.soak_timeout,
            state_dir=args.state_dir,
            start_method=args.start_method,
            restart=not args.no_restart,
        )
        return run_chaos(config)

    report = run()
    print(report.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.out}")
    if args.check_determinism:
        if args.state_dir:
            print("error: --check-determinism needs fresh state dirs; "
                  "drop --state-dir", file=sys.stderr)
            return 2
        second = run()
        a = chaos_fingerprint(report)
        b = chaos_fingerprint(second)
        if a != b:
            print(f"error: same-seed soaks diverged: {a} != {b}",
                  file=sys.stderr)
            return 1
        print(f"determinism: two seed-{args.seed} soaks agree ({a[:16]}…)")
        if not second.ok:
            for violation in second.violations:
                print(f"second run VIOLATION: {violation}", file=sys.stderr)
            return 1
    return 0 if report.ok else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.core.params import PlacementParams
    from repro.explore import ExploreConfig, PopulationController
    from repro.runtime.cache import ResultCache
    from repro.runtime.events import EventLog
    from repro.runtime.job import PlacementJob

    if args.design.endswith(".aux") or os.path.exists(args.design):
        source = {"aux": args.design}
    elif args.design in ISPD2005_LIKE or args.design in ISPD2015_LIKE:
        source = {"design": args.design, "scale": args.scale,
                  "cells": args.cells}
    else:
        print(f"error: {args.design!r} is neither an existing .aux file "
              f"nor a known design name", file=sys.stderr)
        return 2
    params = PlacementParams(
        max_iterations=args.max_iterations,
        seed=args.seed,
    )
    base = PlacementJob(params=params, **source)
    config = ExploreConfig(
        population=args.population,
        rounds=args.rounds,
        survivors=args.survivors,
        seed=args.seed if args.cohort_seed is None else args.cohort_seed,
        segment_iters=args.segment_iters,
        budget_core_seconds=args.budget_core_seconds,
        workers=args.workers,
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    events = EventLog(path=args.events, echo=args.verbose)
    with events:
        controller = PopulationController(
            base, config, cache=cache, events=events, workdir=args.workdir
        )
        report = controller.run()
    print(report.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.out}")
    if args.bench:
        from repro.explore.report import (
            format_explore_report,
            run_explore_bench,
        )

        bench = run_explore_bench(
            population=args.population,
            rounds=args.rounds,
            survivors=args.survivors,
            seed=args.seed,
            cohort_seed=config.seed,
            max_iterations=args.max_iterations,
            segment_iters=args.segment_iters,
            workers=args.workers,
            workdir=args.workdir,
            **source,
        )
        print(format_explore_report(bench))
        with open(args.bench, "w", encoding="utf-8") as fh:
            json.dump(bench, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.bench}")
        if not bench["matches_single_run"]:
            print("error: cohort best HPWL is worse than the single-run "
                  "baseline", file=sys.stderr)
            return 1
    return 0 if report.best_hpwl is not None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Xplace reproduction: analytical global placement flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_design_args(p):
        p.add_argument("design", help=".aux path or suite design name")
        p.add_argument("--scale", type=float, default=0.01,
                       help="suite scale factor (default 0.01)")
        p.add_argument("--cells", type=int, default=None,
                       help="override the movable cell count")

    place = sub.add_parser("place", help="run a placement flow")
    add_design_args(place)
    place.add_argument("--placer", default="xplace",
                       choices=["xplace", "baseline", "xplace-nn", "quadratic"])
    place.add_argument("--out", default=None, help="output .pl path")
    place.add_argument("--svg", default=None,
                       help="write the placement as an SVG image")
    place.add_argument("--dp-passes", type=int, default=1)
    place.add_argument("--route", action="store_true",
                       help="also run global routing (top5 overflow)")
    place.add_argument("--target-density", type=float, default=0.9)
    place.add_argument("--max-iterations", type=int, default=1000)
    place.add_argument("--seed", type=int, default=0)
    place.add_argument("--recover", default=None, metavar="DIR",
                       help="arm checkpoint/rollback recovery, spilling "
                            "GP checkpoints to DIR and resuming from any "
                            "checkpoint a killed run left there")
    place.add_argument("--checkpoint-every", type=int, default=0,
                       help="GP iterations between recovery checkpoints "
                            "(0 = default cadence when --recover is set)")
    place.add_argument("--verbose", action="store_true")
    place.set_defaults(handler=_cmd_place)

    batch = sub.add_parser(
        "batch", help="run a manifest of placement jobs in parallel"
    )
    batch.add_argument("manifest",
                       help="JSON/JSONL job manifest (see repro.runtime)")
    batch.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (1 = in-process)")
    batch.add_argument("--cache-dir", default=".repro-cache",
                       help="result cache directory (default .repro-cache)")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    batch.add_argument("--events", default=None,
                       help="append runtime events to this JSONL file")
    batch.add_argument("--start-method", default=None,
                       choices=["fork", "spawn", "forkserver"],
                       help="multiprocessing start method (default: auto)")
    batch.add_argument("--heartbeat-every", type=int, default=25,
                       help="GP iterations between heartbeat events")
    batch.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="spill GP checkpoints under DIR so crash/"
                            "timeout retries resume mid-run")
    batch.add_argument("--resume", action="store_true",
                       help="resume jobs from checkpoints a killed batch "
                            "left in --checkpoint-dir")
    batch.add_argument("--verbose", action="store_true",
                       help="echo every runtime event to stdout")
    batch.set_defaults(handler=_cmd_batch)

    stats = sub.add_parser("stats", help="print design statistics")
    add_design_args(stats)
    stats.set_defaults(handler=_cmd_stats)

    generate = sub.add_parser("generate", help="write a bookshelf benchmark")
    add_design_args(generate)
    generate.add_argument("--out", required=True, help="output directory")
    generate.set_defaults(handler=_cmd_generate)

    train = sub.add_parser("train-fno", help="train/cache the guidance model")
    train.add_argument("--cache", default=None, help="weights cache path")
    train.set_defaults(handler=_cmd_train_fno)

    lint = sub.add_parser(
        "lint", help="run the repo-specific static analysis rules"
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to lint (default src/repro)")
    lint.add_argument("--format", default="text", choices=["text", "json"],
                      help="report format")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule names to run exclusively")
    lint.add_argument("--ignore", default=None,
                      help="comma-separated rule names to skip")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the available rules and exit")
    lint.add_argument("--changed", nargs="?", const="HEAD", default=None,
                      metavar="REF",
                      help="lint only .py files changed vs REF "
                           "(git diff + untracked; default HEAD)")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="baseline file of justified intentional findings "
                           "(default: LINT_BASELINE.json when present)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report every finding, ignoring any baseline file")
    lint.set_defaults(handler=_cmd_lint)

    serve = sub.add_parser(
        "serve", help="run the placement daemon (HTTP job API)"
    )
    serve.add_argument("--state-dir", default=".repro-serve",
                       help="durable state root: journal, events, cache "
                            "and checkpoints (default .repro-serve)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port, 0 = ephemeral (default 8787)")
    serve.add_argument("--workers", type=int, default=2,
                       help="warm worker processes (default 2)")
    serve.add_argument("--start-method", default=None,
                       choices=["fork", "spawn", "forkserver"],
                       help="multiprocessing start method (default: auto)")
    serve.add_argument("--heartbeat-every", type=int, default=25,
                       help="GP iterations between heartbeat events")
    serve.add_argument("--quota", type=int, default=None,
                       help="max concurrently running jobs per tenant "
                            "(default: unlimited)")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       help="max queued (not yet running) jobs per tenant; "
                            "submits beyond it get HTTP 429 + Retry-After "
                            "(default: unlimited)")
    serve.set_defaults(handler=_cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="seeded service-chaos soak against a real daemon",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="soak seed; derives the whole fault schedule "
                            "(default 0)")
    chaos.add_argument("--jobs", type=int, default=20,
                       help="soak jobs (clean twins come on top; "
                            "default 20)")
    chaos.add_argument("--workers", type=int, default=2,
                       help="warm worker processes (default 2)")
    chaos.add_argument("--design", default="fft_1",
                       help="suite design for the soak jobs "
                            "(default fft_1)")
    chaos.add_argument("--cells", type=int, default=100,
                       help="movable cells per soak job (default 100)")
    chaos.add_argument("--iterations", type=int, default=40,
                       help="GP iterations per soak job (default 40)")
    chaos.add_argument("--deadline", type=float, default=60.0,
                       help="per-job wall-clock budget in seconds; the "
                            "hung job must be preempted well under it "
                            "(default 60)")
    chaos.add_argument("--hang-timeout", type=float, default=2.0,
                       help="liveness silence threshold in seconds "
                            "(default 2)")
    chaos.add_argument("--soak-timeout", type=float, default=300.0,
                       help="overall harness budget in seconds "
                            "(default 300)")
    chaos.add_argument("--state-dir", default=None,
                       help="daemon state root (default: fresh temp dir)")
    chaos.add_argument("--start-method", default=None,
                       choices=["fork", "spawn", "forkserver"],
                       help="multiprocessing start method (default: auto)")
    chaos.add_argument("--no-restart", action="store_true",
                       help="skip the journal-damage restart leg")
    chaos.add_argument("--out", default=None, metavar="JSON",
                       help="write the ChaosReport here "
                            "(e.g. CHAOS_report.json)")
    chaos.add_argument("--check-determinism", action="store_true",
                       help="run the soak twice and require identical "
                            "fingerprints")
    chaos.set_defaults(handler=_cmd_chaos)

    explore = sub.add_parser(
        "explore",
        help="population-based exploration over checkpoint forks",
    )
    add_design_args(explore)
    explore.add_argument("--population", type=int, default=4,
                         help="cohort members (default 4)")
    explore.add_argument("--rounds", type=int, default=3,
                         help="synchronization rounds (default 3)")
    explore.add_argument("--survivors", type=int, default=2,
                         help="lineages continued per round (default 2)")
    explore.add_argument("--seed", type=int, default=0,
                         help="base placement seed; also the cohort seed "
                              "unless --cohort-seed is given (default 0)")
    explore.add_argument("--cohort-seed", type=int, default=None,
                         help="separate seed for the perturbation draws")
    explore.add_argument("--max-iterations", type=int, default=1000,
                         help="per-lineage GP iteration budget")
    explore.add_argument("--segment-iters", type=int, default=None,
                         help="fixed segment length in GP iterations "
                              "(default: split the budget evenly)")
    explore.add_argument("--budget-core-seconds", type=float, default=None,
                         help="collapse the remaining rounds once the "
                              "cohort has spent this much compute "
                              "(makes the run non-round-deterministic)")
    explore.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes (1 = in-process)")
    explore.add_argument("--workdir", default=None,
                         help="checkpoint/fork spill root (default: temp)")
    explore.add_argument("--cache-dir", default=".repro-cache",
                         help="result cache directory (default .repro-cache)")
    explore.add_argument("--no-cache", action="store_true",
                         help="disable the result cache")
    explore.add_argument("--events", default=None,
                         help="append runtime events to this JSONL file")
    explore.add_argument("--out", default=None, metavar="JSON",
                         help="write the full cohort report here")
    explore.add_argument("--bench", default=None, metavar="JSON",
                         help="also run the equal-core-seconds comparison "
                              "vs a single run and write BENCH_explore-"
                              "style JSON here (fails if the cohort is "
                              "worse than the baseline)")
    explore.add_argument("--verbose", action="store_true",
                         help="echo every runtime event to stdout")
    explore.set_defaults(handler=_cmd_explore)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
