"""Run the benchmark: one fresh process per workload, one JSON line out.

From the root of a checkout::

    python3 bench/run.py --workload gp-adaptec3 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --seed 0 --trace --out result.json   # every workload

Each workload runs in a fresh subprocess with the BLAS thread pools
pinned to one thread before NumPy loads, against the program in this
checkout's ``src/``.  The metrics and their units come from
``BENCHMARK.json``: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer ones.  Each is printed by name with its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status is 0 when every output checked correct, 1 when a check
failed, and 2 when the benchmark could not run at all (for example in a
directory without the program's source), in which case no result is
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_TIMEOUT = 170.0           # seconds; a run must end within 180
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (exit status 2)."""


def load_spec() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} is missing")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, trace_file: Optional[str]) -> Dict[str, Any]:
    """Run one workload in a fresh process; return its result dict."""
    result_path = os.path.join(
        OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}.json")
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    command = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
               "--result", result_path]
    if smoke:
        command.append("--smoke")
    if trace_file:
        command += ["--trace-file", trace_file]
    # A session of its own, so a timeout can stop the workload's
    # workers along with it.
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             start_new_session=True)
    try:
        code = child.wait(timeout=WORKLOAD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise BenchError(f"workload {name} did not finish within "
                         f"{WORKLOAD_TIMEOUT:g} s")
    if code != 0:
        raise BenchError(f"workload {name} exited with status {code}")
    try:
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.remove(result_path)


def declared_metrics(result: Dict[str, Any],
                     spec: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The metrics ``BENCHMARK.json`` asks for, with their units."""
    declared = spec["per_layer" if result["trace"] else "end_to_end"]
    values = result["values"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise BenchError(f"workload {result['workload']}: metrics missing "
                         f"{missing}, undeclared {extra}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared}


def summary_line(results: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The final JSON line (metric names prefixed when several workloads)."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": value for r in results
                   for name, value in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced repetition")
    parser.add_argument("--out", help="write the full results here (JSON)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                           "__init__.py")):
            raise BenchError(f"no program source under {ROOT}/src")
        spec = load_spec()
        names: List[str] = [w["name"] for w in spec["workloads"]]
        if args.workload is not None:
            if args.workload not in names:
                raise BenchError(f"unknown workload {args.workload!r}; "
                                 f"pick from {names}")
            names = [args.workload]
        seconds = args.seconds or spec["run_seconds"]
        results = []
        trace_dir = (os.path.dirname(os.path.abspath(args.out)) if args.out
                     else OUT_DIR)
        for name in names:
            trace_file = None
            if args.trace:
                trace_file = os.path.join(
                    trace_dir, f"{name}-seed{args.seed}.trace.json")
            result = run_workload(name, args.seed, seconds, bool(args.trace),
                                  args.smoke, trace_file)
            result["metrics"] = declared_metrics(result, spec)
            if trace_file:
                result["trace_file"] = trace_file
            results.append(result)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2

    for result in results:
        status = "ok" if result["correct"] else "FAILED"
        print(f"{result['workload']} seed={result['seed']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{status}")
        for message in result["failures"]:
            print(f"  failure: {message}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<28s} {metric['value']:.6g} {metric['unit']}")
        if "trace_file" in result:
            print(f"  trace: {result['trace_file']}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results if len(results) > 1 else results[0], fh,
                      indent=1)
    line = summary_line(results)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
