"""Compare two sets of benchmark results, metric by metric.

Each result file is what ``bench/run.py --out`` writes (one workload's
result, or a list of them).  Runs are paired by workload and seed; run
the parent and the change alternately, one seed at a time::

    python3 bench/compare.py --base parent/*.json --new change/*.json
    python3 bench/compare.py --base runs/*.json      # spread of one set

For every (workload, metric) it prints each side's median and quartiles
(``statistics.quantiles(values, n=4)``) and, for end-to-end metrics, a
verdict using the bounds in ``BENCHMARK.json``:

``unresolved``  a side's quartile spread, as a share of its median, is
                wider than the bound (unless every new run beats every
                base run, which reads ``better``);
``worse``       the new median is worse than the base median by more
                than the bound;
``better``      the new side wins at least 9 of every 10 pairs (ties
                count for neither) and the medians differ by more than
                the base side's quartile spread;
``same``        otherwise.

With ``--base`` alone it prints each metric's spread against its bound:
``steady`` below a third of it, ``within`` up to it, ``too wide`` past it.
Each timing metric also shows the medians of its raw, uncalibrated wall
times, so that a reader can see what the calibration did.

The exit status is 1 when any verdict is ``worse`` or ``too wide``, and
2 when the runs' speed monitors were scheduled in different modes (see
``speed.py``): their calibrated times are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_RATE = 0.9


Runs = Dict[Tuple[str, int], Dict[int, Dict]]


def load_results(paths: Sequence[str]) -> Runs:
    """``{(workload, trace): {seed: result}}`` from result files."""
    runs: Runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for result in data if isinstance(data, list) else [data]:
            key = (result["workload"], int(result["trace"]))
            runs.setdefault(key, {})[int(result["seed"])] = result
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> str:
    """The verdict for one metric; ``base[i]`` pairs with ``new[i]``."""
    sign = 1.0 if better == "lower" else -1.0
    # After scaling by ``sign``, lower is better on both sides.
    b = [sign * v for v in base]
    n = [sign * v for v in new]
    if max(spread(base), spread(new)) > bound:
        return "better" if max(n) < min(b) else "unresolved"
    b_med, n_med = statistics.median(b), statistics.median(n)
    if (n_med - b_med) / abs(b_med) > bound:
        return "worse"
    wins = sum(1 for x, y in zip(b, n) if y < x)
    q1, _, q3 = quartiles(b)
    if wins >= WIN_RATE * len(b) and b_med - n_med > q3 - q1:
        return "better"
    return "same"


def steadiness(values: List[float], bound: float) -> str:
    s = spread(values)
    if s <= bound / 3:
        return "steady"
    return "within" if s <= bound else "too wide"


def _fmt(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:>11.5g} [{q1:.4g}, {q3:.4g}]"


def _raw(runs: Dict[int, Dict], seeds: Sequence[int],
         name: str) -> Optional[float]:
    """Median raw value of a timing metric, if every run kept one."""
    values = [runs[s].get("raw_values", {}).get(name) for s in seeds]
    return None if None in values else statistics.median(values)


def speed_modes(*sets: Optional[Runs]) -> set:
    return {result.get("speed_mode") for runs in sets if runs
            for by_seed in runs.values() for result in by_seed.values()}


def compare(base_runs: Runs, new_runs: Optional[Runs],
            spec: Dict[str, Any], out=sys.stdout) -> int:
    modes = speed_modes(base_runs, new_runs)
    if len(modes) > 1:
        print(f"runs were calibrated in different speed-monitor modes "
              f"{sorted(map(str, modes))}; not comparing", file=out)
        return 2
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    bad = 0
    for key in sorted(base_runs):
        workload, trace = key
        base = base_runs[key]
        new = new_runs.get(key) if new_runs is not None else None
        seeds = sorted(set(base) & set(new)) if new else sorted(base)
        if not seeds:
            continue
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}, "
              f"{len(seeds)} run(s) per side)", file=out)
        header = f"  {'metric':<26s} {'base median [q1, q3]':>34s}"
        if new:
            header += f" {'new median [q1, q3]':>34s}"
        print(header + "  verdict", file=out)
        for metric in declared[trace]:
            name = metric["name"]
            b = [base[s]["metrics"][name]["value"] for s in seeds]
            line = f"  {name:<26s} {_fmt(b):>34s}"
            bound = metric.get("bound")
            if new:
                n = [new[s]["metrics"][name]["value"] for s in seeds]
                line += f" {_fmt(n):>34s}"
                result = verdict(b, n, metric["better"], bound) \
                    if bound is not None else "-"
                bad += result == "worse"
            else:
                result = (f"{steadiness(b, bound)} (spread "
                          f"{spread(b):.2%}, bound {bound:.1%})"
                          if bound is not None else f"spread {spread(b):.2%}")
                bad += result.startswith("too wide")
            raw_b = _raw(base, seeds, name)
            if raw_b is not None:
                result += f"  raw {raw_b:.4g}"
                raw_n = _raw(new, seeds, name) if new else None
                if raw_n is not None:
                    result += f" -> {raw_n:.4g} ({raw_n / raw_b - 1:+.1%})"
            print(f"{line}  {result}", file=out)
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True,
                        help="result files of the parent (or the one set)")
    parser.add_argument("--new", nargs="+",
                        help="result files of the change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base = load_results(args.base)
    new = load_results(args.new) if args.new else None
    return compare(base, new, spec)


if __name__ == "__main__":
    raise SystemExit(main())
