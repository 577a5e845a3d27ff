"""Compare two sets of benchmark results, or summarize one.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the JSON records run.py writes to
``.perfbench/results/`` (``perfbench/baseline/`` holds the first
baseline).  For every workload and end-to-end metric it prints each side's
median and quartiles over its runs, the spread (quartile distance over the
median) and the ratio new/base with its base.  A metric is "unresolved"
when either side's spread exceeds the bound in BENCHMARK.json, unless
every new run reads better than every base run.  With one directory it
prints that side only, and the medians of any per-layer (traced) runs.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics


def load(directory: str) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def _fmt(values: list[float]) -> str:
    median, q1, q3, spread = stats(values)
    return f"{median:11.5g} [{q1:.5g}, {q3:.5g}] {100 * spread:5.1f}%"


def _failures(runs: list[dict]) -> str:
    failed = sum(r["summary"]["failed"] for r in runs)
    attempted = sum(r["summary"]["attempted"] for r in runs)
    return f"{failed}/{attempted} ops failed over {len(runs)} runs"


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    every_better = max(sign * v for v in new) < min(sign * v for v in base)
    if stats(base)[3] > bound or stats(new)[3] > bound:
        return "better in every run" if every_better else "unresolved"
    change = sign * (stats(new)[0] / stats(base)[0] - 1.0)
    if change > bound:
        return "WORSE beyond bound"
    return "better" if change < -bound else "within bound"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark, encoding="utf-8") as handle:
        bench = json.load(handle)
    base = load(args.base)
    new = load(args.new) if args.new else None

    for workload in [w["name"] for w in bench["workloads"]]:
        base_runs = base.get((workload, 0), [])
        new_runs = new.get((workload, 0), []) if new is not None else None
        if not base_runs or (new is not None and not new_runs):
            print(f"{workload}: no untraced runs on both sides\n")
            continue
        print(f"{workload}: base {_failures(base_runs)}"
              + (f"; new {_failures(new_runs)}" if new_runs else ""))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [r["end_to_end"][name] for r in base_runs]
            line = f"  {name:12s} {metric['unit']:3s} base {_fmt(b)}"
            if new_runs:
                n = [r["end_to_end"][name] for r in new_runs]
                ratio = stats(n)[0] / stats(b)[0]
                line += (f"  new {_fmt(n)}  ratio {ratio:.3f} of base "
                         f"{stats(b)[0]:.5g}  "
                         f"{verdict(b, n, bound, metric['better'] == 'lower')}")
            else:
                line += f"  bound {100 * bound:.0f}%"
            print(line)
        traced = base.get((workload, 1), [])
        if new is None and traced:
            print(f"  per-layer medians over {len(traced)} traced runs:")
            for metric in bench["per_layer"]:
                values = [r["per_layer"][metric["name"]] for r in traced]
                print(f"    {metric['name']:42s} {statistics.median(values):12.6g} "
                      f"{metric['unit']}")
        print()


if __name__ == "__main__":
    main()
