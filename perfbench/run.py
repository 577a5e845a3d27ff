"""Benchmark of the twocopy engine: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``optimize``, ``profile``, ``visibility``,
``cli``.  A single caller drives the engine in a closed loop: each op is
sent only after the previous one returned.  A run is a fixed number of
rounds, ``seconds / NOMINAL_ROUND_S``; each round starts a fresh
interpreter (worker.py), imports the engine, and runs the workload's whole
job list, so caches start empty in every round.  The seed fixes the
inputs; the same seed gives the same job list in every round.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

* ``setup_s``: fresh interpreter to engine imported, median of at least
  five starts;
* ``run_s``: time to solution of the job list, the sum over ops of each
  op's median time over the rounds;
* ``op_p50_ms`` and ``op_tail_ms``: median and tail latency of every op
  run in every round; the tail is the highest whole percentile with at
  least ten op runs beyond it, and is printed with the result;
* ``peak_rss_mb``: peak resident memory of a round, median over rounds.

Times are CPU time of the worker process, which runs the job list on one
thread (BLAS pools are held to one thread): on a shared host the wall time
of the same job list also counts the time other tenants held the CPU.  The
CPU time itself moves with the load other tenants put on the same cores,
so op times are divided by the host slowdown measured with calibration.py
around each op, and per-layer times by the slowdown over their round: they
read as CPU time on a host that runs one calibration slice in
``calibration.REFERENCE_S``.  Each set-up time is scaled by the time its
interpreter took to start and import numpy, over
``calibration.NUMPY_REFERENCE_S``.  The JSON record keeps the unscaled
times, the calibration slices and each round's wall time.

Ops that raise or whose output fails its check are counted in ``failed``.
With ``--trace 1`` rounds alternate between untraced and traced, and the
line carries the per-layer metrics of the traced rounds (medians) and the
tracing overhead.  Every run also writes a JSON record with the
environment and the raw round data to ``.perfbench/results/``; compare.py
reads those.  BLAS thread pools are held to one thread in every worker.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench"  # results, spans and scratch files, under the checkout
# Seconds of --seconds that one round counts for, a little under the length
# of a round (start, job list, calibration, checks) at the first
# benchmarked commit.  It fixes the number of rounds per --seconds, so
# that later commits run the same job list the same number of times.
NOMINAL_ROUND_S = {"optimize": 5.0, "profile": 3.8, "visibility": 13.0, "cli": 3.0}
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
# A run must end within 180 s; stop waiting for workers before that.
DEADLINE_S = 170
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def scaled_latencies(record: dict) -> list[float]:
    """A round's op times, each divided by the host slowdown around it."""
    slowdowns = calibration.op_slowdowns(record["op_slices"])
    return [t / s for t, s in zip(record["latencies_s"], slowdowns)]


def op_medians(records: list[dict]) -> list[float]:
    """Each op's median scaled time over the rounds.

    An op's median over several fresh interpreters is the steadiest
    estimate of its cost.
    """
    return [statistics.median(times) for times in zip(*map(scaled_latencies, records))]


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, min(99, math.floor(100.0 - 1000.0 / samples)))


def _environment(seed: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        # Do not let git look above the checkout, which need not be a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, env=env, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    package = os.path.join("src", "twocopy")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "blas_threads": {name: "1" for name in THREAD_ENV},
    }


def _spawn(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one worker; returns its JSON line."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                              capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {exc.timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    for sub in ("results", "spans", "tmp"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_ENV})
    common = ["--workload", workload, "--seed", str(seed),
              "--references", os.path.join(HERE, "references.json"),
              "--tmp", os.path.join(OUT, "tmp")]

    deadline = time.monotonic() + DEADLINE_S
    rounds = max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))
    kinds = [i % 2 for i in range(rounds)] if trace else [0] * rounds
    records = []
    for index, kind in enumerate(kinds):
        argv = common + ["--trace", str(kind)]
        if kind:
            argv += ["--spans", os.path.join(
                OUT, "spans", f"{workload}-seed{seed}-round{index}.jsonl.gz")]
        records.append(_spawn(argv, env, deadline))
    starts = records + [_spawn(common + ["--setup-only"], env, deadline)
                        for _ in range(SETUP_SAMPLES - len(records))]
    setups = [r["setup_s"] * calibration.NUMPY_REFERENCE_S / r["numpy_s"]
              for r in starts]

    plain = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    latencies = [s for r in plain for s in scaled_latencies(r)]
    tail = tail_percentile(len(latencies))
    run_s = sum(op_medians(plain))
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * statistics.quantiles(
            latencies, n=100, method="inclusive")[tail - 1], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }
    per_layer = {}
    if traced:
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
        for name, unit in units.items():
            if name == "trace.overhead_frac":
                value = sum(op_medians(traced)) / run_s - 1.0
            elif unit in ("s", "us"):
                value = statistics.median(
                    r["layers"][name] / calibration.slowdown(r["op_slices"]) for r in traced)
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            per_layer[name] = (value, unit)
    failures = [f for r in records for f in r["failures"]]
    attempted = sum(r["attempted"] for r in records)
    shown = per_layer if trace else end_to_end
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    environment = _environment(seed)
    environment.update(records[0]["versions"])
    detail = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment,
        "summary": summary,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
        "op_tail_percentile": tail,
        "latency_samples": len(latencies),
        "setup_samples_s": setups,
        "setup_unscaled_s": [r["setup_s"] for r in starts],
        "setup_numpy_s": [r["numpy_s"] for r in starts],
        "failures": failures,
        "absent_layers": sorted({a for r in traced for a in r["absent_layers"]}),
        "rounds": [{k: r[k] for k in ("trace", "run_s", "wall_run_s", "peak_rss_mb",
                                      "latencies_s", "op_slices")}
                   for r in records],
    }
    path = os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    print(f"{workload} seed {seed}: {len(kinds)} rounds, {attempted} ops, "
          f"{len(failures)} failed; op_tail_ms is p{tail} of {len(latencies)} ops")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "twocopy", "__init__.py")):
        print("perfbench: run from the repository root; src/twocopy is missing",
              file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
