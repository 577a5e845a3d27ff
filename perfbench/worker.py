"""One round of a workload, in a fresh interpreter started by run.py.

Prints one JSON line: the set-up time (the CPU time this interpreter spent
from its start until the engine was imported) and the part of it spent
until numpy was imported, each op's latency, the job list's time, peak
RSS, and the ops whose output failed its check.  Times are CPU time of
this process (``calibration.CLOCK``), unscaled; the line carries the CPU
time and count of the calibration slices run after each op
(calibration.py), and the job list's wall time.  With ``--trace 1`` the
job list runs under the span tracer, and the line also carries the
per-layer metrics.
"""
import argparse
import json
import resource
import shutil
import sys
import tempfile
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--references", required=True)
    parser.add_argument("--spans", help="where a traced round writes its spans")
    parser.add_argument("--tmp", required=True, help="scratch directory for CLI output")
    args = parser.parse_args()

    # The set-up being measured.  The engine imports numpy first in any
    # case; importing it here first times that part on its own, which
    # run.py uses to scale the set-up time to the host's speed.
    import numpy
    numpy_s = time.process_time()
    import twocopy  # noqa: F401  all six modules
    import twocopy.cli  # noqa: F401
    setup = {"setup_s": time.process_time(), "numpy_s": numpy_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import scipy

    import calibration
    import tracer
    import workloads

    with open(args.references, encoding="utf-8") as handle:
        references = json.load(handle)
    tmp = tempfile.mkdtemp(dir=args.tmp)
    try:
        ops = workloads.build(args.workload, args.seed, references, tmp)
        spans = tracer.Tracer() if args.trace else None
        if spans:
            spans.install()
        clock = calibration.CLOCK
        outputs, latencies, op_slices = [], [], []
        wall_started = time.perf_counter()
        for index, op in enumerate(ops):
            if spans:
                spans.op = index
            t0 = clock()
            try:
                outputs.append((op.run(), None))
            except Exception as exc:  # a failed op is counted, not fatal
                outputs.append((None, f"raised {type(exc).__name__}: {exc}"))
            latencies.append(clock() - t0)
            op_slices.append(calibration.after_op(latencies[-1]))
        wall_run_s = time.perf_counter() - wall_started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if spans:
            spans.uninstall()

        failures = []
        for op, (output, error) in zip(ops, outputs):
            if error is None:
                try:
                    error = op.check(output)
                except Exception as exc:  # a check that cannot run is a failure
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                failures.append(f"{op.name}: {error}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        **setup,
        "trace": args.trace,
        "op_slices": op_slices,
        "run_s": sum(latencies),
        "wall_run_s": wall_run_s,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if spans:
        result["layers"] = spans.layer_metrics()
        result["absent_layers"] = spans.absent
        if args.spans:
            spans.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
