"""A census of how often a short seeded search misses the global maximum.

300 seeded random pure states, n1 and n2 in 1..4, alternately with the
steering and the |Bell| objective, every third at a random unbalanced
splitter pair (the rest balanced), each searched by ``optimize`` at 8
restarts with seeds 0, 1 and 2: 900 runs.  At balanced splitters every
correlation of a state with n1 != n2 vanishes, so 160 of the states have
the maximum 0 and cannot miss.  A run misses when its maximum
lies more than MISS_TOL below the state's maximum at 1,024 restarts,
which search_census.json, beside this file, pins with the misses the
search is allowed.  Run from the repository root:

    PYTHONPATH=src python tests/search_census.py           # print the census
    PYTHONPATH=src python tests/search_census.py --check   # fail on more misses
    PYTHONPATH=src python tests/search_census.py --pin     # rewrite the maxima

It prints each miss, the misses, the evaluations and the restarts that
ran to the step cap, and with ``--check`` exits 1 when the misses exceed
the pinned ``misses_allowed``.  ``--pin`` rewrites the maxima from the
engine at hand and keeps ``misses_allowed``; a change that makes the
search miss less lowers that count by hand, and none raises it.  The run
takes about 1 s, and ``--pin`` about 15 s, on one core of a shared 2-core Xeon.
"""
import argparse
import json
import math
import pathlib
import sys

import numpy as np

from oracle import random_state
from twocopy.search import optimize

PATH = pathlib.Path(__file__).with_name("search_census.json")
STATES = 300
SEEDS = (0, 1, 2)
RESTARTS = 8
PIN_RESTARTS = 1024
MISS_TOL = 1e-9


def cases():
    """(state, objective, alpha, bob_alpha) of every census state, drawn
    from one seeded generator."""
    rng = np.random.default_rng(2024)
    drawn = []
    for index in range(STATES):
        n1, n2 = (int(n) for n in rng.integers(1, 5, 2))
        state = random_state(rng, n1, n2)
        alphas = np.sqrt(rng.uniform(0.1, 0.9, 2)).tolist()
        if index % 3 != 2:
            alphas = [1.0 / math.sqrt(2.0)] * 2
        drawn.append((state, ("steering", "bell_abs")[index % 2], *alphas))
    return drawn


def pin() -> None:
    old = json.loads(PATH.read_text(encoding="utf-8")) if PATH.exists() else {}
    maxima = [optimize(objective, state, restarts=PIN_RESTARTS, seed=0, alpha=alpha,
                       bob_alpha=bob_alpha).max_value.hex()
              for state, objective, alpha, bob_alpha in cases()]
    record = {"misses_allowed": old.get("misses_allowed", STATES * len(SEEDS)),
              "maxima": maxima}
    PATH.write_text(json.dumps(record, indent=0) + "\n", encoding="utf-8")
    print(f"pinned {len(maxima)} maxima at {PIN_RESTARTS} restarts in {PATH}")


def census(record: dict) -> int:
    """Print the census against the pinned ``record`` and return its misses."""
    misses = evaluations = capped = 0
    for index, ((state, objective, alpha, bob_alpha), pinned) in enumerate(
            zip(cases(), record["maxima"], strict=True)):
        best = float.fromhex(pinned)
        for seed in SEEDS:
            result = optimize(objective, state, restarts=RESTARTS, seed=seed, alpha=alpha,
                              bob_alpha=bob_alpha)
            evaluations += result.evaluations
            capped += result.restarts_used - result.converged
            if result.max_value < best - MISS_TOL:
                misses += 1
                print(f"miss: state {index} ({state.n1}+{state.n2}) {objective} seed {seed}: "
                      f"{result.max_value!r} < {best!r}")
            if result.max_value > best + MISS_TOL:
                print(f"above the pinned maximum: state {index} {objective} seed {seed}: "
                      f"{result.max_value!r} > {best!r}")
    runs = len(record["maxima"]) * len(SEEDS)
    print(f"misses {misses} of {runs} (allowed {record['misses_allowed']}), "
          f"evaluations {evaluations}, capped restarts {capped}")
    return misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--check", action="store_true",
                        help="exit 1 when the misses exceed misses_allowed")
    action.add_argument("--pin", action="store_true",
                        help="rewrite the maxima at 1,024 restarts")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
        return 0
    record = json.loads(PATH.read_text(encoding="utf-8"))
    return int(census(record) > record["misses_allowed"] and args.check)


if __name__ == "__main__":
    sys.exit(main())
