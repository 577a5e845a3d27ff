"""Write references.json: optima that no closed form or known constant gives.

Run from the repository root, once, at a commit whose results are trusted:

    PYTHONPATH=src python3 perfbench/freeze_references.py

The optima are global maxima, so they do not depend on the optimizer's seed;
many restarts make sure the global maximum is the one frozen.
"""
import json
import math
import os

from twocopy import bec_pair
from twocopy.search import optimize

from workloads import UNBALANCED_REFLECTIVITIES

RESTARTS = 128
SEED = 20211220


def main() -> None:
    values = {"bec2/bell_abs": optimize("bell_abs", bec_pair(2), restarts=RESTARTS,
                                        seed=SEED).max_value}
    for r in UNBALANCED_REFLECTIVITIES:
        for objective in ("steering", "bell_abs"):
            result = optimize(objective, bec_pair(1, 2), restarts=RESTARTS, seed=SEED,
                              alpha=math.sqrt(r))
            values[f"bec12/r{r}/{objective}"] = result.max_value
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"optimize": values}, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
