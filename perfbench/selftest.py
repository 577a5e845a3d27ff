"""Self-test of the output checks: a wrong reference must be caught.

    python3 perfbench/selftest.py

Runs one round of the optimize workload against the stored references,
which must pass, and one against a copy in which a single frozen optimum
is moved by 1e-9, which must report failed ops.  Exits 0 when both hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERTURBED_KEY = "bec2/bell_abs"
PERTURBATION = 1e-9


def failed_ops(references: str, tmp: str) -> tuple[int, int]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "optimize",
         "--seed", "1", "--references", references, "--tmp", tmp],
        capture_output=True, text=True, env=env, check=True, timeout=170)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return len(record["failures"]), record["attempted"]


def main() -> int:
    tmp = os.path.join(".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    stored = os.path.join(HERE, "references.json")
    with open(stored, encoding="utf-8") as handle:
        references = json.load(handle)
    references["optimize"][PERTURBED_KEY] += PERTURBATION
    perturbed = os.path.join(tmp, "perturbed_references.json")
    with open(perturbed, "w", encoding="utf-8") as handle:
        json.dump(references, handle)

    clean, attempted = failed_ops(stored, tmp)
    caught, _ = failed_ops(perturbed, tmp)
    print(f"stored references: {clean}/{attempted} ops failed (want 0)")
    print(f"{PERTURBED_KEY} moved by {PERTURBATION:g}: {caught}/{attempted} ops "
          f"failed, failed_frac {caught / attempted:.3f} (want > 0)")
    return 0 if clean == 0 and caught > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
