"""The golden grid of seeded ``optimize`` results, tests/golden_search.json,
and the command that rewrites it.

For each case of ``test_search.golden_cases()`` the file pins two things:
the correlation series the search runs on, as the record itself (``c0``
and every (k, a_k, b_k) of ``terms`` as ``float.hex``), and ``repr`` of
the OptimizationResult, which tells every float bit apart.
``TestGoldenGrid`` rebuilds each pinned series, runs
``optimize`` on it in place of the state's own, and compares reprs, so a
pinned result depends on libm alone: not on the BLAS kernel that
contracted the series, whose last bits differ between kernels, nor on
numpy's SIMD loops.  The test also holds the live series to within 1e-15
of the pinned one.

Rewrite the file from the engine at hand with

    PYTHONPATH=src python tests/golden.py

which prints the cases whose result moved.  Rewrite it only in a change
that means to move seeded results.  Such a change says in CHANGES.md which
results moved, by how much, and why, and ``TestMaximaOracle`` must still
pass.
"""
import json
import pathlib
from unittest import mock

from twocopy import inequalities, search

PATH = pathlib.Path(__file__).with_name("golden_search.json")


def key(case) -> list:
    """A case as the file names it: label, objective, restarts, seed, alpha, bob_alpha."""
    label, _, objective, restarts, seed, alpha, bob_alpha = case
    return [label, objective, restarts, seed, alpha, bob_alpha]


def series_record(series) -> dict:
    """A series' c0 and terms as float.hex strings."""
    return {"c0": series.c0.hex(), "terms": [[v.hex() for v in term] for term in series.terms]}


def pinned_series(record: dict):
    """The series whose c0 and terms are ``record``'s."""
    return inequalities._Series(float.fromhex(record["c0"]),
                                tuple(tuple(map(float.fromhex, term)) for term in record["terms"]))


def result(case, series) -> str:
    """repr of the case's optimize run on ``series`` in place of the state's own."""
    _, state, objective, restarts, seed, alpha, bob_alpha = case
    with mock.patch.object(search, "_series", lambda *args: series):
        return repr(search.optimize(objective, state, restarts=restarts, seed=seed,
                                    alpha=alpha, bob_alpha=bob_alpha))


def load() -> list[dict]:
    return json.loads(PATH.read_text(encoding="utf-8"))


def main() -> None:
    from test_search import golden_cases

    old = {tuple(entry["case"]): entry["result"] for entry in load()} if PATH.exists() else {}
    entries = []
    for case in golden_cases():
        _, state, _, _, _, alpha, bob_alpha = case
        record = series_record(inequalities._series(state, alpha, bob_alpha))
        entries.append({"case": key(case), "series": record,
                        "result": result(case, pinned_series(record))})
    # one case per line, so a moved result is a one-line diff
    PATH.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n",
                    encoding="utf-8")
    moved = [entry for entry in entries if old.get(tuple(entry["case"])) != entry["result"]]
    for entry in moved:
        print(f"{entry['case']}: {old.get(tuple(entry['case']))} -> {entry['result']}")
    print(f"{len(moved)} of {len(entries)} results moved; wrote {PATH}")


if __name__ == "__main__":
    main()
