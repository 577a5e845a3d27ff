"""A seeded mutation sample of the engine, run against tier-1: a kill matrix.

A mutant is one small change to one site of ``src/twocopy``: an arithmetic
or comparison operator swapped (also in an augmented assignment), ``and``
and ``or`` swapped, a unary minus dropped, or a numeric constant raised by
one.  A test suite kills the mutant by failing on it (DeMillo, Lipton &
Sayward, Computer 11(4), 34 (1978)).  The script enumerates every site of
each sampled module with ``ast``, draws SAMPLE of them per module with a
generator seeded by the module's name, and for each one writes the mutated
module over one of WORKERS copies of the repository and runs all of tier-1
there, without ``-x``.  The ids of the tests that fail are read from
pytest's junit report, not from its console text.  A run that exceeds
TIMEOUT counts as a kill, since a mutated bisection or ascent can loop;
pytest then gets SIGINT and GRACE seconds to write its report, so the kill
keeps the ids of the tests that failed before the timeout.  Run from the
repository root:

    python tests/mutants.py --copy ../twocopy-mutants --json mutants.json

It prints one line per mutant, with a site that spans lines joined onto one,
a table of kills and survivors per module, and each mutant that one test
alone kills, with that test.  The JSON file holds the kill matrix: every
mutant with its site's source text, its outcome, whether it timed out, and
the ids of the tests that failed on it.  ``--list`` prints the sample
without running it, SAMPLE lines per module.  The whole sample takes about
two hours on a shared 2-core host, since every mutant runs the whole suite.
"""
import argparse
import ast
import json
import os
import pathlib
import queue
import random
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from xml.etree import ElementTree

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("fock", "states", "measurement", "inequalities", "search", "cli")
SAMPLE = 40
SEED = 37
TIMEOUT = 150.0  # seconds per mutant, about three times a tier-1 run beside the other worker's
GRACE = 10.0  # seconds that pytest gets after SIGINT to write its report
WORKERS = 2  # copies of the repository, each running one mutant at a time

ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
              ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
              ast.MatMult: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
              ast.BitXor: ast.BitAnd, ast.LShift: ast.RShift, ast.RShift: ast.LShift}
COMPARISON = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
              ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
              ast.In: ast.NotIn, ast.NotIn: ast.In}


def sites(tree: ast.Module) -> list[tuple[ast.AST, int]]:
    """Every (node, index) that one mutation changes; index picks the
    operator of a chained comparison.  Nodes inside f-strings and type
    annotations are left out."""
    skipped = [f for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)]
    skipped += [a.annotation for a in ast.walk(tree) if isinstance(a, (ast.arg, ast.AnnAssign))]
    skipped += [f.returns for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    skipped = {id(n) for f in skipped if f is not None for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC:
            found.append((node, 0))
        elif isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in COMPARISON]
        elif isinstance(node, ast.BoolOp) or (isinstance(node, ast.UnaryOp)
                                              and isinstance(node.op, ast.USub)):
            found.append((node, 0))
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
            found.append((node, 0))
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset, s[1]))


def mutated(node: ast.AST, index: int) -> ast.AST:
    """A mutated copy of ``node``."""
    node = ast.parse(ast.unparse(node)).body[0]
    node = node.value if isinstance(node, ast.Expr) else node
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = ARITHMETIC[type(node.op)]()
    elif isinstance(node, ast.Compare):
        node.ops[index] = COMPARISON[type(node.ops[index])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif isinstance(node, ast.UnaryOp):
        node = node.operand
    else:
        node.value += 1
    return node


def mutant(source: str, node: ast.AST, index: int) -> tuple[str, str, str]:
    """The module's source with one site replaced, the site's text and its
    replacement.  An expression is replaced in parentheses, so that the
    precedence around it stays."""
    lines = source.splitlines(keepends=True)
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line.encode()))
    data = source.encode()
    start = offsets[node.lineno - 1] + node.col_offset
    end = offsets[node.end_lineno - 1] + node.end_col_offset
    before = data[start:end].decode()
    after = ast.unparse(mutated(node, index))
    if not isinstance(node, ast.AugAssign):
        after = f"({after})"
    return (data[:start] + after.encode() + data[end:]).decode(), before, after


def sample(seed: int = SEED, size: int = SAMPLE) -> list[dict]:
    """The seeded sample: SAMPLE sites per module, each with its mutant."""
    drawn = []
    for module in MODULES:
        path = ROOT / "src" / "twocopy" / f"{module}.py"
        source = path.read_text(encoding="utf-8")
        found = sites(ast.parse(source))
        for node, index in sorted(random.Random(f"{seed}-{module}").sample(found, size),
                                  key=lambda s: (s[0].lineno, s[0].col_offset, s[1])):
            text, before, after = mutant(source, node, index)
            ast.parse(text)  # every mutant compiles
            drawn.append({"module": module, "line": node.lineno, "site": before,
                          "mutant": after, "source": text})
    return drawn


def pytest_command(report: pathlib.Path) -> list[str]:
    """Tier-1 without ``-x``, writing a junit report whose test cases name
    their files, so that ``failed_ids`` can rebuild pytest's ids."""
    return [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "-o", "junit_family=xunit1",
            f"--junitxml={report}"]


def failed_ids(report: str) -> list[str]:
    """The ids, as pytest prints them, of the tests that failed or errored
    in a junit report from ``pytest_command``; a module that failed to
    collect gives its path."""
    failed = {}
    for case in ElementTree.fromstring(report).iter("testcase"):
        if case.find("failure") is None and case.find("error") is None:
            continue
        test, classname = case.get("file"), case.get("classname")
        if classname:
            inner = classname.removeprefix(test.removesuffix(".py").replace("/", "."))
            test = "::".join([test, *inner.split(".")[1:], case.get("name")])
        failed[test] = None
    return list(failed)


def run(entry: dict, copy: pathlib.Path) -> tuple[bool, bool, list[str], float]:
    """Tier-1 on the copy with the mutant in place: whether it killed the
    mutant, whether it timed out, the ids of the tests that failed and the
    seconds taken."""
    path = copy / "src" / "twocopy" / f"{entry['module']}.py"
    report = copy / "mutant-report.xml"
    original = path.read_text(encoding="utf-8")
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    report.unlink(missing_ok=True)
    path.write_text(entry["source"], encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        pytest = subprocess.Popen(pytest_command(report), cwd=copy, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            killed, timed_out = pytest.wait(TIMEOUT) != 0, False
        except subprocess.TimeoutExpired:
            # pytest stops at SIGINT and writes the report of the tests it ran
            pytest.send_signal(signal.SIGINT)
            try:
                pytest.wait(GRACE)
            except subprocess.TimeoutExpired:
                pytest.kill()
                pytest.wait()
            killed, timed_out = True, True
        failed = failed_ids(report.read_text(encoding="utf-8")) if report.exists() else []
    finally:
        path.write_text(original, encoding="utf-8")
    return killed, timed_out, failed, time.perf_counter() - start


def one_line(entry: dict) -> str:
    """``module:line: site -> mutant``, each run of whitespace one space."""
    return " ".join(f"{entry['module']}:{entry['line']}: {entry['site']} -> {entry['mutant']}"
                    .split())


def table(results: list[dict]) -> str:
    rows = ["module        killed  survived  total"]
    for module in MODULES + ("all",):
        mine = [r for r in results if module in ("all", r["module"])]
        killed = sum(r["outcome"] == "killed" for r in mine)
        rows.append(f"{module:<13} {killed:>6}  {len(mine) - killed:>8}  {len(mine):>5}")
    return "\n".join(rows)


def sole_kills(results: list[dict]) -> list[str]:
    """One line per mutant that exactly one test kills: the test, then the
    mutant.  Deleting that test lets the mutant survive."""
    return [f"{r['failed'][0]}  {one_line(r)}" for r in results
            if r["outcome"] == "killed" and len(r["failed"]) == 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--copy", type=pathlib.Path, help="directory for the copy of the repository")
    parser.add_argument("--json", type=pathlib.Path, help="write the results here")
    parser.add_argument("--list", action="store_true", help="print the sample and stop")
    args = parser.parse_args(argv)
    drawn = sample()
    if args.list:
        for entry in drawn:
            print(one_line(entry))
        return 0
    if args.copy is None or args.copy.exists() or ROOT in args.copy.resolve().parents:
        parser.error("--copy must name a new directory outside the repository")
    copies = queue.Queue()
    for worker in range(WORKERS):
        copy = args.copy / f"copy{worker}"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
        copies.put(copy)

    def run_on_a_free_copy(entry):
        copy = copies.get()
        try:
            return run(entry, copy)
        finally:
            copies.put(copy)

    results = []
    with ThreadPoolExecutor(WORKERS) as pool:
        for entry, outcome in zip(drawn, pool.map(run_on_a_free_copy, drawn)):
            killed, timed_out, failed, seconds = outcome
            result = {k: entry[k] for k in ("module", "line", "site", "mutant")}
            result.update(outcome="killed" if killed else "survived", timed_out=timed_out,
                          failed=failed, seconds=round(seconds, 1))
            results.append(result)
            note = "timeout" if timed_out else f"{len(failed)} failed"
            print(f"{result['outcome']:8} {seconds:6.1f} s  {one_line(entry)}  {note}",
                  flush=True)
            if args.json:
                args.json.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(table(results))
    print("\n".join(["mutants with one killer:", *sole_kills(results)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
