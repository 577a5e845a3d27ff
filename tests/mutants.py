"""A seeded mutation sample of the engine, run against tier-1.

A mutant is one small change to one site of ``src/twocopy``: an arithmetic
or comparison operator swapped (also in an augmented assignment), ``and``
and ``or`` swapped, a unary minus dropped, or a numeric constant raised by
one.  A test suite kills the mutant by failing on it (DeMillo, Lipton &
Sayward, Computer 11(4), 34 (1978)).  The script enumerates every site of
each sampled module with ``ast``, draws SAMPLE of them per module with a
generator seeded by the module's name, and for each one writes the mutated
module over a copy of the repository and runs tier-1 with ``-x`` there.
A run that exceeds TIMEOUT counts as a kill, since a mutated bisection
or ascent can loop.  Run from the repository root:

    python tests/mutants.py --copy ../twocopy-mutants --json mutants.json

It prints one line per mutant, with a site that spans lines joined onto one,
and a table of kills and survivors per module, and writes every mutant with
its outcome and the site's source text to the JSON file.  ``--list`` prints
the sample without running it, SAMPLE lines per module.  The whole sample takes about an hour
on a shared 2-core host: a survivor runs the whole suite.
"""
import argparse
import ast
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("fock", "states", "measurement", "inequalities", "search", "cli")
SAMPLE = 40
SEED = 37
TIMEOUT = 300.0  # seconds per mutant, about ten times a tier-1 run on a 2-core host

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


def run(entry: dict, copy: pathlib.Path) -> tuple[str, str, float]:
    """Tier-1 with -x on the copy with the mutant in place: the outcome,
    the first failing test and the seconds taken."""
    path = copy / "src" / "twocopy" / f"{entry['module']}.py"
    original = path.read_text(encoding="utf-8")
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    path.write_text(entry["source"], encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
        failing = [line.split()[1] for line in done.stdout.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))]
        outcome = "survived" if done.returncode == 0 else "killed"
        first = failing[0] if failing else ""
    except subprocess.TimeoutExpired:
        outcome, first = "killed", "timeout"
    finally:
        path.write_text(original, encoding="utf-8")
    return outcome, first, time.perf_counter() - start


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
    shutil.copytree(ROOT, args.copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
    results = []
    for entry in drawn:
        outcome, first, seconds = run(entry, args.copy)
        result = {k: entry[k] for k in ("module", "line", "site", "mutant")}
        result.update(outcome=outcome, first_failure=first, seconds=round(seconds, 1))
        results.append(result)
        print(f"{outcome:8} {seconds:6.1f} s  {one_line(entry)}  {first}", flush=True)
        if args.json:
            args.json.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
