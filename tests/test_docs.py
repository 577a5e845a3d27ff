"""README examples: every command-line example runs, and the library quick
start gives the values its comments state."""
import ast
import math
import pathlib
import re
import shlex

import pytest

from twocopy import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block under the README ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def cli_examples() -> list[list[str]]:
    lines = code_block("## Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("twocopy ")]


def test_every_command_line_example_runs(capsys, tmp_path):
    examples = cli_examples()
    assert [argv[0] for argv in examples] == [
        "optimize", "scan", "basis", "visibility", "verify", "trace"]
    for index, argv in enumerate(examples):
        target = tmp_path / f"{index}.out"
        if "--output" in argv:
            argv[argv.index("--output") + 1] = str(target)
        else:
            argv += ["--output", str(target)]
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr() == ("", "")
        assert target.read_text(encoding="utf-8").strip()


def test_library_quick_start_values():
    block = code_block("## Library quick start", "python")
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                     namespace)
        # the stated value is the comment up to any parenthesized remark
        stated = lines[node.lineno - 1].partition("#")[2].split(" (")[0].strip()
        if re.fullmatch(r"\d+\.\d+", stated):
            digits = len(stated.partition(".")[2])
            assert f"{value:.{digits}f}" == stated
        else:
            assert value == pytest.approx(eval(stated, {"sqrt": math.sqrt}), abs=1e-12)
        checked += 1
    assert checked == 3
