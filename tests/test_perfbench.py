"""The benchmark's optimize job lists, run and checked as in a benchmark round.

Each op's check holds ``optimize`` to the benchmark's references: the
closed forms, 2*sqrt(2), 1 + sqrt(2) and the maxima frozen in
``perfbench/references.json``, all to 1e-12.  The benchmark's files are
only read: the module is loaded without writing bytecode next to it.
"""
import importlib.util
import json
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", [2601, 2602])
def test_optimize_ops_meet_references(workloads, seed, tmp_path):
    references = json.loads((PERFBENCH / "references.json").read_text())
    ops = workloads.build("optimize", seed, references, str(tmp_path))
    assert ops
    failures = [(op.name, message) for op in ops
                if (message := op.check(op.run())) is not None]
    assert failures == []
