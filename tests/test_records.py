"""The value records (``fock._Record`` and its eight subclasses): reprs,
equality, hashing, immutability, pickling and copying, validation, and an
engine import that generates no code."""
import copy
import json
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

import twocopy
from twocopy.fock import ModePolynomial, from_fock_amplitudes
from twocopy.inequalities import AngleQuad, CorrelationVector
from twocopy.measurement import BasisVector, BeamSplitterSetting
from twocopy.search import OptimizationResult, ScanSeries
from twocopy.states import CompositeState, bec_pair

POLYNOMIAL = ModePolynomial(("a", "b"), {(1, 0): 0.6, (0, 1): 0.8j})
QUAD = AngleQuad(0.1, 0.2, 0.3, 0.4)


def make(name):
    """A fresh record of the named class; two calls give equal records."""
    return {
        "ModePolynomial": lambda: ModePolynomial(("a", "b"), {(1, 0): 0.6, (0, 1): 0.8j}),
        "CompositeState": lambda: bec_pair(1),
        "BeamSplitterSetting": lambda: BeamSplitterSetting(0.6, 0.8, 1.5),
        "BasisVector": lambda: BasisVector((0, 1), POLYNOMIAL, -1),
        "AngleQuad": lambda: AngleQuad(0.1, 0.2, 0.3, 0.4),
        "CorrelationVector": lambda: CorrelationVector(0.5, -0.25, 1.0, 0.0),
        "OptimizationResult": lambda: OptimizationResult(
            2.5, AngleQuad(1.0, 2.0, 0.0, 3.0), 8, 120, 3, 7),
        "ScanSeries": lambda: ScanSeries("theta2", ((0.0, 1.5), (3.0, 2.5)),
                                         (("phi1", 0.1), ("phi2", 0.2))),
    }[name]()


# repr(make(name)), as the frozen dataclasses printed them
GOLDEN_REPRS = {
    "ModePolynomial": "ModePolynomial(modes=('a', 'b'), terms={(0, 1): 0+0.8j, (1, 0): 0.6+0j})",
    "CompositeState": "CompositeState(entries=((1.0, ModePolynomial(modes=('a', 'b', 'A', 'B'), "
                      "terms={(0, 1, 0, 1): 0.5+0j, (0, 1, 1, 0): 0.5+0j, (1, 0, 0, 1): 0.5+0j, "
                      "(1, 0, 1, 0): 0.5+0j})),), n1=1, n2=1, sector_pure=True)",
    "BeamSplitterSetting": "BeamSplitterSetting(alpha=0.6, beta=0.8, phase=1.5)",
    "BasisVector": "BasisVector(outcome=(0, 1), vector=ModePolynomial(modes=('a', 'b'), "
                   "terms={(0, 1): 0+0.8j, (1, 0): 0.6+0j}), weight=-1)",
    "AngleQuad": "AngleQuad(phi1=0.1, phi2=0.2, theta1=0.3, theta2=0.4)",
    "CorrelationVector": "CorrelationVector(e11=0.5, e12=-0.25, e21=1.0, e22=0.0)",
    "OptimizationResult": "OptimizationResult(max_value=2.5, argmax=AngleQuad(phi1=1.0, phi2=2.0, "
                          "theta1=0.0, theta2=3.0), restarts_used=8, evaluations=120, seed=3, "
                          "converged=7)",
    "ScanSeries": "ScanSeries(axis='theta2', samples=((0.0, 1.5), (3.0, 2.5)), "
                  "fixed=(('phi1', 0.1), ('phi2', 0.2)))",
}
NAMES = list(GOLDEN_REPRS)
# records holding a ModePolynomial, which rebuilds from its Fock amplitudes
HOLDS_POLYNOMIAL = {"ModePolynomial", "CompositeState", "BasisVector"}


# sqrt(171!) is past the float range, so this state has no ``terms``, but it prints
PAST_170 = "ModePolynomial(modes=('a',), terms={(171,): 2.83864e-155+0j})"


@pytest.mark.parametrize("name", NAMES + ["ModePolynomial past 170"])
def test_repr_unchanged(name):
    record = make(name) if name in GOLDEN_REPRS else from_fock_amplitudes(("a",), {(171,): 1.0})
    assert repr(record) == GOLDEN_REPRS.get(name, PAST_170)


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_equal_and_hash_alike(name):
    a, b = make(name), make(name)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", [n for n in NAMES if n != "ModePolynomial"])
def test_hash_of_the_field_tuple(name):
    record = make(name)
    fields = tuple(getattr(record, field) for field in type(record).__match_args__)
    assert hash(record) == hash(fields)


@pytest.mark.parametrize("name", NAMES)
def test_other_class_not_implemented(name):
    record = make(name)
    for other in (QUAD if name != "AngleQuad" else CorrelationVector(0.1, 0.2, 0.3, 0.4),
                  (0.1, 0.2, 0.3, 0.4), None):
        assert record.__eq__(other) is NotImplemented
        assert record != other


def test_unequal_fields_unequal():
    assert AngleQuad(0.1, 0.2, 0.3, 0.4) != AngleQuad(0.1, 0.2, 0.3, 0.5)
    assert bec_pair(1) != bec_pair(2)
    assert ModePolynomial(("a",), {(1,): 1.0}) != ModePolynomial(("a",), {(2,): 1.0})
    assert bec_pair(1) != CompositeState(bec_pair(1).entries, 1, 1, sector_pure=False)


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_refused(name):
    record = make(name)
    field = type(record).__match_args__[0]
    before = repr(record)
    for attribute in (field, "new_attribute"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{attribute}'$"):
            setattr(record, attribute, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{attribute}'$"):
            delattr(record, attribute)
    assert repr(record) == before
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_keyword_construction(name):
    record = make(name)
    fields = {field: getattr(record, field) for field in type(record).__match_args__}
    rebuilt = type(record)(**fields)
    assert repr(rebuilt) == repr(record)


def test_composite_default_and_pattern_matching():
    state = bec_pair(1)
    assert CompositeState(state.entries, 1, 1) == CompositeState(
        entries=state.entries, n1=1, n2=1, sector_pure=True)
    match QUAD:
        case AngleQuad(phi1, phi2, theta1, theta2=theta2):
            assert (phi1, phi2, theta1, theta2) == QUAD.as_tuple()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_as_the_dataclasses(name, how):
    record = make(name)
    clone = {"pickle": lambda r: pickle.loads(pickle.dumps(r)),
             "copy": copy.copy, "deepcopy": copy.deepcopy}[how]
    got = clone(record)
    assert type(got) is type(record) and repr(got) == repr(record)
    assert got == record and hash(got) == hash(record)
    if name in HOLDS_POLYNOMIAL:
        # four of these amplitudes move by an ulp through the coefficients
        # and back, so the copy must be rebuilt from the amplitudes
        member = bec_pair(7, 5).entries[0][1]
        assert clone(member) == member and hash(clone(member)) == hash(member)


MEMBER = bec_pair(1).entries[0][1]


@pytest.mark.parametrize("build, error, message", [
    (lambda: AngleQuad(0.0, math.nan, 0.0, 0.0), ValueError, "phi2=nan is not finite"),
    (lambda: AngleQuad(math.inf, math.nan, 0.0, 0.0), ValueError, "phi1=inf is not finite"),
    (lambda: AngleQuad(phi1=0.0, phi2=0.0, theta1=0.0, theta2=-math.inf), ValueError,
     "theta2=-inf is not finite"),
    (lambda: AngleQuad(0.0, 0.0, 0.0), TypeError,
     "AngleQuad.__init__() missing 1 required positional argument: 'theta2'"),
    (lambda: AngleQuad(0.0, 0.0, 0.0, 0.0, x=1.0), TypeError,
     "AngleQuad.__init__() got an unexpected keyword argument 'x'"),
    (lambda: BeamSplitterSetting(1.2, 0.0, 0.0), ValueError,
     "alpha=1.2 and beta=0.0 must lie in [0, 1]"),
    (lambda: BeamSplitterSetting(0.6, 0.6, 0.0), ValueError, "alpha^2 + beta^2 must equal 1"),
    (lambda: BeamSplitterSetting(0.6, 0.8, math.nan), ValueError, "phase nan is not finite"),
    (lambda: CompositeState((), 1, 1), ValueError, "mixture must contain at least one entry"),
    (lambda: CompositeState([], 1, 1), ValueError, "mixture must contain at least one entry"),
    (lambda: CompositeState(((1.0, MEMBER),), 1, 40), ValueError,
     "n2=40 must be an integer in [0, 32]"),
    (lambda: CompositeState(((math.nan, MEMBER),), 1, 1), ValueError,
     "mixture weight nan is not finite"),
    (lambda: CompositeState([[0.5, MEMBER]], 1, 1), ValueError,
     "mixture weights sum to 0.5, expected 1"),
    (lambda: CompositeState(((1.0, MEMBER),), 2, 1), ValueError,
     "member in sector (1, 1) violates sector (n1=2, n2=1)"),
    (lambda: CompositeState(((1.0, POLYNOMIAL),), 1, 1), ValueError,
     "composite states use modes ('a', 'b', 'A', 'B')"),
    (lambda: CompositeState(((1.0, MEMBER, 0),), 1, 1), ValueError,
     "too many values to unpack (expected 2)"),
    (lambda: ModePolynomial(("a", "a"), {}), ValueError, "duplicate mode labels in ('a', 'a')"),
    (lambda: ModePolynomial(("a",), {(1,): math.nan}), ValueError,
     "coefficient (nan+0j) of (1,) is not finite"),
    (lambda: ModePolynomial(("a",), {(1,): complex(1.0, math.inf)}), ValueError,
     "coefficient (1+infj) of (1,) is not finite"),
    # a finite coefficient whose amplitude, 1e308 sqrt(2! 2!), is past the float range
    (lambda: ModePolynomial(("a", "b"), {(1, 0): 0.5, (2, 2): 1e308}), ValueError,
     "amplitude (inf+0j) of (2, 2) is not finite"),
    # sqrt(171!) is past the float range, so a coefficient at 171 has no
    # amplitude, and an amplitude at 171 no coefficient
    (lambda: ModePolynomial(("a",), {(171,): 1e-300}), ValueError,
     "occupation 171 > 170: sqrt(171!) is past the float range"),
    (lambda: from_fock_amplitudes(("a",), {(171,): 1.0}).terms, ValueError,
     "occupation 171 > 170: sqrt(171!) is past the float range"),
    (lambda: OptimizationResult(1.0, QUAD, 1, 1, 0), TypeError,
     "OptimizationResult.__init__() missing 1 required positional argument: 'converged'"),
    (lambda: ScanSeries("theta2", ()), TypeError,
     "ScanSeries.__init__() missing 1 required positional argument: 'fixed'"),
    (lambda: BasisVector((0, 0), POLYNOMIAL), TypeError,
     "BasisVector.__init__() missing 1 required positional argument: 'weight'"),
])
def test_validation_messages_unchanged(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_engine_import_generates_no_code():
    # numpy imports neither module; any that it did is dropped first, so
    # that only the engine's own imports can bring them back
    code = """
import json, sys
import numpy
for name in ("dataclasses", "cmath"):
    sys.modules.pop(name, None)
before = set(sys.modules)
import twocopy, twocopy.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    src = str(pathlib.Path(twocopy.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    added = set(json.loads(run.stdout))
    assert not added & {"dataclasses", "cmath"}
    assert {f"twocopy.{module}" for module in ("fock", "states", "measurement", "inequalities",
                                               "search", "cli")} <= added
