"""Exact second-quantized state algebra for few-boson systems.

States are stored as complex-weighted sums of creation-operator monomials
acting on the vacuum.  A monomial is keyed by its exponent vector, one
nonnegative integer per mode, so the Fock amplitude of an occupation
``n`` is ``coefficient(n) * prod(sqrt(n_k!))``.  Everything here is exact
up to double precision; supports stay tiny because total particle numbers
are small.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

UNITARY_TOL = 1e-12
NORM_TOL = 1e-12

Exponents = tuple[int, ...]


class ModeCollisionError(ValueError):
    """Raised when combining states whose mode labels overlap."""


class ModeMismatchError(ValueError):
    """Raised when an operation requires identical or covered mode sets."""


class NonUnitaryMapError(ValueError):
    """Raised when a linear mode map does not conserve particle number."""


def _check_count(name: str, value, low: int, high: int | None) -> None:
    """Raise ValueError unless ``value`` is an int or numpy integer, not a
    bool, in [low, high]; ``high=None`` leaves it unbounded above."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bound = f"in [{low}, {high}]" if high is not None else f">= {low}"
        raise ValueError(f"{name}={value!r} must be an integer {bound}")


def _counts(name: str, values) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each checked as a count >= 0."""
    values = tuple(values)
    if not all(type(v) is int and v >= 0 for v in values):  # plain ints pass at once
        for v in values:
            _check_count(name, v, 0, None)
        values = tuple(map(int, values))
    return values


@lru_cache(maxsize=None)  # at most 171 entries: a float overflows from sqrt(171!) on
def _sqrt_factorial(n: int) -> float:
    return math.sqrt(math.factorial(n))


def _term_product(t1: dict, t2: dict) -> dict:
    out: dict[Exponents, complex] = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


def _linear_power(vector: Sequence[complex], power: int) -> dict:
    """Expansion of (sum_i vector[i] * mode_i)^power over exponent tuples."""
    n = len(vector)
    acc: dict[Exponents, complex] = {tuple([0] * n): 1.0 + 0.0j}
    linear = {}
    for i, v in enumerate(vector):
        if v != 0:
            linear[tuple(1 if j == i else 0 for j in range(n))] = complex(v)
    for _ in range(power):
        acc = _term_product(acc, linear)
    return acc


@dataclass(frozen=True, eq=False)
class ModePolynomial:
    """A multimode bosonic state as a creation-operator polynomial on vacuum.

    Args:
        modes: ordered, distinct mode labels; the order fixes the meaning of
            every exponent tuple and is canonical for the lifetime of the value.
        terms: mapping from exponent tuple to complex coefficient.  Exact
            zeros are dropped on construction.
    """

    modes: tuple[str, ...]
    terms: Mapping[Exponents, complex]

    def __post_init__(self):
        modes = tuple(self.modes)
        if len(set(modes)) != len(modes):
            raise ModeCollisionError(f"duplicate mode labels in {modes}")
        cleaned: dict[Exponents, complex] = {}
        for expo, coef in self.terms.items():
            expo = _counts("exponent", expo)
            if len(expo) != len(modes):
                raise ValueError(f"exponent tuple {expo} does not match modes {modes}")
            c = complex(coef)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"coefficient {c} of {expo} is not finite")
            if c != 0:
                cleaned[expo] = c
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "terms", cleaned)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModePolynomial):
            return NotImplemented
        return self.modes == other.modes and self.terms == other.terms

    def __hash__(self) -> int:
        key = getattr(self, "_hash_key", None)
        if key is None:
            key = hash((self.modes, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash_key", key)
        return key

    def __repr__(self) -> str:
        body = ", ".join(f"{e}: {c:.6g}" for e, c in sorted(self.terms.items()))
        return f"ModePolynomial(modes={self.modes}, terms={{{body}}})"

    def coefficient(self, exponents: Exponents) -> complex:
        return self.terms.get(tuple(exponents), 0.0 + 0.0j)

    def particle_number(self) -> int | None:
        """Total particle number if homogeneous, else None."""
        degrees = {sum(e) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None if degrees else 0

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in fock_amplitudes(self).values())

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm_squared() - 1.0) <= tol


@dataclass(frozen=True, eq=False)
class LinearModeMap:
    """A unitary linear substitution of creation operators.

    ``matrix[i, j]`` is the coefficient of ``outputs[i]`` in the image of
    ``inputs[j]``, i.e. input_j† -> sum_i matrix[i, j] output_i†.  The matrix
    must be unitary; that is what conserves particle number and norms.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        inputs = tuple(self.inputs)
        outputs = tuple(self.outputs)
        m = np.array(self.matrix, dtype=complex)
        if len(set(inputs)) != len(inputs) or len(set(outputs)) != len(outputs):
            raise ModeCollisionError("duplicate mode labels in map")
        if m.shape != (len(outputs), len(inputs)):
            raise ValueError(f"matrix shape {m.shape} does not match modes")
        if m.shape[0] != m.shape[1]:
            raise NonUnitaryMapError("mode map must have as many outputs as inputs")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if not dev <= UNITARY_TOL:  # also rejects NaN entries
            raise NonUnitaryMapError(f"map is not unitary (deviation {dev:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "matrix", m)


def monomial_state(occupations: Mapping[str, int],
                   modes: Sequence[str] | None = None) -> ModePolynomial:
    """Normalized Fock basis state with the given occupations.

    The single stored coefficient is ``1 / prod sqrt(n_k!)``, rounded, so
    the Fock amplitude is 1 to within rounding.
    """
    if modes is None:
        modes = tuple(occupations.keys())
    return from_fock_amplitudes(modes, {tuple(occupations.get(m, 0) for m in modes): 1.0})


def from_fock_amplitudes(modes: Sequence[str],
                         amplitudes: Mapping[Exponents, complex]) -> ModePolynomial:
    """Build a state from Fock amplitudes (inverse of fock_amplitudes).

    Each occupation must be an int or numpy integer >= 0.
    """
    terms = {}
    for occ, amp in amplitudes.items():
        occ = _counts("occupation", occ)
        terms[occ] = complex(amp) / math.prod(map(_sqrt_factorial, occ))
    return ModePolynomial(tuple(modes), terms)


def tensor(p: ModePolynomial, q: ModePolynomial) -> ModePolynomial:
    """Product state over the disjoint union of modes; norms multiply."""
    overlap = set(p.modes) & set(q.modes)
    if overlap:
        raise ModeCollisionError(f"modes {sorted(overlap)} appear in both factors")
    modes = p.modes + q.modes
    terms: dict[Exponents, complex] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            terms[e1 + e2] = terms.get(e1 + e2, 0.0) + c1 * c2
    return ModePolynomial(modes, terms)


def substitute(p: ModePolynomial, mode_map: LinearModeMap) -> ModePolynomial:
    """Rewrite the state in the map's output modes.

    Each monomial is expanded multinomially; unitarity of the map guarantees
    that norms and total particle numbers are preserved.
    """
    column = {mode: j for j, mode in enumerate(mode_map.inputs)}
    missing = [m for m in p.modes if m not in column]
    if missing:
        raise ModeMismatchError(f"modes {missing} are not in the map's domain")
    n_out = len(mode_map.outputs)
    zero = tuple([0] * n_out)
    power_cache: dict[tuple[str, int], dict] = {}
    out_terms: dict[Exponents, complex] = {}
    for expo, coef in p.terms.items():
        acc = {zero: complex(coef)}
        for mode, e in zip(p.modes, expo):
            if e == 0:
                continue
            key = (mode, e)
            if key not in power_cache:
                power_cache[key] = _linear_power(mode_map.matrix[:, column[mode]], e)
            acc = _term_product(acc, power_cache[key])
        for eo, c in acc.items():
            out_terms[eo] = out_terms.get(eo, 0.0) + c
    return ModePolynomial(mode_map.outputs, out_terms)


def fock_amplitudes(p: ModePolynomial) -> dict[Exponents, complex]:
    """Fock-basis amplitudes; probabilities are their squared magnitudes."""
    out = {}
    for expo, coef in p.terms.items():
        out[expo] = coef * math.prod(map(_sqrt_factorial, expo))
    return out


def inner(p: ModePolynomial, q: ModePolynomial) -> complex:
    """Fock-space inner product <p|q>; conjugate-symmetric."""
    if p.modes != q.modes:
        raise ModeMismatchError(f"mode sets differ: {p.modes} vs {q.modes}")
    amps_q = fock_amplitudes(q)
    total = 0.0 + 0.0j
    for expo, amp_p in fock_amplitudes(p).items():
        amp_q = amps_q.get(expo)
        if amp_q is not None:
            total += amp_p.conjugate() * amp_q
    return total
