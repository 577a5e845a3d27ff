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
from functools import lru_cache
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["ModePolynomial", "monomial_state", "from_fock_amplitudes", "tensor",
           "fock_amplitudes", "inner", "ModeCollisionError", "ModeMismatchError"]

NORM_TOL = 1e-12

Exponents = tuple[int, ...]


class ModeCollisionError(ValueError):
    """Raised when combining states whose mode labels overlap."""


class ModeMismatchError(ValueError):
    """Raised when an operation requires identical or covered mode sets."""


def _isfinite(c: complex) -> bool:
    """Whether both parts of ``c`` are finite, as ``cmath.isfinite``."""
    return math.isfinite(c.real) and math.isfinite(c.imag)


class _Record:
    """Base of the package's immutable value records.

    A subclass names its fields in order in ``__slots__`` (a name with a
    leading underscore is a private cache, not a field) and sets them with
    ``object.__setattr__`` in its own ``__init__``.  As with a frozen
    dataclass, a record equals only a record of its class with equal
    fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)`` and refuses assignment and deletion;
    ``pickle`` and ``copy`` rebuild it through ``__init__``.  Unlike a
    dataclass, it generates and compiles no code.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._fields = attrgetter(*cls.__match_args__)  # every record has two fields or more

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __reduce__(self):
        return type(self), self._fields(self)


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


def _checked_terms(modes: tuple[str, ...], terms: Mapping, check_counts: bool) -> dict:
    """``terms`` as complex coefficients without exact zeros, after every
    check a ModePolynomial makes: distinct modes, and for each term in order
    its exponents as counts (unless they are known to be), one per mode,
    and a finite coefficient."""
    if len(set(modes)) != len(modes):
        raise ModeCollisionError(f"duplicate mode labels in {modes}")
    cleaned: dict[Exponents, complex] = {}
    for expo, coef in terms.items():
        if check_counts:
            expo = _counts("exponent", expo)
        if len(expo) != len(modes):
            raise ValueError(f"exponent tuple {expo} does not match modes {modes}")
        c = complex(coef)
        if not _isfinite(c):
            raise ValueError(f"coefficient {c} of {expo} is not finite")
        if c != 0:
            cleaned[expo] = c
    return cleaned


def _trusted(modes: tuple[str, ...], terms: dict) -> ModePolynomial:
    """A ModePolynomial over terms that already passed its checks, built
    without repeating them."""
    p = object.__new__(ModePolynomial)
    object.__setattr__(p, "modes", modes)
    object.__setattr__(p, "terms", MappingProxyType(terms))
    object.__setattr__(p, "_hash_key", None)
    object.__setattr__(p, "_fock", None)
    return p


class ModePolynomial(_Record):
    """A multimode bosonic state as a creation-operator polynomial on vacuum.

    Args:
        modes: ordered, distinct mode labels; the order fixes the meaning of
            every exponent tuple and is canonical for the lifetime of the value.
        terms: mapping from exponent tuple to complex coefficient.  Exact
            zeros are dropped on construction, and the value keeps a
            read-only view, so its cached amplitudes and hash stay valid.
    """

    __slots__ = ("modes", "terms", "_hash_key", "_fock")

    def __init__(self, modes: Sequence[str], terms: Mapping[Exponents, complex]):
        modes = tuple(modes)
        cleaned = _checked_terms(modes, terms, check_counts=True)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "terms", MappingProxyType(cleaned))
        # the caches start empty; reading an unset slot would raise
        object.__setattr__(self, "_hash_key", None)
        object.__setattr__(self, "_fock", None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModePolynomial):
            return NotImplemented
        return self.modes == other.modes and self.terms == other.terms

    def __hash__(self) -> int:
        key = self._hash_key
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

    def _amplitudes(self) -> dict[Exponents, complex]:
        """The Fock amplitudes, computed on first use and kept; not to be
        mutated (:func:`fock_amplitudes` hands out copies)."""
        amplitudes = self._fock
        if amplitudes is None:
            amplitudes = {expo: coef * math.prod(map(_sqrt_factorial, expo))
                          for expo, coef in self.terms.items()}
            object.__setattr__(self, "_fock", amplitudes)
        return amplitudes

    def norm_squared(self) -> float:
        return sum(a.real * a.real + a.imag * a.imag for a in self._amplitudes().values())

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm_squared() - 1.0) <= tol


def monomial_state(occupations: Mapping[str, int],
                   modes: Sequence[str] | None = None) -> ModePolynomial:
    """Normalized Fock basis state with the given occupations.

    The single stored coefficient is ``1 / prod sqrt(n_k!)``, rounded, so
    the Fock amplitude is 1 to within rounding.  Every key of
    ``occupations`` must be one of ``modes``; a mode it omits is empty.
    """
    if modes is None:
        modes = tuple(occupations.keys())
    stray = [m for m in occupations if m not in modes]
    if stray:
        raise ValueError(f"modes {stray} of the occupations are not in {tuple(modes)}")
    return from_fock_amplitudes(modes, {tuple(occupations.get(m, 0) for m in modes): 1.0})


def from_fock_amplitudes(modes: Sequence[str],
                         amplitudes: Mapping[Exponents, complex]) -> ModePolynomial:
    """Build a state from Fock amplitudes (inverse of fock_amplitudes).

    Each occupation must be an int or numpy integer >= 0; the modes and
    values are checked as ModePolynomial checks them.
    """
    return _from_amplitudes(modes, ((_counts("occupation", occ), amp)
                                    for occ, amp in amplitudes.items()))


def _from_amplitudes(modes: Sequence[str],
                     items: Iterable[tuple[Exponents, complex]]) -> ModePolynomial:
    """from_fock_amplitudes for (occupation, amplitude) pairs whose
    occupations are tuples of ints >= 0 already."""
    terms = {occ: complex(amp) / math.prod(map(_sqrt_factorial, occ)) for occ, amp in items}
    modes = tuple(modes)
    return _trusted(modes, _checked_terms(modes, terms, check_counts=False))


def tensor(p: ModePolynomial, q: ModePolynomial) -> ModePolynomial:
    """Product state over the disjoint union of modes; norms multiply.

    The factors' checks cover the product's modes and exponents, so only
    its coefficients are checked: a non-finite one raises and an exact
    zero is dropped.
    """
    overlap = set(p.modes) & set(q.modes)
    if overlap:
        raise ModeCollisionError(f"modes {sorted(overlap)} appear in both factors")
    modes = p.modes + q.modes
    terms: dict[Exponents, complex] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = e1 + e2
            terms[e] = terms.get(e, 0.0) + c1 * c2
    # a non-finite term makes the sum non-finite, so a finite sum clears them all
    if not _isfinite(sum(terms.values(), 0j)):
        for expo, c in terms.items():
            if not _isfinite(c):
                raise ValueError(f"coefficient {c} of {expo} is not finite")
    return _trusted(modes, {e: c for e, c in terms.items() if c != 0})


def fock_amplitudes(p: ModePolynomial) -> dict[Exponents, complex]:
    """Fock-basis amplitudes; probabilities are their squared magnitudes.

    A new dict each call, copied from the state's kept amplitudes.
    """
    return dict(p._amplitudes())


def inner(p: ModePolynomial, q: ModePolynomial) -> complex:
    """Fock-space inner product <p|q>; conjugate-symmetric."""
    if p.modes != q.modes:
        raise ModeMismatchError(f"mode sets differ: {p.modes} vs {q.modes}")
    amps_q = q._amplitudes()
    total = 0.0 + 0.0j
    for expo, amp_p in p._amplitudes().items():
        amp_q = amps_q.get(expo)
        if amp_q is not None:
            total += amp_p.conjugate() * amp_q
    return total
