"""Exact second-quantized state algebra for few-boson systems.

A state is stored as its Fock amplitudes, set once when it is built and
read-only after.  An occupation is keyed by its tuple, one nonnegative
integer per mode.  The same state read as a complex-weighted sum of
creation-operator monomials acting on the vacuum has the coefficient
``amplitude(n) / prod(sqrt(n_k!))`` on the monomial with exponents ``n``;
``ModePolynomial`` takes these coefficients and ``ModePolynomial.terms``
derives them on read.  Everything here is exact up to double precision;
supports stay tiny because total particle numbers are small.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Sequence

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
    leading underscore is private, not a field) and sets them with
    ``object.__setattr__`` in its own ``__init__``; a subclass with a field
    that is derived on read names its fields in ``__match_args__``.  As with
    a frozen dataclass, a record equals only a record of its class with
    equal fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)`` and refuses assignment and deletion;
    ``pickle`` and ``copy`` rebuild it through ``__init__``.  Unlike a
    dataclass, it generates and compiles no code.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = tuple(name for name in cls.__slots__
                                       if not name.startswith("_"))
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


@lru_cache(maxsize=None)  # at most 171 entries, 0! to 170!
def _sqrt_factorial(n: int) -> float:
    if n > 170:
        raise ValueError(f"occupation {n} > 170: sqrt({n}!) is past the float range")
    return math.sqrt(math.factorial(n))


def _checked_amplitudes(modes: tuple[str, ...], values: Mapping,
                        coefficients: bool) -> dict[Exponents, complex]:
    """The Fock amplitudes of a state, after every check a state makes:
    distinct modes, and for each term in order its occupation as counts,
    one per mode, and a finite value.  With ``coefficients`` the values are
    creation-monomial coefficients, and each amplitude, the coefficient
    times prod sqrt(n_k!), must be finite too.  Exact zeros are dropped."""
    if len(set(modes)) != len(modes):
        raise ModeCollisionError(f"duplicate mode labels in {modes}")
    count, kind = ("exponent", "coefficient") if coefficients else ("occupation", "amplitude")
    amplitudes: dict[Exponents, complex] = {}
    for occupation, value in values.items():
        occupation = _counts(count, occupation)
        if len(occupation) != len(modes):
            raise ValueError(f"exponent tuple {occupation} does not match modes {modes}")
        value = complex(value)
        if not _isfinite(value):
            raise ValueError(f"{kind} {value} of {occupation} is not finite")
        if coefficients:
            value = value * math.prod(map(_sqrt_factorial, occupation))
            if not _isfinite(value):
                raise ValueError(f"amplitude {value} of {occupation} is not finite")
        if value != 0:
            amplitudes[occupation] = value
    return amplitudes


class ModePolynomial(_Record):
    """A multimode bosonic state, stored as its Fock amplitudes.

    Args:
        modes: ordered, distinct mode labels; the order fixes the meaning of
            every exponent tuple and is canonical for the lifetime of the value.
        terms: mapping from exponent tuple to the complex coefficient of
            that creation-operator monomial on the vacuum.  Exact zeros are
            dropped.  :func:`from_fock_amplitudes` builds a state from its
            amplitudes instead.

    The amplitudes are set here and never change; ``terms`` reads the
    coefficients back from them.
    """

    __slots__ = ("modes", "_amps")
    __match_args__ = ("modes", "terms")

    def __init__(self, modes: Sequence[str], terms: Mapping[Exponents, complex]):
        self._set(modes, terms, coefficients=True)

    def _set(self, modes: Sequence[str], values: Mapping, coefficients: bool) -> None:
        modes = tuple(modes)
        object.__setattr__(self, "_amps", _checked_amplitudes(modes, values, coefficients))
        object.__setattr__(self, "modes", modes)

    @property
    def terms(self) -> Mapping[Exponents, complex]:
        """The creation-monomial coefficients, each amplitude over
        prod sqrt(n_k!): a read-only view, made anew on each read."""
        return MappingProxyType({e: a / math.prod(map(_sqrt_factorial, e))
                                 for e, a in self._amps.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModePolynomial):
            return NotImplemented
        return self.modes == other.modes and self._amps == other._amps

    def __hash__(self) -> int:
        return hash((self.modes, tuple(sorted(self._amps.items()))))

    def __repr__(self) -> str:
        try:
            terms = self.terms
        except ValueError:  # an occupation past 170, whose sqrt(n!) is past the float range
            terms = {e: a * math.exp(-sum(math.lgamma(n + 1) for n in e) / 2)
                     for e, a in self._amps.items()}
        body = ", ".join(f"{e}: {c:.6g}" for e, c in sorted(terms.items()))
        return f"ModePolynomial(modes={self.modes}, terms={{{body}}})"

    def __reduce__(self):
        # rebuilt from the amplitudes, so that a copy is equal bit for bit
        return from_fock_amplitudes, (self.modes, self._amps)

    def particle_number(self) -> int | None:
        """Total particle number if homogeneous, else None: also for the
        zero vector, which has no terms and so no particle number."""
        degrees = {sum(e) for e in self._amps}
        return degrees.pop() if len(degrees) == 1 else None

    def norm_squared(self) -> float:
        return sum(a.real * a.real + a.imag * a.imag for a in self._amps.values())

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm_squared() - 1.0) <= tol


def monomial_state(occupations: Mapping[str, int],
                   modes: Sequence[str] | None = None) -> ModePolynomial:
    """Normalized Fock basis state with the given occupations.

    Its one Fock amplitude is exactly 1.  Every key of ``occupations`` must
    be one of ``modes``; a mode it omits is empty.
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
    values are checked as ModePolynomial checks them, and the amplitudes
    are kept as given, without exact zeros.
    """
    state = object.__new__(ModePolynomial)
    state._set(modes, amplitudes, coefficients=False)
    return state


def tensor(p: ModePolynomial, q: ModePolynomial) -> ModePolynomial:
    """Product state over the union of the modes, which must be disjoint;
    amplitudes and norms multiply."""
    amplitudes = {e1 + e2: a1 * a2 for e1, a1 in p._amps.items() for e2, a2 in q._amps.items()}
    return from_fock_amplitudes(p.modes + q.modes, amplitudes)


def fock_amplitudes(p: ModePolynomial) -> dict[Exponents, complex]:
    """Fock-basis amplitudes; probabilities are their squared magnitudes.

    A new dict each call, copied from the state's stored amplitudes.
    """
    return dict(p._amps)


def inner(p: ModePolynomial, q: ModePolynomial) -> complex:
    """Fock-space inner product <p|q>; conjugate-symmetric."""
    if p.modes != q.modes:
        raise ModeMismatchError(f"mode sets differ: {p.modes} vs {q.modes}")
    amps_q = q._amps
    total = 0.0 + 0.0j
    for expo, amp_p in p._amps.items():
        amp_q = amps_q.get(expo)
        if amp_q is not None:
            total += amp_p.conjugate() * amp_q
    return total
