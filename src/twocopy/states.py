"""Constructors for two-mode condensate and N00N states, their two-copy
composites, and white-noise mixtures.

The composite convention throughout: system 1 lives on modes ``(a, b)``,
system 2 on ``(A, B)``; Alice controls ``(a, A)`` and Bob ``(b, B)``.
"""
from __future__ import annotations

import math
from typing import Literal, Sequence

from .fock import (ModePolynomial, ModeMismatchError, _check_count, _Record, from_fock_amplitudes,
                   monomial_state, tensor)

__all__ = ["CompositeState", "DegenerateComponentError", "bec_state", "noon_state",
           "two_copy", "bec_pair", "noon_pair", "sector_basis", "admix"]

SYSTEM1_MODES = ("a", "b")
SYSTEM2_MODES = ("A", "B")
COMPOSITE_MODES = ("a", "b", "A", "B")
ALICE_MODES = ("a", "A")

WEIGHT_TOL = 1e-12
NORMALIZATION_TOL = 1e-10  # of a mixture member's or a two_copy factor's norm squared

# Largest particle number per system.  A member's correlation sums over
# pairs of its (n1+1)(n2+1) Fock states, about 1.2 million pairs here.
MAX_PARTICLES = 32
# Largest n1 + n2 for factorized noise, whose ((N+1)(N+2)/2)^2 members,
# 23,409 here, are each built and contracted one by one.
MAX_FACTORIZED_TOTAL = 16

NoiseModel = Literal["sector", "factorized"]


def _check_particles(**counts: int) -> None:
    for name, n in counts.items():
        _check_count(name, n, 0, MAX_PARTICLES)


class DegenerateComponentError(ValueError):
    """Raised for a N00N state whose two components coincide (2m == N)."""


class CompositeState(_Record):
    """Two systems split between Alice and Bob: a convex mixture of
    normalized pure states on the composite modes.

    ``entries`` holds (weight, state) pairs, kept as a tuple of tuples
    whatever sequences they are given as.  ``n1`` and ``n2`` are the
    particle numbers of the signal sector (system 1 on modes a,b and
    system 2 on modes A,B).  Noise entries added by :func:`admix` with the
    factorized model may live outside that sector; ``sector_pure`` records
    whether every entry obeys it.  Each entry lies in one sector, whatever
    ``sector_pure`` says.
    """

    __slots__ = ("entries", "n1", "n2", "sector_pure", "_hash_key")

    def __init__(self, entries: Sequence[tuple[float, ModePolynomial]], n1: int, n2: int,
                 sector_pure: bool = True):
        _check_particles(n1=n1, n2=n2)
        if not entries:
            raise ValueError("mixture must contain at least one entry")
        entries = tuple((w, s) for w, s in entries)
        for w, _ in entries:
            if not math.isfinite(w):
                raise ValueError(f"mixture weight {w} is not finite")
        if any(w < -WEIGHT_TOL for w, _ in entries):
            raise ValueError("mixture weights must be nonnegative")
        total = sum(w for w, _ in entries)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        for w, s in entries:
            if s.modes != COMPOSITE_MODES:
                raise ModeMismatchError(f"composite states use modes {COMPOSITE_MODES}")
            if not s.is_normalized(NORMALIZATION_TOL):
                raise ValueError("mixture members must be normalized")
            sectors = {(ea + eb, eA + eB) for ea, eb, eA, eB in s._amps}
            if len(sectors) > 1:
                raise ValueError("ensemble member superposes different "
                                 "particle-number sectors")
            if sector_pure and sectors - {(n1, n2)}:
                raise ValueError(f"member in sector {sectors.pop()} violates sector "
                                 f"(n1={n1}, n2={n2})")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "sector_pure", sector_pure)
        # the hash, kept from its first use; reading an unset slot would raise
        object.__setattr__(self, "_hash_key", None)

    def __hash__(self) -> int:
        key = self._hash_key
        if key is None:
            key = hash(self._fields(self))
            object.__setattr__(self, "_hash_key", key)
        return key

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2


def bec_state(n: int, modes: tuple[str, str] = SYSTEM1_MODES) -> ModePolynomial:
    """Zero-temperature noninteracting condensate of ``n`` bosons split
    symmetrically over two modes: (1/sqrt(2))^n sum_k sqrt(C(n,k)) |k, n-k>.
    """
    _check_particles(n=n)
    return from_fock_amplitudes(
        modes, {(k, n - k): math.sqrt(math.comb(n, k)) / 2 ** (n / 2) for k in range(n + 1)})


def noon_state(n: int, m: int = 0,
               modes: tuple[str, str] = SYSTEM1_MODES) -> ModePolynomial:
    """Generalized N00N state (|n-m, m> + |m, n-m>)/sqrt(2)."""
    _check_count("n", n, 1, MAX_PARTICLES)
    _check_count("m", m, 0, n)
    if 2 * m == n:
        raise DegenerateComponentError(
            f"components |{n - m},{m}> and |{m},{n - m}> coincide"
        )
    return from_fock_amplitudes(modes, {(n - m, m): 1.0 / math.sqrt(2.0),
                                        (m, n - m): 1.0 / math.sqrt(2.0)})


def two_copy(s1: ModePolynomial, s2: ModePolynomial) -> CompositeState:
    """Tensor a system-1 state on (a,b) with a system-2 state on (A,B)."""
    if s1.modes != SYSTEM1_MODES:
        raise ModeMismatchError(f"first factor must use modes {SYSTEM1_MODES}")
    if s2.modes != SYSTEM2_MODES:
        raise ModeMismatchError(f"second factor must use modes {SYSTEM2_MODES}")
    n1 = s1.particle_number()
    n2 = s2.particle_number()
    if n1 is None or n2 is None:
        raise ValueError("each factor must have a fixed particle number")
    if not (s1.is_normalized(NORMALIZATION_TOL) and s2.is_normalized(NORMALIZATION_TOL)):
        raise ValueError("factors must be normalized")
    return CompositeState(((1.0, tensor(s1, s2)),), n1, n2)


def bec_pair(n1: int, n2: int | None = None) -> CompositeState:
    """Convenience: two_copy of condensate states with n1 and n2 bosons."""
    if n2 is None:
        n2 = n1
    _check_particles(n1=n1, n2=n2)
    return two_copy(bec_state(n1, SYSTEM1_MODES), bec_state(n2, SYSTEM2_MODES))


def noon_pair(n: int, m: int = 0) -> CompositeState:
    """Convenience: two_copy of identical N00N states."""
    return two_copy(noon_state(n, m, SYSTEM1_MODES), noon_state(n, m, SYSTEM2_MODES))


def sector_basis(n1: int, n2: int) -> list[ModePolynomial]:
    """The (n1+1)(n2+1) product Fock states |k, n1-k> (x) |l, n2-l>."""
    _check_particles(n1=n1, n2=n2)
    out = []
    for k in range(n1 + 1):
        for l in range(n2 + 1):
            out.append(monomial_state(
                {"a": k, "b": n1 - k, "A": l, "B": n2 - l}, COMPOSITE_MODES))
    return out


def factorized_noise_basis(n_total: int) -> list[ModePolynomial]:
    """Product Fock states over the two parties' truncated measurement spaces:
    all |i, j>_(a,A) (x) |k, l>_(b,B) with i+j <= n_total and k+l <= n_total.
    """
    out = []
    for i in range(n_total + 1):
        for j in range(n_total + 1 - i):
            for k in range(n_total + 1):
                for l in range(n_total + 1 - k):
                    out.append(monomial_state(
                        {"a": i, "b": k, "A": j, "B": l}, COMPOSITE_MODES))
    return out


def admix(state: CompositeState, p: float,
          noise: NoiseModel = "sector") -> CompositeState:
    """Mix a composite state with white noise: weight ``p`` on the state and
    ``1 - p`` spread uniformly over the chosen noise basis.

    ``noise="sector"`` depolarizes within the fixed-number sector
    ((n1+1)(n2+1) basis states); ``noise="factorized"`` depolarizes over the
    two parties' truncated measurement spaces, which is the model under which
    violation values scale exactly linearly in ``p``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"admixing probability {p} outside [0, 1]")
    if noise == "sector":
        basis = sector_basis(state.n1, state.n2)
    elif noise == "factorized":
        if state.n_total > MAX_FACTORIZED_TOTAL:
            raise ValueError(f"factorized noise needs n1 + n2 <= {MAX_FACTORIZED_TOTAL}, "
                             f"got {state.n_total}")
        basis = factorized_noise_basis(state.n_total)
    else:
        raise ValueError(f"unknown noise model {noise!r}")
    w = (1.0 - p) / len(basis)
    entries = tuple((p * ws, s) for ws, s in state.entries)
    entries += tuple((w, s) for s in basis)
    entries = tuple((ws, s) for ws, s in entries if ws > 0.0)
    has_noise = p < 1.0
    sector_pure = state.sector_pure and (noise == "sector" or not has_noise)
    return CompositeState(entries, n1=state.n1, n2=state.n2,
                          sector_pure=sector_pure)
