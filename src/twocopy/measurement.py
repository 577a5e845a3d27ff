"""Beam-splitter measurements in the particle-number basis.

Each party mixes its two input modes on a beam splitter and counts
particles in the outputs.  An outcome ``(n, m)`` is mapped to a dichotomic
value by the weighting coefficient :func:`epsilon`, and the effective
measurement applied to the input modes is the basis returned by
:func:`effective_basis`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import (
    LinearModeMap,
    ModePolynomial,
    fock_amplitudes,
    from_fock_amplitudes,
    substitute,
)
from .states import ALICE_MODES, BOB_MODES, CompositeState, _check_count, _check_particles

BALANCED_ALPHA = 1.0 / math.sqrt(2.0)
PROB_TOL = 1e-10
_SETTING_TOL = 1e-12
# Largest particle number of an effective basis: 561 vectors with 12,529
# amplitudes in all.
MAX_BASIS_TOTAL = 32


@dataclass(frozen=True)
class BeamSplitterSetting:
    """One party's beam splitter: amplitudes (alpha, beta) and phase angle."""

    alpha: float
    beta: float
    phase: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):  # NaN fails too
            raise ValueError(f"alpha={self.alpha} and beta={self.beta} must lie in [0, 1]")
        if abs(self.alpha ** 2 + self.beta ** 2 - 1.0) > _SETTING_TOL:
            raise ValueError("alpha^2 + beta^2 must equal 1")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase {self.phase} is not finite")

    @classmethod
    def balanced(cls, phase: float) -> "BeamSplitterSetting":
        return cls(BALANCED_ALPHA, BALANCED_ALPHA, phase)

    @classmethod
    def from_alpha(cls, alpha: float, phase: float) -> "BeamSplitterSetting":
        return cls(alpha, math.sqrt(max(0.0, 1.0 - alpha * alpha)), phase)


class Outcome(NamedTuple):
    """Joint particle counts in the four output modes (c, C, d, D)."""

    n_c: int
    m_C: int
    n_d: int
    m_D: int


def epsilon(n: int, m: int) -> int:
    """Dichotomic weight (-1)^(m + (m+n)(m+n+1)/2) for outcome (n, m)."""
    s = n + m
    return -1 if (m + s * (s + 1) // 2) % 2 else 1


def outcome_count(n_total: int) -> int:
    """Number of local outcome pairs (n, m) with n + m <= n_total."""
    _check_count("n_total", n_total, 0, None)
    return (n_total + 1) * (n_total + 2) // 2


def local_outcomes(n_total: int) -> list[tuple[int, int]]:
    """Lexicographic list of local outcomes (n, m) with n + m <= n_total."""
    _check_count("n_total", n_total, 0, None)
    return [(n, m) for n in range(n_total + 1) for m in range(n_total + 1 - n)]


@dataclass(frozen=True)
class BasisVector:
    """One effective measurement vector with its dichotomic weight."""

    outcome: tuple[int, int]
    vector: ModePolynomial
    weight: int


def effective_basis(n_total: int, setting: BeamSplitterSetting,
                    input_modes: tuple[str, str] = ALICE_MODES) -> tuple[BasisVector, ...]:
    """Effective measurement vectors on the input modes, one per outcome.

    The vector for outcome (n, m) is
    ((alpha a† + beta e^{-i phase} A†)^n / sqrt(n!))
    ((beta a† - alpha e^{-i phase} A†)^m / sqrt(m!)) |0,0>,
    the input state the beam splitter sends to |n, m>.  With k = n + m its
    amplitude on |p, k-p> is S_k[n, p] e^{-i phase (k-p)}, read from the
    blocks of :func:`_transfer_blocks`.  Vectors of equal total particle
    number are orthonormal.
    """
    _check_count("n_total", n_total, 0, MAX_BASIS_TOTAL)
    blocks = _transfer_blocks(setting.alpha, setting.beta, n_total)
    phases = np.exp(-1j * setting.phase * np.arange(n_total + 1))
    vectors = []
    for (n, m) in local_outcomes(n_total):
        k = n + m
        amplitudes = {(p, k - p): blocks[k][n, p] * phases[k - p] for p in range(k + 1)}
        vectors.append(BasisVector((n, m), from_fock_amplitudes(input_modes, amplitudes),
                                   epsilon(n, m)))
    return tuple(vectors)


def _joint_map(alice: BeamSplitterSetting, bob: BeamSplitterSetting) -> LinearModeMap:
    """Both parties' substitutions, (a,A)->(c,C) and (b,B)->(d,D).

    With inputs (a, A) and outputs (c, C):
    a† -> alpha c† + beta C†  and  A† -> e^{i phase}(beta c† - alpha C†).
    This is the inverse of the annihilation-operator mixing, so measuring
    output occupations is equivalent to projecting onto the effective basis.
    """
    matrix = np.zeros((4, 4), dtype=complex)
    for i, setting in ((0, alice), (2, bob)):
        a, b, ph = setting.alpha, setting.beta, np.exp(1j * setting.phase)
        matrix[i:i + 2, i:i + 2] = [[a, b * ph], [b, -a * ph]]
    return LinearModeMap(ALICE_MODES + BOB_MODES, ("c", "C", "d", "D"), matrix)


def joint_distribution(state: CompositeState,
                       alice: BeamSplitterSetting,
                       bob: BeamSplitterSetting) -> dict[Outcome, float]:
    """Joint particle-count distribution over the four output modes, as
    outcome -> probability in sorted outcome order."""
    mapping = _joint_map(alice, bob)
    probs: dict[Outcome, float] = {}
    for weight, member in state.entries:
        if weight == 0.0:
            continue
        for occ, amp in fock_amplitudes(substitute(member, mapping)).items():
            p = weight * (amp.real ** 2 + amp.imag ** 2)
            if p > 0.0:
                key = Outcome(*occ)
                probs[key] = probs.get(key, 0.0) + p
    dist = dict(sorted(probs.items()))
    total = sum(dist.values())
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"distribution sums to {total}, expected 1")
    return dist


def weighted_parity(dist: dict[Outcome, float]) -> float:
    """Correlation functional: sum of eps(n_c,m_C) eps(n_d,m_D) P(outcome)."""
    return sum(epsilon(o.n_c, o.m_C) * epsilon(o.n_d, o.m_D) * p
               for o, p in dist.items())


def _transfer_blocks(alpha: float, beta: float, n_max: int) -> list[np.ndarray]:
    """The beam splitter's amplitude blocks S_0, ..., S_n_max at phase 0.

    The splitter maps the k-particle input states |p, k-p> (p particles in
    the first input mode) onto the output states |n, k-n>; the real,
    orthogonal S_k holds the amplitude of |n, k-n> in the image of |p, k-p>
    at [n, p].

    S_k follows from S_(k-1) by writing |p, k-p> as
    (sqrt(p) a† |p-1, k-p> + sqrt(k-p) A† |p, k-p-1>) / k, sending
    a† -> alpha c† + beta C† and A† -> beta c† - alpha C†, and reading off
    |n, k-n>.  The four weights sqrt(p n) / k, ..., have squares summing to
    one, so rounding errors do not grow with k, as they do when
    (alpha c† + beta C†)^p (beta c† - alpha C†)^(k-p) is expanded
    binomially.
    """
    blocks = [np.ones((1, 1))]
    for k in range(1, n_max + 1):
        # padded[i + 1, j + 1] = S_(k-1)[i, j]
        padded = np.zeros((k + 2, k + 2))
        padded[1:-1, 1:-1] = blocks[-1]
        first = np.sqrt(np.arange(k + 1))  # sqrt(m), m = 0..k
        second = first[::-1]               # sqrt(k - m)
        # rows are outputs n, columns inputs p
        blocks.append((first * (alpha * first[:, None] * padded[:-1, :-1]
                                 + beta * second[:, None] * padded[1:, :-1])
                        + second * (beta * first[:, None] * padded[:-1, 1:]
                                    - alpha * second[:, None] * padded[1:, 1:])) / k)
    return blocks


def parity_blocks(setting: BeamSplitterSetting, n_max: int) -> np.ndarray:
    """One party's dichotomic observable on its input modes, block by block.

    Returns O of shape (n_max + 1,) * 3 with
    O[k, :k+1, :k+1] = S_k^T diag(eps) S_k, S_k from
    :func:`_transfer_blocks`, and zeros elsewhere.  The setting's phase
    does not enter; it only multiplies the input |p, k-p> by
    e^{i phase (k-p)}.
    """
    blocks = np.zeros((n_max + 1,) * 3)
    blocks[0, 0, 0] = 1.0
    for k, s in enumerate(_transfer_blocks(setting.alpha, setting.beta, n_max)[1:], 1):
        signs = np.array([epsilon(m, k - m) for m in range(k + 1)], dtype=float)
        blocks[k, :k + 1, :k + 1] = np.einsum("np,n,nq->pq", s, signs, s)
    return blocks


def sector_trace_product(n1: int, n2: int,
                         alice: BeamSplitterSetting,
                         bob: BeamSplitterSetting,
                         alice2: BeamSplitterSetting | None = None,
                         sign: float = 1.0) -> float:
    """Trace of the joint dichotomic observable over the (n1, n2) sector.

    Sums the correlation of every sector basis state; with ``alice2`` given,
    the Alice observable is A(alice) + sign * A(alice2).  Equals the sector
    dimension times the correlation of the sector white-noise mixture.

    The basis state |k, n1-k> (x) |l, n2-l> puts (k, l) on Alice's inputs
    and (n1-k, n2-l) on Bob's, and its correlation is the product of the
    two parties' block diagonals there, which no phase changes.
    """
    _check_particles(n1=n1, n2=n2)
    n_total = n1 + n2
    k = np.arange(n1 + 1)[:, None]
    l = np.arange(n2 + 1)[None, :]
    bob_diagonal = np.diagonal(parity_blocks(bob, n_total), axis1=1, axis2=2)
    bob_part = bob_diagonal[n_total - k - l, n1 - k]

    def trace(setting: BeamSplitterSetting) -> float:
        diagonal = np.diagonal(parity_blocks(setting, n_total), axis1=1, axis2=2)
        return float(np.sum(diagonal[k + l, k] * bob_part))

    total = trace(alice)
    if alice2 is not None:
        total += sign * trace(alice2)
    return total
