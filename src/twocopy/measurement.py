"""Beam-splitter measurements in the particle-number basis.

Each party mixes its two input modes on a beam splitter and counts
particles in the outputs.  An outcome ``(n, m)`` is mapped to a dichotomic
value by the weighting coefficient :func:`epsilon`, and the effective
measurement applied to the input modes is the basis returned by
:func:`effective_basis`.

The splitter's amplitudes come from one recurrence,
:func:`_transfer_blocks`.  A party's observable, block by block, is
O_k = S_k^T diag(eps) S_k (:func:`parity_blocks`).  Since diag(eps) is a
sign times the parity of the second output mode, O_k is the signed
transfer block at the doubled splitter angle, and the Fourier form of
Wigner's d writes that as the balanced splitter's blocks around a diagonal
of phases e^{i (k-2j) phi}.  So the balanced blocks are built once per
table size, their cut to each block count is kept for the next few block
counts, and every splitter's blocks are one batched product with them; the
derivation is in :func:`parity_blocks`.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fock import ModePolynomial, _check_count, _Record, _sqrt_factorial, from_fock_amplitudes
from .states import ALICE_MODES, MAX_PARTICLES, CompositeState, _check_particles

__all__ = ["BeamSplitterSetting", "BALANCED_ALPHA", "Outcome", "BasisVector", "epsilon",
           "outcome_count", "local_outcomes", "effective_basis", "joint_distribution",
           "weighted_parity", "sector_trace_product"]

BALANCED_ALPHA = 1.0 / math.sqrt(2.0)
PROB_TOL = 1e-10
_SETTING_TOL = 1e-12
# Largest particle number of an effective basis: 561 vectors with 12,529
# amplitudes in all.
MAX_BASIS_TOTAL = 32


class BeamSplitterSetting(_Record):
    """One party's beam splitter: amplitudes (alpha, beta) and phase angle."""

    __slots__ = ("alpha", "beta", "phase")

    def __init__(self, alpha: float, beta: float, phase: float):
        if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):  # NaN fails too
            raise ValueError(f"alpha={alpha} and beta={beta} must lie in [0, 1]")
        if abs(alpha ** 2 + beta ** 2 - 1.0) > _SETTING_TOL:
            raise ValueError("alpha^2 + beta^2 must equal 1")
        if not math.isfinite(phase):
            raise ValueError(f"phase {phase} is not finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "phase", phase)

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


class BasisVector(_Record):
    """One effective measurement vector with its dichotomic weight."""

    __slots__ = ("outcome", "vector", "weight")

    def __init__(self, outcome: tuple[int, int], vector: ModePolynomial, weight: int):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "weight", weight)


def effective_basis(n_total: int, setting: BeamSplitterSetting) -> tuple[BasisVector, ...]:
    """Effective measurement vectors on the input modes (a, A), one per outcome.

    The vector for outcome (n, m) is
    ((alpha a† + beta e^{-i phase} A†)^n / sqrt(n!))
    ((beta a† - alpha e^{-i phase} A†)^m / sqrt(m!)) |0,0>,
    the input state the beam splitter sends to |n, m>.  With k = n + m its
    amplitude on |p, k-p> is S_k[n, p] e^{-i phase (k-p)}, read from the
    blocks of :func:`_transfer_blocks`.  Vectors of equal total particle
    number are orthonormal.  Bob's vectors have the same amplitudes on (b, B).
    """
    _check_count("n_total", n_total, 0, MAX_BASIS_TOTAL)
    blocks = _transfer_blocks(setting.alpha, setting.beta, n_total)
    phases = np.exp(-1j * setting.phase * np.arange(n_total + 1))
    vectors = []
    for (n, m) in local_outcomes(n_total):
        k = n + m
        amplitudes = {(p, k - p): blocks[k][n, p] * phases[k - p] for p in range(k + 1)}
        vectors.append(BasisVector((n, m), from_fock_amplitudes(ALICE_MODES, amplitudes),
                                   epsilon(n, m)))
    return tuple(vectors)


def _party_image(p: int, q: int, setting: BeamSplitterSetting) -> dict[tuple[int, int], complex]:
    """One party's splitter applied to a†^p A†^q, as output exponents (i, j)
    of c†^i C†^j -> coefficient.

    The splitter sends a† -> alpha c† + beta C† and
    A† -> e^{i phase}(beta c† - alpha C†), the inverse of the
    annihilation-operator mixing, so counting output particles projects
    onto the effective basis.  Both powers are expanded binomially, and the
    phase enters once, as e^{i phase q}.  Bob's (b, B) -> (d, D) is the
    same map.
    """
    alpha, beta = setting.alpha, setting.beta
    image: dict[tuple[int, int], float] = {}
    for r in range(p + 1):
        left = math.comb(p, r) * alpha ** r * beta ** (p - r)
        for s in range(q + 1):
            right = math.comb(q, s) * beta ** s * (-alpha) ** (q - s)
            key = (r + s, p + q - r - s)
            image[key] = image.get(key, 0.0) + left * right
    phase = complex(math.cos(q * setting.phase), math.sin(q * setting.phase))
    return {key: c * phase for key, c in image.items()}


def joint_distribution(state: CompositeState,
                       alice: BeamSplitterSetting,
                       bob: BeamSplitterSetting) -> dict[Outcome, float]:
    """Joint particle-count distribution over the four output modes, as
    outcome -> probability in sorted outcome order.

    A member's monomial a†^i b†^j A†^k B†^l goes to the product of Alice's
    image of a†^i A†^k and Bob's of b†^j B†^l (:func:`_party_image`)."""
    probs: dict[Outcome, float] = {}
    for weight, member in state.entries:
        terms: dict[tuple[int, int, int, int], complex] = {}
        for (a, b, A, B), coef in member.terms.items():
            bob_image = _party_image(b, B, bob)
            for (n_c, m_C), x in _party_image(a, A, alice).items():
                for (n_d, m_D), y in bob_image.items():
                    key = (n_c, m_C, n_d, m_D)
                    terms[key] = terms.get(key, 0.0) + coef * x * y
        for occ, c in terms.items():
            amp = c * math.prod(map(_sqrt_factorial, occ))
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

    The square roots and their products with alpha and beta are taken once
    for all k, S_(k-1) is written into one zero-bordered buffer, and the
    four shifted products accumulate in place; each step keeps the
    arithmetic and association of S_k[n, p] =
    (sqrt(p) (alpha sqrt(n) P[n, p] + beta sqrt(k-n) P[n+1, p])
    + sqrt(k-p) (beta sqrt(n) P[n, p+1] - alpha sqrt(k-n) P[n+1, p+1])) / k,
    with P[i + 1, j + 1] = S_(k-1)[i, j] and zero elsewhere, so S_k has the
    same bits whatever n_max is.
    """
    roots = np.sqrt(np.arange(n_max + 1))
    alpha_roots, beta_roots = alpha * roots[:, None], beta * roots[:, None]
    padded = np.zeros((n_max + 2, n_max + 2))
    blocks = [np.ones((1, 1))]
    for k in range(1, n_max + 1):
        padded[1:k + 1, 1:k + 1] = blocks[-1]
        # rows are outputs n, columns inputs p; roots[k::-1] holds sqrt(k - m)
        block = alpha_roots[:k + 1] * padded[:k + 1, :k + 1]
        block += beta_roots[k::-1] * padded[1:k + 2, :k + 1]
        block *= roots[:k + 1]
        other = beta_roots[:k + 1] * padded[:k + 1, 1:k + 2]
        other -= alpha_roots[k::-1] * padded[1:k + 2, 1:k + 2]
        other *= roots[k::-1]
        block += other
        block /= k
        blocks.append(block)
    return blocks


@lru_cache(maxsize=None)
def _balanced_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """W[k, n, j] = i^n B_k[n, j], B_k the balanced splitter's transfer
    blocks, and the weights eps(n, k - n) at [k, n] for n <= k (0
    elsewhere), for k, n, j < size.

    The recurrence gives every B_k the same bits at any size, so each
    table's entries are the leading entries of any larger one.  Callers
    ask for 2^m + 1 rows only, so at most seven sizes (2 to 65) are kept.
    """
    k = np.arange(size)
    blocks = _transfer_blocks(BALANCED_ALPHA, BALANCED_ALPHA, size - 1)
    table = np.zeros((size,) * 3, dtype=complex)
    for order, block in enumerate(blocks):
        table[order, :order + 1, :order + 1] = block
    table *= np.array([1.0, 1.0j, -1.0, -1.0j])[k % 4, None]
    exponent = k[:, None] - k + k[:, None] * (k[:, None] + 1) // 2  # epsilon at m = k - n
    signs = np.where(k <= k[:, None], 1.0 - 2.0 * (exponent % 2), 0.0)
    table.flags.writeable = signs.flags.writeable = False
    return table, signs


@lru_cache(maxsize=7)
def _cut_table(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The parts of the blocks of ``n_max`` that no splitter enters: the
    table W cut to n_max, W^H, the weights on a third axis, and the
    exponents k - 2j at [k, j].

    At most seven n_max are kept, as many as there are table sizes.  W is a
    view of the table; W^H takes 16 (n_max + 1)^3 bytes, 4.4 MB at n_max
    64, so seven entries hold at most about 27 MB (n_max 58 to 64).
    """
    # the smallest table of 2^m + 1 rows that covers n_max
    table, signs = _balanced_table(2 ** max(n_max - 1, 0).bit_length() + 1)
    cut = slice(n_max + 1)
    table = table[cut, cut, cut]
    k = np.arange(n_max + 1)
    conjugate, exponent = table.conj().transpose(0, 2, 1), k[:, None] - 2 * k
    conjugate.flags.writeable = exponent.flags.writeable = False
    return table, conjugate, signs[cut, cut, None], exponent


@lru_cache(maxsize=4)
def _cached_parity_blocks(alpha: float, beta: float, n_max: int) -> np.ndarray:
    table, conjugate, signs, exponent = _cut_table(n_max)
    phi = 2.0 * math.atan2(beta, alpha)
    phases = np.exp(1j * phi * exponent)  # e^{i (k - 2j) phi} at [k, j]
    product = (table * phases[:, None, :]) @ conjugate
    blocks = signs * product.real
    blocks += 0.0  # turns the -0.0 a sign leaves outside the blocks into +0.0
    blocks.flags.writeable = False
    return blocks


def parity_blocks(setting: BeamSplitterSetting, n_max: int) -> np.ndarray:
    """One party's dichotomic observable on its input modes, block by block.

    Returns O of shape (n_max + 1,) * 3 with
    O[k, :k+1, :k+1] = O_k = S_k^T diag(eps) S_k, S_k from
    :func:`_transfer_blocks`, and +0.0 elsewhere; n_max is at most
    2 * MAX_PARTICLES, the largest block a state reaches.  The setting's
    phase does not enter; it only multiplies the input |p, k-p> by
    e^{i phase (k-p)}.  So the array is built once per (alpha, beta,
    n_max) and kept for the next few calls (a profile and a sector trace
    at the same splitter share it), and it is read-only.

    O_k comes from a table that does not depend on the splitter.  Write
    alpha = cos t, beta = sin t, Z = diag(1, -1) and R(x) for the rotation
    by x.  The splitter's mode matrix [[alpha, beta], [beta, -alpha]] is
    Z R(-t), so S_k = Z_k D_k(-t), with Z_k = diag((-1)^(k-n)) and D_k(x)
    the real orthogonal k-particle block of R(x), Wigner's d^(k/2)(2x)
    (Yurke, McCall & Klauder, PRA 33, 4033 (1986)).  The weight is
    diag(eps) = s_k Z_k, s_k = (-1)^(k(k+1)/2).  As D_k(x)^T = D_k(-x) and
    Z_k D_k(x) Z_k = D_k(-x),

        O_k = s_k D_k(t) Z_k D_k(-t) = s_k Z_k D_k(-2t),

    the transfer block at the doubled angle phi = 2t, signed.  Next,
    R(x) = P^H H diag(e^{ix}, e^{-ix}) H P with P = diag(1, i) and H the
    balanced splitter's matrix; in k-particle blocks P is diag(i^(k-n)),
    H is the balanced block B_k (real, symmetric) and the diagonal is
    e^{i (2j-k) x} on |j, k-j>, the Fourier form of Wigner's d (Risbo,
    J. Geodesy 70, 383 (1996)).  So

        O_k[n, p] = s_k (-1)^(k-n) Re sum_j i^(n-p) B_k[n, j] B_k[p, j]
                    e^{i (k-2j) phi},   phi = 2 atan2(beta, alpha),

    one batched product (W e^{i (k-2j) phi}) W^H over every k at once, with
    W = i^n B_k cut to n_max from a table the recurrence builds once per
    size (:func:`_balanced_table`).  As phi depends only on beta / alpha, a
    setting off the unit circle (the setting allows 1e-12) gives its
    normalized splitter's blocks.
    """
    _check_count("n_max", n_max, 0, 2 * MAX_PARTICLES)
    return _cached_parity_blocks(setting.alpha, setting.beta, int(n_max))


@lru_cache(maxsize=64)
def _sector_indices(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of O[k + l, k, k] and O[N - k - l, n1 - k, n1 - k] into
    raveled blocks of N = n1 + n2, over k <= n1 and l <= n2 in row order.

    Each array is read-only and holds (n1 + 1) (n2 + 1) 8-byte integers,
    so an entry takes at most 17.4 kB (n1 = n2 = 32) and the 64 kept
    entries at most about 1.1 MB.
    """
    size = n1 + n2 + 1
    k = np.arange(n1 + 1)[:, None]
    l = np.arange(n2 + 1)
    alice = (((k + l) * size + k) * size + k).ravel()
    bob = (((size - 1 - k - l) * size + n1 - k) * size + n1 - k).ravel()
    alice.flags.writeable = bob.flags.writeable = False
    return alice, bob


def sector_trace_product(n1: int, n2: int,
                         alice: BeamSplitterSetting,
                         bob: BeamSplitterSetting,
                         alice2: BeamSplitterSetting | None = None,
                         sign: float = 1.0) -> float:
    """Trace of the joint dichotomic observable over the (n1, n2) sector.

    Sums the correlation of every sector basis state; with ``alice2`` given,
    the Alice observable is A(alice) + sign * A(alice2).  A sign other than
    1 without ``alice2`` raises ValueError, as it has nothing to combine.
    Equals the sector dimension times the correlation of the sector
    white-noise mixture.

    The basis state |k, n1-k> (x) |l, n2-l> puts (k, l) on Alice's inputs
    and (n1-k, n2-l) on Bob's, and its correlation is the product of the
    two parties' block diagonals there, which no phase changes.  Those
    diagonal entries are read through flat indices that depend only on
    (n1, n2) and are kept for the next calls (:func:`_sector_indices`);
    the products are summed in row order over (k, l) by ``np.add.reduce``,
    the pairwise reduction that ``np.sum`` runs, without its wrapper.
    """
    _check_particles(n1=n1, n2=n2)
    if not math.isfinite(sign):
        raise ValueError(f"sign={sign} is not finite")
    if alice2 is None and sign != 1.0:
        raise ValueError(f"sign={sign} combines two Alice observables and needs alice2")
    n_total = n1 + n2
    alice_index, bob_index = _sector_indices(n1, n2)
    bob_part = parity_blocks(bob, n_total).ravel()[bob_index]

    def trace(setting: BeamSplitterSetting) -> float:
        return float(np.add.reduce(parity_blocks(setting, n_total).ravel()[alice_index] * bob_part))

    total = trace(alice)
    if alice2 is not None:
        total += sign * trace(alice2)
    return total
