"""Derivative-free maximization of the inequality functionals over the four
measurement angles, one-dimensional scans, and peak counting.

The objectives are smooth, cheap, and 2*pi-periodic in every angle, so a
multistart strategy with low-discrepancy seeding and a plain Nelder-Mead
refinement is reliable.  Everything is deterministic for a fixed seed.

The starting points are scipy's scrambled Sobol points, reproduced bit for
bit in numpy, so scipy is not needed at run time: Joe-Kuo direction numbers
(Joe & Kuo, SIAM J. Sci. Comput. 30, 2635 (2008)) under Matousek's linear
matrix scramble and a digital shift (Matousek, J. Complexity 14, 527
(1998)).

The restarts run in lockstep: every simplex sits in one (restarts, 5, 4)
array, and each stage of a step (reflect, expand or contract, shrink)
evaluates the objective in one call on just the points the running
restarts need, from the cached trigonometric series of the state.
Each restart still takes exactly the steps a one-start Nelder-Mead would,
so its optimum and evaluation count do not depend on the others.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .inequalities import (
    ANGLE_NAMES,
    AngleQuad,
    TWO_PI,
    objective_array,
    objective_function,
)
from .measurement import BALANCED_ALPHA
from .states import CompositeState

SIMPLEX_TOL = 1e-8
MAX_ITERATIONS = 2000
PLATEAU_TOL = 1e-9
# Bounds on one call.  An objective call builds an array per series order
# (at most MAX_PARTICLES orders) over the four angle differences of every
# quad it evaluates: up to 5 * MAX_RESTARTS quads in optimize and
# MAX_POINTS in scan_1d.
MAX_RESTARTS = 4096
MAX_POINTS = 10_000

# Sobol direction numbers of dimensions 2-4 (Joe & Kuo): the primitive
# polynomial with its leading and constant terms, and the initial m_1..m_s.
# Dimension 1 has every m_j = 1.
_SOBOL_POLYNOMIALS = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)))
_SOBOL_BITS = 30
# the bit each binary digit sits at, most significant digit first
_DIGITS = np.arange(_SOBOL_BITS - 1, -1, -1)


def _direction_numbers() -> np.ndarray:
    """v[d, j] = m_j << (BITS - 1 - j), shape (4, BITS)."""
    m = np.ones((4, _SOBOL_BITS), dtype=np.int64)
    for d, (poly, initial) in enumerate(_SOBOL_POLYNOMIALS, 1):
        s = len(initial)
        m[d, :s] = initial
        for j in range(s, _SOBOL_BITS):
            new = m[d, j - s] ^ (m[d, j - s] << s)
            for k in range(1, s):
                if poly >> (s - k) & 1:
                    new ^= m[d, j - k] << k
            m[d, j] = new
    return m << _DIGITS


_DIRECTIONS = _direction_numbers()


@dataclass(frozen=True)
class OptimizationResult:
    max_value: float
    argmax: AngleQuad
    restarts_used: int
    evaluations: int
    seed: int
    converged: int  # restarts whose simplex met SIMPLEX_TOL within MAX_ITERATIONS


@dataclass(frozen=True)
class ScanSeries:
    """Objective values along one angle with the other three held fixed."""

    axis: str
    samples: tuple[tuple[float, float], ...]
    fixed: tuple[tuple[str, float], ...]

    def values(self) -> list[float]:
        return [v for _, v in self.samples]

    def peak(self) -> tuple[float, float]:
        """(axis value, objective value) of the largest sample."""
        return max(self.samples, key=lambda s: s[1])


def _nelder_mead(func: Callable[[np.ndarray], np.ndarray], starts: np.ndarray,
                 step: float = 0.6
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize ``func`` from every row of ``starts`` at once.

    ``func`` maps an array of points of shape (..., n) to its values, of
    shape (...).  Each restart follows its own simplex through the same
    steps as a one-start Nelder-Mead: a stable sort of the vertices, then
    reflect, expand, contract or shrink.  A restart stops when its simplex
    coordinate spread drops below SIMPLEX_TOL, or after MAX_ITERATIONS
    iterations; a stopped restart leaves the arrays, so each step evaluates
    only the points that some running restart needs.

    Returns, per restart, the best vertex, its value, the evaluations used,
    and whether the simplex converged.
    """
    restarts, n = starts.shape
    x = np.repeat(starts[:, None, :], n + 1, axis=1)
    x[:, 1:] += step * np.eye(n)
    f = func(x)
    evaluations = np.full(restarts, n + 1)
    rows = np.arange(restarts)
    best_x = np.empty((restarts, n))
    best_f = np.empty(restarts)
    used = np.empty(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)

    for _ in range(MAX_ITERATIONS):
        order = np.argsort(f, axis=1, kind="stable")
        index = np.arange(rows.size)[:, None]
        f, x = f[index, order], x[index, order]
        done = (x.max(axis=1) - x.min(axis=1)).max(axis=1) < SIMPLEX_TOL
        if done.any():
            finished = rows[done]
            best_x[finished], best_f[finished] = x[done, 0], f[done, 0]
            used[finished] = evaluations[done]
            converged[finished] = True
            running = ~done
            x, f = x[running], f[running]
            evaluations, rows = evaluations[running], rows[running]
            if not rows.size:
                break
        centroid = x[:, :-1].sum(axis=1) / n
        worst = x[:, -1]
        reflected = centroid + (centroid - worst)
        f_reflected = func(reflected)
        expand = f_reflected < f[:, 0]
        contract = ~expand & ~(f_reflected < f[:, -2])
        # the second point tried: expanded, or contracted toward the better
        # of the reflected and the worst vertex
        toward = np.where((f_reflected < f[:, -1])[:, None], reflected, worst)
        trial = np.where(expand[:, None], centroid + 2.0 * (centroid - worst),
                         centroid + 0.5 * (toward - centroid))
        tried = expand | contract
        f_trial = np.full(rows.size, np.inf)
        if tried.any():
            f_trial[tried] = func(trial[tried])
        take = f_trial < np.where(expand, f_reflected, np.minimum(f_reflected, f[:, -1]))
        shrink = contract & ~take
        f[:, -1] = np.where(take, f_trial, np.where(shrink, f[:, -1], f_reflected))
        x[:, -1] = np.where(take[:, None], trial,
                            np.where(shrink[:, None], worst, reflected))
        evaluations += 1 + tried + n * shrink
        if shrink.any():
            best = x[shrink, :1]
            x[shrink, 1:] = best + 0.5 * (x[shrink, 1:] - best)
            f[shrink, 1:] = func(x[shrink, 1:])

    # restarts stopped by MAX_ITERATIONS
    at, pick = np.arange(rows.size), np.argmin(f, axis=1)
    best_x[rows], best_f[rows] = x[at, pick], f[at, pick]
    used[rows] = evaluations
    return best_x, best_f, used, converged


def _start_points(restarts: int, seed: int) -> np.ndarray:
    """The first ``restarts`` scrambled Sobol points in [0, 2*pi)^4.

    Bit for bit scipy's ``qmc.Sobol(d=4, scramble=True, seed=seed)
    .random(restarts) * TWO_PI``.  The digital shift, then the lower
    triangular scrambling matrices (unit diagonal), are drawn from
    ``np.random.default_rng(seed)`` in scipy's order.  The matrices act on
    the binary digits of each Joe-Kuo direction number (Joe & Kuo, SIAM J.
    Sci. Comput. 30, 2635 (2008); Matousek's linear matrix scramble,
    J. Complexity 14, 527 (1998)), and point i is the shift XOR the
    scrambled direction numbers at the set bits of the Gray code of i.
    """
    rng = np.random.default_rng(seed)
    bits = np.arange(_SOBOL_BITS)
    shift = rng.integers(2, size=(4, _SOBOL_BITS), dtype=np.uint32) @ (1 << bits)
    lower = np.tril(rng.integers(2, size=(4, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    lower[:, bits, bits] = 1
    digits = _DIRECTIONS[:, :, None] >> _DIGITS & 1
    directions = (digits @ lower.transpose(0, 2, 1) % 2) @ (1 << _DIGITS)
    index = np.arange(restarts)
    gray = index ^ index >> 1
    points = np.tile(shift, (restarts, 1))
    for bit in range(int(restarts).bit_length()):
        points ^= np.where((gray >> bit & 1)[:, None] == 1, directions[:, bit], 0)
    return points * (TWO_PI / 2 ** _SOBOL_BITS)


def optimize(objective: str, state: CompositeState, restarts: int = 64,
             seed: int = 0, alpha: float = BALANCED_ALPHA,
             bob_alpha: float | None = None) -> OptimizationResult:
    """Multistart maximization of an inequality objective over the angles.

    Quasi-uniform (scrambled Sobol) starting points in [0, 2*pi)^4, all
    refined together by Nelder-Mead; the best local optimum wins, with ties
    broken toward the lowest restart index.  Deterministic for a fixed seed.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if restarts > MAX_RESTARTS:
        raise ValueError(f"restarts={restarts} exceeds the bound {MAX_RESTARTS}")
    starts = _start_points(restarts, seed)
    value = objective_array(objective, state, alpha, bob_alpha)
    x, f, used, converged = _nelder_mead(lambda quads: -value(quads), starts)
    best = int(np.argmin(f))
    argmax = AngleQuad(*(float(v) for v in x[best])).canonical()
    max_value = objective_function(objective)(state, argmax, alpha, bob_alpha)
    return OptimizationResult(
        max_value=max_value,
        argmax=argmax,
        restarts_used=restarts,
        evaluations=int(used.sum()) + 1,
        seed=seed,
        converged=int(converged.sum()),
    )


def scan_1d(objectives: Sequence[str], state: CompositeState,
            fixed: Mapping[str, float], axis: str = "theta2",
            points: int = 720, alpha: float = BALANCED_ALPHA,
            bob_alpha: float | None = None) -> tuple[ScanSeries, ...]:
    """Evaluate objectives on a uniform angle grid over [0, 2*pi).

    ``fixed`` must provide the three angles other than ``axis``.
    """
    if axis not in ANGLE_NAMES:
        raise ValueError(f"axis must be one of {ANGLE_NAMES}")
    if points < 8:
        raise ValueError("need at least 8 grid points")
    if points > MAX_POINTS:
        raise ValueError(f"points={points} exceeds the bound {MAX_POINTS}")
    needed = [name for name in ANGLE_NAMES if name != axis]
    missing = [name for name in needed if name not in fixed]
    if missing:
        raise ValueError(f"missing fixed angles: {missing}")
    extra = set(fixed) - set(needed)
    if extra:
        raise ValueError(f"fixed angles {sorted(extra)} conflict with axis {axis!r}")

    grid = [TWO_PI * i / points for i in range(points)]
    base = {name: float(fixed[name]) for name in needed}
    # AngleQuad rejects a non-finite fixed angle
    quads = np.tile(AngleQuad(**{**base, axis: 0.0}).as_tuple(), (points, 1))
    quads[:, ANGLE_NAMES.index(axis)] = grid
    series = []
    for name in objectives:
        values = objective_array(name, state, alpha, bob_alpha)(quads)
        series.append(ScanSeries(
            axis=axis,
            samples=tuple(zip(grid, values.tolist())),
            fixed=tuple(sorted(base.items())),
        ))
    return tuple(series)


def count_local_maxima(series: ScanSeries | Sequence[float],
                       threshold: float) -> int:
    """Strict local maxima above ``threshold`` under circular adjacency.

    Runs of values within ``PLATEAU_TOL`` of each other are merged and
    counted as a single candidate.  A constant series has no maxima.
    """
    values = series.values() if isinstance(series, ScanSeries) else list(series)
    if not values:
        return 0
    segments: list[float] = []
    for v in values:
        if segments and abs(v - segments[-1]) < PLATEAU_TOL:
            continue
        segments.append(v)
    # merge the wrap-around plateau
    while len(segments) > 1 and abs(segments[0] - segments[-1]) < PLATEAU_TOL:
        segments.pop()
    count = len(segments)
    if count <= 1:
        return 0
    peaks = 0
    for i, v in enumerate(segments):
        before = segments[(i - 1) % count]
        after = segments[(i + 1) % count]
        if v > threshold and v > before and v > after:
            peaks += 1
    return peaks
