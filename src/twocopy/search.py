"""Derivative-free maximization of the inequality functionals over the four
measurement angles, one-dimensional scans, and peak counting.

The objectives are smooth, cheap, and 2*pi-periodic in every angle, so a
multistart strategy with low-discrepancy seeding and a plain Nelder-Mead
refinement is reliable.  Everything is deterministic for a fixed seed.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.stats import qmc

from .inequalities import ANGLE_NAMES, AngleQuad, TWO_PI, objective_function
from .measurement import BALANCED_ALPHA
from .states import CompositeState

SIMPLEX_TOL = 1e-8
MAX_ITERATIONS = 2000
PLATEAU_TOL = 1e-9


@dataclass(frozen=True)
class OptimizationResult:
    max_value: float
    argmax: AngleQuad
    restarts_used: int
    evaluations: int
    seed: int


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


def _nelder_mead(func: Callable[[np.ndarray], float], x0: np.ndarray,
                 step: float = 0.6) -> tuple[np.ndarray, float, int]:
    """Minimize ``func`` from ``x0``; returns (x, f(x), evaluations).

    Stops when the simplex coordinate spread drops below SIMPLEX_TOL or
    after MAX_ITERATIONS iterations.
    """
    n = x0.size
    vertices = [np.array(x0, dtype=float)]
    for i in range(n):
        v = np.array(x0, dtype=float)
        v[i] += step
        vertices.append(v)
    values = [func(v) for v in vertices]
    evaluations = n + 1

    for _ in range(MAX_ITERATIONS):
        order = np.argsort(values, kind="stable")
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]
        stack = np.stack(vertices)
        if float(np.max(stack.max(axis=0) - stack.min(axis=0))) < SIMPLEX_TOL:
            break
        centroid = stack[:-1].mean(axis=0)
        worst = vertices[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = func(reflected)
        evaluations += 1
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = func(expanded)
            evaluations += 1
            if f_expanded < f_reflected:
                vertices[-1], values[-1] = expanded, f_expanded
            else:
                vertices[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            vertices[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (worst - centroid)
            f_contracted = func(contracted)
            evaluations += 1
            if f_contracted < min(f_reflected, values[-1]):
                vertices[-1], values[-1] = contracted, f_contracted
            else:
                best = vertices[0]
                for i in range(1, n + 1):
                    vertices[i] = best + 0.5 * (vertices[i] - best)
                    values[i] = func(vertices[i])
                evaluations += n

    i_best = int(np.argmin(values))
    return vertices[i_best], values[i_best], evaluations


def _start_points(restarts: int, seed: int) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # non power-of-two draws
        sampler = qmc.Sobol(d=4, scramble=True, seed=seed)
        return sampler.random(restarts) * TWO_PI


def optimize(objective: str, state: CompositeState, restarts: int = 64,
             seed: int = 0, alpha: float = BALANCED_ALPHA,
             bob_alpha: float | None = None, jobs: int = 1) -> OptimizationResult:
    """Multistart maximization of an inequality objective over the angles.

    Quasi-uniform (scrambled Sobol) starting points in [0, 2*pi)^4, each
    refined by Nelder-Mead; the best local optimum wins, with ties broken
    toward the lowest restart index.  Deterministic for a fixed seed.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    func = objective_function(objective)

    def negated(x: np.ndarray) -> float:
        return -func(state, AngleQuad(*x), alpha, bob_alpha)

    starts = _start_points(restarts, seed)

    def refine(index: int) -> tuple[float, int, np.ndarray, int]:
        x, fx, used = _nelder_mead(negated, starts[index])
        return fx, index, x, used

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(refine, range(restarts)))
    else:
        outcomes = [refine(i) for i in range(restarts)]

    evaluations = sum(used for _, _, _, used in outcomes)
    best_value, best_index, best_x, _ = min(outcomes, key=lambda r: (r[0], r[1]))
    argmax = AngleQuad(*(float(v) for v in best_x)).canonical()
    max_value = func(state, argmax, alpha, bob_alpha)
    return OptimizationResult(
        max_value=max_value,
        argmax=argmax,
        restarts_used=restarts,
        evaluations=evaluations + 1,
        seed=seed,
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
    needed = [name for name in ANGLE_NAMES if name != axis]
    missing = [name for name in needed if name not in fixed]
    if missing:
        raise ValueError(f"missing fixed angles: {missing}")
    extra = set(fixed) - set(needed)
    if extra:
        raise ValueError(f"fixed angles {sorted(extra)} conflict with axis {axis!r}")

    grid = [TWO_PI * i / points for i in range(points)]
    base = {name: float(fixed[name]) for name in needed}
    series = []
    for name in objectives:
        func = objective_function(name)
        samples = []
        for x in grid:
            q = AngleQuad(**{**base, axis: x})
            samples.append((x, func(state, q, alpha, bob_alpha)))
        series.append(ScanSeries(
            axis=axis,
            samples=tuple(samples),
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
