"""Maximization of the inequality functionals over the measurement angles,
one-dimensional scans, and peak counting.

Every objective depends on the angles only through the differences
phi_j - theta_k, so the search runs over the three coordinates
u = (phi1 - theta1, phi2 - theta1, theta2 - theta1), with theta1 = 0 in
every argmax.  It is a multistart in two stages, deterministic for a fixed
seed:

* a coarse Nelder-Mead from every start, to a simplex coordinate spread of
  SIMPLEX_TOL;
* an exact Newton finish: up to NEWTON_STEPS steps, each solving the 3x3
  system of the objective's exact Hessian and gradient, taken from the
  derivative series of the state's cached trigonometric polynomial.  A
  step is kept only where it raises the value; a restart stops at its
  first refused step.  Steering is not differentiable where a hypot
  argument vanishes, and there the step is refused.

The starting points are scipy's scrambled Sobol points in the four angles,
reproduced bit for bit in numpy, so scipy is not needed at run time:
Joe-Kuo direction numbers (Joe & Kuo, SIAM J. Sci. Comput. 30, 2635
(2008)) under Matousek's linear matrix scramble and a digital shift
(Matousek, J. Complexity 14, 527 (1998)).  Each is shifted by its theta1.

The restarts run in lockstep.  Each simplex is one block of a
(restarts, 4, 4) array, a vertex per row: its three coordinates, then its
value; the stable sort of every simplex is one argsort and one take.  Each
stage of a step (reflect, expand or contract, shrink) evaluates the
objective in one call on just the points the running restarts need, and a
restart that stops leaves the array.  A restart's path does not depend on
the others: it runs the floating-point operations of a one-start
Nelder-Mead in the same order, so, given the same objective values, its
vertices, values and evaluation count are the same bit for bit.  The
Newton steps of all restarts are solved together in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .fock import _check_count
from .inequalities import (_DERIVATIVES, ANGLE_NAMES, TWO_PI, AngleQuad, _functional,
                           _series, objective_array)
from .measurement import BALANCED_ALPHA
from .states import CompositeState

SIMPLEX_TOL = 1e-3
SIMPLEX_STEP = 0.6  # the start simplex's edge along each coordinate
MAX_ITERATIONS = 2000
NEWTON_STEPS = 4
PLATEAU_TOL = 1e-9
# Bounds on one call.  An objective call builds an array per series order
# (at most MAX_PARTICLES orders) over the four angle differences of every
# quad it evaluates: up to 4 * MAX_RESTARTS quads in optimize and
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
# The quad columns the search moves: phi1, phi2 and theta2, with theta1 = 0.
_COORDINATES = [0, 1, 3]
_ARGUMENT_COLUMNS = [0, 0, 1, 1]  # of e11 .. e22, before theta2 is subtracted
# d(e11, e12, e21, e22) / d(phi1, phi2, theta2), and each row's outer product
_JACOBIAN = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
_JACOBIAN_SQUARES = _JACOBIAN[:, :, None] * _JACOBIAN[:, None, :]


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
    polished: int  # restarts whose Newton finish kept at least one step


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


def _nelder_mead(func: Callable[[np.ndarray], np.ndarray], starts: np.ndarray
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
    # s[r, i] is vertex i of restart r: its n coordinates, then its value
    s = np.empty((restarts, n + 1, n + 1))
    s[:, :, :n] = starts[:, None, :]
    s[:, 1:, :n] += SIMPLEX_STEP * np.eye(n)
    s[:, :, n] = func(s[:, :, :n])
    offsets = np.arange(0, restarts * (n + 1), n + 1)[:, None]  # in s.reshape(-1, n + 1)
    rows = np.arange(restarts)
    extra = np.zeros(restarts, dtype=int)  # evaluations of trial and shrunk points
    best = np.empty((restarts, n + 1))
    used = np.empty(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)

    for iteration in range(MAX_ITERATIONS):
        order = np.argsort(s[:, :, n], axis=1, kind="stable") + offsets
        s = s.reshape(-1, n + 1).take(order, axis=0)
        # A coordinate's spread is at least |best - worst|, rounded or not.
        near = (np.abs(s[:, 0, :n] - s[:, n, :n]).max(axis=1) < SIMPLEX_TOL).nonzero()[0]
        if near.size:
            x = s[near, :, :n]
            done = near[(x.max(axis=1) - x.min(axis=1)).max(axis=1) < SIMPLEX_TOL]
            if done.size:
                finished = rows[done]
                best[finished], used[finished] = s[done, 0], n + 1 + iteration + extra[done]
                converged[finished] = True
                running = np.ones(rows.size, dtype=bool)
                running[done] = False
                s, extra, rows = s[running], extra[running], rows[running]
                offsets = offsets[:rows.size]
                if not rows.size:
                    break
        centroid = s[:, :n, :n].sum(axis=1) / n
        worst = s[:, n]
        away = centroid - worst[:, :n]
        # the reflected vertex, or the worst where that is better
        candidate = np.empty_like(worst)
        np.add(centroid, away, out=candidate[:, :n])
        f_reflected = candidate[:, n] = func(candidate[:, :n])
        np.copyto(candidate, worst, where=~(f_reflected < worst[:, n])[:, None])
        expand = f_reflected < s[:, 0, n]
        tried = expand | ~(f_reflected < s[:, n - 1, n])
        extra += tried
        tried = tried.nonzero()[0]
        if tried.size:
            # Expanded, or contracted toward the candidate, which it replaces
            # where better; a contraction that is not shrinks the simplex.
            trial = np.empty((tried.size, n + 1))
            trial[:, :n] = (centroid + np.where(expand[:, None], 2.0 * away,
                                                0.5 * (candidate[:, :n] - centroid))
                            ).take(tried, axis=0)
            trial[:, n] = func(trial[:, :n])
            kept = candidate.take(tried, axis=0)
            wins = trial[:, n] < kept[:, n]
            candidate[tried] = np.where(wins[:, None], trial, kept)
            shrink = tried.compress(~(wins | expand.take(tried)))
            if shrink.size:
                extra[shrink] += n
                x = s[shrink, :, :n]
                s[shrink, 1:, :n] = x[:, :1] + 0.5 * (x[:, 1:] - x[:, :1])
                s[shrink, 1:, n] = func(s[shrink, 1:, :n])
                candidate[shrink] = s[shrink, n]
        s[:, n] = candidate

    # restarts stopped by MAX_ITERATIONS
    best[rows] = s.reshape(-1, n + 1)[np.argmin(s[:, :, n], axis=1) + offsets[:, 0]]
    used[rows] = n + 1 + MAX_ITERATIONS + extra
    return best[:, :n], best[:, n], used, converged


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
    # only the direction numbers of the bits a Gray code below restarts sets
    gray_bits = int(restarts).bit_length()
    digits = _DIRECTIONS[:, :gray_bits, None] >> _DIGITS & 1
    directions = (digits @ lower.transpose(0, 2, 1) % 2) @ (1 << _DIGITS)
    index = np.arange(restarts)
    gray = index ^ index >> 1
    points = np.tile(shift, (restarts, 1))
    for bit in range(gray_bits):
        points ^= np.where((gray >> bit & 1)[:, None] == 1, directions[:, bit], 0)
    return points * (TWO_PI / 2 ** _SOBOL_BITS)


def _start_coordinates(restarts: int, seed: int) -> np.ndarray:
    """The Sobol start quads, shifted by their theta1, as search coordinates."""
    points = _start_points(restarts, seed)
    return points[:, _COORDINATES] - points[:, 2:3]


def _newton(value: Callable[[np.ndarray], np.ndarray],
            derivatives: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
            x: np.ndarray, f: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raise ``value`` by Newton steps from every row of ``x``, valued ``f``.

    ``derivatives`` maps points of shape (k, 3) to the gradient (k, 3) and
    Hessian (k, 3, 3).  Every running restart takes its step
    -H^{-1} g at once, solved by the adjugate over the determinant.  A step
    is kept where it is finite and raises the value; a restart stops at the
    first step it does not keep, or after NEWTON_STEPS steps.  Each
    derivative call and each trial value count as one evaluation.

    Updates ``x`` and ``f`` in place and returns them, with the steps
    kept and the evaluations used per restart.
    """
    kept = np.zeros(len(x), dtype=int)
    evaluations = np.zeros(len(x), dtype=int)
    rows = np.arange(len(x))
    for _ in range(NEWTON_STEPS):
        gradient, hessian = derivatives(x[rows])
        (a, b, c), (_, d, e), (_, _, h) = np.moveaxis(hessian, 0, -1)
        g1, g2, g3 = gradient.T
        # cofactors of the symmetric Hessian [[a, b, c], [b, d, e], [c, e, h]]
        c11, c12, c13 = d * h - e * e, c * e - b * h, b * e - c * d
        c22, c23, c33 = a * h - c * c, b * c - a * e, a * d - b * b
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.stack([c11 * g1 + c12 * g2 + c13 * g3,
                             c12 * g1 + c22 * g2 + c23 * g3,
                             c13 * g1 + c23 * g2 + c33 * g3], axis=1
                            ) / -(a * c11 + b * c12 + c * c13)[:, None]
        finite = np.isfinite(step).all(axis=1)
        evaluations[rows] += 1 + finite
        trial = x[rows[finite]] + step[finite]
        f_trial = value(trial)
        up = f_trial > f[rows[finite]]
        rows = rows[finite][up]
        x[rows], f[rows] = trial[up], f_trial[up]
        kept[rows] += 1
        if not rows.size:
            break
    return x, f, kept, evaluations


def _quads(u: np.ndarray) -> np.ndarray:
    """Angle quads (phi1, phi2, 0, theta2) from search coordinates of shape (..., 3)."""
    return np.insert(u, 2, 0.0, axis=-1)


def _arguments(u: np.ndarray) -> np.ndarray:
    """The arguments (x, x - z, y, y - z) of e11 .. e22 at u = (x, y, z)."""
    arguments = u.take(_ARGUMENT_COLUMNS, axis=-1)
    arguments[..., 1::2] -= u[..., 2:]
    return arguments


def _coordinate_objective(objective: str, state: CompositeState, alpha: float,
                          bob_alpha: float | None
                          ) -> tuple[Callable[[np.ndarray], np.ndarray],
                                     Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]]:
    """An objective over search coordinates, shape (..., 3), and its exact
    gradient and Hessian over points of shape (k, 3): the chain rule through
    each correlation and the derivative series of its polynomial.  Both are
    not finite where a hypot argument of ``steering`` vanishes, with no
    warning."""
    functional = _functional(objective)
    derivative = _DERIVATIVES[functional]
    series = _series(state, alpha, bob_alpha)

    def value(u: np.ndarray) -> np.ndarray:
        return functional(series.evaluate(_arguments(u)))

    def derivatives(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e, first, second = series.derivatives(_arguments(u))
            gradient, factors = derivative(e)
            # Correlation i moves by first[i] along row i of _JACOBIAN.  Not
            # matmul: a first matmul starts BLAS buffers, adding peak memory.
            slopes = (gradient * first)[..., None] * _JACOBIAN
            vectors = ((factors * first[..., None, :])[..., None] * _JACOBIAN).sum(axis=-2)
            hessian = (((gradient * second)[..., None, None] * _JACOBIAN_SQUARES).sum(axis=-3)
                       + (vectors[..., :, None] * vectors[..., None, :]).sum(axis=-3))
            return slopes.sum(axis=-2), hessian
    return value, derivatives


def optimize(objective: str, state: CompositeState, restarts: int = 64,
             seed: int = 0, alpha: float = BALANCED_ALPHA,
             bob_alpha: float | None = None) -> OptimizationResult:
    """Multistart maximization of an inequality objective over the angles.

    Quasi-uniform (scrambled Sobol) starting points, shifted to theta1 = 0,
    all refined together by a coarse Nelder-Mead over the three angle
    differences and then by exact Newton steps; the best local optimum
    wins, with ties broken toward the lowest restart index.  Deterministic
    for a fixed seed.
    """
    _check_count("restarts", restarts, 1, MAX_RESTARTS)
    _check_count("seed", seed, 0, None)
    value, derivatives = _coordinate_objective(objective, state, alpha, bob_alpha)
    x, f, used, converged = _nelder_mead(lambda u: -value(u),
                                         _start_coordinates(restarts, seed))
    x, f, kept, polish = _newton(value, derivatives, x, -f)
    best = x[int(np.argmax(f))] % TWO_PI
    return OptimizationResult(
        max_value=float(value(best)),
        argmax=AngleQuad(*_quads(best).tolist()),
        restarts_used=int(restarts),
        evaluations=int(used.sum() + polish.sum()) + 1,
        seed=int(seed),
        converged=int(converged.sum()),
        polished=int(np.count_nonzero(kept)),
    )


def scan_1d(objectives: Sequence[str], state: CompositeState,
            fixed: Mapping[str, float], axis: str = "theta2",
            points: int = 720, alpha: float = BALANCED_ALPHA,
            bob_alpha: float | None = None) -> tuple[ScanSeries, ...]:
    """Evaluate objectives on a uniform angle grid over [0, 2*pi).

    ``fixed`` must provide the three angles other than ``axis``, and no
    other key; ``objectives`` must not be empty.
    """
    if not objectives:
        raise ValueError("no objectives given")
    if axis not in ANGLE_NAMES:
        raise ValueError(f"axis must be one of {ANGLE_NAMES}")
    _check_count("points", points, 8, MAX_POINTS)
    stray = sorted(set(fixed) - set(ANGLE_NAMES))
    if stray:
        raise ValueError(f"fixed {', '.join(stray)} is not an angle; angles are {ANGLE_NAMES}")
    needed = [name for name in ANGLE_NAMES if name != axis]
    missing = [name for name in needed if name not in fixed]
    if missing:
        raise ValueError(f"missing fixed angles: {missing}")
    if axis in fixed:
        raise ValueError(f"fixed {axis} conflicts with axis {axis}")

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
