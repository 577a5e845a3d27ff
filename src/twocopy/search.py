"""Maximization of the inequality functionals over the measurement angles,
one-dimensional scans, and peak counting.

Every objective depends on the angles only through the differences
phi_j - theta_k, so the search runs over the three coordinates
u = (phi1 - theta1, phi2 - theta1, theta2 - theta1), with theta1 = 0 in
every argmax.  It is a multistart of damped exact-Newton (Levenberg-
Marquardt) ascents, deterministic for a fixed seed.  One call to the
state's cached trigonometric series gives the objective, its gradient g and
its Hessian H at every point asked for.  Each restart steps by
s = (mu I - H)^-1 g with mu = max(lambda_max(H), 0) + lam (1 + max|lambda(H)|),
so mu I - H is positive definite and s points uphill; lam starts at
LAMBDA_START and is divided by 10 after a step that raises the value, which
is kept, and multiplied by 10 after one that does not.  Coordinates are
wrapped into [0, 2*pi) after every kept step.  A restart stops, converged,
when its step is not finite (steering is not differentiable where a hypot
argument vanishes), when the step is shorter than STEP_TOL in every
coordinate, when the quadratic model g.s + s.H.s/2 promises at most
GAIN_TOL, when a kept step gained less than GAIN_TOL, or when lam exceeds
LAMBDA_MAX; otherwise it stops at MAX_STEPS steps.
(Nocedal & Wright, Numerical Optimization, 2nd ed., ch. 4 and 10; More,
The Levenberg-Marquardt algorithm, LNM 630 (1978).)

The starting points are scipy's scrambled Sobol points in the four angles,
reproduced bit for bit in numpy, so scipy is not needed at run time:
Joe-Kuo direction numbers (Joe & Kuo, SIAM J. Sci. Comput. 30, 2635
(2008)) under Matousek's linear matrix scramble and a digital shift
(Matousek, J. Complexity 14, 527 (1998)).  Each is shifted by its theta1.

The restarts run in lockstep: every step solves the 3x3 systems of all
running restarts at once, in closed form, and evaluates all their trial
points in one series call; a restart that stops leaves the arrays.  The
arithmetic is elementwise, so a restart's path does not depend on the
others.  No step calls numpy.linalg: the extreme eigenvalues come from the
trigonometric solution of the characteristic cubic and the step from the
adjugate, which keeps BLAS, and the memory its first call takes, out of
the search.
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

MAX_STEPS = 40  # per restart, kept or not
LAMBDA_START = 1e-3
LAMBDA_MAX = 1e8
STEP_TOL = 1e-12
GAIN_TOL = 1e-15
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
_TWO_THIRDS_PI = 2.0 * np.pi / 3.0
_TINY = np.finfo(float).tiny


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
    converged: int  # restarts stopped by a stop rule before MAX_STEPS


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
                          ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The objective over search coordinates of shape (k, 3), with its exact
    gradient (k, 3) and Hessian (k, 3, 3), from one call to the derivative
    series of the state's polynomial and the chain rule through each
    correlation.  The derivatives are not finite where a hypot argument of
    ``steering`` vanishes, with no warning."""
    derivative = _DERIVATIVES[_functional(objective)]
    series = _series(state, alpha, bob_alpha)

    def evaluate(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e, first, second = series.derivatives(_arguments(u))
            value, gradient, factors = derivative(e)
            # Correlation i moves by first[i] along row i of _JACOBIAN.  Not
            # matmul: a first matmul starts BLAS buffers, adding peak memory.
            slopes = (gradient * first)[..., None] * _JACOBIAN
            vectors = ((factors * first[..., None, :])[..., None] * _JACOBIAN).sum(axis=-2)
            hessian = (((gradient * second)[..., None, None] * _JACOBIAN_SQUARES).sum(axis=-3)
                       + (vectors[..., :, None] * vectors[..., None, :]).sum(axis=-3))
            return value, slopes.sum(axis=-2), hessian
    return evaluate


def _extreme_eigenvalues(a, b, c, d, e, k) -> tuple[np.ndarray, np.ndarray]:
    """The smallest and largest eigenvalues of the symmetric 3x3 matrices
    [[a, b, c], [b, d, e], [c, e, k]], one per element of the arrays.

    The trigonometric solution of the characteristic cubic (Smith, Commun.
    ACM 4, 168 (1961)): with q the mean eigenvalue and p the root mean
    square of the eigenvalues of B = H - q I, the eigenvalues are
    q + 2 p cos(t + 2 pi j / 3), where cos 3t = det(B) / (2 p^3).  Not finite
    where an entry is not, with no warning.
    """
    q = (a + d + k) / 3.0
    a, d, k = a - q, d - q, k - q
    p = np.sqrt((a * a + d * d + k * k + 2.0 * (b * b + c * c + e * e)) / 6.0)
    det = a * (d * k - e * e) - b * (b * k - c * e) + c * (b * e - c * d)
    # det = 0 where p = 0 (H a multiple of the identity), and there every angle serves
    cos3 = det / np.maximum(2.0 * p * p * p, _TINY)
    third = np.arccos(np.minimum(np.maximum(cos3, -1.0), 1.0)) / 3.0
    return q + 2.0 * p * np.cos(third + _TWO_THIRDS_PI), q + 2.0 * p * np.cos(third)


def _damped_step(g: np.ndarray, h: np.ndarray, lam: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The steps s = (mu I - H)^-1 g of the module docstring for gradients
    (k, 3), Hessians (k, 3, 3) and dampings (k,), and the gain g.s + s.H.s / 2
    that the quadratic model promises for each.  Not finite where g or H is
    not, or where mu I - H is singular, with no warning."""
    a, b, c, _, d, e, _, _, k = h.reshape(-1, 9).T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        low, high = _extreme_eigenvalues(a, b, c, d, e, k)
        mu = np.maximum(high, 0.0) + lam * (1.0 + np.maximum(-low, high))
        # mu I - H = [[a, -b, -c], [-b, d, -e], [-c, -e, k]] after this line,
        # solved by its adjugate over its determinant
        a, d, k = mu - a, mu - d, mu - k
        c11, c12, c13 = d * k - e * e, c * e + b * k, b * e + c * d
        c22, c23, c33 = a * k - c * c, b * c + a * e, a * d - b * b
        g1, g2, g3 = g.T
        step = np.stack([c11 * g1 + c12 * g2 + c13 * g3,
                         c12 * g1 + c22 * g2 + c23 * g3,
                         c13 * g1 + c23 * g2 + c33 * g3], axis=1)
        step /= (a * c11 - b * c12 - c * c13)[:, None]
        # H s = mu s - g
        return step, 0.5 * ((g * step).sum(axis=1) + mu * (step * step).sum(axis=1))


def _levenberg(evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
               x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximize from every row of ``x`` at once by damped Newton steps.

    ``evaluate`` maps points of shape (k, 3) to the values, gradients and
    Hessians there; the steps and stop rules are the module docstring's.
    Each point evaluated, start or trial, counts as one evaluation.

    Returns, per restart, the last kept point, its value, the evaluations
    used and whether a stop rule (not MAX_STEPS) ended it.
    """
    f, g, h = evaluate(x)
    x, done_x, done_f = x.copy(), np.empty_like(x), np.empty_like(f)
    lam = np.full(len(x), LAMBDA_START)
    evaluations = np.ones(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    rows = np.arange(len(x))  # the running restarts, whose state x .. lam hold

    def finish(stop: np.ndarray) -> None:
        nonlocal x, f, g, h, lam, rows
        finished = rows[stop]
        done_x[finished], done_f[finished], converged[finished] = x[stop], f[stop], True
        x, f, g, h, lam, rows = (v[~stop] for v in (x, f, g, h, lam, rows))

    for _ in range(MAX_STEPS):
        step, gain = _damped_step(g, h, lam)
        # each test fails on NaN, which stops the restart
        stop = ~((np.abs(step).max(axis=1) >= STEP_TOL) & np.isfinite(step).all(axis=1)
                 & (gain > GAIN_TOL) & (lam <= LAMBDA_MAX))
        if stop.any():
            step = step[~stop]
            finish(stop)
            if not rows.size:
                break
        trial = (x + step) % TWO_PI
        f_trial, g_trial, h_trial = evaluate(trial)
        evaluations[rows] += 1
        up = f_trial > f
        gained = f_trial - f
        x[up], f[up], g[up], h[up] = trial[up], f_trial[up], g_trial[up], h_trial[up]
        lam = np.where(up, 0.1 * lam, 10.0 * lam)
        stop = up & (gained < GAIN_TOL)
        if stop.any():
            finish(stop)
            if not rows.size:
                break
    done_x[rows], done_f[rows] = x, f
    return done_x, done_f, evaluations, converged


def optimize(objective: str, state: CompositeState, restarts: int = 64,
             seed: int = 0, alpha: float = BALANCED_ALPHA,
             bob_alpha: float | None = None) -> OptimizationResult:
    """Multistart maximization of an inequality objective over the angles.

    Quasi-uniform (scrambled Sobol) starting points, shifted to theta1 = 0,
    all raised together by damped exact-Newton steps over the three angle
    differences; the best local optimum wins, with ties broken toward the
    lowest restart index.  ``max_value`` is the objective re-evaluated at
    the argmax.  Deterministic for a fixed seed.
    """
    _check_count("restarts", restarts, 1, MAX_RESTARTS)
    _check_count("seed", seed, 0, None)
    evaluate = _coordinate_objective(objective, state, alpha, bob_alpha)
    x, f, used, converged = _levenberg(evaluate, _start_coordinates(restarts, seed))
    best = _quads(x[int(np.argmax(f))] % TWO_PI)
    return OptimizationResult(
        max_value=float(objective_array(objective, state, alpha, bob_alpha)(best)),
        argmax=AngleQuad(*best.tolist()),
        restarts_used=int(restarts),
        evaluations=int(used.sum()) + 1,
        seed=int(seed),
        converged=int(converged.sum()),
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
