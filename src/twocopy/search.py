"""Maximization of the inequality functionals over the measurement angles,
one-dimensional scans, and peak counting.

Every objective depends on the angles only through the differences
phi_j - theta_k, so the search runs over the three coordinates
u = (phi1 - theta1, phi2 - theta1, theta2 - theta1), with theta1 = 0 in
every argmax.  It is a multistart of damped exact-Newton (Levenberg-
Marquardt) ascents, deterministic for a fixed seed.  One pass over the
state's cached trigonometric series gives the objective at a point and the
correlation derivatives from which its gradient g and Hessian H follow by
the chain rule.  Each restart steps by
s = (mu I - H)^-1 g with mu = max(lambda_max(H), 0) + lam (1 + max|lambda(H)|),
so mu I - H is positive definite and s points uphill; lam starts at
LAMBDA_START and is divided by 10 after a step that raises the value, which
is kept, and multiplied by 10 after one that does not.  Coordinates are
wrapped into [0, 2*pi) after every kept step.  A trial point costs only its
value; g, H and the extreme eigenvalues of H are built at the start and at
each kept trial that does not end the restart.  A restart stops, converged,
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
(Matousek, J. Complexity 14, 527 (1998)).  One seeded draw gives the shift
and the scrambling matrices, and one XOR scan in Gray-code order (Antonov &
Saleev, USSR Comput. Math. 19, 252 (1979)) gives every point from the
shift and the scrambled direction numbers.  Each is shifted by its theta1.

The restarts run one after another, each on Python floats, so a
restart's path cannot depend on the others and a restart that stops costs
nothing more.  The arithmetic keeps, term by term, the order of the
lockstep array ascent that tests/test_search.py holds as the reference the
results equal bit for bit.  No step calls numpy, nor does the final
re-evaluation of the argmax, which is the same ``value`` the steps use:
every function is libm's, through Python floats (a steering radius is
abs(complex(v1, v2)), which is libm's hypot; math.hypot rounds
differently), so a seeded result, its maximum included, does not depend on
the SIMD loops numpy dispatches to on the CPU at hand.  A zero
hypot argument or a singular mu I - H gives a NaN step, not a
ZeroDivisionError, and r ** -1.5 is inf where it overflows, so each ends
its restart on the non-finite step rule, as in the reference.  The extreme
eigenvalues come from the trigonometric solution of the characteristic
cubic and the step from the adjugate, which keeps BLAS, and the memory its
first call takes, out of the search.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .fock import _check_count
from .inequalities import (ANGLE_NAMES, TWO_PI, AngleQuad, _correlations, _functional, _series,
                           _steering)
from .measurement import BALANCED_ALPHA
from .states import CompositeState

__all__ = ["OptimizationResult", "ScanSeries", "optimize", "scan_1d", "count_local_maxima"]

MAX_STEPS = 40  # per restart, kept or not
LAMBDA_START = 1e-3
LAMBDA_MAX = 1e8
STEP_TOL = 1e-12
GAIN_TOL = 1e-15
PLATEAU_TOL = 1e-9
# Bounds on one call.  optimize runs its restarts one after another, so
# MAX_RESTARTS bounds its time: 0.25-0.7 s at 4096 restarts on bec1, bec2,
# noon2 and bec(4,4), either objective (one core of a shared 2-core Xeon).
# A scan_1d call builds an array per series order (at most MAX_PARTICLES
# orders) over the four angle differences of each of its MAX_POINTS quads.
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
_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
_TINY = sys.float_info.min
_NAN_VECTOR = (math.nan,) * 3
_NAN_HESSIAN = (math.nan,) * 6


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
    .random(restarts) * TWO_PI``.  One draw from
    ``np.random.default_rng(seed)`` holds, in scipy's order, the digital
    shift's bits and then the lower triangular scrambling matrices, whose
    unit diagonal is not read: a scrambled direction number has the binary
    digits of the Joe-Kuo one plus those times the strict lower part, mod 2
    (Joe & Kuo, SIAM J. Sci. Comput. 30, 2635 (2008); Matousek's linear
    matrix scramble, J. Complexity 14, 527 (1998)).  Point 0 is the shift
    and point i is point i - 1 XOR the scrambled direction number at the
    trailing-zero count of i (the Gray-code order of Antonov & Saleev, USSR
    Comput. Math. 19, 252 (1979)), so one XOR scan over the rows builds
    every point.
    """
    draw = np.random.default_rng(seed).integers(2, size=4 * _SOBOL_BITS * (_SOBOL_BITS + 1),
                                                 dtype=np.uint32)
    weights = 1 << _DIGITS
    # A Gray code below restarts sets only the lowest `bits` bits, and the
    # first `bits` direction numbers have no digit past the first `bits`:
    # only those columns of each matrix's strict lower part (row > column) act.
    bits = int(restarts - 1).bit_length()
    lower = (draw[4 * _SOBOL_BITS:].reshape(4, _SOBOL_BITS, _SOBOL_BITS)[:, :, :bits]
             * (_DIGITS[:, None] < _DIGITS[:bits]))
    digits = _DIRECTIONS[:, :bits, None] >> _DIGITS[:bits] & 1
    # row 0 the shift (its bits drawn least significant first), row b + 1
    # the scrambled direction number of bit b
    rows = np.vstack((draw[:4 * _SOBOL_BITS].reshape(4, _SOBOL_BITS)[:, ::-1] @ weights,
                      ((digits @ lower.transpose(0, 2, 1)) % 2 @ weights
                       ^ _DIRECTIONS[:, :bits]).T))
    # frexp's exponent of i & -i is the trailing-zero count of i plus one, and 0 at i = 0
    index = np.arange(restarts)
    return (np.bitwise_xor.accumulate(rows[np.frexp(index & -index)[1]])
            * (TWO_PI / 2 ** _SOBOL_BITS))


def _start_coordinates(restarts: int, seed: int) -> np.ndarray:
    """The Sobol start quads, shifted by their theta1, as search coordinates."""
    points = _start_points(restarts, seed)
    return points[:, _COORDINATES] - points[:, 2:3]


def _coordinate_objective(objective: str, state: CompositeState, alpha: float,
                          bob_alpha: float | None
                          ) -> tuple[Callable[[float, float, float], tuple[float, tuple]],
                                     Callable[[tuple], tuple[tuple, tuple]]]:
    """The objective at search coordinates, as two functions.

    ``value(x, y, z)`` returns the objective and the point's record: one
    pass over the state's series gives each correlation with its first two
    derivatives.  ``derivatives(point)`` turns a record into the exact
    gradient (3-tuple) and the upper triangle (H00, H01, H02, H11, H12,
    H22) of the Hessian, by the chain rule through each correlation.  The
    derivatives are NaN where a hypot argument of ``steering`` vanishes,
    where it is not differentiable, and the Hessian is not finite where one
    lies below about 3e-206, where r ** -1.5 overflows."""
    steering = _functional(objective) is _steering
    series = _series(state, alpha, bob_alpha)
    c0, terms = series.c0, series.terms()

    def value(x: float, y: float, z: float) -> tuple[float, tuple]:
        # e11 .. e22 at x, x - z, y, y - z, with their first and second
        # derivatives; each series term is a_k cos kd + b_k sin kd
        rows = []
        for delta in (x, x - z, y, y - z):
            total = slope = curvature = 0.0
            for k, a, b in terms:
                angle = k * delta
                cos, sin = math.cos(angle), math.sin(angle)
                term = a * cos + b * sin
                total += term
                slope += k * (b * cos - a * sin)
                curvature += k * k * term
            rows.append((c0 + total, slope, -curvature))
        (e11, _, _), (e12, _, _), (e21, _, _), (e22, _, _) = rows
        if steering:
            # complex abs is libm's hypot
            v1, v2, u1, u2 = e11 + e21, e12 + e22, e11 - e21, e12 - e22
            rv, ru = abs(complex(v1, v2)), abs(complex(u1, u2))
            return rv + ru, (rows, v1, v2, u1, u2, rv, ru)
        bell = e11 + e12 + e21 - e22
        return abs(bell), (rows, bell)

    def derivatives(point: tuple) -> tuple[tuple, tuple]:
        (_, d0, dd0), (_, d1, dd1), (_, d2, dd2), (_, d3, dd3) = point[0]
        if steering:
            # A term hypot(v1, v2) = r has gradient n = v / r and Hessian
            # (I - n n^T) / r = t t^T / r^3 with t = (-v2, v1); here
            # v = (e11 + e21, e12 + e22) and u = (e11 - e21, e12 - e22).
            _, v1, v2, u1, u2, rv, ru = point
            if not (rv and ru):
                return _NAN_VECTOR, _NAN_HESSIAN
            n1, n2, m1, m2 = v1 / rv, v2 / rv, u1 / ru, u2 / ru
            g0, g1, g2, g3 = n1 + m1, n2 + m2, n1 - m1, n2 - m2
            pv, pu = _inverse_power(rv), _inverse_power(ru)
            t1, t2, s1, s2 = -v2 * pv, v1 * pv, -u2 * pu, u1 * pu
            # the Hessian in e is f f^T + h h^T for the factors
            # f = (t1, t2, t1, t2) and h = (s1, s2, -s1, -s2), here taken
            # through the chain rule below
            p1, p3 = t2 * d1, t2 * d3
            f0, f1, f2 = t1 * d0 + p1, t1 * d2 + p3, -p1 - p3
            p1, p3 = s2 * d1, -s2 * d3
            h0, h1, h2 = s1 * d0 + p1, -s1 * d2 + p3, -p1 - p3
        else:
            bell = point[1]
            g0 = 1.0 if bell > 0.0 else -1.0 if bell < 0.0 else 0.0
            g1 = g2 = g0
            g3 = -g0
        # Correlation i moves by its first derivative along row i of
        # d(e11, e12, e21, e22) / d(x, y, z) = [[1, 0, 0], [1, 0, -1], [0, 1, 0], [0, 1, -1]].
        w1, w3 = g1 * d1, g3 * d3
        gradient = (g0 * d0 + w1, g2 * d2 + w3, -w1 - w3)
        q1, q3 = g1 * dd1, g3 * dd3
        hessian = (g0 * dd0 + q1, 0.0, -q1, g2 * dd2 + q3, -q3, q1 + q3)
        if steering:
            hessian = (hessian[0] + (f0 * f0 + h0 * h0), f0 * f1 + h0 * h1,
                       hessian[2] + (f0 * f2 + h0 * h2), hessian[3] + (f1 * f1 + h1 * h1),
                       hessian[4] + (f1 * f2 + h1 * h2), hessian[5] + (f2 * f2 + h2 * h2))
        return gradient, hessian
    return value, derivatives


def _inverse_power(r: float) -> float:
    """r ** -1.5 by libm's pow, inf where it overflows."""
    try:
        return r ** -1.5
    except OverflowError:
        return math.inf


def _extreme_eigenvalues(a: float, b: float, c: float, d: float, e: float,
                         k: float) -> tuple[float, float]:
    """The smallest and largest eigenvalues of the symmetric 3x3 matrix
    [[a, b, c], [b, d, e], [c, e, k]].

    The trigonometric solution of the characteristic cubic (Smith, Commun.
    ACM 4, 168 (1961)): with q the mean eigenvalue and p the root mean
    square of the eigenvalues of B = H - q I, the eigenvalues are
    q + 2 p cos(t + 2 pi j / 3), where cos 3t = det(B) / (2 p^3).  Not finite
    where an entry is not.
    """
    q = (a + d + k) / 3.0
    a, d, k = a - q, d - q, k - q
    p = math.sqrt((a * a + d * d + k * k + 2.0 * (b * b + c * c + e * e)) / 6.0)
    det = a * (d * k - e * e) - b * (b * k - c * e) + c * (b * e - c * d)
    # det = 0 where p = 0 (H a multiple of the identity), and there every angle serves
    cos3 = det / max(2.0 * p * p * p, _TINY)
    third = math.acos(min(max(cos3, -1.0), 1.0)) / 3.0
    return q + 2.0 * p * math.cos(third + _TWO_THIRDS_PI), q + 2.0 * p * math.cos(third)


def _damped_step(g: tuple, h: tuple, low: float, high: float,
                 lam: float) -> tuple[tuple, float]:
    """The step s = (mu I - H)^-1 g of the module docstring for a gradient
    (3-tuple), a Hessian's upper triangle (6-tuple) with its smallest and
    largest eigenvalues, and a damping, and the gain g.s + s.H.s / 2 that
    the quadratic model promises.  Not finite where g or H is not, or where
    mu I - H is singular."""
    a, b, c, d, e, k = h
    mu = max(high, 0.0) + lam * (1.0 + max(-low, high))
    # mu I - H = [[a, -b, -c], [-b, d, -e], [-c, -e, k]] after this line,
    # solved by its adjugate over its determinant
    a, d, k = mu - a, mu - d, mu - k
    c11, c12, c13 = d * k - e * e, c * e + b * k, b * e + c * d
    c22, c23, c33 = a * k - c * c, b * c + a * e, a * d - b * b
    det = a * c11 - b * c12 - c * c13
    if det == 0.0:  # singular: no finite step
        return _NAN_VECTOR, math.nan
    g1, g2, g3 = g
    s1 = (c11 * g1 + c12 * g2 + c13 * g3) / det
    s2 = (c12 * g1 + c22 * g2 + c23 * g3) / det
    s3 = (c13 * g1 + c23 * g2 + c33 * g3) / det
    # H s = mu s - g
    gain = 0.5 * ((g1 * s1 + g2 * s2 + g3 * s3) + mu * (s1 * s1 + s2 * s2 + s3 * s3))
    return (s1, s2, s3), gain


def _ascend(value: Callable[[float, float, float], tuple[float, tuple]],
            derivatives: Callable[[tuple], tuple[tuple, tuple]],
            x: Sequence[float]) -> tuple[Sequence[float], float, int, bool]:
    """Maximize from the point ``x`` by damped Newton steps.

    ``value`` and ``derivatives`` are those of ``_coordinate_objective``;
    the steps and stop rules are the module docstring's.  Each point
    evaluated, start or trial, counts as one evaluation.  The derivatives
    and the Hessian's extreme eigenvalues are built at the start and at
    each kept trial that does not end the ascent, never at a refused one.

    Returns the last kept point, its value, the evaluations used and whether
    a stop rule (not MAX_STEPS) ended the ascent.
    """
    f, point = value(*x)
    g, h = derivatives(point)
    low, high = _extreme_eigenvalues(*h)
    lam = LAMBDA_START
    isfinite = math.isfinite
    for evaluations in range(1, MAX_STEPS + 1):
        (s1, s2, s3), gain = _damped_step(g, h, low, high, lam)
        # each test fails on NaN, which stops the ascent
        if not (isfinite(s1) and isfinite(s2) and isfinite(s3)
                and max(abs(s1), abs(s2), abs(s3)) >= STEP_TOL
                and gain > GAIN_TOL and lam <= LAMBDA_MAX):
            return x, f, evaluations, True
        x1, x2, x3 = x
        trial = [(x1 + s1) % TWO_PI, (x2 + s2) % TWO_PI, (x3 + s3) % TWO_PI]
        f_trial, point = value(*trial)
        if f_trial > f:
            gained = f_trial - f
            x, f, lam = trial, f_trial, 0.1 * lam
            if gained < GAIN_TOL:
                return x, f, evaluations + 1, True
            if evaluations == MAX_STEPS:
                break
            g, h = derivatives(point)
            low, high = _extreme_eigenvalues(*h)
        else:
            lam = 10.0 * lam
    return x, f, MAX_STEPS + 1, False


def optimize(objective: str, state: CompositeState, restarts: int = 64,
             seed: int = 0, alpha: float = BALANCED_ALPHA,
             bob_alpha: float | None = None) -> OptimizationResult:
    """Multistart maximization of an inequality objective over the angles.

    Quasi-uniform (scrambled Sobol) starting points, shifted to theta1 = 0,
    each raised by damped exact-Newton steps over the three angle
    differences; the best local optimum wins, with ties broken toward the
    lowest restart index.  ``max_value`` is the search's own objective,
    on libm, re-evaluated at the argmax wrapped into [0, 2*pi).
    Deterministic for a fixed seed.
    """
    _check_count("restarts", restarts, 1, MAX_RESTARTS)
    _check_count("seed", seed, 0, None)
    value, derivatives = _coordinate_objective(objective, state, alpha, bob_alpha)
    best_x = best_f = None
    evaluations, converged = 1, 0
    for start in _start_coordinates(restarts, seed).tolist():
        x, f, used, stopped = _ascend(value, derivatives, start)
        evaluations += used
        converged += stopped
        if best_x is None or f > best_f:
            best_x, best_f = x, f
    x1, x2, x3 = (u % TWO_PI for u in best_x)
    return OptimizationResult(
        max_value=value(x1, x2, x3)[0],
        argmax=AngleQuad(x1, x2, 0.0, x3),
        restarts_used=int(restarts),
        evaluations=evaluations,
        seed=int(seed),
        converged=converged,
    )


def scan_1d(objectives: Sequence[str], state: CompositeState,
            fixed: Mapping[str, float], axis: str = "theta2",
            points: int = 720, alpha: float = BALANCED_ALPHA,
            bob_alpha: float | None = None) -> tuple[ScanSeries, ...]:
    """Evaluate objectives on a uniform angle grid over [0, 2*pi).

    ``fixed`` must provide the three angles other than ``axis``, and no
    other key; ``objectives`` must not be empty.  The grid's correlations
    are evaluated once and every objective is read from them.
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
    functionals = [_functional(name) for name in objectives]

    grid = [TWO_PI * i / points for i in range(points)]
    base = {name: float(fixed[name]) for name in needed}
    # AngleQuad rejects a non-finite fixed angle
    quads = np.tile(AngleQuad(**{**base, axis: 0.0}).as_tuple(), (points, 1))
    quads[:, ANGLE_NAMES.index(axis)] = grid
    correlations = _correlations(_series(state, alpha, bob_alpha), quads)
    return tuple(ScanSeries(axis=axis,
                            samples=tuple(zip(grid, functional(correlations).tolist())),
                            fixed=tuple(sorted(base.items())))
                 for functional in functionals)


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
