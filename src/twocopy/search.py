"""Maximization of the inequality functionals over the measurement angles,
one-dimensional scans, and peak counting.

Every objective depends on the angles only through the differences
phi_j - theta_k, so the search runs over the three coordinates
u = (phi1 - theta1, phi2 - theta1, theta2 - theta1), with theta1 = 0 in
every argmax.  It is a multistart of damped exact-Newton (Levenberg-
Marquardt) ascents, deterministic for a fixed seed.  A point costs one
pass over the orders of the state's cached trigonometric series: twelve
float accumulators collect the four correlations, at u1, u1 - u3, u2 and
u2 - u3, with their first and second derivatives, from which follow the
objective and, by the chain rule, its gradient g and Hessian H.  Each
accumulator receives the same libm calls and additions in the same order
as a loop over its angle alone, so the pass is bit for bit that loop.
Each restart steps by
s = (mu I - H)^-1 g with mu = max(lambda_max(H), 0) + lam (1 + max|lambda(H)|),
so mu I - H is positive definite and s points uphill, and the quadratic
model promises the gain g.s + s.H.s/2.  A step that raises the value is
kept; lam starts at LAMBDA_START, is divided by 10 after a kept step that
gained more than GOOD_GAIN (a quarter) of the promised gain, halved after
a kept step that gained less, and multiplied by 10 after a refused step
(the gain ratio of trust-region methods).  Coordinates are wrapped into
[0, 2*pi) after every kept step.  A trial point costs only its value; g,
H and the extreme eigenvalues of H are built at the start and at each kept
trial that does not end the restart.

Steering is not smooth where a hypot argument vanishes: a radius r adds
the Hessian factor t t^T / r^3, which grows like 1/r, so near such a kink
the quadratic model fails.  There H drops the factor of each radius below
KINK_RATIO (1e-2) of the value.  That is the Hessian of a minorant: for a
fixed unit vector m, |v| >= v.m, with equality at m = v/|v|, so the term
with m held fixed touches the objective at the current point, with the
same gradient, and lies below it elsewhere (minorize-maximize; Hunter &
Lange, Am. Stat. 58, 30 (2004)).  So such a restart converges on the kink
rather than creeping toward it.

A restart stops, converged, where a steering radius is exactly 0 (no
derivative there), where mu I - H is singular, where the promised gain is
not finite (a step that is not finite) or at most GAIN_TOL, or when a kept
step gained less than GAIN_TOL; otherwise it stops at MAX_STEPS steps.
lam needs no cap: it is at most LAMBDA_START * 10 ** MAX_STEPS.
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
nothing more.  No step calls numpy, nor does the final re-evaluation of
the argmax, which is the same ``value`` the steps use: every function is
libm's, through Python floats (a steering radius is abs(complex(v1, v2)),
which is libm's hypot; math.hypot rounds differently).  So, given its
series, a seeded result, its maximum included, depends on libm alone, not
on the SIMD loops numpy dispatches to on the CPU at hand; the series
itself follows the OpenBLAS kernel that contracts the parity blocks in its
last bits, and a result with it.  tests/golden_search.json holds seeded
results bit for bit, each with the series it was run on.  No stop rule
raises: a zero radius and a singular mu I - H are tested before the
division, and the factor t / r^1.5 is taken as (-v2, v1) / r / sqrt(r),
which does not overflow at a subnormal radius.  The extreme eigenvalues
come from the trigonometric solution of the characteristic cubic and the
step from the adjugate, which keeps BLAS, and the memory its first call
takes, out of the search.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Mapping, Sequence

import numpy as np

from .fock import _check_count, _Record
from .inequalities import (ANGLE_NAMES, TWO_PI, AngleQuad, _correlations, _functional, _series,
                           _steering)
from .measurement import BALANCED_ALPHA
from .states import CompositeState

__all__ = ["OptimizationResult", "ScanSeries", "optimize", "scan_1d", "count_local_maxima"]

MAX_STEPS = 40  # per restart, kept or not
LAMBDA_START = 1e-3
GAIN_TOL = 1e-15
# a kept step divides the damping by 10 when it gained more than this share
# of the model's gain, and halves it otherwise
GOOD_GAIN = 0.25
# a steering radius below this share of the value adds no Hessian factor
# (the kink minorant)
KINK_RATIO = 1e-2
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


class OptimizationResult(_Record):
    # converged: the restarts stopped by a stop rule before MAX_STEPS
    __slots__ = ("max_value", "argmax", "restarts_used", "evaluations", "seed", "converged")

    def __init__(self, max_value: float, argmax: AngleQuad, restarts_used: int,
                 evaluations: int, seed: int, converged: int):
        object.__setattr__(self, "max_value", max_value)
        object.__setattr__(self, "argmax", argmax)
        object.__setattr__(self, "restarts_used", restarts_used)
        object.__setattr__(self, "evaluations", evaluations)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "converged", converged)


class ScanSeries(_Record):
    """Objective values along one angle with the other three held fixed."""

    __slots__ = ("axis", "samples", "fixed")

    def __init__(self, axis: str, samples: tuple[tuple[float, float], ...],
                 fixed: tuple[tuple[str, float], ...]):
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "fixed", fixed)

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
                          ) -> tuple[Callable[[float, float, float], tuple[float, tuple]], bool]:
    """The objective at search coordinates, and whether it is steering.

    ``value(x, y, z)`` returns the objective and the point's record: one
    pass over the state's series gives each correlation's first two
    derivatives, (d0, dd0, d1, dd1, d2, dd2, d3, dd3) for e11, e12, e21 and
    e22, then steering's two hypot arguments (v1, v2, u1, u2) and radii
    (rv, ru), or Bell's signed value.  ``_ascend`` builds the gradient and
    Hessian from a record."""
    steering = _functional(objective) is _steering
    series = _series(state, alpha, bob_alpha)
    c0, terms = series.c0, [(k, k * k, a, b) for k, a, b in series.terms]
    cos, sin = math.cos, math.sin

    def value(x: float, y: float, z: float) -> tuple[float, tuple]:
        # e11 .. e22 at x, x - z, y, y - z and their first two derivatives in
        # one pass over the orders; each series term is a_k cos kd + b_k sin kd
        w, v = x - z, y - z
        t0 = t1 = t2 = t3 = d0 = d1 = d2 = d3 = q0 = q1 = q2 = q3 = 0.0
        for k, kk, a, b in terms:
            angle = k * x
            c, s = cos(angle), sin(angle)
            term = a * c + b * s
            t0 += term
            d0 += k * (b * c - a * s)
            q0 += kk * term
            angle = k * w
            c, s = cos(angle), sin(angle)
            term = a * c + b * s
            t1 += term
            d1 += k * (b * c - a * s)
            q1 += kk * term
            angle = k * y
            c, s = cos(angle), sin(angle)
            term = a * c + b * s
            t2 += term
            d2 += k * (b * c - a * s)
            q2 += kk * term
            angle = k * v
            c, s = cos(angle), sin(angle)
            term = a * c + b * s
            t3 += term
            d3 += k * (b * c - a * s)
            q3 += kk * term
        e11, e12, e21, e22 = c0 + t0, c0 + t1, c0 + t2, c0 + t3
        if steering:
            # complex abs is libm's hypot
            v1, v2, u1, u2 = e11 + e21, e12 + e22, e11 - e21, e12 - e22
            rv, ru = abs(complex(v1, v2)), abs(complex(u1, u2))
            return rv + ru, (d0, -q0, d1, -q1, d2, -q2, d3, -q3, v1, v2, u1, u2, rv, ru)
        bell = e11 + e12 + e21 - e22
        return abs(bell), (d0, -q0, d1, -q1, d2, -q2, d3, -q3, bell)
    return value, steering


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
    # max(u, v) is written out as v if v > u else u, and min(u, v) as
    # v if v < u else u, which keep the builtins' NaN and -0.0
    cube = 2.0 * p * p * p
    cos3 = det / (_TINY if _TINY > cube else cube)
    cos3 = -1.0 if -1.0 > cos3 else cos3
    third = math.acos(1.0 if 1.0 < cos3 else cos3) / 3.0
    return q + 2.0 * p * math.cos(third + _TWO_THIRDS_PI), q + 2.0 * p * math.cos(third)


def _ascend(value: Callable[[float, float, float], tuple[float, tuple]], steering: bool,
            x: Sequence[float]) -> tuple[Sequence[float], float, int, bool]:
    """Maximize from the point ``x`` by damped Newton steps.

    ``value`` and ``steering`` are those of ``_coordinate_objective``; the
    steps and stop rules are the module docstring's.  Each point evaluated,
    start or trial, counts as one evaluation.  The gradient, the Hessian
    and its extreme eigenvalues are built at the start and at each kept
    trial that does not end the ascent, never at a refused one.

    Returns the last kept point, its value, the evaluations used and whether
    a stop rule (not MAX_STEPS) ended the ascent.
    """
    f, point = value(*x)
    lam = LAMBDA_START
    evaluations = 1
    while True:
        # The gradient (g1, g2, g3) and the Hessian's upper triangle
        # (a, b, c, d, e, k) at x, by the chain rule through each
        # correlation: correlation i moves by its first derivative along
        # row i of d(e11, e12, e21, e22) / d(x, y, z) =
        # [[1, 0, 0], [1, 0, -1], [0, 1, 0], [0, 1, -1]], weighted by the
        # objective's derivative w_i in it.
        if steering:
            # A term hypot(v1, v2) = r has gradient n = v / r and Hessian
            # (I - n n^T) / r = t t^T / r^3 with t = (-v2, v1); here
            # v = (e11 + e21, e12 + e22) and u = (e11 - e21, e12 - e22).
            # Where a radius vanishes the objective has no derivative and
            # the ascent stops.
            d0, dd0, d1, dd1, d2, dd2, d3, dd3, v1, v2, u1, u2, rv, ru = point
            if not (rv and ru):
                return x, f, evaluations, True
            n1, n2, m1, m2 = v1 / rv, v2 / rv, u1 / ru, u2 / ru
            w0, w1, w2, w3 = n1 + m1, n2 + m2, n1 - m1, n2 - m2
            # t / r^1.5 = (-n2, n1) / sqrt(r), which does not overflow; a
            # radius below KINK_RATIO of the value adds no factor (the
            # module docstring's minorant)
            kink = KINK_RATIO * f
            pv = rv ** -0.5 if rv >= kink else 0.0
            pu = ru ** -0.5 if ru >= kink else 0.0
            t1, t2, s1, s2 = -n2 * pv, n1 * pv, -m2 * pu, m1 * pu
            # the Hessian in e is f f^T + h h^T for the factors
            # f = (t1, t2, t1, t2) and h = (s1, s2, -s1, -s2), here taken
            # through the chain rule
            p1, p3 = t2 * d1, t2 * d3
            f0, f1, f2 = t1 * d0 + p1, t1 * d2 + p3, -p1 - p3
            p1, p3 = s2 * d1, -s2 * d3
            h0, h1, h2 = s1 * d0 + p1, -s1 * d2 + p3, -p1 - p3
        else:
            d0, dd0, d1, dd1, d2, dd2, d3, dd3, bell = point
            w0 = 1.0 if bell > 0.0 else -1.0 if bell < 0.0 else 0.0
            w1 = w2 = w0
            w3 = -w0
        p1, p3 = w1 * d1, w3 * d3
        g1, g2, g3 = w0 * d0 + p1, w2 * d2 + p3, -p1 - p3
        p1, p3 = w1 * dd1, w3 * dd3
        a, b, c, d, e, k = w0 * dd0 + p1, 0.0, -p1, w2 * dd2 + p3, -p3, p1 + p3
        if steering:
            a, b, c = a + (f0 * f0 + h0 * h0), f0 * f1 + h0 * h1, c + (f0 * f2 + h0 * h2)
            d, e, k = d + (f1 * f1 + h1 * h1), e + (f1 * f2 + h1 * h2), k + (f2 * f2 + h2 * h2)
        low, high = _extreme_eigenvalues(a, b, c, d, e, k)
        # mu = max(high, 0.0) + lam * (1 + max(-low, high)), written out as
        # in _extreme_eigenvalues
        floor, spread = 0.0 if 0.0 > high else high, 1.0 + (high if high > -low else -low)
        x1, x2, x3 = x
        while True:
            # the step s = (mu I - H)^-1 g, by the adjugate of
            # mu I - H = [[ma, -b, -c], [-b, md, -e], [-c, -e, mk]] over its
            # determinant, and the gain g.s + s.H.s / 2 = (g.s + mu s.s) / 2
            # that the quadratic model promises (H s = mu s - g)
            mu = floor + lam * spread
            ma, md, mk = mu - a, mu - d, mu - k
            c11, c12, c13 = md * mk - e * e, c * e + b * mk, b * e + c * md
            c22, c23, c33 = ma * mk - c * c, b * c + ma * e, ma * md - b * b
            det = ma * c11 - b * c12 - c * c13
            if det == 0.0:  # singular: no finite step
                return x, f, evaluations, True
            s1 = (c11 * g1 + c12 * g2 + c13 * g3) / det
            s2 = (c12 * g1 + c22 * g2 + c23 * g3) / det
            s3 = (c13 * g1 + c23 * g2 + c33 * g3) / det
            gain = 0.5 * ((g1 * s1 + g2 * s2 + g3 * s3) + mu * (s1 * s1 + s2 * s2 + s3 * s3))
            # a step that is not finite promises an infinite or NaN gain,
            # and each comparison fails on NaN
            if not GAIN_TOL < gain < math.inf:
                return x, f, evaluations, True
            trial = [(x1 + s1) % TWO_PI, (x2 + s2) % TWO_PI, (x3 + s3) % TWO_PI]
            f_trial, point = value(*trial)
            evaluations += 1
            if f_trial > f:
                break
            if evaluations > MAX_STEPS:
                return x, f, evaluations, False
            lam = 10.0 * lam
        gained = f_trial - f
        x, f = trial, f_trial
        lam = 0.1 * lam if gained > GOOD_GAIN * gain else 0.5 * lam
        if gained < GAIN_TOL:
            return x, f, evaluations, True
        if evaluations > MAX_STEPS:
            return x, f, evaluations, False


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
    value, steering = _coordinate_objective(objective, state, alpha, bob_alpha)
    best_x = best_f = None
    evaluations, converged = 1, 0
    for start in _start_coordinates(restarts, seed).tolist():
        x, f, used, stopped = _ascend(value, steering, start)
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
