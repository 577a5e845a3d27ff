"""Exact global maxima of |Bell| and the steering functional, the tests'
oracle for ``optimize``.

The correlation is E(d) = sum_{|k| <= D} C_k e^{ikd}, C_-k = conj(C_k), in
d = phi - theta; at x = phi1 - theta1, y = phi2 - theta1 and
z = theta2 - theta1 the four correlations are E(x), E(x - z), E(y), E(y - z).

One angle.  f(x) = sum_{|k| <= d} F_k e^{ikx} has its extrema where
f'(x) = sum_k ik F_k e^{ikx} = 0.  As (1 + t^2)^d e^{ikx} =
(1 + it)^(d+k) (1 - it)^(d-k) for t = tan(x/2), (1 + t^2)^d f'(x) is a real
polynomial in t of degree 2d at most, with t^2d coefficient f'(pi); leading
coefficients below DROP of the largest are dropped.  Its companion matrix's
eigenvalues and x = pi give every critical point (a vanishing top order only
adds t = +-i); one Newton step on each mends the eigensolver's error.

Bell.  For fixed z, Bell = [E(x) + E(x - z)] + [E(y) - E(y - z)], two
polynomials with coefficients C_k (1 +- e^{-ikz}): max |Bell| is
max_z max(max + max, -(min + min)).

Steering.  S = |u + v| + |u - v| for u = (E(x), E(x - z)) and
v = (E(y), E(y - z)) on the curve G_z with support function
h(g) = max_x [cos g E(x) + sin g E(x - z)], one exact maximum.  As
|w| = max over unit n of n.w, S = max over unit n, m of (n + m).u +
(n - m).v, and n +- m = 2c e_g, 2s e_{g+pi/2} with c^2 + s^2 = 1 (they are
orthogonal, squared lengths summing to 4); each g, c, s gives unit n, m.
Upper: with g along n + m (or, if n - m points along g - pi/2, that angle,
swapping c and s), c, s >= 0 and S <= 2 (c h(g) + s h(g + pi/2)) <=
2 hypot(h(g), h(g + pi/2)).  Lower: at the quad (x_g, x_{g+pi/2}, 0, z) of
the two maximizers S >= 2 (c h(g) + s h(g + pi/2)) for all c, s, so
S >= 2 hypot.  So max S = max over z, g of 2 hypot(h(g), h(g + pi/2)),
reached at that quad; h_-z(g) = h_z(pi/2 - g) (G_-z is G_z mirrored in the
diagonal), so z in [0, pi] suffices.

Certified bound.  |E'| <= L = sum_k>0 2k |C_k|, |E| <= M = |C_0| +
sum_k>0 2 |C_k|, and a maximum over x of functions Lipschitz in a parameter
keeps their constant.  So each Bell bracket's extremes move by at most
L |dz|, and reduced |Bell| by 2L |dz|.  (h(g), h(g + pi/2)) moves by at most
L |dz| (|sin g| and |cos g| of it) and 2M |dg| (each part by at most
|(E(x), E(x - z))| |dg| <= sqrt(2) M |dg|); hypot is 1-Lipschitz, so reduced
steering moves by at most 2L |dz| + 4M |dg|.  A cell of widths w is bounded
by its centre's value plus sum_i L_i w_i / 2.  Cells bounded below the best
value found are dropped and the rest halved along the larger L_i w_i while
the budget lasts; the largest bound left is the upper bound.  scipy's
Powell search polishes the best centre.

Steering's bound is capped at 2 sqrt(2).  With n and m the unit vectors
above, S = sum_jk M_jk E_jk with rows M_1 = n + m and M_2 = n - m (j is
Alice's setting, k Bob's), orthogonal and with |M_1|^2 + |M_2|^2 = 4.
Alice's and Bob's +-1 observables act on different modes, so by
Tsirelson's vector form (Lett. Math. Phys. 4, 93 (1980)) E_jk = a_j.b_k
for unit vectors a_j, b_k, and S = sum_k (sum_j M_jk a_j).b_k <=
sum_k |sum_j M_jk a_j| <= sqrt(2) (sum_k |sum_j M_jk a_j|^2)^(1/2)
(Cauchy-Schwarz over the two k) = sqrt(2) (|M_1|^2 + |M_2|^2)^(1/2) =
2 sqrt(2), the cross term 2 (M_1.M_2) a_1.a_2 dropping out because the
rows are orthogonal.  Where the maximum is 2 sqrt(2) (bec1, bec2, noon2)
the certificate is then tight.
"""
import math
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial
from scipy.optimize import minimize

from twocopy import inequalities
from twocopy.inequalities import BALANCED_ALPHA, TWO_PI

DROP = 1e-13
BUDGET = 3000  # evaluations of the reduced objective for the bound


class Maximum(NamedTuple):
    value: float  # reached at quad
    upper: float  # no quad exceeds it
    quad: tuple  # (phi1, phi2, theta1, theta2)


@lru_cache(maxsize=None)
def _half_angle(d: int) -> np.ndarray:
    """Row k + d: the coefficients in t, lowest first, of (1 + t^2)^d e^{ikx}."""
    return np.array([polynomial.polymul(polynomial.polypow([1, 1j], d + k),
                                        polynomial.polypow([1, -1j], d - k))
                     for k in range(-d, d + 1)])


def trig_values(F: np.ndarray, x: np.ndarray):
    """f, f' and f'' of each row F_0 .. F_d of F at that row of x."""
    k = np.arange(F.shape[1])
    terms = F[:, None, :] * np.exp(1j * k * x[..., None])
    return (F[:, :1].real + 2.0 * terms[..., 1:].sum(axis=-1).real,
            -2.0 * (k * terms).sum(axis=-1).imag, -2.0 * (k * k * terms).sum(axis=-1).real)


def trig_extremes(F: np.ndarray):
    """Each row's minimum, maximum, and the angles of both."""
    rows, d = len(F), F.shape[1] - 1
    q = ((1j * np.arange(-d, d + 1) * np.concatenate([F[:, :0:-1].conj(), F], axis=1))
         @ _half_angle(d)).real
    live = np.abs(q) > DROP * np.abs(q).max(axis=1, keepdims=True)
    degree = np.where(live.any(axis=1), 2 * d - np.argmax(live[:, ::-1], axis=1), 0)
    x = np.full((rows, 2 * d + 1), math.pi)
    for m in np.unique(degree[degree > 0]):
        at = degree == m
        companion = np.zeros((at.sum(), m, m))
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        companion[:, :, -1] = -q[at, :m] / q[at, m:m + 1]
        x[at, :m] = 2.0 * np.arctan(np.linalg.eigvals(companion).real)
    _, slope, curvature = trig_values(F, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = x - slope / curvature
    x = np.concatenate([x, np.where(np.isfinite(newton), newton, math.pi)], axis=1)
    values, rows = trig_values(F, x)[0], np.arange(rows)
    low, high = values.argmin(axis=1), values.argmax(axis=1)
    return values[rows, low], values[rows, high], x[rows, low], x[rows, high]


def _bell(C, points):
    z = points[:, 0]
    shift = np.exp(-1j * np.outer(z, np.arange(len(C))))
    low, high, x_low, x_high = (np.split(v, 2) for v in trig_extremes(
        np.concatenate([C * (1.0 + shift), C * (1.0 - shift)])))
    top, bottom = high[0] + high[1], -(low[0] + low[1])
    x, y = np.where(top >= bottom, x_high, x_low)
    return np.maximum(top, bottom), np.stack([x, y, 0.0 * z, z], axis=1)


def _steering(C, points):
    z, g = points[:, 0], points[:, 1]
    shift = np.exp(-1j * np.outer(np.tile(z, 2), np.arange(len(C))))
    g = np.concatenate([g, g + math.pi / 2])[:, None]
    _, h, _, x = (np.split(v, 2) for v in trig_extremes(C * (np.cos(g) + np.sin(g) * shift)))
    return 2.0 * np.hypot(*h), np.stack([x[0], x[1], 0.0 * z, z], axis=1)


def reduction(objective: str, state, alpha: float = BALANCED_ALPHA, bob_alpha=None):
    """The reduced objective over points (z,) or (z, g), giving values and
    the quads that reach them; its Lipschitz constants; the first grid's
    cell counts and widths."""
    series = inequalities._series(state, alpha, bob_alpha)
    k, a, b = np.array(series.terms).reshape(-1, 3).T
    C = np.concatenate([[series.c0], (a - 1j * b) / 2.0])
    lip, bound = (k * np.hypot(a, b)).sum(), abs(series.c0) + np.hypot(a, b).sum()
    if inequalities._functional(objective) is inequalities._steering:
        return (partial(_steering, C), np.array([2 * lip, 4 * bound]), (16, 32),
                np.full(2, TWO_PI / 32))
    return partial(_bell, C), np.array([2 * lip]), (256,), np.full(1, TWO_PI / 256)


@lru_cache(maxsize=None)
def maximum(objective: str, state, alpha: float = BALANCED_ALPHA, bob_alpha=None) -> Maximum:
    """The global maximum of ``objective`` over the four angles, a quad
    that reaches it, and a certified upper bound."""
    reduced, lipschitz, shape, width = reduction(objective, state, alpha, bob_alpha)
    axes = [(np.arange(n) + 0.5) * w for n, w in zip(shape, width)]
    centres = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))
    values, spent, best = reduced(centres)[0], len(centres), -math.inf
    while True:
        if values.max() > best:
            best, start = values.max(), centres[np.argmax(values)]
        live = values + (lipschitz * width).sum() / 2 > best
        if not live.any() or spent + 2 * live.sum() > BUDGET:
            break
        axis = np.argmax(lipschitz * width)
        width[axis] /= 2
        step = np.eye(len(shape))[axis] * width[axis] / 2
        centres = np.concatenate([centres[live] - step, centres[live] + step])
        values, spent = reduced(centres)[0], spent + len(centres)
    polished = minimize(lambda p: -reduced(p[None])[0][0], start, method="Powell",
                        options={"xtol": 1e-8, "ftol": 1e-14})
    value, quad = (v[0] for v in reduced(polished.x[None]))
    upper = max(value, best, (values + (lipschitz * width).sum() / 2).max())
    if inequalities._functional(objective) is inequalities._steering:
        upper = min(upper, inequalities.QUANTUM_BOUND)
    return Maximum(float(value), float(upper), tuple(quad.tolist()))
