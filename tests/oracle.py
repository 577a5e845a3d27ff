"""Tier-1's independent routes, one per engine layer, none sharing code with
the layer it checks: the decimal route (``decimal_blocks``,
``decimal_observables``, ``decimal_profile``) for ``effective_basis``,
``parity_blocks`` and ``_profile``; the dense route (``party_unitary``,
``dense_observable``, ``dense_distribution``) for ``joint_distribution``
and the correlation at a point; the typeset two- and four-particle bases;
and ``maximum`` for ``optimize``.  Also the one seeded random sector-state
builder (``random_state``) and Hypothesis strategy (``sector_states``).

Run as a script (``PYTHONPATH=src python tests/oracle.py``), it holds
``_profile`` to the decimal route at 24 + 24 and 32 + 32 particles, too
slow for tier-1, and ``visibility_threshold`` to a plain bisection
(``plain_threshold``) on 20,000 seeded correlations, bit for bit; it
exits 1 when a coefficient is off by more than PROFILE_TOL or a
threshold's bits differ.

Maxima.  The correlation is E(d) = sum_{|k| <= D} C_k e^{ikd},
C_-k = conj(C_k), in d = phi - theta; at x = phi1 - theta1, y = phi2 - theta1 and
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
import sys
import time
from decimal import Decimal, localcontext
from functools import lru_cache, partial
from typing import NamedTuple
from unittest import mock

import numpy as np
from hypothesis import strategies as st
from numpy.polynomial import polynomial
from scipy.linalg import expm, logm
from scipy.optimize import minimize

from twocopy import inequalities
from twocopy.fock import fock_amplitudes, from_fock_amplitudes
from twocopy.inequalities import BALANCED_ALPHA, TWO_PI
from twocopy.states import COMPOSITE_MODES, CompositeState, bec_pair

DIGITS = 50
PROFILE_TOL = 1e-15  # per Fourier coefficient, the script's bound


def weight(n: int, m: int) -> int:
    """The dichotomic weight of outcome (n, m), (-1)^(m + s(s+1)/2) with
    s = n + m: ``measurement.epsilon`` written out again."""
    s = n + m
    return (-1) ** (m + s * (s + 1) // 2)


# -- the decimal route -----------------------------------------------------------


def decimal_blocks(alpha: float, beta: float, k_max: int) -> list:
    """The splitter's blocks S_0 .. S_k_max as lists of DIGITS-digit decimal
    rows, from the exact values of the floats.

    S_k[n][p] is the amplitude of |n, k-n> in the image of |p, k-p>, read
    from the binomial expansion of (alpha c† + beta C†)^p (beta c† - alpha C†)^(k-p)
    times sqrt(n! (k-n)! / (p! (k-p)!)).  The exact values of alpha and beta
    are scaled onto the unit circle first, as ``parity_blocks`` documents.
    """
    with localcontext() as context:
        context.prec = DIGITS
        a, b = Decimal(alpha), Decimal(beta)
        radius = (a * a + b * b).sqrt()
        power_a, power_b = [Decimal(1)], [Decimal(1)]  # Decimal(0) ** 0 raises
        for _ in range(k_max):
            power_a.append(power_a[-1] * a / radius)
            power_b.append(power_b[-1] * b / radius)
        blocks = []
        for k in range(k_max + 1):
            s = [[Decimal(0)] * (k + 1) for _ in range(k + 1)]
            for p in range(k + 1):
                q = k - p
                # c†^i from (alpha c† + beta C†)^p and c†^j from (beta c† - alpha C†)^q
                for i in range(p + 1):
                    for j in range(q + 1):
                        term = (math.comb(p, i) * math.comb(q, j)
                                * power_a[i + q - j] * power_b[p - i + j])
                        s[i + j][p] += -term if (q - j) % 2 else term
                for n in range(k + 1):
                    s[n][p] *= (Decimal(math.comb(k, p)) / math.comb(k, n)).sqrt()
            blocks.append(s)
        return blocks


def decimal_observables(alpha: float, beta: float, k_max: int) -> list:
    """O_k = S_k^T diag(eps) S_k for k <= k_max, as lists of DIGITS-digit decimal rows."""
    observables = []
    with localcontext() as context:
        context.prec = DIGITS
        for k, s in enumerate(decimal_blocks(alpha, beta, k_max)):
            signs = [weight(n, k - n) for n in range(k + 1)]
            o = [[Decimal(0)] * (k + 1) for _ in range(k + 1)]
            for p in range(k + 1):
                for q in range(p, k + 1):
                    o[p][q] = o[q][p] = sum(e * row[p] * row[q] for e, row in zip(signs, s))
            observables.append(o)
    return observables


def decimal_profile(state: CompositeState, alpha: float, bob_alpha: float) -> np.ndarray:
    """C_0 .. C_D, the Fourier coefficients of the correlation in
    d = phi - theta, each rounded once from DIGITS digits.

    With psi the Fock amplitudes of a member over x = (a, b, A, B), C_k sums
    w psi*_x psi_y O_A[a_x + A_x][a_x][a_y] O_B[b_x + B_x][b_x][b_y] over
    the pairs in one block of each party with A_y - A_x = k, the splitters
    being alpha and bob_alpha at phase 0.
    """
    with localcontext() as context:
        context.prec = DIGITS
        members = [(Decimal(w), [(occ, Decimal(c.real), Decimal(c.imag))
                                 for occ, c in fock_amplitudes(member).items()])
                   for w, member in state.entries]
        k_max = max((max(a + A, b + B) for _, amps in members for (a, b, A, B), _, _ in amps),
                    default=0)
        alice = decimal_observables(alpha, math.sqrt(1.0 - alpha * alpha), k_max)
        bob = decimal_observables(bob_alpha, math.sqrt(1.0 - bob_alpha * bob_alpha), k_max)
        coefficients = {}
        for w, amps in members:
            for (a, b, A, B), xr, xi in amps:
                for (c, d, C, D), yr, yi in amps:
                    if a + A != c + C or b + B != d + D:
                        continue
                    o = w * alice[a + A][a][c] * bob[b + B][b][d]
                    re, im = coefficients.get(C - A, (0, 0))
                    # psi*_x psi_y = (xr - i xi)(yr + i yi)
                    coefficients[C - A] = (re + o * (xr * yr + xi * yi),
                                           im + o * (xr * yi - xi * yr))
        degree = max(coefficients, default=0)
        return np.array([complex(*map(float, coefficients.get(k, (0, 0))))
                         for k in range(degree + 1)])


# -- the dense route -------------------------------------------------------------


def party_unitary(setting, cut: int) -> np.ndarray:
    """One party's splitter on its two modes (a, A), occupations below ``cut``,
    row and column index n_a * cut + n_A.

    U = exp(sum_ij G_ij m_i† m_j) with exp(G) the one-particle map
    a† -> alpha c† + beta C†, A† -> e^{i phase}(beta c† - alpha C†), so that
    U a† U† and U A† U† are its columns.  Blocks of fewer than ``cut``
    particles are exact.
    """
    ladder = np.diag(np.sqrt(np.arange(1.0, cut)), 1)
    modes = (np.kron(ladder, np.eye(cut)), np.kron(np.eye(cut), ladder))
    phase = np.exp(1j * setting.phase)
    gen = logm(np.array([[setting.alpha, setting.beta * phase],
                         [setting.beta, -setting.alpha * phase]]))
    return expm(sum(gen[i, j] * modes[i].T @ modes[j] for i in range(2) for j in range(2)))


def dense_observable(setting, cut: int) -> np.ndarray:
    """U† diag(eps) U: a party's dichotomic observable on its input modes."""
    u = party_unitary(setting, cut)
    signs = np.array([weight(n, m) for n in range(cut) for m in range(cut)])
    return u.conj().T @ (signs[:, None] * u)


def _party_matrices(state: CompositeState, cut: int):
    """(weight, psi) per member, psi[n_a * cut + n_A, n_b * cut + n_B] its amplitudes."""
    for w, member in state.entries:
        psi = np.zeros((cut * cut, cut * cut), dtype=complex)
        for (a, b, big_a, big_b), amp in fock_amplitudes(member).items():
            psi[a * cut + big_a, b * cut + big_b] = amp
        yield w, psi


def dense_correlation(state: CompositeState, alice, bob) -> float:
    """The correlation, each member's <psi| O_alice (x) O_bob |psi> weighted."""
    cut = state.n_total + 1
    o_alice, o_bob = dense_observable(alice, cut), dense_observable(bob, cut)
    return sum(w * np.vdot(psi, o_alice @ psi @ o_bob.T).real
               for w, psi in _party_matrices(state, cut))


def dense_distribution(state: CompositeState, alice, bob) -> dict:
    """(n_c, m_C, n_d, m_D) -> probability, for probabilities above 1e-16."""
    cut = state.n_total + 1
    u_alice, u_bob = party_unitary(alice, cut), party_unitary(bob, cut)
    probs = {}
    for w, psi in _party_matrices(state, cut):
        out = np.abs(u_alice @ psi @ u_bob.T) ** 2
        for i, j in zip(*np.nonzero(out > 1e-16)):
            key = (i // cut, i % cut, j // cut, j % cut)
            probs[key] = probs.get(key, 0.0) + w * out[i, j]
    return probs


# -- typeset bases -----------------------------------------------------------------


def two_particle_rows(phase: float) -> dict:
    """outcome -> (amplitudes on |n_a, n_A>, eps) of the effective basis for up
    to two particles at the balanced splitter, from expanding
    (a† + e^{-i phase} A†)^n (a† - e^{-i phase} A†)^m / sqrt(2^(n+m) n! m!)."""
    x = np.exp(-1j * phase)
    r2 = 1.0 / math.sqrt(2.0)
    return {
        (0, 0): ({(0, 0): 1.0}, 1),
        (1, 0): ({(1, 0): r2, (0, 1): r2 * x}, -1),
        (0, 1): ({(1, 0): r2, (0, 1): -r2 * x}, 1),
        (1, 1): ({(2, 0): r2, (0, 2): -r2 * x ** 2}, 1),
        (2, 0): ({(2, 0): 0.5, (1, 1): r2 * x, (0, 2): 0.5 * x ** 2}, -1),
        (0, 2): ({(2, 0): 0.5, (1, 1): -r2 * x, (0, 2): 0.5 * x ** 2}, -1),
    }


def four_particle_monomials() -> dict:
    """outcome -> (raw creation-monomial coefficients, eps) of the rows for three
    and four particles at the balanced splitter and phase 0; entry k is the
    coefficient of a†^(s-k) A†^k, which a phase multiplies by e^{-i k phase}."""
    r3 = 1.0 / (4.0 * math.sqrt(3.0))
    r6 = 1.0 / (4.0 * math.sqrt(6.0))
    r86 = 1.0 / (8.0 * math.sqrt(6.0))
    return {
        (1, 2): ([0.25, -0.25, -0.25, 0.25], 1),
        (2, 1): ([0.25, 0.25, -0.25, -0.25], -1),
        (0, 3): ([r3, -3 * r3, 3 * r3, -r3], -1),
        (3, 0): ([r3, 3 * r3, 3 * r3, r3], 1),
        (2, 2): ([0.125, 0.0, -0.25, 0.0, 0.125], 1),
        (4, 0): ([r86, 4 * r86, 6 * r86, 4 * r86, r86], 1),
        (0, 4): ([r86, -4 * r86, 6 * r86, -4 * r86, r86], 1),
        (1, 3): ([r6, -2 * r6, 0.0, 2 * r6, -r6], -1),
        (3, 1): ([r6, 2 * r6, 0.0, -2 * r6, -r6], -1),
    }


# -- random sector states ----------------------------------------------------------


def _sector_occupations(n1: int, n2: int) -> list:
    return [(k, n1 - k, l, n2 - l) for k in range(n1 + 1) for l in range(n2 + 1)]


def random_state(rng, n1: int, n2: int, members: int = 1) -> CompositeState:
    """A random pure state (``members`` 1) or two-member mixture in the
    (n1, n2) sector: each amplitude complex(*rng.normal(size=2)), each member
    normalized, and the first member's weight uniform in [0.1, 0.9]."""
    polys = []
    for _ in range(members):
        amps = {occ: complex(*rng.normal(size=2)) for occ in _sector_occupations(n1, n2)}
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        polys.append(from_fock_amplitudes(COMPOSITE_MODES,
                                          {occ: a / norm for occ, a in amps.items()}))
    if members == 1:
        return CompositeState(((1.0, polys[0]),), n1=n1, n2=n2)
    w = float(rng.uniform(0.1, 0.9))
    return CompositeState(((w, polys[0]), (1.0 - w, polys[1])), n1=n1, n2=n2)


AMPLITUDES = st.one_of(st.just(0j), st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False))


@st.composite
def sector_states(draw, sectors=st.tuples(st.integers(0, 4), st.integers(0, 4)),
                  members=st.integers(1, 2)):
    """A pure state or two-member mixture in an (n1, n2) sector drawn from
    ``sectors``; amplitudes 0 or of magnitude 0.1 to 2, normalized."""
    n1, n2 = draw(sectors)
    occupations = _sector_occupations(n1, n2)
    polys = []
    for _ in range(draw(members)):
        amps = draw(st.lists(AMPLITUDES, min_size=len(occupations), max_size=len(occupations)))
        if not any(amps):
            amps[0] = 1.0
        norm = math.sqrt(sum(abs(c) ** 2 for c in amps))
        polys.append(from_fock_amplitudes(
            COMPOSITE_MODES, {o: c / norm for o, c in zip(occupations, amps) if c}))
    if len(polys) == 1:
        return CompositeState(((1.0, polys[0]),), n1=n1, n2=n2)
    w = draw(st.floats(0.05, 0.95))
    return CompositeState(((w, polys[0]), (1.0 - w, polys[1])), n1=n1, n2=n2)


# -- maxima --------------------------------------------------------------------------

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


def fourier(series) -> np.ndarray:
    """C_0 .. C_degree of a ``_profile`` series: c0 and (a_k - i b_k) / 2."""
    return np.array([series.c0] + [complex(a, -b) / 2.0 for _, a, b in series.terms])


# -- the plain bisection -------------------------------------------------------


def plain_threshold(objective: str, e: list[float], c: float, tol: float) -> str:
    """The threshold at which the blend p e + (1 - p) c of pure correlations
    e and noise correlation c reaches 2, as ``float.hex``, by bisecting
    [0, 1] with one objective value per halving on Python floats (the abs
    of a complex is libm's hypot); or the message ``visibility_threshold``
    raises."""
    def value(p):
        rest = (1.0 - p) * c
        b11, b12, b21, b22 = (p * x + rest for x in e)
        if objective == "bell":
            return abs(b11 + b12 + b21 - b22)
        return abs(complex(b11 + b21, b12 + b22)) + abs(complex(b11 - b21, b12 - b22))

    if value(1.0) <= 2.0:
        return f"objective at p=1 is {value(1.0):.6f}, not above 2.0"
    if value(0.0) >= 2.0:
        return f"objective of the noise alone is {value(0.0):.6f}, not below 2.0"
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if value(mid) >= 2.0 else (mid, hi)
    return float.hex(0.5 * (lo + hi))


def census_draw(rng: np.random.Generator) -> tuple[str, list[float], float, float]:
    """One seeded (objective, e, c, tol): e uniform in [-1, 1]^4; c uniform
    in [-1, 1], in [-0.25, 0.25], zero, or with the noise alone within
    1e-16 to 1e-9 (relative) of 2; tol from 1e-2 to 1e-17, past the
    rounding guard."""
    objective = ("steering", "bell")[rng.integers(2)]
    e = rng.uniform(-1.0, 1.0, 4).tolist()
    kind = rng.integers(4)
    if kind == 3:
        # steering's noise alone is 2 sqrt(2) |c|, |Bell|'s 2 |c|
        edge = math.sqrt(0.5) if objective == "steering" else 1.0
        c = edge * (1.0 - 10.0 ** -rng.uniform(9.0, 16.0)) * rng.choice([-1.0, 1.0])
    else:
        c = (rng.uniform(-1.0, 1.0), rng.uniform(-0.25, 0.25), 0.0)[kind]
    return objective, e, float(c), float(10.0 ** -rng.uniform(2.0, 17.0))


def threshold_census(draws: int = 20_000, seed: int = 4545) -> int:
    """``visibility_threshold`` on seeded correlations against
    ``plain_threshold``, bit for bit; prints how many objective values each
    threshold took and returns the number of mismatches."""
    rng = np.random.default_rng(seed)
    state, q = bec_pair(1), inequalities.AngleQuad(0.0, 0.0, 0.0, 0.0)
    draw, calls = {}, [0]

    def counted(function):
        def wrapper(*args):
            calls[0] += 1
            return function(*args)
        return wrapper

    histogram, mismatches = {}, 0
    with mock.patch.object(inequalities, "_point", lambda *args: list(draw["e"])), \
            mock.patch.object(inequalities, "_noise_correlation", lambda *args: draw["c"]), \
            mock.patch.object(inequalities, "_radii", counted(inequalities._radii)), \
            mock.patch.object(inequalities, "_bell", counted(inequalities._bell)):
        for _ in range(draws):
            objective, draw["e"], draw["c"], tol = census_draw(rng)
            calls[0] = 0
            try:
                got = float.hex(inequalities.visibility_threshold(state, objective, q, tol=tol))
                histogram[calls[0]] = histogram.get(calls[0], 0) + 1
            except inequalities.NoViolationError as error:
                got = str(error)
            want = plain_threshold(objective, draw["e"], draw["c"], tol)
            if got != want:
                mismatches += 1
                print(f"mismatch: {objective} e={draw['e']} c={draw['c']!r} tol={tol!r}: "
                      f"{got} against {want}")
    print(f"thresholds against the plain bisection: {draws} draws, "
          f"{sum(histogram.values())} thresholds, {mismatches} mismatches")
    print("objective values per threshold: "
          + ", ".join(f"{n}: {histogram[n]}" for n in sorted(histogram)))
    return mismatches


def main() -> int:
    """_profile against the decimal route on random states at 24 + 24 and
    32 + 32, on unbalanced splitters, and the threshold census; 1 when a
    coefficient is off by more than PROFILE_TOL or a threshold's bits
    differ from the plain bisection's."""
    worst = 0.0
    for n1, n2, seed in ((24, 24, 2424), (32, 32, 3232)):
        rng = np.random.default_rng(seed)
        state = random_state(rng, n1, n2)
        alpha, bob_alpha = np.sqrt(rng.uniform(0.05, 0.95, 2)).tolist()
        got = fourier(inequalities._profile(state, alpha, bob_alpha))
        start = time.process_time()
        deviation = float(np.abs(got - decimal_profile(state, alpha, bob_alpha)).max())
        worst = max(worst, deviation)
        print(f"{n1} + {n2}: max |C_k - decimal| = {deviation:.2e} over {len(got)} coefficients "
              f"(alpha {alpha:.4f}, bob_alpha {bob_alpha:.4f}; decimal route "
              f"{time.process_time() - start:.1f} s CPU)")
    print(f"worst {worst:.2e}, bound {PROFILE_TOL:.0e}")
    mismatches = threshold_census()
    return int(worst > PROFILE_TOL or mismatches > 0)


if __name__ == "__main__":
    sys.exit(main())
