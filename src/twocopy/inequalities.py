"""Correlation functions, CHSH Bell and steering functionals, reference
closed forms, and white-noise visibility thresholds.

The correlation of a valid composite state depends on the two phase angles
only through their difference, as a trigonometric polynomial of small
degree.  Its Fourier coefficients are contracted exactly from the state's
Fock amplitudes and each party's beam-splitter observable, one real matrix
per particle-number block, and the polynomial is cached per (state,
reflectivity), so repeated evaluations during optimization are cheap
without any closed-form shortcuts.  A value at one angle setting is summed
on Python floats with the search's arithmetic, so the value at optimize's
argmax is its max_value; scan grids use numpy arrays.  White noise
correlates as one number at every angle pair, read from the parity traces.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, NamedTuple, get_args

import numpy as np

from .fock import _check_count, _Record
from .measurement import (BALANCED_ALPHA, BeamSplitterSetting, outcome_count, parity_blocks,
                          sector_trace_product)
from .states import CompositeState, NoiseModel, bec_pair, noon_pair

__all__ = ["AngleQuad", "CorrelationVector", "correlation", "correlation_vector",
           "bell_value", "steering_value", "closed_form", "verify_closed_forms",
           "visibility_threshold", "FORM_ORIENTATION", "CLASSICAL_BOUND", "QUANTUM_BOUND",
           "NoViolationError", "NegativeRadicandError"]

TWO_PI = 2.0 * math.pi
CLASSICAL_BOUND = 2.0
QUANTUM_BOUND = 2.0 * math.sqrt(2.0)

ANGLE_NAMES = ("phi1", "phi2", "theta1", "theta2")

# verify_closed_forms evaluates five scalar closed forms per draw, about 40 us.
MAX_DRAWS = 10_000


class NoViolationError(RuntimeError):
    """Raised when a visibility threshold is requested without a violation."""


class NegativeRadicandError(ValueError):
    """Raised when a reference form's square-root argument is negative."""


class AngleQuad(_Record):
    """The four measurement angles, in radians."""

    __slots__ = ANGLE_NAMES

    def __init__(self, phi1: float, phi2: float, theta1: float, theta2: float):
        angles = (phi1, phi2, theta1, theta2)
        if not all(map(math.isfinite, angles)):
            name, v = next((n, v) for n, v in zip(ANGLE_NAMES, angles) if not math.isfinite(v))
            raise ValueError(f"{name}={v} is not finite")
        object.__setattr__(self, "phi1", phi1)
        object.__setattr__(self, "phi2", phi2)
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "theta2", theta2)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi1, self.phi2, self.theta1, self.theta2)


class CorrelationVector(_Record):
    """The four correlations <A(phi_j) B(theta_k)>."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11: float, e12: float, e21: float, e22: float):
        object.__setattr__(self, "e11", e11)
        object.__setattr__(self, "e12", e12)
        object.__setattr__(self, "e21", e21)
        object.__setattr__(self, "e22", e22)


class _Series(NamedTuple):
    """Real trigonometric polynomial c0 + sum_k (a_k cos k*d + b_k sin k*d).

    ``terms`` holds (k, a_k, b_k) for k = 1 .. degree, as Python floats.
    """

    c0: float
    terms: tuple[tuple[float, float, float], ...]


@lru_cache(maxsize=512)
def _profile(state: CompositeState, alpha: float, bob_alpha: float) -> _Series:
    """The correlation as a trigonometric series in phi - theta.

    With psi_x the Fock amplitudes of a member over x = (a, b, A, B), the
    correlation is the sum over pairs (x, y) of
    w psi*_x psi_y O_A[(a_x, A_x), (a_y, A_y)] O_B[(b_x, B_x), (b_y, B_y)]
    e^{i phi (A_y - A_x)} e^{i theta (B_y - B_x)}, with O_A and O_B the
    parties' observables at phase 0 (``parity_blocks``).  They vanish
    unless x and y lie in one Alice block (a + A) and one Bob block
    (b + B); every member has fixed a + b and A + B (CompositeState
    checks it), so Bob's block follows from Alice's, B_y - B_x =
    -(A_y - A_x), and the pairs with A_y - A_x = k make C_k, the Fourier
    coefficient of e^{ikd} in d = phi - theta.  With C_-k = conj(C_k),
    c0 = Re C_0, a_k = 2 Re C_k and b_k = -2 Im C_k.
    """
    amplitudes = [member._amps for _, member in state.entries]
    n_max = max((max(e[0] + e[2], e[1] + e[3]) for amps in amplitudes for e in amps),
                default=0)
    alice = parity_blocks(BeamSplitterSetting.from_alpha(alpha, 0.0), n_max)
    bob = parity_blocks(BeamSplitterSetting.from_alpha(bob_alpha, 0.0), n_max)
    orders, terms = [], []
    for (weight, _), amps in zip(state.entries, amplitudes):
        a, b, A, B = np.fromiter(chain.from_iterable(amps), int, 4 * len(amps)).reshape(-1, 4).T
        psi = np.fromiter(amps.values(), complex, len(amps))
        ka, kb = a + A, b + B
        # C_-k = conj(C_k), so only the pairs with A_x <= A_y are summed
        x, y = np.nonzero((ka[:, None] == ka) & (A[:, None] <= A))
        orders.append(A[y] - A[x])
        terms.append(weight * psi[x].conj() * psi[y]
                     * alice[ka[x], a[x], a[y]] * bob[kb[x], b[x], b[y]])
    order, term = np.concatenate(orders), np.concatenate(terms)
    real, imag = np.bincount(order, term.real), np.bincount(order, term.imag)
    k = np.arange(1.0, len(real))
    return _Series(float(real[0]), tuple(zip(k.tolist(), (2.0 * real[1:]).tolist(),
                                             (-2.0 * imag[1:]).tolist())))


def _series(state: CompositeState, alpha: float, bob_alpha: float | None) -> _Series:
    if bob_alpha is None:
        bob_alpha = alpha
    return _profile(state, float(alpha), float(bob_alpha))


def _correlations(series: _Series, quads) -> np.ndarray:
    """(e11, e12, e21, e22) on the last axis, for angle quads of shape (..., 4).

    numpy's cos and sin, with the orders added onto c0 one at a time from
    k = 1 up, so an element's value does not depend on the others wherever
    numpy's cos and sin give an element the same value at any array length
    (numpy does not promise that; where it fails, the last bit moves).
    """
    quads = np.asarray(quads)
    deltas = quads[..., [0, 0, 1, 1]] - quads[..., [2, 3, 2, 3]]
    value = np.full(deltas.shape, series.c0)
    for k, a, b in series.terms:
        angle = k * deltas
        value += a * np.cos(angle) + b * np.sin(angle)
    return value


def _at(series: _Series, d: float) -> float:
    """The series at the angle difference ``d`` on Python floats, with the
    search's arithmetic: libm's cos and sin, and each order's
    a_k cos k*d + b_k sin k*d added from k = 1 up, then c0."""
    total = 0.0
    for k, a, b in series.terms:
        angle = k * d
        total += a * math.cos(angle) + b * math.sin(angle)
    return series.c0 + total


def _point(series: _Series, q: AngleQuad) -> list[float]:
    """[e11, e12, e21, e22] at the angle quad ``q``, by ``_at``."""
    return [_at(series, phi - theta) for phi in (q.phi1, q.phi2) for theta in (q.theta1, q.theta2)]


def _radii(e11: float, e12: float, e21: float, e22: float) -> float:
    """The steering functional on Python floats; complex abs is libm's hypot."""
    return abs(complex(e11 + e21, e12 + e22)) + abs(complex(e11 - e21, e12 - e22))


def _bell(e11: float, e12: float, e21: float, e22: float) -> float:
    return e11 + e12 + e21 - e22


def correlation(state: CompositeState, alice_angle: float, bob_angle: float,
                alpha: float = BALANCED_ALPHA, bob_alpha: float | None = None) -> float:
    """<A(alice_angle) B(bob_angle)> for the given reflectivity amplitudes.

    ``alpha`` is each party's first beam-splitter amplitude; pass
    ``bob_alpha`` to give Bob a different one.  Always lies in [-1, 1].
    """
    if not (math.isfinite(alice_angle) and math.isfinite(bob_angle)):
        raise ValueError(f"angles ({alice_angle}, {bob_angle}) are not finite")
    return _at(_series(state, alpha, bob_alpha), alice_angle - bob_angle)


def correlation_vector(state: CompositeState, q: AngleQuad,
                       alpha: float = BALANCED_ALPHA,
                       bob_alpha: float | None = None) -> CorrelationVector:
    return CorrelationVector(*_point(_series(state, alpha, bob_alpha), q))


def bell_value(state: CompositeState, q: AngleQuad,
               alpha: float = BALANCED_ALPHA,
               bob_alpha: float | None = None) -> float:
    """Standard CHSH combination E11 + E12 + E21 - E22 (signed)."""
    return _bell(*_point(_series(state, alpha, bob_alpha), q))


def steering_value(state: CompositeState, q: AngleQuad,
                   alpha: float = BALANCED_ALPHA,
                   bob_alpha: float | None = None) -> float:
    """CHSH-type steering functional built from the same correlations.

    sqrt((E11+E21)^2 + (E12+E22)^2) + sqrt((E11-E21)^2 + (E12-E22)^2);
    nonnegative, and at most 2*sqrt(2) for quantum correlations.
    """
    return _radii(*_point(_series(state, alpha, bob_alpha), q))


# --------------------------------------------------------------------------
# Reference closed forms for the three documented state families, balanced
# beam splitters.  They exist as test oracles only; nothing in the engine
# evaluates them.  Each is transcribed verbatim from its tabulated source.


def _steer_bec1(q: AngleQuad) -> float:
    p1, p2, t1, t2 = q.as_tuple()
    first = math.hypot(
        math.cos(t1 - p1) + math.cos(t1 - p2) - 2.0,
        math.cos(t2 - p1) + math.cos(t2 - p2) - 2.0,
    )
    radicand = math.sin((p1 - p2) / 2.0) ** 2 * (
        2.0 - math.cos(2.0 * t1 - p1 - p2) - math.cos(2.0 * t2 - p1 - p2)
    )
    return 0.5 * (first + math.sqrt(2.0) * math.sqrt(max(radicand, 0.0)))


def _bell_bec1(q: AngleQuad) -> float:
    p1, p2, t1, t2 = q.as_tuple()
    return 0.5 * (-math.cos(t1 - p1) - math.cos(t1 - p2)
                  - math.cos(t2 - p1) + math.cos(t2 - p2) + 2.0)


def _quarter_sine(x: float) -> float:
    return math.sin(x / 2.0) ** 4


def _steer_bec2(q: AngleQuad) -> float:
    p1, p2, t1, t2 = q.as_tuple()
    s11, s21 = _quarter_sine(p1 - t1), _quarter_sine(p2 - t1)
    s12, s22 = _quarter_sine(p1 - t2), _quarter_sine(p2 - t2)
    return math.hypot(s11 - s21, s12 - s22) + math.hypot(s11 + s21, s12 + s22)


def _bell_bec2(q: AngleQuad) -> float:
    p1, p2, t1, t2 = q.as_tuple()
    return (_quarter_sine(p1 - t1) + _quarter_sine(p2 - t1)
            + _quarter_sine(p1 - t2) - _quarter_sine(p2 - t2))


def _steer_noon(q: AngleQuad) -> float:
    p1, p2, t1, t2 = q.as_tuple()
    first = math.hypot(
        math.cos(t1 - p1) ** 2 + math.cos(t1 - p2) ** 2,
        math.cos(t2 - p1) ** 2 + math.cos(t2 - p2) ** 2,
    )
    radicand = math.sin(p1 - p2) ** 2 * (
        2.0 - math.cos(4.0 * t1 - 2.0 * (p1 + p2))
        - math.cos(4.0 * t2 - 2.0 * (p1 + p2)) - 2.0
    )
    if radicand < 0.0:
        raise NegativeRadicandError(f"steer_noon: radicand {radicand} is negative")
    return first + math.sqrt(radicand) / math.sqrt(2.0)


def _bell_noon(q: AngleQuad) -> float:
    p1, p2, t1, t2 = q.as_tuple()
    return (-math.sin(t1 - t2) * math.sin(t1 + t2 - 2.0 * p2)
            + math.cos(t1 - p1) ** 2 + math.cos(t2 - p1) ** 2)


# Each family's (form, state factory, objective of the four correlations,
# orientation).  Engine value = orientation * closed form.  The bell form of
# the single-particle condensate pair is tabulated with the opposite overall
# sign relative to the weighted-parity convention used throughout the
# engine; its |value| and maxima are unaffected.  The steer_noon form has no
# orientation: its second radicand is negative on most of the angle domain,
# where it raises NegativeRadicandError, so it cannot equal the engine anywhere.
_FAMILIES: dict[str, tuple[Callable[[AngleQuad], float], Callable[[], CompositeState],
                           Callable[..., float], float | None]] = {
    "steer_bec1": (_steer_bec1, partial(bec_pair, 1), _radii, 1.0),
    "bell_bec1": (_bell_bec1, partial(bec_pair, 1), _bell, -1.0),
    "steer_bec2": (_steer_bec2, partial(bec_pair, 2), _radii, 1.0),
    "bell_bec2": (_bell_bec2, partial(bec_pair, 2), _bell, 1.0),
    "steer_noon": (_steer_noon, partial(noon_pair, 2, 0), _radii, None),
    "bell_noon": (_bell_noon, partial(noon_pair, 2, 0), _bell, 1.0),
}

FORM_ORIENTATION: dict[str, float] = {
    family: orientation for family, (_, _, _, orientation) in _FAMILIES.items()
    if orientation is not None}


def closed_form(family: str, q: AngleQuad) -> float:
    """Evaluate a reference closed form verbatim."""
    try:
        form, _, _, _ = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; "
                         f"choose from {tuple(_FAMILIES)}") from None
    return form(q)


def verify_closed_forms(draws: int = 100, seed: int = 7) -> dict:
    """Compare engine values against every orientable reference form.

    Returns per-family maximum absolute deviations over ``draws`` uniform
    random angle quads, plus the overall maximum.
    """
    _check_count("draws", draws, 1, MAX_DRAWS)
    _check_count("seed", seed, 0, None)
    rng = np.random.default_rng(seed)
    deviations: dict[str, float] = {}
    for family, (form, state, objective, orientation) in _FAMILIES.items():
        if orientation is None:
            continue
        series = _series(state(), BALANCED_ALPHA, None)
        quads = [AngleQuad(*q) for q in rng.uniform(0.0, TWO_PI, (draws, 4)).tolist()]
        deviations[family] = max(abs(objective(*_point(series, q)) - orientation * form(q))
                                 for q in quads)
    return {
        "families": deviations,
        "max_abs_deviation": max(deviations.values()),
        "draws": draws,
        "seed": seed,
    }


def _steering(e: np.ndarray) -> np.ndarray:
    e11, e12, e21, e22 = e[..., 0], e[..., 1], e[..., 2], e[..., 3]
    return np.hypot(e11 + e21, e12 + e22) + np.hypot(e11 - e21, e12 - e22)


def _abs_bell(e: np.ndarray) -> np.ndarray:
    return np.abs(e[..., 0] + e[..., 1] + e[..., 2] - e[..., 3])


# Each objective as a function of an array whose last axis holds (e11, e12, e21, e22).
_OBJECTIVES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "steering": _steering,
    "bell": _abs_bell,
    "bell_abs": _abs_bell,
}


def _functional(name: str) -> Callable[[np.ndarray], np.ndarray]:
    try:
        return _OBJECTIVES[name]
    except KeyError:
        raise ValueError(f"unknown objective {name!r}; "
                         f"choose from {sorted(_OBJECTIVES)}") from None


def _noise_correlation(state: CompositeState, alpha: float,
                       bob_alpha: float | None, noise: NoiseModel) -> float:
    """The correlation of ``admix(state, 0.0, noise)``, alike at all angles.

    Sector noise: the sector trace over the sector dimension.  Factorized
    noise: (sum of eps / count)^2 over each party's outcomes for
    N = n1 + n2 particles, as each block S_k^T diag(eps) S_k has the trace
    of diag(eps).  The outcomes with n + m = s sum eps to (-1)^(s/2) for
    even s and to 0 for odd s, so the sum is 1 when N mod 4 is 0 or 1 and
    0 otherwise.
    """
    if noise == "sector":
        alice = BeamSplitterSetting.from_alpha(alpha, 0.0)
        bob = BeamSplitterSetting.from_alpha(alpha if bob_alpha is None else bob_alpha, 0.0)
        return (sector_trace_product(state.n1, state.n2, alice, bob)
                / ((state.n1 + 1) * (state.n2 + 1)))
    if noise == "factorized":
        return (1.0 / outcome_count(state.n_total)) ** 2 if state.n_total % 4 < 2 else 0.0
    raise ValueError(f"unknown noise model {noise!r}; choose from {get_args(NoiseModel)}")


def visibility_threshold(state: CompositeState, objective: str, q: AngleQuad,
                         alpha: float = BALANCED_ALPHA,
                         bob_alpha: float | None = None,
                         noise: NoiseModel = "factorized",
                         tol: float = 1e-9) -> float:
    """Smallest admixing probability at which the violation survives.

    Correlations are linear in the mixture weights, so those of
    ``admix(state, p, noise)`` are p * E(state) + (1 - p) * c, with c the
    noise alone's correlation: one number at all angles, read from the
    parity traces, so no mixture is built and factorized noise has no
    bound on n1 + n2 here.  The objective of the blend is bisected to
    ``tol`` for the point where it equals the classical bound 2.  The
    crossing is unique: steering and |Bell| are sums of norms of affine
    functions of p, hence convex in p, so the set where the objective lies
    below 2 is an interval.  It contains p = 0 when the noise alone stays
    below 2, and it ends before p = 1, where the value must exceed 2.
    NoViolationError is raised when either end fails: no violation at
    p = 1, or the noise alone already reaches 2 at p = 0, so that no
    admixture undoes the violation.

    Factorized noise has c = 0 when n1 + n2 is 2 or 3 modulo 4 (each party's
    outcome weights sum to zero), and the result is then 2 / objective(p=1).

    The bisection halves [lo, hi] from [0, 1] until it is no wider than
    ``tol`` or its midpoint rounds onto an end, and returns the final
    midpoint.  Each halving evaluates the objective once, on Python floats
    with the arithmetic of ``bell_value`` and ``steering_value``.
    """
    steering = _functional(objective) is _steering
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol={tol} must be a finite number > 0")
    pure = _point(_series(state, alpha, bob_alpha), q)
    white = _noise_correlation(state, alpha, bob_alpha, noise)

    def value_at(p: float) -> float:
        blend = [p * e + (1.0 - p) * white for e in pure]
        return _radii(*blend) if steering else abs(_bell(*blend))

    top = value_at(1.0)
    if top <= CLASSICAL_BOUND:
        raise NoViolationError(
            f"objective at p=1 is {top:.6f}, not above {CLASSICAL_BOUND}"
        )
    bottom = value_at(0.0)
    if bottom >= CLASSICAL_BOUND:
        raise NoViolationError(
            f"objective of the noise alone is {bottom:.6f}, "
            f"not below {CLASSICAL_BOUND}"
        )
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if value_at(mid) >= CLASSICAL_BOUND:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
