"""Correlation functions, inequality functionals, reference closed forms,
and visibility thresholds.

Analytic expectations used here were derived independently (by hand and
against a dense-unitary oracle): for balanced splitters the correlation of
the N=1 condensate pair is (cos(d) - 1)/2 in d = phi - theta, the N=2 pair
gives sin(d/2)^4, and the two-particle N00N pair gives cos(d)^2.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from twocopy import inequalities
from twocopy.inequalities import (
    AngleQuad,
    FORM_ORIENTATION,
    NegativeRadicandError,
    NoViolationError,
    QUANTUM_BOUND,
    bell_value,
    closed_form,
    correlation,
    correlation_vector,
    steering_value,
    verify_closed_forms,
    visibility_threshold,
)
from twocopy.measurement import (BALANCED_ALPHA, BeamSplitterSetting, joint_distribution,
                                  weighted_parity)
from twocopy.search import optimize
from twocopy.states import (
    CompositeState,
    admix,
    bec_pair,
    monomial_state,
    noon_pair,
)

TWO_PI = 2.0 * math.pi
BAL = BeamSplitterSetting.balanced

Q_STEER_BEC1 = AngleQuad(0.0, math.pi / 2, 3.93, 2.90)
Q_BELL_BEC1 = AngleQuad(0.0, math.pi / 2, 3.93, 2.36)
Q_STEER_BEC2 = AngleQuad(0.0, 1.07, 3.93, 3.00)
Q_BELL_BEC2 = AngleQuad(0.0, 1.07, 3.68, 2.60)
Q_STEER_NOON = AngleQuad(-0.13, 0.65, 0.26, 0.672)
Q_BELL_NOON = AngleQuad(-0.13, 0.65, 0.26, -0.52)
UNEVEN = (math.sqrt(0.48), math.sqrt(0.52))  # Alice's and Bob's alpha


def direct_correlation(state, phi, theta, alpha=None, bob_alpha=None):
    """Independent route: explicit weighted-parity sum over the distribution."""
    if alpha is None:
        alice = BAL(phi)
    else:
        alice = BeamSplitterSetting.from_alpha(alpha, phi)
    if bob_alpha is None:
        bob = BAL(theta) if alpha is None else BeamSplitterSetting.from_alpha(alpha, theta)
    else:
        bob = BeamSplitterSetting.from_alpha(bob_alpha, theta)
    return weighted_parity(joint_distribution(state, alice, bob))


def direct_mixture_objective(state, objective, q, p, noise, alpha=None, bob_alpha=None):
    """Independent route: the objective of a freshly admixed state, from
    four direct correlations, with no use of linearity in p."""
    mixed = admix(state, p, noise=noise)
    e11, e12, e21, e22 = [direct_correlation(mixed, phi, theta, alpha, bob_alpha)
                          for phi in (q.phi1, q.phi2) for theta in (q.theta1, q.theta2)]
    if objective == "bell":
        return abs(e11 + e12 + e21 - e22)
    return math.hypot(e11 + e21, e12 + e22) + math.hypot(e11 - e21, e12 - e22)


class TestCorrelation:
    def test_vacuum_composite_is_one(self):
        vac = CompositeState(((1.0, monomial_state(
            {"a": 0, "b": 0, "A": 0, "B": 0}, ("a", "b", "A", "B"))),), n1=0, n2=0)
        for phi, theta in [(0.0, 0.0), (0.7, 2.2), (5.1, 1.3)]:
            assert correlation(vac, phi, theta) == pytest.approx(1.0)

    @pytest.mark.parametrize("phi,theta", [(math.nan, 0.0), (0.0, math.inf)])
    def test_rejects_non_finite_angles(self, phi, theta):
        with pytest.raises(ValueError, match="not finite"):
            correlation(bec_pair(1), phi, theta)

    def test_equal_angles_vanish_for_single_particle_pair(self):
        state = bec_pair(1)
        for angle in (0.0, 1.1, 4.4):
            assert correlation(state, angle, angle) == pytest.approx(0.0, abs=1e-14)

    def test_opposite_angles_single_particle_pair(self):
        # At theta - phi = pi every outcome carries parity product -1
        # (bunching on one side, anticorrelated singles otherwise), so the
        # correlation is exactly -1.
        state = bec_pair(1)
        value = correlation(state, 0.0, math.pi)
        assert value == pytest.approx(-1.0, abs=1e-12)
        assert direct_correlation(state, 0.0, math.pi) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_route(self):
        rng = np.random.default_rng(12)
        states = [bec_pair(1), bec_pair(2), bec_pair(1, 2), noon_pair(2, 0),
                  admix(bec_pair(1), 0.6, noise="sector"),
                  admix(bec_pair(1), 0.6, noise="factorized")]
        for state in states:
            for _ in range(6):
                phi, theta = rng.uniform(0.0, TWO_PI, 2)
                alpha, bob_alpha = rng.uniform(0.2, 0.95, 2)
                fast = correlation(state, phi, theta, alpha, bob_alpha)
                slow = direct_correlation(state, phi, theta, alpha, bob_alpha)
                assert fast == pytest.approx(slow, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(13)
        for state in (bec_pair(1), bec_pair(2), noon_pair(2, 0)):
            for _ in range(50):
                phi, theta = rng.uniform(0.0, TWO_PI, 2)
                assert abs(correlation(state, phi, theta)) <= 1.0 + 1e-12


class TestBellValue:
    def test_zero_angles(self):
        assert bell_value(bec_pair(1), AngleQuad(0, 0, 0, 0)) == pytest.approx(0.0)

    def test_combination_of_correlations(self):
        state = noon_pair(2, 0)
        q = AngleQuad(0.3, 1.9, 2.5, 5.0)
        e = correlation_vector(state, q)
        assert bell_value(state, q) == pytest.approx(e.e11 + e.e12 + e.e21 - e.e22)

    def test_documented_point_value(self):
        value = abs(bell_value(bec_pair(1), AngleQuad(0.0, math.pi / 2, 3.93, 2.36)))
        assert value == pytest.approx(2.41, abs=0.02)


class TestSteeringValue:
    def test_zero_for_equal_angles_single_particle_pair(self):
        q = AngleQuad(1.2, 1.2, 1.2, 1.2)
        assert steering_value(bec_pair(1), q) == pytest.approx(0.0, abs=1e-12)

    def test_documented_point_value(self):
        value = steering_value(bec_pair(1), AngleQuad(0.0, math.pi / 2, 3.93, 2.90))
        assert value == pytest.approx(2.79, abs=0.02)

    def test_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            q = AngleQuad(*rng.uniform(0.0, TWO_PI, 4))
            assert steering_value(bec_pair(2), q) >= 0.0


# the reference families in registry order, and the state whose engine
# values each orientable one describes
FAMILIES = ("steer_bec1", "bell_bec1", "steer_bec2", "bell_bec2", "steer_noon", "bell_noon")
FAMILY_STATES = {"steer_bec1": bec_pair(1), "bell_bec1": bec_pair(1), "steer_bec2": bec_pair(2),
                 "bell_bec2": bec_pair(2), "bell_noon": noon_pair(2, 0)}


def per_draw_deviations(draws, seed):
    """verify_closed_forms one quad at a time through the public scalar
    functions: the same draws, engine values and deviations."""
    rng = np.random.default_rng(seed)
    deviations = {}
    for family, orientation in FORM_ORIENTATION.items():
        state = FAMILY_STATES[family]
        value = steering_value if family.startswith("steer") else bell_value
        worst = 0.0
        for _ in range(draws):
            q = AngleQuad(*rng.uniform(0.0, TWO_PI, 4))
            worst = max(worst, abs(value(state, q) - orientation * closed_form(family, q)))
        deviations[family] = worst
    return deviations


class TestClosedForms:
    @pytest.mark.parametrize("seed", [7, 12345])
    @pytest.mark.parametrize("draws", [1, 20, 100])
    def test_matches_per_draw_scalar_route(self, seed, draws):
        reference = per_draw_deviations(draws, seed)
        report = verify_closed_forms(draws=draws, seed=seed)
        assert report["families"] == reference
        assert report["max_abs_deviation"] == max(reference.values())

    def test_families_registry(self):
        # each family evaluates where the N00N steering form is defined
        theta = (math.pi + 1.0) / 4.0
        q = AngleQuad(0.0, 1.0, theta, theta)
        assert all(math.isfinite(closed_form(family, q)) for family in FAMILIES)
        with pytest.raises(ValueError):
            closed_form("nope", AngleQuad(0, 0, 0, 0))

    @pytest.mark.parametrize("family", ["nonsense_bec1", "bec2", "xnoon", "nope", "",
                                        "STEER_BEC1", " bell_noon"])
    def test_unknown_family_rejected_alike(self, family):
        # matched by the whole name, never by a suffix or in another case
        with pytest.raises(ValueError) as form:
            closed_form(family, AngleQuad(0, 0, 0, 0))
        assert str(form.value) == f"unknown family {family!r}; choose from {FAMILIES}"

    def test_orientations_are_the_orientable_families(self):
        # every family but the N00N steering form, in registry order
        assert list(FORM_ORIENTATION) == [family for family in FAMILIES
                                          if family != "steer_noon"]
        assert FORM_ORIENTATION == {"steer_bec1": 1.0, "bell_bec1": -1.0, "steer_bec2": 1.0,
                                    "bell_bec2": 1.0, "bell_noon": 1.0}

    def test_noon_steering_form_negative_radicand(self):
        # the verbatim form's bracket reads 2 - cos - cos - 2, which is
        # negative for generic angles; the message carries the radicand
        with pytest.raises(NegativeRadicandError,
                           match=r"^steer_noon: radicand -\d\S* is negative$"):
            closed_form("steer_noon", AngleQuad(0.0, 1.0, 0.2, 0.3))

    def test_noon_steering_form_positive_radicand_differs_from_engine(self):
        # where the verbatim form is defined it still disagrees with the
        # engine, which is why it is excluded from the oracle suite
        theta = (math.pi + 1.0) / 4.0
        q = AngleQuad(0.0, 1.0, theta, theta)
        value = closed_form("steer_noon", q)
        assert math.isfinite(value)
        assert abs(value - steering_value(noon_pair(2, 0), q)) > 0.1

    def test_noon_steering_form_values_where_defined(self):
        # Where its radicand is >= 0 the verbatim form is pinned to the same
        # formula in another arrangement: its bracket 2 - cos A - cos B - 2
        # is -(cos A + cos B), with A = 4 theta1 - 2 (phi1 + phi2) and B
        # likewise at theta2, so its second term is
        # |sin(phi1 - phi2)| sqrt(-(cos A + cos B) / 2).
        rng = np.random.default_rng(17)
        for _ in range(200):
            p1, p2 = rng.uniform(-math.pi, math.pi, 2)
            # A and B with cos A + cos B <= 0
            a = rng.uniform(math.pi / 2, 3 * math.pi / 2)
            b = rng.uniform(math.pi / 2, 3 * math.pi / 2)
            t1, t2 = (a + 2 * (p1 + p2)) / 4, (b + 2 * (p1 + p2)) / 4
            c = np.cos(np.subtract.outer([t1, t2], [p1, p2])) ** 2
            want = (np.sqrt(c[0].sum() ** 2 + c[1].sum() ** 2)
                    + abs(math.sin(p1 - p2)) * math.sqrt(-(math.cos(a) + math.cos(b)) / 2))
            assert closed_form("steer_noon", AngleQuad(p1, p2, t1, t2)) == pytest.approx(
                want, abs=1e-13)


class TestVisibilityThreshold:
    def test_single_particle_pair_thresholds(self):
        state = bec_pair(1)
        q_steer = AngleQuad(0.0, math.pi / 2, 3.93, 2.90)
        q_bell = AngleQuad(0.0, math.pi / 2, 3.93, 2.36)
        p_steer = visibility_threshold(state, "steering", q_steer)
        p_bell = visibility_threshold(state, "bell", q_bell)
        assert p_steer == pytest.approx(2.0 / steering_value(state, q_steer), abs=1e-6)
        assert p_bell == pytest.approx(2.0 / abs(bell_value(state, q_bell)), abs=1e-6)
        assert p_steer < p_bell

    @pytest.mark.parametrize("state, objective, noise, q, alpha, bob_alpha", [
        (bec_pair(1), "steering", "factorized", Q_STEER_BEC1, None, None),
        (bec_pair(1), "steering", "factorized", Q_STEER_BEC1, *UNEVEN),
        (bec_pair(1), "bell", "sector", Q_BELL_BEC1, *UNEVEN),
        (bec_pair(2), "steering", "sector", Q_STEER_BEC2, *UNEVEN),
        (noon_pair(2), "bell", "sector", Q_BELL_NOON, *UNEVEN),
    ], ids=["bec1-steering-factorized-balanced", "bec1-steering-factorized",
            "bec1-bell-sector", "bec2-steering-sector", "noon2-bell-sector"])
    def test_bisection_against_independent_search(self, state, objective, noise,
                                                   q, alpha, bob_alpha):
        kwargs = {} if alpha is None else {"alpha": alpha, "bob_alpha": bob_alpha}
        threshold = visibility_threshold(state, objective, q, noise=noise, **kwargs)
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if direct_mixture_objective(state, objective, q, mid, noise,
                                        alpha, bob_alpha) >= 2.0:
                hi = mid
            else:
                lo = mid
        assert threshold == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    @pytest.mark.parametrize("state, objective, q, alpha, bob_alpha", [
        (bec_pair(2), "steering", Q_STEER_BEC2, None, None),
        (bec_pair(2), "steering", Q_STEER_BEC2, *UNEVEN),
        (noon_pair(2), "bell", Q_BELL_NOON, *UNEVEN),
    ], ids=["bec2-steering-balanced", "bec2-steering", "noon2-bell"])
    def test_factorized_noise_with_nonzero_correlation(self, state, objective, q,
                                                       alpha, bob_alpha):
        # With n1 + n2 = 4 each party's outcome weights sum to 1, so the
        # noise alone correlates as (1/15)^2 and moves the threshold by about
        # 1e-3 from 2 / objective(p=1).  A 40-step oracle bisection over
        # these 226-member mixtures takes seconds, so the oracle instead
        # checks that the crossing lies within 1e-7 of the threshold; the
        # crossing is unique, as the objective is convex in p.
        kwargs = {} if alpha is None else {"alpha": alpha, "bob_alpha": bob_alpha}
        noise_alone = admix(state, 0.0, noise="factorized")
        assert direct_correlation(noise_alone, 0.3, 1.1, alpha, bob_alpha) == (
            pytest.approx(1.0 / 225.0, abs=1e-12))
        threshold = visibility_threshold(state, objective, q, noise="factorized",
                                         tol=1e-10, **kwargs)
        below, above = (direct_mixture_objective(state, objective, q, p, "factorized",
                                                 alpha, bob_alpha)
                        for p in (threshold - 1e-7, threshold + 1e-7))
        assert below < 2.0 <= above

    def test_unknown_noise_model(self):
        with pytest.raises(ValueError, match="unknown noise model 'bogus'"):
            visibility_threshold(bec_pair(1), "steering", Q_STEER_BEC1, noise="bogus")

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            visibility_threshold(bec_pair(1), "steering", Q_STEER_BEC1, tol=tol)

    def test_tiny_tol_stops_at_float_resolution(self):
        state = bec_pair(1)
        for noise in ("sector", "factorized"):
            coarse = visibility_threshold(state, "steering", Q_STEER_BEC1, noise=noise)
            fine = visibility_threshold(state, "steering", Q_STEER_BEC1, noise=noise,
                                        tol=1e-300)
            assert fine == pytest.approx(coarse, abs=1e-9)

    def test_factorized_scaling_is_linear(self):
        state = bec_pair(1)
        q = AngleQuad(0.2, 1.8, 4.0, 2.6)
        base = steering_value(state, q)
        for p in (0.15, 0.5, 0.85):
            mixed = admix(state, p, noise="factorized")
            assert steering_value(mixed, q) == pytest.approx(p * base, abs=1e-10)

    def test_sector_noise_gives_different_threshold(self):
        # sector depolarization is not traceless, so the threshold moves
        state = bec_pair(1)
        q = AngleQuad(0.0, math.pi / 2, 3.93, 2.90)
        p_sector = visibility_threshold(state, "steering", q, noise="sector")
        p_fact = visibility_threshold(state, "steering", q, noise="factorized")
        assert abs(p_sector - p_fact) > 0.1

    def test_no_violation_raises(self):
        with pytest.raises(NoViolationError):
            visibility_threshold(bec_pair(1), "steering", AngleQuad(0, 0, 0, 0))
        # the vacuum's |Bell| is 2 exactly at p = 1, which is no violation
        with pytest.raises(NoViolationError, match="objective at p=1 is 2.000000"):
            visibility_threshold(bec_pair(0), "bell", AngleQuad(0.3, 1.2, 2.0, 4.0))

    def test_noise_alone_above_bound_raises(self):
        # the objective is 2.496 for the sector noise alone and 2.484 for the
        # pure state, so no admixing probability brings it down to 2
        state, q = bec_pair(1), AngleQuad(0.0, math.pi / 2, 3.93, 2.90)
        alpha, bob_alpha = math.sqrt(0.98), math.sqrt(0.02)
        noise_alone = steering_value(admix(state, 0.0, "sector"), q, alpha, bob_alpha)
        assert noise_alone > 2.0
        with pytest.raises(NoViolationError, match="noise alone"):
            visibility_threshold(state, "steering", q, alpha=alpha,
                                 bob_alpha=bob_alpha, noise="sector")


def reference_threshold(state, objective, q, alpha=BALANCED_ALPHA, bob_alpha=None,
                        noise="factorized", tol=1e-9):
    """``visibility_threshold`` as first written, with the blend and the
    objective on numpy arrays, one objective value per halving.  The engine
    evaluates once per halving too, on Python floats, and must match this
    bit for bit, raised messages included."""
    functional = inequalities._functional(objective)
    pure = np.array(inequalities._point(inequalities._series(state, alpha, bob_alpha), q))
    white = inequalities._noise_correlation(state, alpha, bob_alpha, noise)

    def value_at(p):
        return functional(p * pure + (1.0 - p) * white)

    top = value_at(1.0)
    if top <= 2.0:
        raise NoViolationError(f"objective at p=1 is {top:.6f}, not above 2.0")
    bottom = value_at(0.0)
    if bottom >= 2.0:
        raise NoViolationError(f"objective of the noise alone is {bottom:.6f}, "
                               f"not below 2.0")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if value_at(mid) >= 2.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def outcome(threshold, *args, **kwargs):
    """The threshold's bits, or the type and message of what it raised."""
    try:
        return float.hex(threshold(*args, **kwargs))
    except NoViolationError as error:
        return f"NoViolationError: {error}"


DOCUMENTED_POINTS = [
    (bec_pair(1), "steering", Q_STEER_BEC1), (bec_pair(1), "bell", Q_BELL_BEC1),
    (bec_pair(2), "steering", Q_STEER_BEC2), (bec_pair(2), "bell", Q_BELL_BEC2),
    (bec_pair(3), "steering", Q_STEER_BEC2), (bec_pair(3), "bell", Q_BELL_BEC2),
    (noon_pair(2), "steering", Q_STEER_NOON), (noon_pair(2), "bell", Q_BELL_NOON),
    (bec_pair(1), "steering", AngleQuad(0.0, 0.0, 0.0, 0.0)),
]
# 1e-16 reaches the rounding guard; at 2^-30 a bracket is exactly as wide as tol
TOLERANCES = (1e-4, 1e-9, 1e-13, 1e-16, 2.0 ** -30)


class TestThresholdMatchesReference:
    @staticmethod
    def assert_identical(cases):
        outcomes = []
        for state, objective, q, alphas in cases:
            for noise in ("sector", "factorized"):
                for tol in TOLERANCES:
                    args = (state, objective, q, *alphas, noise, tol)
                    got = outcome(visibility_threshold, *args)
                    assert got == outcome(reference_threshold, *args), args
                    outcomes.append(got)
        return outcomes

    def test_documented_working_points(self):
        rng = np.random.default_rng(29)
        alphas = [(BALANCED_ALPHA, None), UNEVEN, (math.sqrt(0.98), math.sqrt(0.02))]
        alphas += [tuple(np.sqrt(rng.uniform(0.2, 0.8, 2))) for _ in range(3)]
        outcomes = self.assert_identical(
            [point + (a,) for point in DOCUMENTED_POINTS for a in alphas])
        messages = {o.split(" is ")[0] for o in outcomes if o.startswith("NoViolation")}
        assert messages == {"NoViolationError: objective at p=1",
                            "NoViolationError: objective of the noise alone"}
        assert sum(not o.startswith("NoViolation") for o in outcomes) >= 200

    def test_optimize_argmaxes_at_random_alphas(self):
        rng = np.random.default_rng(31)
        cases = []
        for state in (bec_pair(1), bec_pair(2), bec_pair(3), noon_pair(2), bec_pair(1, 2)):
            for objective in ("steering", "bell"):
                alphas = tuple(float(a) for a in np.sqrt(rng.uniform(0.4, 0.6, 2)))
                q = optimize(objective, state, restarts=8, seed=5, alpha=alphas[0],
                             bob_alpha=alphas[1]).argmax
                cases.append((state, objective, q, alphas))
        outcomes = self.assert_identical(cases)
        assert sum(not o.startswith("NoViolation") for o in outcomes) > 20


def crossings(objective, e, c):
    """The admixing probabilities in (0, 1) where the blend p e + (1 - p) c of
    pure correlations e = (e11, e12, e21, e22) and noise correlation c
    reaches the classical bound 2, in closed form.

    |Bell| is |p (B - 2c) + 2c|, linear inside the modulus.  Steering is
    |W + p D| + p |U| with W = (2c, 2c), D = V - W, and V, U the sum and
    difference vectors of e; squaring |W + p D| = 2 - p |U| where
    2 - p |U| >= 0 gives a p^2 + b p + k = 0, solved as q = -(b + sign(b)
    sqrt(b^2 - 4ak)) / 2 with roots q / a and k / q, which keeps the
    cancellation of the textbook form out."""
    e11, e12, e21, e22 = e
    if objective == "bell":
        bell = e11 + e12 + e21 - e22
        roots = [(2.0 * sign - 2.0 * c) / (bell - 2.0 * c) for sign in (1.0, -1.0)]
    else:
        w = 2.0 * c
        d1, d2 = e11 + e21 - w, e12 + e22 - w
        u = math.hypot(e11 - e21, e12 - e22)
        a, b, k = d1 * d1 + d2 * d2 - u * u, 2.0 * w * (d1 + d2) + 4.0 * u, 2.0 * w * w - 4.0
        q = -(b + math.copysign(math.sqrt(b * b - 4.0 * a * k), b)) / 2.0
        roots = [num / den for num, den in ((q, a), (k, q)) if den != 0.0]
        roots = [p for p in roots if 2.0 - p * u >= 0.0]
    return [p for p in roots if 0.0 < p < 1.0]


def blend_value(objective, e, c, p):
    """The objective of the blend p e + (1 - p) c, by math.hypot."""
    e11, e12, e21, e22 = [p * x + (1.0 - p) * c for x in e]
    if objective == "bell":
        return abs(e11 + e12 + e21 - e22)
    return math.hypot(e11 + e21, e12 + e22) + math.hypot(e11 - e21, e12 - e22)


class TestThresholdClosedForm:
    """Where a violation at p = 1 is undone by noise, the blend crosses 2
    exactly once in (0, 1), and the bisection ends within ``tol`` of it."""

    @given(st.tuples(*[st.floats(-1.0, 1.0)] * 4), st.floats(-1.0, 1.0),
           st.sampled_from(["steering", "bell"]), st.sampled_from([1e-4, 1e-9, 1e-12]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_one_crossing_for_any_correlations(self, e, c, objective, tol):
        with mock.patch.object(inequalities, "_point", lambda *args: list(e)), \
                mock.patch.object(inequalities, "_noise_correlation", lambda *args: c):
            try:
                threshold = visibility_threshold(bec_pair(1), objective, Q_STEER_BEC1, tol=tol)
            except NoViolationError:
                # no violation at p = 1, or the noise alone already reaches 2
                assert (blend_value(objective, e, c, 1.0) <= 2.0 + 1e-12
                        or blend_value(objective, e, c, 0.0) >= 2.0 - 1e-12)
                return
        root, = crossings(objective, e, c)
        assert abs(threshold - root) <= tol

    def test_documented_working_points(self):
        checked = 0
        for state, objective, q in DOCUMENTED_POINTS:
            for alpha, bob_alpha in [(BALANCED_ALPHA, None), UNEVEN,
                                     (math.sqrt(0.98), math.sqrt(0.02))]:
                # the pure and noise correlations by the joint distribution
                e = [direct_correlation(state, phi, theta, alpha, bob_alpha)
                     for phi in (q.phi1, q.phi2) for theta in (q.theta1, q.theta2)]
                for noise in ("sector", "factorized"):
                    c = direct_correlation(admix(state, 0.0, noise), 0.0, 0.0, alpha, bob_alpha)
                    for tol in (1e-4, 1e-9, 1e-13):
                        try:
                            threshold = visibility_threshold(state, objective, q, alpha,
                                                             bob_alpha, noise, tol)
                        except NoViolationError:
                            continue
                        root, = crossings(objective, e, c)
                        assert abs(threshold - root) <= tol, (state, objective, q, noise, tol)
                        checked += 1
        assert checked >= 80


class TestMixtureLinearity:
    # visibility_threshold relies on E(admix(s, p)) = p E(s) + (1 - p) E(noise)
    @pytest.mark.parametrize("noise, sectors", [
        ("sector", [(n1, n2) for n1 in range(1, 4) for n2 in range(1, 4)]),
        ("factorized", [(1, 1), (1, 2), (2, 1)]),
    ], ids=["sector", "factorized"])
    def test_correlations_linear_in_weight(self, noise, sectors):
        rng = np.random.default_rng(41)
        for n1, n2 in 2 * sectors:
            state = oracle.random_state(rng, n1, n2, members=2)
            alpha, bob_alpha = np.sqrt(rng.uniform(0.1, 0.9, 2))
            q = AngleQuad(*rng.uniform(0.0, TWO_PI, 4))
            p = float(rng.uniform(0.05, 0.95))
            pure = correlation_vector(state, q, alpha, bob_alpha)
            white = correlation_vector(admix(state, 0.0, noise), q, alpha, bob_alpha)
            mixed = correlation_vector(admix(state, p, noise), q, alpha, bob_alpha)
            for name in ("e11", "e12", "e21", "e22"):
                blend = p * getattr(pure, name) + (1.0 - p) * getattr(white, name)
                assert getattr(mixed, name) == pytest.approx(blend, abs=1e-12)

    @given(data=st.data(), noise=st.sampled_from(["sector", "factorized"]),
           alphas=st.tuples(st.floats(0.1, 0.95), st.floats(0.1, 0.95)),
           quad=st.tuples(*[st.floats(0.0, TWO_PI)] * 4),
           p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_linear_in_weight_property(self, data, noise, alphas, quad, p):
        # factorized noise has ((N+1)(N+2)/2)^2 members; N = n1 + n2 <= 4 keeps it fast
        sectors = st.tuples(st.integers(0, 4), st.integers(0, 4))
        if noise == "factorized":
            sectors = sectors.filter(lambda sector: sum(sector) <= 4)
        state = data.draw(oracle.sector_states(sectors, st.just(1)), label="state")
        q, (alpha, bob_alpha) = AngleQuad(*quad), alphas
        pure = correlation_vector(state, q, alpha, bob_alpha)
        white = correlation_vector(admix(state, 0.0, noise), q, alpha, bob_alpha)
        mixed = correlation_vector(admix(state, p, noise), q, alpha, bob_alpha)
        for name in ("e11", "e12", "e21", "e22"):
            blend = p * getattr(pure, name) + (1.0 - p) * getattr(white, name)
            assert abs(getattr(mixed, name) - blend) <= 1e-12


class TestBounds:
    def test_quantum_bound_on_random_draws(self):
        rng = np.random.default_rng(17)
        for state in (bec_pair(1), bec_pair(2), noon_pair(2, 0)):
            for _ in range(200):
                q = AngleQuad(*rng.uniform(0.0, TWO_PI, 4))
                assert abs(bell_value(state, q)) <= QUANTUM_BOUND * (1 + 1e-9)
                assert steering_value(state, q) <= QUANTUM_BOUND * (1 + 1e-9)

    def test_unequal_particle_numbers_balanced_correlations_vanish(self):
        state = bec_pair(1, 2)
        rng = np.random.default_rng(18)
        for _ in range(100):
            phi, theta = rng.uniform(0.0, TWO_PI, 2)
            assert abs(correlation(state, phi, theta)) < 1e-12

    def test_product_state_with_all_particles_on_one_side(self):
        # Alice holds both particles; her splitter bunches them, so her
        # parity is deterministically -1 and Bob's vacuum parity is +1.
        # |bell| sits exactly at the classical bound while the steering
        # functional reaches 2*sqrt(2) despite the state being a product.
        member = monomial_state({"a": 1, "b": 0, "A": 1, "B": 0},
                                ("a", "b", "A", "B"))
        state = CompositeState(((1.0, member),), n1=1, n2=1)
        rng = np.random.default_rng(19)
        for _ in range(20):
            phi, theta = rng.uniform(0.0, TWO_PI, 2)
            assert correlation(state, phi, theta) == pytest.approx(-1.0, abs=1e-12)
        q = AngleQuad(*rng.uniform(0.0, TWO_PI, 4))
        assert abs(bell_value(state, q)) == pytest.approx(2.0, abs=1e-12)
        assert steering_value(state, q) == pytest.approx(QUANTUM_BOUND, abs=1e-12)


class TestAngleQuad:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AngleQuad(math.nan, 0, 0, 0)
