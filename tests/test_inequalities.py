"""Correlation functions, inequality functionals, reference closed forms,
and visibility thresholds.

Analytic expectations used here were derived independently (by hand and
against a dense-unitary oracle): for balanced splitters the correlation of
the N=1 condensate pair is (cos(d) - 1)/2 in d = phi - theta, the N=2 pair
gives sin(d/2)^4, and the two-particle N00N pair gives cos(d)^2.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twocopy import inequalities
from twocopy.inequalities import (
    MAX_DRAWS,
    AngleQuad,
    CLOSED_FORM_FAMILIES,
    FORM_ORIENTATION,
    NegativeRadicandError,
    NoViolationError,
    QUANTUM_BOUND,
    bell_value,
    closed_form,
    closed_form_state,
    correlation,
    correlation_vector,
    steering_value,
    verify_closed_forms,
    visibility_threshold,
)
from twocopy.measurement import (BALANCED_ALPHA, BeamSplitterSetting, joint_distribution,
                                  weighted_parity)
from twocopy.search import optimize
from twocopy.fock import from_fock_amplitudes
from twocopy.states import (
    COMPOSITE_MODES,
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

    def test_analytic_shapes(self):
        rng = np.random.default_rng(11)
        cases = [
            (bec_pair(1), lambda d: (math.cos(d) - 1.0) / 2.0),
            (bec_pair(2), lambda d: math.sin(d / 2.0) ** 4),
            (noon_pair(2, 0), lambda d: math.cos(d) ** 2),
        ]
        for state, shape in cases:
            for _ in range(25):
                phi, theta = rng.uniform(0.0, TWO_PI, 2)
                assert correlation(state, phi, theta) == pytest.approx(
                    shape(phi - theta), abs=1e-12)

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


def per_draw_deviations(draws, seed):
    """verify_closed_forms one quad at a time through the public scalar
    functions: the same draws, engine values and deviations."""
    rng = np.random.default_rng(seed)
    deviations = {}
    for family, orientation in FORM_ORIENTATION.items():
        state = closed_form_state(family)
        value = steering_value if family.startswith("steer") else bell_value
        worst = 0.0
        for _ in range(draws):
            q = AngleQuad(*rng.uniform(0.0, TWO_PI, 4))
            worst = max(worst, abs(value(state, q) - orientation * closed_form(family, q)))
        deviations[family] = worst
    return deviations


class TestClosedForms:
    def test_draws_bound(self):
        with pytest.raises(ValueError, match=rf"draws={MAX_DRAWS + 1} must be an "
                                             rf"integer in \[1, {MAX_DRAWS}\]"):
            verify_closed_forms(draws=MAX_DRAWS + 1)

    @pytest.mark.parametrize("seed", [7, 12345])
    @pytest.mark.parametrize("draws", [1, 20, 100])
    def test_matches_per_draw_scalar_route(self, seed, draws):
        reference = per_draw_deviations(draws, seed)
        report = verify_closed_forms(draws=draws, seed=seed)
        assert report["families"] == reference
        assert report["max_abs_deviation"] == max(reference.values())

    def test_engine_matches_every_orientable_form(self):
        report = verify_closed_forms(draws=100, seed=7)
        assert report["max_abs_deviation"] < 1e-9
        assert set(report["families"]) == set(FORM_ORIENTATION)

    def test_bell_form_orientation_for_single_particle_pair(self):
        # the tabulated bell form for this family is the negative of the
        # engine's weighted-parity combination, pointwise
        rng = np.random.default_rng(15)
        state = bec_pair(1)
        for _ in range(40):
            q = AngleQuad(*rng.uniform(0.0, TWO_PI, 4))
            assert bell_value(state, q) == pytest.approx(
                -closed_form("bell_bec1", q), abs=1e-12)

    def test_steering_forms_match_signed(self):
        rng = np.random.default_rng(16)
        for family, state in [("steer_bec1", bec_pair(1)), ("steer_bec2", bec_pair(2))]:
            for _ in range(40):
                q = AngleQuad(*rng.uniform(0.0, TWO_PI, 4))
                assert steering_value(state, q) == pytest.approx(
                    closed_form(family, q), abs=1e-12)

    def test_families_registry(self):
        assert set(CLOSED_FORM_FAMILIES) == {
            "steer_bec1", "bell_bec1", "steer_bec2", "bell_bec2",
            "steer_noon", "bell_noon"}
        with pytest.raises(ValueError):
            closed_form("nope", AngleQuad(0, 0, 0, 0))

    def test_closed_form_states(self):
        assert closed_form_state("steer_bec1") == bec_pair(1)
        assert closed_form_state("bell_bec2") == bec_pair(2)
        assert closed_form_state("bell_noon") == noon_pair(2, 0)

    def test_noon_steering_form_negative_radicand(self):
        # the verbatim form's bracket reads 2 - cos - cos - 2, which is
        # negative for generic angles; the error carries the radicand
        with pytest.raises(NegativeRadicandError) as excinfo:
            closed_form("steer_noon", AngleQuad(0.0, 1.0, 0.2, 0.3))
        assert excinfo.value.radicand < 0.0

    def test_noon_steering_form_positive_radicand_differs_from_engine(self):
        # where the verbatim form is defined it still disagrees with the
        # engine, which is why it is excluded from the oracle suite
        theta = (math.pi + 1.0) / 4.0
        q = AngleQuad(0.0, 1.0, theta, theta)
        value = closed_form("steer_noon", q)
        assert math.isfinite(value)
        assert abs(value - steering_value(noon_pair(2, 0), q)) > 0.1

    def test_engine_noon_steering_at_documented_angles(self):
        value = steering_value(closed_form_state("steer_noon"), AngleQuad(-0.13, 0.65, 0.26, 0.672))
        assert value == pytest.approx(2.79, abs=0.02)


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
    """``visibility_threshold`` as first written: one scalar objective
    value per halving.  The engine evaluates four halvings per call and
    must match this bit for bit, raised messages included."""
    functional = inequalities._functional(objective)
    pure = inequalities._correlations(inequalities._series(state, alpha, bob_alpha),
                                      q.as_tuple())
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


def random_sector_state(rng, n1, n2):
    """A two-member mixture of random pure states in the (n1, n2) sector."""
    members = []
    for _ in range(2):
        amps = {(k, n1 - k, l, n2 - l): complex(*rng.normal(size=2))
                for k in range(n1 + 1) for l in range(n2 + 1)}
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        members.append(from_fock_amplitudes(
            COMPOSITE_MODES, {occ: a / norm for occ, a in amps.items()}))
    w = float(rng.uniform(0.1, 0.9))
    return CompositeState(((w, members[0]), (1.0 - w, members[1])), n1=n1, n2=n2)


AMPLITUDES = st.one_of(st.just(0j), st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False))


class TestMixtureLinearity:
    # visibility_threshold relies on E(admix(s, p)) = p E(s) + (1 - p) E(noise)
    @pytest.mark.parametrize("noise, sectors", [
        ("sector", [(n1, n2) for n1 in range(1, 4) for n2 in range(1, 4)]),
        ("factorized", [(1, 1), (1, 2), (2, 1)]),
    ], ids=["sector", "factorized"])
    def test_correlations_linear_in_weight(self, noise, sectors):
        rng = np.random.default_rng(41)
        for n1, n2 in 2 * sectors:
            state = random_sector_state(rng, n1, n2)
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
        n1 = data.draw(st.integers(0, 4), label="n1")
        n2 = data.draw(st.integers(0, 4 - n1 if noise == "factorized" else 4), label="n2")
        occupations = [(k, n1 - k, l, n2 - l) for k in range(n1 + 1) for l in range(n2 + 1)]
        amps = data.draw(st.lists(AMPLITUDES, min_size=len(occupations),
                                  max_size=len(occupations)), label="amplitudes")
        if not any(amps):
            amps[0] = 1.0
        norm = math.sqrt(sum(abs(c) ** 2 for c in amps))
        member = from_fock_amplitudes(
            COMPOSITE_MODES, {o: c / norm for o, c in zip(occupations, amps) if c})
        state = CompositeState(((1.0, member),), n1=n1, n2=n2)
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
