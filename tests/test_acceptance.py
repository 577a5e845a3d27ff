"""End-to-end acceptance suite.

Each numbered test prints one ``ACCEPTANCE NN PASS/FAIL`` line (visible with
``pytest -s``) and pins its tolerance inline.  Four checks marked
``documented_discrepancy`` concern reference claims that the exact engine
does not reproduce.  Each states the reference value, reports it as not
reproduced, and asserts the analysis that explains why: every expected value
comes from a verbatim reference closed form, exact Fock algebra or the
quantum bound 2*sqrt(2), never from the engine's own output.  All checks
must pass.

Context for the discrepancy checks: the steering functional reaches the
quantum bound 2*sqrt(2) on a family of angle quads that includes degenerate
ones where both of a party's settings coincide (all four correlations hit
-1 or +1), so the unconstrained optimizer tops every reference steering
maximum.  The reference maxima are instead reproduced by the single-angle
scans at the reference fixed settings, except for the two-particle
condensate case whose reference value 2.78 disagrees with its own reference
closed form (the scan peak is 2.806).
"""
import math

import numpy as np
import pytest

import oracle
from twocopy.fock import fock_amplitudes, inner
from twocopy.inequalities import (
    AngleQuad,
    FORM_ORIENTATION,
    QUANTUM_BOUND,
    bell_value,
    closed_form,
    correlation,
    steering_value,
    verify_closed_forms,
    visibility_threshold,
)
from twocopy.measurement import (
    BeamSplitterSetting,
    effective_basis,
    outcome_count,
    sector_trace_product,
)
from twocopy.search import count_local_maxima, optimize, scan_1d
from twocopy.states import (
    CompositeState,
    admix,
    bec_pair,
    monomial_state,
    noon_pair,
)

GOLDEN = 1.0 + math.sqrt(2.0)
TWO_PI = 2.0 * math.pi
BAL = BeamSplitterSetting.balanced
SEED = 7
RESTARTS = 64


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def maxima():
    """Optimizer maxima for the three documented families."""
    out = {}
    for key, state in [("bec1", bec_pair(1)), ("bec2", bec_pair(2)),
                       ("noon", noon_pair(2, 0))]:
        for objective in ("steering", "bell_abs"):
            out[key, objective] = optimize(
                objective, state, restarts=RESTARTS, seed=SEED)
    return out


def test_a01_bec1_steering_maximum(maxima):
    # reference maximum 2.79 (+-0.01) is checked as a lower bound on the
    # optimizer (the reported optimum is not global; see module docstring)
    # and two-sided on the scan peak at the reference fixed angles.
    result = maxima["bec1", "steering"]
    series, = scan_1d(("steering",), bec_pair(1),
                      {"phi1": 0.0, "phi2": math.pi / 2, "theta1": 3.93},
                      points=720)
    peak = series.peak()[1]
    ok = (result.max_value >= 2.78
          and result.max_value <= QUANTUM_BOUND + 1e-6
          and 2.78 <= peak <= 2.80)
    report("01", ok, f"steering opt={result.max_value:.6f} (>=2.78), "
                     f"scan peak={peak:.6f} in [2.78, 2.80]")
    assert result.max_value >= 2.78
    assert result.max_value <= QUANTUM_BOUND + 1e-6
    assert 2.78 <= peak <= 2.80


def test_a02_bec1_bell_maximum(maxima):
    result = maxima["bec1", "bell_abs"]
    ok = 2.40 <= result.max_value <= 2.42 and abs(result.max_value - GOLDEN) < 1e-6
    report("02", ok, f"|bell| opt={result.max_value:.9f} in [2.40, 2.42], "
                     f"|opt-(1+sqrt2)|={abs(result.max_value - GOLDEN):.2e} < 1e-6")
    assert 2.40 <= result.max_value <= 2.42
    assert abs(result.max_value - GOLDEN) < 1e-6


def test_a03a_bec2_maxima(maxima):
    steer2 = maxima["bec2", "steering"].max_value
    bell2 = maxima["bec2", "bell_abs"].max_value
    bell1 = maxima["bec1", "bell_abs"].max_value
    ok = (steer2 >= 2.77 and 2.35 <= bell2 <= 2.37 and bell2 < bell1)
    report("03a", ok, f"steering opt={steer2:.6f} (>=2.77), "
                      f"|bell| opt={bell2:.6f} in [2.35, 2.37], "
                      f"bell drop={bell1 - bell2:.4f}")
    assert steer2 >= 2.77
    assert 2.35 <= bell2 <= 2.37
    assert bell2 < bell1  # the bell violation does decrease with more particles


def test_a03b_bec2_steering_window_documented_discrepancy(maxima):
    # Reference claim: the two-particle steering maximum lies in [2.77, 2.79],
    # about 0.01 below the single-particle maximum.  Not reproduced, because
    # both families' reference closed forms reach 2*sqrt(2) at the
    # degenerate quad (0, 0, pi, pi), where E_bec1 = -1 and E_bec2 = +1 for
    # all four setting pairs; the unconstrained optima therefore sit at the
    # quantum bound for N = 1 and N = 2 alike, with no decrease in N.  Even
    # the scan at the reference fixed angles peaks where the family's own
    # closed form peaks on the same grid (2.806), above the window.
    steer1 = maxima["bec1", "steering"].max_value
    steer2 = maxima["bec2", "steering"].max_value
    degenerate = AngleQuad(0.0, 0.0, math.pi, math.pi)
    form_ceiling = [closed_form(family, degenerate)
                    for family in ("steer_bec1", "steer_bec2")]
    fixed = {"phi1": 0.0, "phi2": 1.07, "theta1": 3.93}
    series, = scan_1d(("steering",), bec_pair(2), fixed, points=720)
    peak = series.peak()[1]
    grid = [TWO_PI * i / 720 for i in range(720)]
    form_peak = max(closed_form("steer_bec2", AngleQuad(theta2=x, **fixed))
                    for x in grid)
    ceiling_ok = all(abs(v - QUANTUM_BOUND) < 1e-12 for v in form_ceiling)
    optima_ok = (abs(steer1 - QUANTUM_BOUND) < 1e-9
                 and abs(steer2 - QUANTUM_BOUND) < 1e-9)
    scan_ok = abs(peak - form_peak) < 1e-9 and form_peak > 2.79
    ok = ceiling_ok and optima_ok and scan_ok
    report("03b", ok, f"reference window [2.77, 2.79] below opt(N=1) not "
                      f"reproduced: closed forms at (0, 0, pi, pi) = 2*sqrt(2); "
                      f"opt(N=1)={steer1:.9f}, opt(N=2)={steer2:.9f} = 2*sqrt(2); "
                      f"scan peak={peak:.6f} = closed-form peak {form_peak:.6f} "
                      f"> 2.79")
    assert ceiling_ok, (
        f"closed forms at (0, 0, pi, pi) are {form_ceiling}, not 2*sqrt(2)")
    assert optima_ok, (
        f"steering optima {steer1:.12f} (N=1) and {steer2:.12f} (N=2) should "
        f"both reach the bound 2*sqrt(2) that the closed forms attain")
    assert scan_ok, (
        f"scan peak {peak:.9f} at the reference angles should equal the "
        f"steer_bec2 closed-form peak {form_peak:.9f} on the same grid, "
        f"which lies above the window [2.77, 2.79]")


def test_a04_noon_maxima(maxima):
    steer = maxima["noon", "steering"].max_value
    bell = maxima["noon", "bell_abs"].max_value
    series, = scan_1d(("steering",), noon_pair(2, 0),
                      {"phi1": -0.13, "phi2": 0.65, "theta1": 0.26}, points=720)
    peak = series.peak()[1]
    ok = (steer >= 2.78 and steer <= QUANTUM_BOUND + 1e-6
          and 2.78 <= peak <= 2.80 and 2.40 <= bell <= 2.42)
    report("04", ok, f"steering opt={steer:.6f} (>=2.78), scan peak={peak:.6f} "
                     f"in [2.78, 2.80], |bell| opt={bell:.6f} in [2.40, 2.42]")
    assert steer >= 2.78
    assert steer <= QUANTUM_BOUND + 1e-6
    assert 2.78 <= peak <= 2.80
    assert 2.40 <= bell <= 2.42


POINT_CHECKS = [
    ("bec1 steering", lambda: steering_value(
        bec_pair(1), AngleQuad(0.0, math.pi / 2, 3.93, 2.90)), 2.79),
    ("bec1 |bell|", lambda: abs(bell_value(
        bec_pair(1), AngleQuad(0.0, math.pi / 2, 3.93, 2.36))), 2.41),
    ("bec2 |bell|", lambda: abs(bell_value(
        bec_pair(2), AngleQuad(0.0, 1.07, 3.68, 2.60))), 2.36),
    ("noon steering", lambda: steering_value(
        noon_pair(2, 0), AngleQuad(-0.13, 0.65, 0.26, 0.672)), 2.79),
    ("noon |bell|", lambda: abs(bell_value(
        noon_pair(2, 0), AngleQuad(-0.13, 0.65, 0.26, -0.52))), 2.41),
]


def test_a05a_point_evaluations():
    # reference two-decimal values at their reference angle quads, tolerance 0.02
    results = [(label, func(), want) for label, func, want in POINT_CHECKS]
    ok = all(abs(got - want) <= 0.02 for _, got, want in results)
    detail = ", ".join(f"{label}={got:.4f} (ref {want})"
                       for label, got, want in results)
    report("05a", ok, detail)
    for label, got, want in results:
        assert abs(got - want) <= 0.02, f"{label}: {got:.6f} vs {want}"


def test_a05b_bec2_steering_point_documented_discrepancy():
    # Reference claim: steering at (0, 1.07, 3.93, 3.00) is 2.78 within 0.02.
    # Not reproduced, because the family's own reference closed form gives
    # 2.8055 there by arithmetic alone, 0.0255 away from 2.78; the engine
    # agrees with that form, so the tabulated 2.78 contradicts its formula.
    q = AngleQuad(0.0, 1.07, 3.93, 3.00)
    got = steering_value(bec_pair(2), q)
    reference = closed_form("steer_bec2", q)
    ok = abs(got - reference) < 1e-9 and abs(reference - 2.78) > 0.02
    report("05b", ok, f"reference 2.78 at the reference quad not reproduced: "
                      f"closed form={reference:.6f}, "
                      f"|{reference:.4f}-2.78|={abs(reference - 2.78):.4f} > 0.02; "
                      f"engine={got:.6f} agrees to {abs(got - reference):.1e}")
    assert abs(got - reference) < 1e-9  # the engine and the form agree
    assert abs(reference - 2.78) > 0.02, (
        f"the steer_bec2 closed form gives {reference:.6f} at the reference "
        f"quad; the tabulated 2.78 is not reproduced by its own formula"
    )


def test_a06_closed_form_oracle_suite():
    # 100 seeded random quads per family; engine vs reference forms after
    # the documented orientation (the bell form of the single-particle
    # family is tabulated with its overall sign flipped).  The noon
    # steering form is excluded (negative radicand on most of the domain);
    # the engine's noon steering is instead pinned by the point check.
    report_data = verify_closed_forms(draws=100, seed=SEED)
    deviation = report_data["max_abs_deviation"]
    noon_point = steering_value(noon_pair(2, 0), AngleQuad(-0.13, 0.65, 0.26, 0.672))
    ok = (deviation < 1e-9
          and FORM_ORIENTATION["bell_bec1"] == -1.0
          and abs(noon_point - 2.79) <= 0.02)
    report("06", ok, f"max deviation={deviation:.2e} < 1e-9 over "
                     f"{sorted(report_data['families'])}; "
                     f"noon steering point={noon_point:.4f}")
    assert deviation < 1e-9
    assert set(report_data["families"]) == set(FORM_ORIENTATION)
    assert abs(noon_point - 2.79) <= 0.02


SCAN_CONFIGS = [
    ("config1", bec_pair(1),
     {"phi1": 0.0, "phi2": math.pi / 2, "theta1": 3.93},
     {"phi1": 0.0, "phi2": math.pi / 2, "theta1": 3.93}, 2, 1),
    ("config2", bec_pair(2),
     {"phi1": 0.0, "phi2": 1.07, "theta1": 3.93},
     {"phi1": 0.0, "phi2": 1.07, "theta1": 3.68}, 2, 1),
    ("config3", noon_pair(2, 0),
     {"phi1": -0.13, "phi2": 0.65, "theta1": 0.26},
     {"phi1": -0.13, "phi2": 0.65, "theta1": 0.26}, 4, 2),
]


def test_a07_scan_peak_counts():
    # peaks above the classical bound on 720-point grids; the bell curve of
    # the second configuration uses its own reference theta1
    results = []
    for name, state, steer_fixed, bell_fixed, want_s, want_b in SCAN_CONFIGS:
        steer, = scan_1d(("steering",), state, steer_fixed, points=720)
        bell, = scan_1d(("bell",), state, bell_fixed, points=720)
        got_s = count_local_maxima(steer, threshold=2.0)
        got_b = count_local_maxima(bell, threshold=2.0)
        results.append((name, got_s, want_s, got_b, want_b))
    ok = all(gs == ws and gb == wb for _, gs, ws, gb, wb in results)
    report("07", ok, "; ".join(f"{n}: steering {gs}/{ws}, bell {gb}/{wb}"
                               for n, gs, ws, gb, wb in results))
    for name, got_s, want_s, got_b, want_b in results:
        assert got_s == want_s, f"{name} steering peaks {got_s} != {want_s}"
        assert got_b == want_b, f"{name} bell peaks {got_b} != {want_b}"


def test_a08_unequal_particle_numbers_no_violation():
    state = bec_pair(1, 2)
    rng = np.random.default_rng(SEED)
    worst_corr = 0.0
    for _ in range(100):
        phi, theta = rng.uniform(0.0, TWO_PI, 2)
        worst_corr = max(worst_corr, abs(correlation(state, phi, theta)))

    worst_steer = 0.0
    # power reflectivity r, splitter amplitude alpha = sqrt(r); shared and
    # independent per party.  (At extreme imbalance far outside this range
    # the functional exceeds 2 through near-deterministic parities, the
    # same degenerate-settings mechanism as the separable product state.)
    reflectivities = [round(0.1 * k, 1) for k in range(1, 10)]
    for r in reflectivities:
        result = optimize("steering", state, restarts=8, seed=3,
                          alpha=math.sqrt(r))
        worst_steer = max(worst_steer, result.max_value)
    for ra in reflectivities:
        for rb in reflectivities:
            result = optimize("steering", state, restarts=8, seed=3,
                              alpha=math.sqrt(ra), bob_alpha=math.sqrt(rb))
            worst_steer = max(worst_steer, result.max_value)

    ok = worst_corr < 1e-12 and worst_steer <= 2.0 + 1e-9
    report("08", ok, f"balanced max |corr|={worst_corr:.2e} < 1e-12; "
                     f"swept max steering={worst_steer:.6f} <= 2")
    assert worst_corr < 1e-12
    assert worst_steer <= 2.0 + 1e-9


def test_a09a_visibility_thresholds():
    state = bec_pair(1)
    q_steer = AngleQuad(0.0, math.pi / 2, 3.93, 2.90)
    q_bell = AngleQuad(0.0, math.pi / 2, 3.93, 2.36)
    p_steer = visibility_threshold(state, "steering", q_steer)
    p_bell = visibility_threshold(state, "bell", q_bell)
    shortcut_steer = 2.0 / steering_value(state, q_steer)
    shortcut_bell = 2.0 / abs(bell_value(state, q_bell))
    ok = (abs(p_steer - 2.0 / 2.79) <= 0.005
          and abs(p_bell - 2.0 / 2.41) <= 0.005
          and abs(p_steer - shortcut_steer) < 1e-6
          and abs(p_bell - shortcut_bell) < 1e-6
          and p_steer < p_bell)
    report("09a", ok, f"steering threshold={p_steer:.6f} (2/2.79={2/2.79:.4f} "
                      f"+-0.005), bell threshold={p_bell:.6f} "
                      f"(2/2.41={2/2.41:.4f} +-0.005), bisection==shortcut, "
                      f"steering < bell")
    assert abs(p_steer - 2.0 / 2.79) <= 0.005
    assert abs(p_bell - 2.0 / 2.41) <= 0.005
    assert abs(p_steer - shortcut_steer) < 1e-6
    assert abs(p_bell - shortcut_bell) < 1e-6
    assert p_steer < p_bell


def test_a09b_sector_trace_nullity_documented_discrepancy():
    # Reference claim: the sector trace of the joint observable vanishes
    # whenever n1 = 1 or n2 = 1.  Not reproduced, because bunching makes the
    # both-particles-on-one-side basis states deterministic (parity -1):
    # the (1, 1) trace is 2u^2 + 2v^2 - 2uv - 2 with u = 2 alpha_A^2 - 1 and
    # v = 2 alpha_B^2 - 1, exactly -2 at balance.  What does hold: the trace
    # is angle-independent, so the difference combination A(phi1) - A(phi2)
    # of two Alice settings on the same splitter is traceless.
    rng = np.random.default_rng(SEED)
    second_phases = np.random.default_rng(SEED + 1)  # leaves rng's draws unshifted
    worst = formula_dev = difference_worst = 0.0
    for n1, n2 in [(1, 1), (1, 2), (2, 1)]:
        for _ in range(100):
            alpha_a, phi = rng.uniform(0.05, 0.95), rng.uniform(0.0, TWO_PI)
            alpha_b, theta = rng.uniform(0.05, 0.95), rng.uniform(0.0, TWO_PI)
            alice = BeamSplitterSetting.from_alpha(alpha_a, phi)
            bob = BeamSplitterSetting.from_alpha(alpha_b, theta)
            alice2 = BeamSplitterSetting.from_alpha(
                alpha_a, second_phases.uniform(0.0, TWO_PI))
            trace = sector_trace_product(n1, n2, alice, bob)
            worst = max(worst, abs(trace))
            if (n1, n2) == (1, 1):
                u, v = 2.0 * alpha_a ** 2 - 1.0, 2.0 * alpha_b ** 2 - 1.0
                expected = 2.0 * u * u + 2.0 * v * v - 2.0 * u * v - 2.0
                formula_dev = max(formula_dev, abs(trace - expected))
            difference = sector_trace_product(n1, n2, alice, bob,
                                              alice2=alice2, sign=-1.0)
            difference_worst = max(difference_worst, abs(difference))
    balanced = sector_trace_product(1, 1, BAL(0.3), BAL(1.4))
    ok = (formula_dev < 1e-12 and abs(balanced + 2.0) < 1e-12
          and difference_worst < 1e-10)
    report("09b", ok, f"reference nullity for n1=1 or n2=1 not reproduced: "
                      f"max |sector trace|={worst:.3f}; (1,1) trace vs "
                      f"2u^2+2v^2-2uv-2 dev={formula_dev:.1e}; balanced (1,1) "
                      f"trace={balanced:.6f} = -2; difference combination "
                      f"max |trace|={difference_worst:.1e} < 1e-10")
    assert formula_dev < 1e-12, (
        f"(1, 1) sector traces deviate from 2u^2 + 2v^2 - 2uv - 2 by "
        f"{formula_dev:.2e}")
    assert abs(balanced + 2.0) < 1e-12, (
        f"balanced (1, 1) trace is {balanced:.12f}; Hong-Ou-Mandel bunching "
        f"gives exactly -2")
    assert difference_worst < 1e-10, (
        f"difference combinations reach {difference_worst:.2e}; the "
        f"angle-independent trace should cancel in A(phi1) - A(phi2)")


def test_a10_structural_counts_and_reference_bases():
    counts_ok = (outcome_count(2), outcome_count(3), outcome_count(4)) == (6, 10, 15)

    # orthonormality within equal-particle shells, up to four particles
    rng = np.random.default_rng(SEED)
    ortho_worst = 0.0
    for n_total in (1, 2, 3, 4):
        setting = BeamSplitterSetting.from_alpha(
            rng.uniform(0.2, 0.95), rng.uniform(0.0, TWO_PI))
        basis = effective_basis(n_total, setting)
        for v1 in basis:
            for v2 in basis:
                if sum(v1.outcome) != sum(v2.outcome):
                    continue
                want = 1.0 if v1.outcome == v2.outcome else 0.0
                ortho_worst = max(ortho_worst,
                                  abs(inner(v1.vector, v2.vector) - want))

    # two-particle reference rows, exact amplitudes and signs
    table_worst = 0.0
    for phase in (0.0, 1.1):
        basis = {v.outcome: v for v in effective_basis(2, BAL(phase))}
        for outcome, (amps, eps_want) in oracle.two_particle_rows(phase).items():
            assert basis[outcome].weight == eps_want
            got = fock_amplitudes(basis[outcome].vector)
            assert set(got) == set(amps)
            for occ, amp in amps.items():
                table_worst = max(table_worst, abs(got[occ] - amp))

    # four-particle rows in the raw-monomial convention
    basis4 = {v.outcome: v for v in effective_basis(4, BAL(0.0))}
    for outcome, (coeffs, eps_want) in oracle.four_particle_monomials().items():
        assert basis4[outcome].weight == eps_want
        raw = basis4[outcome].vector.terms
        s = sum(outcome)
        for k, value in enumerate(coeffs):
            got = raw.get((s - k, k), 0.0)
            table_worst = max(table_worst, abs(got - value))

    ok = counts_ok and ortho_worst < 1e-10 and table_worst < 1e-12
    report("10", ok, f"outcome counts (6, 10, 15); orthonormality dev="
                     f"{ortho_worst:.2e} < 1e-10; reference basis dev="
                     f"{table_worst:.2e}")
    assert counts_ok
    assert ortho_worst < 1e-10
    assert table_worst < 1e-12


def test_a11a_property_suites(maxima):
    # normalization of every constructor output
    norm_ok = all(member.is_normalized(1e-10)
                  for state in (bec_pair(1), bec_pair(2), bec_pair(1, 2),
                                noon_pair(2, 0), admix(bec_pair(1), 0.37))
                  for _, member in state.entries)

    # quantum bound over 1000 random draws per family
    rng = np.random.default_rng(SEED)
    bound = QUANTUM_BOUND * (1.0 + 1e-9)
    bound_worst = 0.0
    for state in (bec_pair(1), bec_pair(2), noon_pair(2, 0)):
        for _ in range(1000):
            q = AngleQuad(*rng.uniform(0.0, TWO_PI, 4))
            bound_worst = max(bound_worst, abs(bell_value(state, q)),
                              steering_value(state, q))

    # separable sanity for |bell|: all particles on Alice's side
    member = monomial_state({"a": 1, "b": 0, "A": 1, "B": 0},
                            ("a", "b", "A", "B"))
    product_state = CompositeState(((1.0, member),), n1=1, n2=1)
    bell_sep = optimize("bell_abs", product_state, restarts=8, seed=3).max_value

    # optimizer determinism
    first = optimize("steering", bec_pair(2), restarts=RESTARTS, seed=SEED)
    deterministic = first == maxima["bec2", "steering"]

    ok = (norm_ok and bound_worst <= bound and bell_sep <= 2.0 + 1e-9
          and deterministic)
    report("11a", ok, f"normalization ok={norm_ok}; worst functional value="
                      f"{bound_worst:.9f} <= 2*sqrt(2); separable |bell|="
                      f"{bell_sep:.6f} <= 2; determinism={deterministic}")
    assert norm_ok
    assert bound_worst <= bound
    assert bell_sep <= 2.0 + 1e-9
    assert deterministic


def test_a11b_separable_steering_bound_documented_discrepancy():
    # Reference claim: the optimized steering value of the product state
    # with all particles on Alice's side stays below 2.  Not reproduced,
    # because Alice's two particles bunch at her splitter (parity -1 with
    # certainty) and Bob's vacuum parity is +1, so every correlation equals
    # -1 and the functional evaluates to 2*sqrt(2) for every angle quad.
    # The functional's separable bound of 2 assumes a non-deterministic
    # trusted party measuring mutually unbiased observables (Cavalcanti,
    # Foster, Fuwa & Wiseman, JOSA B 32, A74 (2015)), which a deterministic
    # parity breaks; this is not a steering violation.  The separable bound
    # of 2 that does hold is the one on |bell|.
    member = monomial_state({"a": 1, "b": 0, "A": 1, "B": 0},
                            ("a", "b", "A", "B"))
    state = CompositeState(((1.0, member),), n1=1, n2=1)
    rng = np.random.default_rng(SEED)
    corr_dev = 0.0
    for _ in range(100):
        phi, theta = rng.uniform(0.0, TWO_PI, 2)
        corr_dev = max(corr_dev, abs(correlation(state, phi, theta) + 1.0))
    steer = optimize("steering", state, restarts=8, seed=3).max_value
    bell = optimize("bell_abs", state, restarts=8, seed=3).max_value
    ok = (corr_dev < 1e-12 and abs(steer - QUANTUM_BOUND) < 1e-9
          and bell <= 2.0 + 1e-9)
    report("11b", ok, f"reference separable steering <= 2 not reproduced: "
                      f"max |E+1|={corr_dev:.1e}; steering opt={steer:.9f} = "
                      f"2*sqrt(2); |bell| opt={bell:.6f} <= 2")
    assert corr_dev < 1e-12, (
        f"correlations deviate from the deterministic -1 by {corr_dev:.2e}")
    assert abs(steer - QUANTUM_BOUND) < 1e-9, (
        f"with every E = -1 the steering functional is 2*sqrt(2) at every "
        f"quad; the optimum is {steer:.12f}")
    assert bell <= 2.0 + 1e-9, (
        f"|bell| optimum {bell:.9f} exceeds the separable bound 2")
