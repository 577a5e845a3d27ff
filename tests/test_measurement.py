"""Measurement-layer tests.

Two routes give what a party measures: creation-operator substitution, one
party's splitter at a time (``joint_distribution``), and the effective
basis vectors, which are read from the beam splitter's amplitude
recurrence.  Each is held to its own route in tests/oracle.py: the
distribution to the dense matrix-exponential route, and the basis to the
50-digit binomial expansion.
"""
import cmath
import math

import numpy as np
import pytest

import oracle
from twocopy.fock import (
    fock_amplitudes,
    from_fock_amplitudes,
    monomial_state,
)
from twocopy import measurement
from twocopy.measurement import (
    MAX_BASIS_TOTAL,
    BeamSplitterSetting,
    Outcome,
    effective_basis,
    epsilon,
    joint_distribution,
    local_outcomes,
    outcome_count,
    parity_blocks,
    sector_trace_product,
    weighted_parity,
)
from twocopy.states import (
    COMPOSITE_MODES,
    MAX_PARTICLES,
    CompositeState,
    admix,
    bec_pair,
    sector_basis,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
BAL = BeamSplitterSetting.balanced

# Dichotomic weights for every outcome with up to four particles, frozen
# from the (-1)^(m + s(s+1)/2) assignment.
EPSILON_TABLE = {
    (0, 0): 1,
    (1, 0): -1, (0, 1): 1,
    (1, 1): 1, (2, 0): -1, (0, 2): -1,
    (1, 2): 1, (2, 1): -1, (0, 3): -1, (3, 0): 1,
    (2, 2): 1, (4, 0): 1, (0, 4): 1, (1, 3): -1, (3, 1): -1,
}


class TestEpsilon:
    def test_frozen_table(self):
        for (n, m), want in EPSILON_TABLE.items():
            assert epsilon(n, m) == want

    def test_values_are_signs(self):
        for n in range(6):
            for m in range(6):
                assert epsilon(n, m) in (-1, 1)


class TestOutcomeCount:
    @pytest.mark.parametrize("n_total", range(9))
    def test_matches_enumeration(self, n_total):
        assert outcome_count(n_total) == len(local_outcomes(n_total))

    def test_lexicographic_order(self):
        outcomes = local_outcomes(3)
        assert outcomes == sorted(outcomes)


def assert_basis_matches_decimal_route(n_total, setting, tol):
    """effective_basis against the oracle's expansion: the vector of outcome
    (n, m) has S_k[p][n] e^{-i phase (k-p)} on |p, k-p>, k = n + m."""
    blocks = oracle.decimal_blocks(setting.alpha, setting.beta, n_total)
    basis = effective_basis(n_total, setting)
    assert [v.outcome for v in basis] == local_outcomes(n_total)
    for v in basis:
        n, m = v.outcome
        k = n + m
        assert v.vector.modes == ("a", "A") and v.weight == oracle.weight(n, m)
        want = {(p, k - p): float(blocks[k][p][n]) * cmath.exp(-1j * setting.phase * (k - p))
                for p in range(k + 1)}
        got = fock_amplitudes(v.vector)
        assert set(got) <= set(want)
        assert max(abs(got.get(occ, 0.0) - amp) for occ, amp in want.items()) <= tol


class TestEffectiveBasis:
    def test_matches_decimal_route(self):
        rng = np.random.default_rng(29)
        fixed = [BAL(0.4), BeamSplitterSetting.from_alpha(0.0, 1.1),
                 BeamSplitterSetting.from_alpha(1.0, 2.0)]
        for n_total in range(11):
            drawn = BeamSplitterSetting.from_alpha(rng.uniform(0.0, 1.0),
                                                   rng.uniform(0.0, 2 * math.pi))
            for setting in fixed + [drawn]:
                assert_basis_matches_decimal_route(n_total, setting, 1e-14)

    def test_matches_decimal_route_at_bound(self):
        for setting in (BAL(0.4), BeamSplitterSetting.from_alpha(0.6628, 1.734)):
            assert_basis_matches_decimal_route(MAX_BASIS_TOTAL, setting, 1e-14)

    def test_particle_bound(self):
        with pytest.raises(ValueError, match=rf"n_total={MAX_BASIS_TOTAL + 1} must be an "
                                             rf"integer in \[0, {MAX_BASIS_TOTAL}\]"):
            effective_basis(MAX_BASIS_TOTAL + 1, BAL(0.0))


class TestJointDistribution:
    def test_vacuum_composite(self):
        vac = CompositeState(((1.0, monomial_state(
            {"a": 0, "b": 0, "A": 0, "B": 0}, ("a", "b", "A", "B"))),), n1=0, n2=0)
        dist = joint_distribution(vac, BAL(0.3), BAL(1.2))
        assert dist == {Outcome(0, 0, 0, 0): pytest.approx(1.0)}

    def test_hand_expansion_balanced_zero_angles(self):
        # worked by direct multinomial expansion of the four-monomial state
        dist = joint_distribution(bec_pair(1), BAL(0.0), BAL(0.0))
        expected = {
            (2, 0, 0, 0): 0.125, (0, 2, 0, 0): 0.125,
            (0, 0, 2, 0): 0.125, (0, 0, 0, 2): 0.125,
            (1, 0, 1, 0): 0.25, (0, 1, 0, 1): 0.25,
        }
        got = {tuple(o): p for o, p in dist.items() if p > 1e-15}
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("state_factory,n_total", [
        (lambda: bec_pair(1), 2),
        (lambda: bec_pair(1, 2), 3),
        (lambda: bec_pair(2), 4),
    ])
    def test_sums_to_one(self, state_factory, n_total):
        rng = np.random.default_rng(n_total)
        for _ in range(5):
            alice = BeamSplitterSetting.from_alpha(
                rng.uniform(0.1, 0.99), rng.uniform(0, 2 * math.pi))
            bob = BeamSplitterSetting.from_alpha(
                rng.uniform(0.1, 0.99), rng.uniform(0, 2 * math.pi))
            dist = joint_distribution(state_factory(), alice, bob)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
            for outcome, _ in dist.items():
                assert sum(outcome) == n_total

    def test_white_noise_distribution_angle_independent(self):
        noise = admix(bec_pair(1), 0.0, "sector")
        ref = joint_distribution(noise, BAL(0.0), BAL(0.0))
        rng = np.random.default_rng(8)
        for _ in range(5):
            phi, theta = rng.uniform(0, 2 * math.pi, 2)
            dist = joint_distribution(noise, BAL(phi), BAL(theta))
            assert dist == pytest.approx(ref, abs=1e-12)

    def test_zero_weight_member_adds_nothing(self):
        # a member at weight 0.0, of more particles than the state, adds
        # only zero probabilities, which are dropped
        state = bec_pair(1)
        padded = CompositeState(state.entries + ((0.0, bec_pair(3, 2).entries[0][1]),),
                                n1=1, n2=1, sector_pure=False)
        for alice, bob in ((BAL(0.3), BAL(1.2)), (BeamSplitterSetting.from_alpha(0.6, 0.4),
                                                  BeamSplitterSetting.from_alpha(0.8, 2.0))):
            want = joint_distribution(state, alice, bob)
            assert list(joint_distribution(padded, alice, bob).items()) == list(want.items())


# -- the dense matrix-exponential route (tests/oracle.py) ---------------------


@pytest.mark.parametrize("state_factory", [
    lambda: bec_pair(1), lambda: bec_pair(2), lambda: bec_pair(1, 2),
])
def test_distribution_matches_dense_unitary_oracle(state_factory):
    rng = np.random.default_rng(23)
    state = state_factory()
    for _ in range(2):
        alice = BeamSplitterSetting.from_alpha(
            rng.uniform(0.3, 0.9), rng.uniform(0, 2 * math.pi))
        bob = BeamSplitterSetting.from_alpha(
            rng.uniform(0.3, 0.9), rng.uniform(0, 2 * math.pi))
        dense = oracle.dense_distribution(state, alice, bob)
        dist = joint_distribution(state, alice, bob)
        for outcome, p in dist.items():
            assert dense.get(tuple(outcome), 0.0) == pytest.approx(p, abs=1e-10)


def test_dense_oracle_on_complex_amplitudes():
    # The relative phase i tells the splitter map from its complex conjugate,
    # which agrees with it on real amplitudes only.
    member = from_fock_amplitudes(COMPOSITE_MODES, {
        (0, 1, 1, 0): INV_SQRT2, (1, 0, 0, 1): 1j * INV_SQRT2})
    state = CompositeState(((1.0, member),), n1=1, n2=1)
    alice = BeamSplitterSetting.from_alpha(0.5, 0.0)
    bob = BeamSplitterSetting.from_alpha(0.5, 1.0)
    dense = oracle.dense_distribution(state, alice, bob)
    dist = joint_distribution(state, alice, bob)
    assert set(dense) == set(map(tuple, dist))
    for outcome, p in dist.items():
        assert dense[tuple(outcome)] == pytest.approx(p, abs=1e-10)
    e = weighted_parity({Outcome(*key): p for key, p in dense.items()})
    assert e == pytest.approx(-0.881, abs=5e-4)


# -- sector traces ------------------------------------------------------------


def brute_force_trace(n1, n2, alice, bob):
    """Direct diagonal sum over the sector basis."""
    total = 0.0
    for member in sector_basis(n1, n2):
        composite = CompositeState(((1.0, member),), n1=n1, n2=n2)
        total += weighted_parity(joint_distribution(composite, alice, bob))
    return total


def reference_sector_trace(n1, n2, alice, bob, alice2=None, sign=1.0):
    """``sector_trace_product`` as written before its indices were cached:
    the block diagonals read on (k, l) grids, summed by ``np.sum``."""
    n_total = n1 + n2
    k = np.arange(n1 + 1)[:, None]
    l = np.arange(n2 + 1)[None, :]
    bob_diagonal = np.diagonal(parity_blocks(bob, n_total), axis1=1, axis2=2)
    bob_part = bob_diagonal[n_total - k - l, n1 - k]

    def trace(setting):
        diagonal = np.diagonal(parity_blocks(setting, n_total), axis1=1, axis2=2)
        return float(np.sum(diagonal[k + l, k] * bob_part))

    total = trace(alice)
    if alice2 is not None:
        total += sign * trace(alice2)
    return total


def random_setting(rng):
    return BeamSplitterSetting.from_alpha(math.sqrt(rng.uniform(0.02, 0.98)),
                                          rng.uniform(0.0, 2.0 * math.pi))


class TestSectorTraceMatchesReference:
    """The cached flat indices give the grid form's bits, sums included."""

    @staticmethod
    def assert_identical(n1, n2, rng):
        alice, bob, alice2 = (random_setting(rng) for _ in range(3))
        sign = rng.choice([1.0, -1.0, 0.37])
        for args in ((n1, n2, alice, bob), (n1, n2, alice, bob, alice2, sign)):
            got = sector_trace_product(*args)
            assert float.hex(got) == float.hex(reference_sector_trace(*args)), args

    def test_every_sector_up_to_eight(self):
        rng = np.random.default_rng(45)
        for n1 in range(9):
            for n2 in range(9):
                self.assert_identical(n1, n2, rng)

    @pytest.mark.parametrize("n1, n2", [(0, 32), (32, 0), (1, 32), (32, 32)])
    def test_largest_sectors(self, n1, n2):
        self.assert_identical(n1, n2, np.random.default_rng(n1 * 33 + n2))

    def test_random_splitters(self):
        rng = np.random.default_rng(46)
        for _ in range(40):
            n1, n2 = (int(n) for n in rng.integers(0, MAX_PARTICLES + 1, 2))
            self.assert_identical(n1, n2, rng)

    def test_cached_indices_are_read_only(self):
        for index in measurement._sector_indices(3, 5):
            assert index.shape == (4 * 6,)
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 0


class TestSectorTrace:
    def test_vacuum_sector(self):
        assert sector_trace_product(0, 0, BAL(0.4), BAL(1.0)) == pytest.approx(1.0)

    def test_one_particle_each_closed_form(self):
        # T(1,1) = 2u^2 + 2v^2 - 2uv - 2 with u = 2 alpha_A^2 - 1 and
        # v = 2 alpha_B^2 - 1, independent of both angles.
        rng = np.random.default_rng(3)
        for _ in range(12):
            ra, rb = rng.uniform(0.05, 0.95, 2)
            phi, theta = rng.uniform(0, 2 * math.pi, 2)
            alice = BeamSplitterSetting.from_alpha(math.sqrt(ra), phi)
            bob = BeamSplitterSetting.from_alpha(math.sqrt(rb), theta)
            u, v = 2 * ra - 1, 2 * rb - 1
            expected = 2 * u * u + 2 * v * v - 2 * u * v - 2
            assert sector_trace_product(1, 1, alice, bob) == pytest.approx(expected)

    def test_balanced_one_particle_each_is_minus_two(self):
        # Both-particles-on-one-side basis states bunch (deterministic -1
        # parity), the two cross states contribute 0; the trace is -2, not 0.
        rng = np.random.default_rng(4)
        for _ in range(6):
            phi, theta = rng.uniform(0, 2 * math.pi, 2)
            value = sector_trace_product(1, 1, BAL(phi), BAL(theta))
            assert value == pytest.approx(-2.0, abs=1e-12)

    def test_two_particles_each_balanced(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            phi, theta = rng.uniform(0, 2 * math.pi, 2)
            value = sector_trace_product(2, 2, BAL(phi), BAL(theta))
            assert value == pytest.approx(3.0, abs=1e-10)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(6)
        for n1, n2 in [(1, 1), (1, 2), (2, 2), (3, 1), (1, 4)]:
            alice = BeamSplitterSetting.from_alpha(
                rng.uniform(0.2, 0.95), rng.uniform(0, 2 * math.pi))
            bob = BeamSplitterSetting.from_alpha(
                rng.uniform(0.2, 0.95), rng.uniform(0, 2 * math.pi))
            assert sector_trace_product(n1, n2, alice, bob) == pytest.approx(
                brute_force_trace(n1, n2, alice, bob), abs=1e-10)

    def test_combined_observable_is_linear(self):
        a1, a2, b = BAL(0.3), BAL(1.7), BAL(2.4)
        plus = sector_trace_product(1, 2, a1, b, alice2=a2, sign=1.0)
        minus = sector_trace_product(1, 2, a1, b, alice2=a2, sign=-1.0)
        t1 = sector_trace_product(1, 2, a1, b)
        t2 = sector_trace_product(1, 2, a2, b)
        assert plus == pytest.approx(t1 + t2, abs=1e-12)
        assert minus == pytest.approx(t1 - t2, abs=1e-12)

    @pytest.mark.parametrize("sign", [math.nan, math.inf, -math.inf])
    def test_non_finite_sign_rejected(self, sign):
        # a NaN or infinite sign gave nan or -inf, a silent wrong number
        for alice2 in (BAL(1.7), None):
            with pytest.raises(ValueError, match=f"^sign={sign} is not finite$"):
                sector_trace_product(1, 2, BAL(0.3), BAL(2.4), alice2=alice2, sign=sign)

    @pytest.mark.parametrize("sign", [-1.0, 0.0, 2.5])
    def test_sign_without_second_setting_rejected(self, sign):
        # the sign used to be dropped silently, giving the plain trace
        with pytest.raises(ValueError, match=f"^sign={sign} combines two Alice "
                                             f"observables and needs alice2$"):
            sector_trace_product(1, 2, BAL(0.3), BAL(2.4), sign=sign)

    def test_particle_bound(self):
        # In the (N, 0) sector Alice holds |k, 0> and Bob |N-k, 0>.  A party
        # holding |k, 0> sees n ~ Binomial(k, alpha^2) particles in c.
        def parity(k, r):
            return sum(epsilon(n, k - n) * math.comb(k, n) * r ** n * (1 - r) ** (k - n)
                       for n in range(k + 1))

        n = MAX_PARTICLES
        alice = BeamSplitterSetting.from_alpha(math.sqrt(0.3), 0.4)
        bob = BeamSplitterSetting.from_alpha(math.sqrt(0.6), 1.2)
        want = sum(parity(k, 0.3) * parity(n - k, 0.6) for k in range(n + 1))
        assert sector_trace_product(n, 0, alice, bob) == pytest.approx(want, abs=1e-12)
        with pytest.raises(ValueError, match=rf"n2={MAX_PARTICLES + 1} must be an "
                                             rf"integer in \[0, {MAX_PARTICLES}\]"):
            sector_trace_product(0, MAX_PARTICLES + 1, BAL(0.3), BAL(1.2))

    def test_difference_combination_traceless(self):
        # the trace is angle-independent, so A(phi1) - A(phi2) always
        # has vanishing sector trace against any Bob observable
        value = sector_trace_product(1, 1, BAL(0.2), BAL(1.1),
                                     alice2=BAL(2.9), sign=-1.0)
        assert value == pytest.approx(0.0, abs=1e-12)


class TestSettingValidation:
    def test_amplitudes_must_normalize(self):
        with pytest.raises(ValueError):
            BeamSplitterSetting(0.9, 0.9, 0.0)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phase(self, phase):
        with pytest.raises(ValueError, match="phase"):
            BeamSplitterSetting.balanced(phase)
