"""Measurement-layer tests.

Two independent routes exist to every distribution: creation-operator
substitution, and projection onto the effective basis vectors.  Both are
tested against each other, and against a third fully independent oracle
built from dense matrix exponentials on a truncated number basis.
"""
import math

import numpy as np
import pytest
from scipy.linalg import expm, logm

from twocopy.fock import fock_amplitudes, from_fock_amplitudes, inner, monomial_state, tensor
from twocopy.measurement import (
    MAX_BASIS_TOTAL,
    BeamSplitterSetting,
    Outcome,
    effective_basis,
    epsilon,
    joint_distribution,
    local_outcomes,
    outcome_count,
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
    @pytest.mark.parametrize("n_total,count", [(2, 6), (3, 10), (4, 15)])
    def test_documented_counts(self, n_total, count):
        assert outcome_count(n_total) == count

    @pytest.mark.parametrize("n_total", range(9))
    def test_matches_enumeration(self, n_total):
        assert outcome_count(n_total) == len(local_outcomes(n_total))

    def test_lexicographic_order(self):
        outcomes = local_outcomes(3)
        assert outcomes == sorted(outcomes)


def reference_two_particle_rows(phase):
    """Effective basis for up to two particles, balanced splitter.

    Normalized amplitudes on |n_a n_A>, derived by expanding
    (a† + e^{-i phase} A†)^n (a† - e^{-i phase} A†)^m / sqrt(2^(n+m) n! m!).
    """
    x = np.exp(-1j * phase)
    return {
        (0, 0): {(0, 0): 1.0},
        (1, 0): {(1, 0): INV_SQRT2, (0, 1): INV_SQRT2 * x},
        (0, 1): {(1, 0): INV_SQRT2, (0, 1): -INV_SQRT2 * x},
        (1, 1): {(2, 0): INV_SQRT2, (0, 2): -INV_SQRT2 * x ** 2},
        (2, 0): {(2, 0): 0.5, (1, 1): INV_SQRT2 * x, (0, 2): 0.5 * x ** 2},
        (0, 2): {(2, 0): 0.5, (1, 1): -INV_SQRT2 * x, (0, 2): 0.5 * x ** 2},
    }


def reference_four_particle_monomials(phase):
    """Raw creation-monomial coefficients of the extra rows for four
    particles, balanced splitter; key k maps the a^(s-k) A^k monomial.
    """
    r3 = 1.0 / (4.0 * math.sqrt(3.0))
    r6 = 1.0 / (4.0 * math.sqrt(6.0))
    r86 = 1.0 / (8.0 * math.sqrt(6.0))
    return {
        (1, 2): [0.25, -0.25, -0.25, 0.25],
        (2, 1): [0.25, 0.25, -0.25, -0.25],
        (0, 3): [r3, -3 * r3, 3 * r3, -r3],
        (3, 0): [r3, 3 * r3, 3 * r3, r3],
        (2, 2): [0.125, 0.0, -0.25, 0.0, 0.125],
        (4, 0): [r86, 4 * r86, 6 * r86, 4 * r86, r86],
        (0, 4): [r86, -4 * r86, 6 * r86, -4 * r86, r86],
        (1, 3): [r6, -2 * r6, 0.0, 2 * r6, -r6],
        (3, 1): [r6, 2 * r6, 0.0, -2 * r6, -r6],
    }


class TestEffectiveBasis:
    @pytest.mark.parametrize("phase", [0.0, 0.8, 2.4, -1.1])
    def test_two_particle_reference_rows(self, phase):
        basis = {v.outcome: v for v in effective_basis(2, BAL(phase))}
        reference = reference_two_particle_rows(phase)
        assert set(basis) == set(reference)
        for outcome, expected in reference.items():
            amps = fock_amplitudes(basis[outcome].vector)
            assert set(amps) == set(expected)
            for occ, amp in expected.items():
                assert amps[occ] == pytest.approx(amp, abs=1e-12)
            assert basis[outcome].weight == EPSILON_TABLE[outcome]

    @pytest.mark.parametrize("phase", [0.0, 1.3])
    def test_four_particle_monomial_rows(self, phase):
        basis = {v.outcome: v for v in effective_basis(4, BAL(phase))}
        x = np.exp(-1j * phase)
        for outcome, coeffs in reference_four_particle_monomials(phase).items():
            s = sum(outcome)
            raw = basis[outcome].vector.terms
            for k, value in enumerate(coeffs):
                occ = (s - k, k)
                got = raw.get(occ, 0.0)
                assert got == pytest.approx(value * x ** k, abs=1e-12)
            assert basis[outcome].weight == EPSILON_TABLE[outcome]

    def test_first_ten_rows_cover_three_particles(self):
        # the three-particle basis is the four-particle one truncated
        rows4 = {v.outcome for v in effective_basis(4, BAL(0.3))}
        rows3 = {v.outcome for v in effective_basis(3, BAL(0.3))}
        assert rows3 <= rows4
        assert len(rows3) == 10

    @pytest.mark.parametrize("n_total", [1, 2, 3, 4])
    def test_orthonormal_within_shells(self, n_total):
        rng = np.random.default_rng(n_total)
        for _ in range(4):
            alpha = rng.uniform(0.2, 0.95)
            setting = BeamSplitterSetting.from_alpha(alpha, rng.uniform(0, 2 * math.pi))
            basis = effective_basis(n_total, setting)
            for v1 in basis:
                for v2 in basis:
                    if sum(v1.outcome) != sum(v2.outcome):
                        continue
                    want = 1.0 if v1.outcome == v2.outcome else 0.0
                    assert abs(inner(v1.vector, v2.vector) - want) < 1e-10

    def test_unit_norms(self):
        for vector in effective_basis(4, BeamSplitterSetting.from_alpha(0.37, 2.2)):
            assert vector.vector.is_normalized(1e-12)

    def test_particle_bound(self):
        with pytest.raises(ValueError, match=f"exceeds the bound {MAX_BASIS_TOTAL}"):
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

    def test_dual_route_against_effective_basis(self):
        # substitution amplitudes must match projections onto the basis
        rng = np.random.default_rng(17)
        for state, n1, n2 in [(bec_pair(1), 1, 1), (bec_pair(1, 2), 1, 2),
                              (bec_pair(2), 2, 2)]:
            member = state.entries[0][1]
            alice = BeamSplitterSetting.from_alpha(
                rng.uniform(0.2, 0.95), rng.uniform(0, 2 * math.pi))
            bob = BeamSplitterSetting.from_alpha(
                rng.uniform(0.2, 0.95), rng.uniform(0, 2 * math.pi))
            n_total = n1 + n2
            dist = joint_distribution(state, alice, bob)
            basis_a = effective_basis(n_total, alice, ("a", "A"))
            basis_b = effective_basis(n_total, bob, ("b", "B"))
            for va in basis_a:
                for vb in basis_b:
                    if sum(va.outcome) + sum(vb.outcome) != n_total:
                        continue
                    projector = tensor(va.vector, vb.vector)
                    # reorder modes (a, A, b, B) -> (a, b, A, B)
                    reordered = {
                        (ea, eb, eA, eB): c
                        for (ea, eA, eb, eB), c in projector.terms.items()
                    }
                    from twocopy.fock import ModePolynomial
                    projector = ModePolynomial(("a", "b", "A", "B"), reordered)
                    amp = inner(projector, member)
                    outcome = Outcome(va.outcome[0], va.outcome[1],
                                      vb.outcome[0], vb.outcome[1])
                    assert abs(abs(amp) ** 2 - dist.get(outcome, 0.0)) < 1e-10


# -- independent oracle: dense matrix exponentials ---------------------------

CUT = 5


def _ladder():
    m = np.zeros((CUT, CUT), dtype=complex)
    for n in range(1, CUT):
        m[n - 1, n] = math.sqrt(n)
    return m


def _mode_operators():
    eye = np.eye(CUT, dtype=complex)
    ops = []
    for position in range(4):
        factors = [eye] * 4
        factors[position] = _ladder()
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        ops.append(op)
    return ops


def _splitter_unitary(op1, op2, setting):
    target = np.array([
        [setting.alpha, setting.beta * np.exp(1j * setting.phase)],
        [setting.beta, -setting.alpha * np.exp(1j * setting.phase)],
    ])
    gen = logm(target)
    quad = (gen[0, 0] * op1.conj().T @ op1 + gen[0, 1] * op1.conj().T @ op2
            + gen[1, 0] * op2.conj().T @ op1 + gen[1, 1] * op2.conj().T @ op2)
    return expm(quad)


def _dense_distribution(state, alice, bob):
    """Distribution via number-conserving matrix exponentials; mode order
    of the dense register is (a, A, b, B)."""
    op_a, op_A, op_b, op_B = _mode_operators()
    unitary = _splitter_unitary(op_a, op_A, alice) @ _splitter_unitary(op_b, op_B, bob)
    probs = {}
    for weight, member in state.entries:
        vec = np.zeros(CUT ** 4, dtype=complex)
        for (ea, eb, eA, eB), amp in fock_amplitudes(member).items():
            index = ((ea * CUT + eA) * CUT + eb) * CUT + eB
            vec[index] += amp
        out = unitary @ vec
        for index, amp in enumerate(out):
            p = abs(amp) ** 2
            if p > 1e-16:
                eB = index % CUT
                eb = index // CUT % CUT
                eA = index // CUT ** 2 % CUT
                ea = index // CUT ** 3
                key = (ea, eA, eb, eB)
                probs[key] = probs.get(key, 0.0) + weight * p
    return probs


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
        dense = _dense_distribution(state, alice, bob)
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
    dense = _dense_distribution(state, alice, bob)
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
        with pytest.raises(ValueError, match=f"exceed the bound {MAX_PARTICLES}"):
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
