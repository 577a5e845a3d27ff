"""State constructors, composites, and noise mixtures."""
import math

import pytest

from twocopy.fock import ModeMismatchError, ModePolynomial, fock_amplitudes
from twocopy.states import (
    COMPOSITE_MODES,
    MAX_FACTORIZED_TOTAL,
    MAX_PARTICLES,
    CompositeState,
    DegenerateComponentError,
    admix,
    bec_pair,
    bec_state,
    noon_pair,
    noon_state,
    sector_basis,
    two_copy,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
MEMBER = bec_pair(1).entries[0][1]


class TestBecState:
    def test_single_particle(self):
        amps = fock_amplitudes(bec_state(1))
        assert amps[(1, 0)] == pytest.approx(INV_SQRT2)
        assert amps[(0, 1)] == pytest.approx(INV_SQRT2)

    def test_two_particles(self):
        amps = fock_amplitudes(bec_state(2))
        assert amps[(0, 2)] == pytest.approx(0.5)
        assert amps[(1, 1)] == pytest.approx(INV_SQRT2)
        assert amps[(2, 0)] == pytest.approx(0.5)

    def test_vacuum(self):
        assert fock_amplitudes(bec_state(0)) == {(0, 0): pytest.approx(1.0)}

    @pytest.mark.parametrize("n", range(7))
    def test_normalized_with_real_amplitudes(self, n):
        state = bec_state(n)
        assert state.is_normalized()
        for amp in fock_amplitudes(state).values():
            assert amp.imag == 0.0
            assert amp.real >= 0.0

    def test_particle_bound(self):
        # without the bound, math.sqrt of a factorial overflows from n = 171 on
        assert bec_state(MAX_PARTICLES).is_normalized()
        for n in (MAX_PARTICLES + 1, 200, -1):
            with pytest.raises(ValueError, match=f"n={n} must lie in .*MAX_PARTICLES"):
                bec_state(n)


class TestNoonState:
    def test_two_zero(self):
        amps = fock_amplitudes(noon_state(2, 0))
        assert amps == {(2, 0): pytest.approx(INV_SQRT2),
                        (0, 2): pytest.approx(INV_SQRT2)}

    def test_coincides_with_single_particle_condensate(self):
        assert noon_state(1, 0) == bec_state(1)

    def test_degenerate_components_rejected(self):
        with pytest.raises(DegenerateComponentError):
            noon_state(2, 1)

    def test_exactly_two_components(self):
        amps = fock_amplitudes(noon_state(5, 1))
        assert len(amps) == 2
        for amp in amps.values():
            assert abs(amp) == pytest.approx(INV_SQRT2)

    @pytest.mark.parametrize("n, m", [(3, 5), (3, -1), (1, 2)])
    def test_second_occupation_within_n(self, n, m):
        with pytest.raises(ValueError, match=f"0 <= m <= n, got n={n} and m={m}"):
            noon_state(n, m)

    def test_second_occupation_may_equal_n(self):
        amps = fock_amplitudes(noon_state(3, 3))
        assert amps == fock_amplitudes(noon_state(3, 0))

    def test_particle_bound(self):
        assert noon_state(MAX_PARTICLES, 3).is_normalized()
        for n in (MAX_PARTICLES + 1, 200):
            with pytest.raises(ValueError, match=f"n={n} must lie in .*MAX_PARTICLES"):
                noon_state(n, 3)


class TestTwoCopy:
    def test_single_particle_pair(self):
        composite = bec_pair(1)
        assert composite.n1 == 1 and composite.n2 == 1
        amps = fock_amplitudes(composite.entries[0][1])
        assert len(amps) == 4
        for amp in amps.values():
            assert amp == pytest.approx(0.5)

    def test_unequal_particle_numbers(self):
        composite = bec_pair(1, 2)
        assert (composite.n1, composite.n2) == (1, 2)
        member = composite.entries[0][1]
        assert len(member.terms) == 6
        # |10>(x)|11> carries amplitude (1/sqrt2)(1/sqrt2) = 1/2
        assert fock_amplitudes(member)[(1, 0, 1, 1)] == pytest.approx(0.5)

    def test_noon_pair(self):
        composite = noon_pair(2, 0)
        amps = fock_amplitudes(composite.entries[0][1])
        assert len(amps) == 4
        assert amps[(2, 0, 0, 2)] == pytest.approx(0.5)

    def test_sector_invariant_enforced(self):
        good = bec_pair(1).entries[0][1]
        with pytest.raises(ValueError):
            CompositeState(((1.0, good),), n1=2, n2=1)

    def test_requires_normalization(self):
        from twocopy.fock import ModePolynomial
        lopsided = ModePolynomial(("a", "b"), {(1, 0): 2.0})
        ok = bec_state(1, ("A", "B"))
        with pytest.raises(ValueError):
            two_copy(lopsided, ok)


class TestNoiseEnsembles:
    def test_sector_dimension_counts(self):
        assert len(admix(bec_pair(1), 0.0, "sector").entries) == 4
        assert len(admix(bec_pair(0), 0.0, "sector").entries) == 1
        assert len(admix(bec_pair(1, 2), 0.0, "sector").entries) == 6

    def test_sector_weights_uniform(self):
        noise = admix(bec_pair(1, 2), 0.0, "sector")
        for w, _ in noise.entries:
            assert w == pytest.approx(1.0 / 6.0)

    def test_factorized_dimension(self):
        # outcome space per party for two particles has 6 states
        assert len(admix(bec_pair(1), 0.0, "factorized").entries) == 36

    def test_members_are_basis_states(self):
        for _, member in admix(bec_pair(2, 1), 0.0, "sector").entries:
            amps = fock_amplitudes(member)
            assert len(amps) == 1
            assert next(iter(amps.values())) == pytest.approx(1.0)

    def test_sector_basis_order_deterministic(self):
        first = [s.terms for s in sector_basis(2, 2)]
        second = [s.terms for s in sector_basis(2, 2)]
        assert first == second


class TestAdmix:
    def test_pure_limit(self):
        state = bec_pair(1)
        mixed = admix(state, 1.0)
        assert mixed.entries == state.entries

    def test_noise_limit(self):
        mixed = admix(bec_pair(1), 0.0)
        assert len(mixed.entries) == 4
        for w, _ in mixed.entries:
            assert w == pytest.approx(0.25)

    def test_half_mixture_sector(self):
        mixed = admix(bec_pair(1), 0.5, noise="sector")
        weights = sorted(w for w, _ in mixed.entries)
        assert weights == pytest.approx([0.125] * 4 + [0.5])
        assert mixed.sector_pure

    def test_half_mixture_factorized(self):
        mixed = admix(bec_pair(1), 0.5, noise="factorized")
        assert len(mixed.entries) == 37
        assert not mixed.sector_pure
        assert sum(w for w, _ in mixed.entries) == pytest.approx(1.0)

    def test_probability_range_checked(self):
        with pytest.raises(ValueError):
            admix(bec_pair(1), 1.5)

    def test_factorized_noise_bound(self):
        # rejected before any of the noise members is built
        n1 = MAX_FACTORIZED_TOTAL // 2
        state = bec_pair(n1, MAX_FACTORIZED_TOTAL - n1 + 1)
        with pytest.raises(ValueError, match=f"n1 \\+ n2 <= {MAX_FACTORIZED_TOTAL}"):
            admix(state, 0.5, noise="factorized")


class TestEnsembleValidation:
    @pytest.mark.parametrize("entries,error,message", [
        ((), ValueError, "at least one entry"),
        (((1.5, MEMBER), (-0.5, MEMBER)), ValueError, "nonnegative"),
        (((0.5, MEMBER),), ValueError, "sum to 0.5"),
        (((1.0, ModePolynomial(COMPOSITE_MODES, {(1, 0, 1, 0): 2.0})),),
         ValueError, "normalized"),
        (((0.5, MEMBER), (0.5, bec_state(1))), ModeMismatchError, "modes"),
    ], ids=["empty", "negative-weight", "weights-not-summing-to-one",
            "unnormalized-member", "wrong-modes"])
    def test_rejects_invalid_mixture(self, entries, error, message):
        with pytest.raises(error, match=message):
            CompositeState(entries, n1=1, n2=1)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match=f"mixture weight {weight} is not finite"):
            CompositeState(((weight, MEMBER),), n1=1, n2=1)
        with pytest.raises(ValueError, match=f"mixture weight {weight} is not finite"):
            CompositeState(((1.0, MEMBER), (weight, MEMBER)), n1=1, n2=1)

    def test_rejects_non_finite_member_at_negligible_weight(self):
        # members of weight <= WEIGHT_TOL skip the normalization check, so
        # a NaN amplitude must be caught when the member is built
        with pytest.raises(ValueError, match="is not finite"):
            CompositeState(((1.0 - 1e-13, MEMBER),
                            (1e-13, ModePolynomial(COMPOSITE_MODES, {(1, 0, 1, 0): math.nan}))),
                           n1=1, n2=1)

    def test_particle_bound(self):
        assert bec_pair(MAX_PARTICLES, 0).n1 == MAX_PARTICLES
        assert noon_pair(MAX_PARTICLES, 1).n2 == MAX_PARTICLES
        with pytest.raises(ValueError, match=f"n2={MAX_PARTICLES + 1} must lie in"):
            bec_pair(1, MAX_PARTICLES + 1)
        with pytest.raises(ValueError, match="n1=-1 must lie in"):
            CompositeState(((1.0, MEMBER),), n1=-1, n2=1, sector_pure=False)
