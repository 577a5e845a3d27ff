"""State constructors, composites, noise mixtures, and the count check
every count input of the library goes through."""
import copy
import math
import re

import numpy as np
import pytest

from twocopy import fock, inequalities, measurement, search
from twocopy.fock import ModeCollisionError, ModeMismatchError, ModePolynomial, fock_amplitudes
from twocopy.states import (
    COMPOSITE_MODES,
    MAX_FACTORIZED_TOTAL,
    MAX_PARTICLES,
    WEIGHT_TOL,
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
        # every n up to the bound gives the formula's amplitudes bit for bit
        for n in range(MAX_PARTICLES + 1):
            assert bits(fock_amplitudes(bec_state(n))) == bits(bec_amplitudes(n))
        assert bec_state(MAX_PARTICLES).is_normalized()
        for n in (MAX_PARTICLES + 1, 200, -1):
            with pytest.raises(ValueError,
                               match=rf"n={n} must be an integer in \[0, {MAX_PARTICLES}\]"):
                bec_state(n)


class TestNoonState:
    def test_two_zero(self):
        amps = fock_amplitudes(noon_state(2))  # m defaults to 0
        assert amps == {(2, 0): pytest.approx(INV_SQRT2),
                        (0, 2): pytest.approx(INV_SQRT2)}

    def test_coincides_with_single_particle_condensate(self):
        assert noon_state(1, 0) == bec_state(1)

    def test_degenerate_components_rejected(self):
        with pytest.raises(DegenerateComponentError):
            noon_state(2, 1)

    def test_exactly_two_components(self):
        # each exactly 1/sqrt(2), for every n and m up to the bound
        for n in range(1, MAX_PARTICLES + 1):
            for m in range(n + 1):
                if 2 * m != n:
                    assert fock_amplitudes(noon_state(n, m)) == {(n - m, m): INV_SQRT2,
                                                                 (m, n - m): INV_SQRT2}

    @pytest.mark.parametrize("n, m", [(3, 5), (1, 2)])
    def test_second_occupation_within_n(self, n, m):
        with pytest.raises(ValueError, match=rf"m={m} must be an integer in \[0, {n}\]"):
            noon_state(n, m)

    def test_second_occupation_may_equal_n(self):
        amps = fock_amplitudes(noon_state(3, 3))
        assert amps == fock_amplitudes(noon_state(3, 0))

    def test_particle_bound(self):
        assert noon_state(MAX_PARTICLES, 3).is_normalized()
        for n in (MAX_PARTICLES + 1, 200):
            with pytest.raises(ValueError,
                               match=rf"n={n} must be an integer in \[1, {MAX_PARTICLES}\]"):
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

    @pytest.mark.parametrize("s1, s2, error, message", [
        (bec_state(1, ("A", "B")), bec_state(1, ("A", "B")), ModeMismatchError,
         "first factor must use modes ('a', 'b')"),
        (bec_state(1), bec_state(1), ModeMismatchError,
         "second factor must use modes ('A', 'B')"),
        (bec_state(1), ModePolynomial(("A", "B"), {(1, 0): 0.6, (1, 1): 0.8}), ValueError,
         "each factor must have a fixed particle number"),
        # the zero vector has no particle number
        (bec_state(1), ModePolynomial(("A", "B"), {}), ValueError,
         "each factor must have a fixed particle number"),
    ], ids=["first-modes", "second-modes", "particle-number", "empty-factor"])
    def test_rejects_factors(self, s1, s2, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            two_copy(s1, s2)

    def test_requires_normalization(self):
        from twocopy.fock import ModePolynomial
        ok = bec_state(1, ("A", "B"))
        # the squared modulus of 1e200 is past the float range
        for coefficient in (2.0, 1e200):
            lopsided = ModePolynomial(("a", "b"), {(1, 0): coefficient})
            with pytest.raises(ValueError, match="^factors must be normalized$"):
                two_copy(lopsided, ok)


def bits(mapping):
    return [(e, c.real.hex(), c.imag.hex()) for e, c in mapping.items()]


def bec_amplitudes(n):
    return {(k, n - k): math.sqrt(math.comb(n, k)) / 2 ** (n / 2) for k in range(n + 1)}


def noon_amplitudes(n, m):
    return {(n - m, m): 1.0 / math.sqrt(2.0), (m, n - m): 1.0 / math.sqrt(2.0)}


def formula_pair(amplitudes1, amplitudes2, n1, n2):
    """The two-copy state of two factors' formula amplitudes through the
    public constructors, each product amplitude one product of two values."""
    product = {e1 + e2: a1 * a2 for e1, a1 in amplitudes1.items()
               for e2, a2 in amplitudes2.items()}
    return CompositeState(((1.0, fock.from_fock_amplitudes(COMPOSITE_MODES, product)),), n1, n2)


def assert_same_bits(got, want):
    """Equal states, hashing alike, with the same amplitudes bit for bit."""
    assert got == want and hash(got) == hash(want)
    assert bits(fock_amplitudes(got.entries[0][1])) == bits(fock_amplitudes(want.entries[0][1]))


class TestTrustedConstruction:
    """The state constructors build through the public checked ones, keep
    the amplitudes of their defining formulas bit for bit, and make each
    check once."""

    @pytest.mark.parametrize("n1", range(9))
    def test_bec_pairs_match_the_checked_route(self, n1):
        for n2 in range(9):
            assert_same_bits(bec_pair(n1, n2),
                             formula_pair(bec_amplitudes(n1), bec_amplitudes(n2), n1, n2))

    def test_noon_pairs_match_the_checked_route(self):
        for n in range(1, 9):
            for m in range(n + 1):
                if 2 * m == n:
                    continue
                assert_same_bits(noon_pair(n, m), formula_pair(
                    noon_amplitudes(n, m), noon_amplitudes(n, m), n, n))

    def test_sector_bases_match_the_checked_route(self):
        for n1 in range(9):
            for n2 in range(9):
                for state in sector_basis(n1, n2):
                    (occupation,) = state.terms
                    assert fock_amplitudes(state) == {occupation: 1.0}
                    assert sum(occupation[:2]) == n1 and sum(occupation[2:]) == n2

    def test_effective_bases_match_the_checked_route(self):
        setting = measurement.BeamSplitterSetting.from_alpha(0.37, 1.3)
        for n_total in range(0, measurement.MAX_BASIS_TOTAL + 1, 4):
            blocks = measurement._transfer_blocks(setting.alpha, setting.beta, n_total)
            phases = np.exp(-1j * setting.phase * np.arange(n_total + 1))
            for vector in measurement.effective_basis(n_total, setting):
                n, m = vector.outcome
                k = n + m
                want = {(p, k - p): complex(blocks[k][n, p] * phases[k - p])
                        for p in range(k + 1)}
                assert bits(fock_amplitudes(vector.vector)) == bits(
                    {e: a for e, a in want.items() if a != 0})

    def test_pairs_run_each_check_once(self, monkeypatch):
        # the factors' amplitudes, the product's and the composite's are
        # each checked once, and no state goes through its coefficients
        def refuse(self, *args, **kwargs):
            raise AssertionError("a state was built from coefficients")

        monkeypatch.setattr(ModePolynomial, "__init__", refuse)
        checked, composites = [], []
        original, init = fock._checked_amplitudes, CompositeState.__init__
        monkeypatch.setattr(fock, "_checked_amplitudes",
                            lambda *args: checked.append(args) or original(*args))
        monkeypatch.setattr(CompositeState, "__init__",
                            lambda self, *args: composites.append(args) or init(self, *args))
        bec_pair(3, 2)
        noon_pair(3, 1)
        assert [len(args[1]) for args in checked] == [4, 3, 12, 2, 2, 4]
        assert [args[1:] for args in composites] == [(3, 2), (3, 3)]

    def test_factor_modes_checked_as_before(self):
        with pytest.raises(ModeCollisionError, match=re.escape("duplicate mode labels in ('a', 'a')")):
            bec_state(2, ("a", "a"))
        with pytest.raises(ValueError, match=re.escape(
                "exponent tuple (2, 1) does not match modes ('a', 'b', 'c')")):
            noon_state(3, 1, ("a", "b", "c"))

    def test_factor_beyond_max_particles_rejected(self):
        big = fock.from_fock_amplitudes(("a", "b"), {(MAX_PARTICLES + 1, 0): 1.0})
        with pytest.raises(ValueError, match=re.escape(
                f"n1={MAX_PARTICLES + 1} must be an integer in [0, {MAX_PARTICLES}]")):
            two_copy(big, bec_state(1, ("A", "B")))

    def test_product_of_nearly_normalized_factors_rejected(self):
        # each factor is off by 0.9e-10, inside the factors' 1e-10; the
        # product is off by 1.8e-10
        scale = math.sqrt(1.0 + 0.9e-10)
        s1 = fock.from_fock_amplitudes(("a", "b"), {(1, 0): scale})
        s2 = fock.from_fock_amplitudes(("A", "B"), {(0, 2): scale})
        assert s1.is_normalized(1e-10) and s2.is_normalized(1e-10)
        with pytest.raises(ValueError, match="^mixture members must be normalized$"):
            two_copy(s1, s2)

    def test_mutating_handed_out_amplitudes_changes_no_profile(self):
        state = bec_pair(2, 1)
        member = state.entries[0][1]
        copy = fock_amplitudes(member)
        for occupation in copy:
            copy[occupation] = 0.0
        copy[(9, 9, 9, 9)] = 1.0
        q = inequalities.AngleQuad(0.3, 1.1, 2.0, 0.4)
        inequalities._profile.cache_clear()
        got = inequalities.correlation_vector(state, q, 0.6, 0.7)
        inequalities._profile.cache_clear()
        want = inequalities.correlation_vector(bec_pair(2, 1), q, 0.6, 0.7)
        inequalities._profile.cache_clear()
        assert got == want
        assert fock_amplitudes(member) == fock_amplitudes(bec_pair(2, 1).entries[0][1])


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
        assert admix(state, 1.0, noise="factorized").sector_pure

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

    def test_unknown_noise_model(self):
        with pytest.raises(ValueError, match="^unknown noise model 'thermal'$"):
            admix(bec_pair(1), 0.5, noise="thermal")

    def test_factorized_noise_bound(self):
        # rejected before any of the noise members is built
        n1 = MAX_FACTORIZED_TOTAL // 2
        state = bec_pair(n1, MAX_FACTORIZED_TOTAL - n1 + 1)
        with pytest.raises(ValueError, match=f"n1 \\+ n2 <= {MAX_FACTORIZED_TOTAL}"):
            admix(state, 0.5, noise="factorized")
        # at the bound: the state and ((N+1)(N+2)/2)^2 noise members
        state = bec_pair(n1, MAX_FACTORIZED_TOTAL - n1)
        assert len(admix(state, 0.5, noise="factorized").entries) == 153 ** 2 + 1


class TestEnsembleValidation:
    @pytest.mark.parametrize("entries,error,message", [
        ((), ValueError, "at least one entry"),
        (((1.5, MEMBER), (-0.5, MEMBER)), ValueError, "nonnegative"),
        (((0.5, MEMBER),), ValueError, "sum to 0.5"),
        (((1.0, ModePolynomial(COMPOSITE_MODES, {(1, 0, 1, 0): 2.0})),),
         ValueError, "normalized"),
        (((1.0, ModePolynomial(COMPOSITE_MODES, {(1, 0, 1, 0): 1e200})),),
         ValueError, "^mixture members must be normalized$"),
        (((0.5, MEMBER), (0.5, bec_state(1))), ModeMismatchError, "modes"),
        # a member is checked whatever its weight: unchecked, these two would
        # read steering 5.61 at a bec1 quad and NaN correlations
        (((1.0 - 1e-12, MEMBER), (1e-12, ModePolynomial(COMPOSITE_MODES, {(1, 0, 1, 0): 1e6}))),
         ValueError, "^mixture members must be normalized$"),
        (((1.0 - 1e-13, bec_pair(2).entries[0][1]),
          (1e-13, fock.from_fock_amplitudes(COMPOSITE_MODES, {(0, 2, 2, 0): 1e200,
                                                              (1, 1, 0, 2): 1e200}))),
         ValueError, "^mixture members must be normalized$"),
    ], ids=["empty", "negative-weight", "weights-not-summing-to-one",
            "unnormalized-member", "overflowing-member", "wrong-modes",
            "loose-member-at-weight-tol", "overflowing-member-at-negligible-weight"])
    def test_rejects_invalid_mixture(self, entries, error, message):
        # with sector_pure=False no row is refused for its sector, though
        # the last one's members lie in sector (2, 2)
        with pytest.raises(error, match=message):
            CompositeState(entries, n1=1, n2=1, sector_pure=False)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match=f"mixture weight {weight} is not finite"):
            CompositeState(((weight, MEMBER),), n1=1, n2=1)
        with pytest.raises(ValueError, match=f"mixture weight {weight} is not finite"):
            CompositeState(((1.0, MEMBER), (weight, MEMBER)), n1=1, n2=1)

    def test_rejects_non_finite_member_at_negligible_weight(self):
        # a NaN amplitude is caught when the member is built
        with pytest.raises(ValueError, match="is not finite"):
            CompositeState(((1.0 - 1e-13, MEMBER),
                            (1e-13, ModePolynomial(COMPOSITE_MODES, {(1, 0, 1, 0): math.nan}))),
                           n1=1, n2=1)
        # and an unnormalized member is refused at weight WEIGHT_TOL, as at any weight
        loose = ModePolynomial(COMPOSITE_MODES, {(1, 0, 1, 0): 2.0})
        with pytest.raises(ValueError, match="^mixture members must be normalized$"):
            CompositeState(((1.0 - WEIGHT_TOL, MEMBER), (WEIGHT_TOL, loose)), n1=1, n2=1)

    def test_particle_bound(self):
        assert bec_pair(MAX_PARTICLES, 0).n1 == MAX_PARTICLES
        assert noon_pair(MAX_PARTICLES, 1).n2 == MAX_PARTICLES
        with pytest.raises(ValueError, match=rf"n2={MAX_PARTICLES + 1} must be an "
                                             rf"integer in \[0, {MAX_PARTICLES}\]"):
            bec_pair(1, MAX_PARTICLES + 1)
        with pytest.raises(ValueError,
                           match=rf"n1=-1 must be an integer in \[0, {MAX_PARTICLES}\]"):
            CompositeState(((1.0, MEMBER),), n1=-1, n2=1, sector_pure=False)


class TestListEntries:
    """A state built from lists keeps its entries as a tuple of tuples, so it
    equals, hashes like and evaluates as the state built from tuples."""

    STATES = [bec_pair(1), bec_pair(2, 1), noon_pair(3, 1), admix(bec_pair(1), 0.7),
              admix(bec_pair(1, 2), 0.4, "factorized")]

    @staticmethod
    def rebuilt(state, inner):
        return CompositeState([inner(entry) for entry in state.entries], n1=state.n1,
                              n2=state.n2, sector_pure=state.sector_pure)

    @pytest.mark.parametrize("inner", [tuple, list], ids=["tuple-entries", "list-entries"])
    @pytest.mark.parametrize("index", range(len(STATES)))
    def test_equal_and_hash_alike(self, index, inner):
        state = self.STATES[index]
        rebuilt = self.rebuilt(state, inner)
        assert type(rebuilt.entries) is tuple
        assert all(type(entry) is tuple for entry in rebuilt.entries)
        assert rebuilt == state and hash(rebuilt) == hash(state)

    @pytest.mark.parametrize("index", range(len(STATES)))
    def test_results_bit_identical(self, index):
        state = self.STATES[index]
        q = inequalities.AngleQuad(0.3, 1.9, 0.0, 2.4)

        def results(s):
            # each state gets its own cold profile
            inequalities._profile.cache_clear()
            vector = inequalities.correlation_vector(s, q, 0.6, 0.7)
            best = search.optimize("steering", s, restarts=8, seed=3)
            try:
                threshold = inequalities.visibility_threshold(s, "steering", best.argmax)
            except inequalities.NoViolationError as exc:
                threshold = str(exc)
            return repr((vector, best, threshold))

        assert results(self.rebuilt(state, list)) == results(state)



class TestHashKept:
    """A state keeps its hash from the first use, whether two_copy or
    admix built it; copies start without one and hash alike."""

    BUILDERS = {"trusted": lambda: bec_pair(2, 1),
                "init": lambda: admix(bec_pair(1, 2), 0.4, "factorized")}

    @pytest.mark.parametrize("built", BUILDERS)
    def test_computed_once(self, built, monkeypatch):
        state = self.BUILDERS[built]()
        fields, calls = CompositeState._fields, []

        def counted(record):
            calls.append(record)
            return fields(record)
        monkeypatch.setattr(CompositeState, "_fields", staticmethod(counted))
        assert state._hash_key is None
        assert hash(state) == hash(state) == hash(state) == hash(fields(state))
        assert calls == [state]

    @pytest.mark.parametrize("built", BUILDERS)
    def test_rebuilt_and_copied_hash_alike(self, built):
        state = self.BUILDERS[built]()
        key = hash(state)
        # copy takes the __reduce__ route through __init__, as pickle does
        for other in (TestListEntries.rebuilt(state, list), copy.copy(state)):
            assert other._hash_key is None
            assert other == state and hash(other) == key


SPLITTER = measurement.BeamSplitterSetting.balanced(0.0)
SCAN_FIXED = {"phi1": 0.0, "phi2": 1.0, "theta1": 2.0}


def loose_composite(**counts):
    """A composite of MEMBER whose n1 and n2 only label it."""
    return CompositeState(((1.0, MEMBER),), **{"n1": 1, "n2": 1, **counts},
                          sector_pure=False)


class TestCountValidation:
    # (parameter, low, high or None for no upper bound, a call that passes
    # the value as that parameter and is cheap for a valid value)
    ENTRIES = [
        pytest.param("n", 0, MAX_PARTICLES, bec_state, id="bec_state"),
        pytest.param("n1", 0, MAX_PARTICLES, lambda v: bec_pair(v, 1), id="bec_pair-n1"),
        pytest.param("n2", 0, MAX_PARTICLES, lambda v: bec_pair(1, v), id="bec_pair-n2"),
        pytest.param("n", 1, MAX_PARTICLES, noon_state, id="noon_state-n"),
        pytest.param("m", 0, 3, lambda v: noon_state(3, v), id="noon_state-m"),
        pytest.param("n", 1, MAX_PARTICLES, noon_pair, id="noon_pair-n"),
        pytest.param("m", 0, 3, lambda v: noon_pair(3, v), id="noon_pair-m"),
        pytest.param("n1", 0, MAX_PARTICLES, lambda v: loose_composite(n1=v),
                     id="CompositeState-n1"),
        pytest.param("n2", 0, MAX_PARTICLES, lambda v: loose_composite(n2=v),
                     id="CompositeState-n2"),
        pytest.param("n1", 0, MAX_PARTICLES, lambda v: sector_basis(v, 1), id="sector_basis-n1"),
        pytest.param("n2", 0, MAX_PARTICLES, lambda v: sector_basis(1, v), id="sector_basis-n2"),
        pytest.param("n_total", 0, None, measurement.outcome_count, id="outcome_count"),
        pytest.param("n_total", 0, None, measurement.local_outcomes, id="local_outcomes"),
        pytest.param("n_total", 0, measurement.MAX_BASIS_TOTAL,
                     lambda v: measurement.effective_basis(v, SPLITTER), id="effective_basis"),
        pytest.param("n_max", 0, 2 * MAX_PARTICLES,
                     lambda v: measurement.parity_blocks(SPLITTER, v).tolist(), id="parity_blocks"),
        pytest.param("n1", 0, MAX_PARTICLES,
                     lambda v: measurement.sector_trace_product(v, 1, SPLITTER, SPLITTER),
                     id="sector_trace_product-n1"),
        pytest.param("n2", 0, MAX_PARTICLES,
                     lambda v: measurement.sector_trace_product(1, v, SPLITTER, SPLITTER),
                     id="sector_trace_product-n2"),
        pytest.param("draws", 1, inequalities.MAX_DRAWS,
                     lambda v: inequalities.verify_closed_forms(draws=v),
                     id="verify_closed_forms-draws"),
        pytest.param("seed", 0, None,
                     lambda v: inequalities.verify_closed_forms(draws=1, seed=v),
                     id="verify_closed_forms-seed"),
        pytest.param("restarts", 1, search.MAX_RESTARTS,
                     lambda v: search.optimize("bell", bec_pair(1), restarts=v),
                     id="optimize-restarts"),
        pytest.param("seed", 0, None,
                     lambda v: search.optimize("bell", bec_pair(1), restarts=1, seed=v),
                     id="optimize-seed"),
        pytest.param("points", 8, search.MAX_POINTS,
                     lambda v: search.scan_1d(["bell"], bec_pair(1), SCAN_FIXED, points=v),
                     id="scan_1d-points"),
    ]

    @staticmethod
    def bad_values(low, high):
        values = [True, float(low), str(low), low - 1]
        return values if high is None else values + [high + 1]

    @pytest.mark.parametrize("name, low, high, call", ENTRIES)
    def test_rejects_non_integers_and_values_out_of_range(self, name, low, high, call):
        bound = f"in [{low}, {high}]" if high is not None else f">= {low}"
        for value in self.bad_values(low, high):
            message = f"{name}={value!r} must be an integer {bound}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(value)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("name, low, high, call", ENTRIES)
    def test_accepts_numpy_integers(self, name, low, high, call, integer):
        assert call(integer(low)) == call(low)
