"""Core algebra tests: constructors, tensor products, and one party's
beam-splitter substitution of creation operators (``measurement._party_image``).

The substitution is held to an independent route in tests/test_measurement.py,
where the distribution it gives meets the dense matrix-exponential route of
tests/oracle.py.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twocopy.fock import (
    ModeCollisionError,
    ModeMismatchError,
    ModePolynomial,
    fock_amplitudes,
    from_fock_amplitudes,
    inner,
    monomial_state,
    tensor,
)
from twocopy.measurement import BeamSplitterSetting, _party_image

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def bits(mapping):
    return [(e, c.real.hex(), c.imag.hex()) for e, c in mapping.items()]


def party_image(state, setting):
    """A state on (a, A) sent through the splitter, on the outputs (c, C)."""
    terms = {}
    for (p, q), coef in state.terms.items():
        for expo, c in _party_image(p, q, setting).items():
            terms[expo] = terms.get(expo, 0.0) + coef * c
    return ModePolynomial(("c", "C"), terms)


class TestMonomialState:
    def test_vacuum(self):
        vac = monomial_state({"a": 0, "A": 0})
        assert vac.terms == {(0, 0): 1.0 + 0.0j}

    def test_single_particle(self):
        s = monomial_state({"a": 1})
        assert s.terms == {(1,): 1.0 + 0.0j}
        # a mode the occupations omit is empty
        assert monomial_state({"a": 1}, modes=("a", "b")).terms == {(1, 0): 1.0 + 0.0j}
        # the norm is within a tolerance of 0, inclusive; 1.5 is no norm squared
        assert s.is_normalized(0.0)
        assert not ModePolynomial(("a",), {(1,): 1.5 ** 0.5}).is_normalized()
        # a finite coefficient is accepted though its modulus overflows
        assert not ModePolynomial(("a",), {(1,): complex(1.5e308, 1.5e308)}).is_normalized()

    def test_factorial_normalization(self):
        # (a†)^2 |0> = sqrt(2) |2>, so the coefficient read back is 1/sqrt(2)
        s = monomial_state({"a": 2})
        assert s.terms.get((2,)) == pytest.approx(INV_SQRT2)
        assert s.terms.get((1,)) is None
        assert fock_amplitudes(s)[(2,)] == 1.0
        # sqrt(170!) is the last such factor within the float range
        assert ModePolynomial(("a",), {(170,): 1.0}).terms == {(170,): 1.0}

    def test_single_unit_amplitude(self):
        # exactly 1, with no round trip through sqrt(n!), up to 32 in a mode
        occupations = [{"a": 3}, {"a": 2, "b": 1}, {"a": 0, "b": 4}]
        occupations += [{"a": n, "b": 32 - n} for n in range(33)]
        occupations += [{"a": n, "b": 1, "A": 32, "B": n} for n in range(33)]
        for occ in occupations:
            assert fock_amplitudes(monomial_state(occ)) == {tuple(occ.values()): 1.0}

    @pytest.mark.parametrize("occupations", [{"a": 1, "z": 3}, {"z": 0, "a": 1}])
    def test_mode_outside_modes_rejected(self, occupations):
        # not dropped with its particles
        message = "modes ['z'] of the occupations are not in ('a', 'b')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            monomial_state(occupations, modes=("a", "b"))

    @pytest.mark.parametrize("coefficient", [
        math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 0.0)])
    def test_non_finite_coefficient_rejected(self, coefficient):
        with pytest.raises(ValueError, match=r"coefficient .* of \(1, 0\) is not finite"):
            ModePolynomial(("a", "A"), {(0, 1): 0.5, (1, 0): coefficient})


NOT_COUNTS = [1.7, 2.0, np.float64(1.0), True, "1", None, -1, np.int64(-2)]


class TestIntegerCounts:
    """Occupations and exponents are counts: an int or numpy integer >= 0,
    never truncated, with the one message of ``fock._check_count``."""

    @staticmethod
    def message(name, value):
        return f"^{re.escape(f'{name}={value!r} must be an integer >= 0')}$"

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_monomial_state_rejects(self, value):
        with pytest.raises(ValueError, match=self.message("occupation", value)):
            monomial_state({"a": value, "b": 0})

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_from_fock_amplitudes_rejects(self, value):
        with pytest.raises(ValueError, match=self.message("occupation", value)):
            from_fock_amplitudes(("a", "b"), {(0, 1): INV_SQRT2, (value, 1): INV_SQRT2})

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_mode_polynomial_rejects(self, value):
        with pytest.raises(ValueError, match=self.message("exponent", value)):
            ModePolynomial(("a", "b"), {(1, 0): 0.5, (0, value): 0.5})

    def test_truncation_examples(self):
        with pytest.raises(ValueError, match=self.message("occupation", 1.7)):
            monomial_state({"a": 1.7, "b": 0})
        with pytest.raises(ValueError, match=self.message("exponent", 2.9)):
            ModePolynomial(("a",), {(2.9,): 1.0})

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_are_counts(self, integer):
        plain = monomial_state({"a": 2, "b": 1})
        state = monomial_state({"a": integer(2), "b": integer(1)})
        assert state == plain
        assert all(type(k) is int for expo in state.terms for k in expo)
        poly = ModePolynomial(("a", "b"), {(integer(2), integer(1)): 0.5})
        assert poly.terms == {(2, 1): 0.5}
        assert all(type(k) is int for expo in poly.terms for k in expo)


class TestTensor:
    def test_vacuum_times_vacuum(self):
        v1 = monomial_state({"a": 0, "b": 0})
        v2 = monomial_state({"A": 0, "B": 0})
        out = tensor(v1, v2)
        assert out.modes == ("a", "b", "A", "B")
        assert out.terms == {(0, 0, 0, 0): 1.0 + 0.0j}

    def test_single_particles(self):
        out = tensor(monomial_state({"a": 1, "b": 0}), monomial_state({"A": 0, "B": 1}))
        assert out.terms == {(1, 0, 0, 1): 1.0 + 0.0j}

    def test_two_copy_amplitudes(self):
        # ((|10>+|01>)/sqrt2)^(x)2 has four components of amplitude 1/2
        plus = from_fock_amplitudes(("a", "b"), {(1, 0): INV_SQRT2, (0, 1): INV_SQRT2})
        plus2 = from_fock_amplitudes(("A", "B"), {(1, 0): INV_SQRT2, (0, 1): INV_SQRT2})
        amps = fock_amplitudes(tensor(plus, plus2))
        assert len(amps) == 4
        for value in amps.values():
            assert value == pytest.approx(0.5)

    def test_label_collision(self):
        with pytest.raises(ModeCollisionError):
            tensor(monomial_state({"a": 1}), monomial_state({"a": 1}))


class TestCheckedOnce:
    """Each constructor makes every check of the public ModePolynomial once,
    with its messages, and each state's Fock amplitudes are set once, when
    it is built."""

    @pytest.mark.parametrize("modes, amplitudes, error, message", [
        (("a", "b"), {(1, 0, 0): 1.0}, ValueError,
         "exponent tuple (1, 0, 0) does not match modes ('a', 'b')"),
        (("a", "b"), {(0, 1): 0.5, (1,): 1.0}, ValueError,
         "exponent tuple (1,) does not match modes ('a', 'b')"),
        (("a", "a"), {(1, 0): 1.0}, ModeCollisionError, "duplicate mode labels in ('a', 'a')"),
        (["a", "b", "a"], {(1, 0): 1.0}, ModeCollisionError,
         "duplicate mode labels in ('a', 'b', 'a')"),
        # the amplitude as given is the value checked
        (("a", "b"), {(1, 0): 0.6, (0, 1): math.nan}, ValueError,
         "amplitude (nan+0j) of (0, 1) is not finite"),
        (("a", "b"), {(2, 0): complex(0.0, -math.inf)}, ValueError,
         "amplitude -infj of (2, 0) is not finite"),
        # the modes are checked before the terms, and the terms in order
        (("a", "a"), {(1, 0): 1.0, (0, -1): 1.0}, ModeCollisionError,
         "duplicate mode labels in ('a', 'a')"),
        (("a", "a"), {(1, 0, 0): 1.0}, ModeCollisionError, "duplicate mode labels in ('a', 'a')"),
        (("a", "b"), {(1, 0): math.inf, (1, 0, 0): 1.0}, ValueError,
         "amplitude (inf+0j) of (1, 0) is not finite"),
        (("a", "b"), {(1, 0, 0): math.inf, (1, 0): 1.0}, ValueError,
         "exponent tuple (1, 0, 0) does not match modes ('a', 'b')"),
    ])
    def test_from_fock_amplitudes_rejects_as_the_public_constructor(
            self, modes, amplitudes, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            from_fock_amplitudes(modes, amplitudes)
        # the same message from the public constructor, which names a
        # non-finite value a coefficient
        message = message.replace("amplitude", "coefficient")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ModePolynomial(modes, amplitudes)

    def test_amplitude_that_is_no_number_raises_before_a_later_occupation(self):
        with pytest.raises(TypeError):
            from_fock_amplitudes(("a", "b"), {(1, 0): None, (0, -1): 1.0})

    def test_exact_zeros_dropped(self):
        state = from_fock_amplitudes(("a", "b"), {(1, 0): 0.0, (0, 1): 1.0, (1, 1): -0.0j})
        assert state.terms == {(0, 1): 1.0}
        assert fock_amplitudes(state) == {(0, 1): 1.0}

    def test_matches_the_public_constructor_bit_for_bit(self):
        # from_fock_amplitudes keeps the amplitudes as given, and
        # ModePolynomial keeps each coefficient times prod sqrt(n!), as one
        # product; the two give one state when their inputs agree so
        rng = np.random.default_rng(7)
        for _ in range(50):
            occupations = [tuple(int(v) for v in rng.integers(0, 12, 3)) for _ in range(6)]
            values = dict(zip(occupations, rng.normal(size=6) + 1j * rng.normal(size=6)))
            scaled = {occ: complex(c) * math.prod(math.sqrt(math.factorial(n)) for n in occ)
                      for occ, c in values.items()}
            got = from_fock_amplitudes(("a", "b", "c"), scaled)
            want = ModePolynomial(("a", "b", "c"), values)
            assert bits(fock_amplitudes(got)) == bits(fock_amplitudes(want)) == bits(scaled)
            assert got == want and hash(got) == hash(want)
            assert bits(fock_amplitudes(from_fock_amplitudes(("a", "b", "c"), values))) == \
                bits({occ: complex(c) for occ, c in values.items()})

    def test_tensor_raises_on_an_overflowing_product(self):
        p = ModePolynomial(("a", "b"), {(1, 0): 1e-300, (0, 1): 1e200})
        q = ModePolynomial(("A", "B"), {(0, 1): 1.0, (1, 0): 1e200})
        with pytest.raises(ValueError,
                           match=re.escape("amplitude (inf+0j) of (0, 1, 1, 0) is not finite")):
            tensor(p, q)

    def test_tensor_drops_an_underflowing_product(self):
        p = ModePolynomial(("a", "b"), {(1, 0): 1e-200, (0, 1): 1.0})
        q = ModePolynomial(("A", "B"), {(0, 1): 1e-200})
        out = tensor(p, q)
        assert out.terms == {(0, 1, 0, 1): 1e-200 + 0.0j}
        assert out == ModePolynomial(out.modes, {(1, 0, 0, 1): 0.0, (0, 1, 0, 1): 1e-200})

    def test_amplitudes_are_computed_once_and_handed_out_as_copies(self):
        state = from_fock_amplitudes(("a", "b"), {(2, 0): 0.6, (0, 2): 0.8j})
        kept = state._amps
        assert kept == {(2, 0): 0.6, (0, 2): 0.8j}
        state.norm_squared(), hash(state), state.terms
        assert state._amps is kept
        copy = fock_amplitudes(state)
        assert copy == kept and copy is not kept
        copy[(2, 0)] = 5.0
        del copy[(0, 2)]
        twin = from_fock_amplitudes(("a", "b"), {(2, 0): 0.6, (0, 2): 0.8j})
        assert fock_amplitudes(state) == kept == fock_amplitudes(twin)
        assert state.norm_squared() == twin.norm_squared()
        assert inner(state, twin) == inner(twin, twin)

    def test_terms_are_read_only(self):
        # by either constructor: a write to the view would change nothing,
        # so it must fail loudly
        for state in (ModePolynomial(("a", "b"), {(0, 1): 0.5}),
                      tensor(monomial_state({"a": 1}), monomial_state({"b": 0}))):
            amplitudes, key = fock_amplitudes(state), hash(state)
            with pytest.raises(TypeError):
                state.terms[(0, 1)] = 1.0
            assert fock_amplitudes(state) == amplitudes and hash(state) == key


class TestSubstitute:
    def test_single_particle_balanced_split(self):
        out = party_image(monomial_state({"a": 1, "A": 0}), BeamSplitterSetting.balanced(0.0))
        assert out.terms.get((1, 0)) == pytest.approx(INV_SQRT2)
        assert out.terms.get((0, 1)) == pytest.approx(INV_SQRT2)

    def test_identity_map(self):
        # alpha = 1 at phase pi sends a† -> c† and A† -> C†
        state = from_fock_amplitudes(("a", "A"), {(2, 0): 0.6, (1, 1): 0.8})
        out = party_image(state, BeamSplitterSetting(1.0, 0.0, math.pi))
        assert out.terms == pytest.approx(state.terms)


class TestInner:
    def test_vacuum_norm(self):
        vac = monomial_state({"a": 0, "b": 0})
        assert inner(vac, vac) == pytest.approx(1.0)

    def test_orthogonality(self):
        s1 = monomial_state({"a": 1, "b": 0})
        s2 = monomial_state({"a": 0, "b": 1})
        assert inner(s1, s2) == 0.0

    def test_binomial_state_normalized(self):
        # two bosons split symmetrically: (|02> + sqrt2 |11> + |20>)/2
        s = from_fock_amplitudes(("a", "b"), {(0, 2): 0.5, (1, 1): INV_SQRT2, (2, 0): 0.5})
        assert inner(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_symmetry(self):
        p = from_fock_amplitudes(("a", "b"), {(1, 0): 0.6, (0, 1): 0.8j})
        q = from_fock_amplitudes(("a", "b"), {(1, 0): 0.28j, (0, 1): -0.96})
        assert inner(p, q) == pytest.approx(inner(q, p).conjugate())

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            inner(monomial_state({"a": 1}), monomial_state({"b": 1}))


class TestRoundTrips:
    def test_fock_amplitude_round_trip(self):
        amps = {(2, 1): 0.3 - 0.1j, (0, 3): 0.5j, (1, 2): -0.2}
        state = from_fock_amplitudes(("a", "b"), amps)
        assert fock_amplitudes(state) == amps

    def test_scales_are_products_of_square_rooted_factorials(self):
        # the defining formula, evaluated directly, to the last bit, both ways
        rng = np.random.default_rng(5)
        occupations = [tuple(int(n) for n in rng.integers(0, 40, 4)) for _ in range(50)]
        amps = {occ: complex(*rng.normal(size=2)) for occ in occupations}
        state = from_fock_amplitudes(("a", "b", "A", "B"), amps)
        coefficients = ModePolynomial(("a", "b", "A", "B"), amps)
        assert bits(fock_amplitudes(state)) == bits(amps)
        for occ, amp in amps.items():
            scale = math.prod(math.sqrt(math.factorial(n)) for n in occ)
            assert state.terms[occ] == amp / scale
            assert fock_amplitudes(coefficients)[occ] == amp * scale
            assert coefficients.terms[occ] == amp * scale / scale


# -- property tests ---------------------------------------------------------

coeffs = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def two_mode_states(draw, max_total=4):
    support = draw(st.lists(
        st.tuples(st.integers(0, max_total), st.integers(0, max_total)),
        min_size=1, max_size=5, unique=True))
    support = [occ for occ in support if sum(occ) <= max_total] or [(0, 0)]
    terms = {occ: draw(coeffs) for occ in support}
    if all(c == 0 for c in terms.values()):
        terms[support[0]] = 1.0
    return ModePolynomial(("a", "A"), terms)


@given(two_mode_states(), two_mode_states())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_tensor_norm_multiplies(p, q):
    q_relabel = ModePolynomial(("b", "B"), dict(q.terms))
    product = tensor(p, q_relabel)
    lhs = inner(product, product)
    rhs = inner(p, p) * inner(q_relabel, q_relabel)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
