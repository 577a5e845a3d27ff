"""Core algebra tests: constructors, tensor products, substitutions.

The substitution route is cross-checked against a brute-force permanent
computation of single-map transition amplitudes, which shares no code with
the polynomial engine.
"""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twocopy.fock import (
    LinearModeMap,
    ModeCollisionError,
    ModeMismatchError,
    ModePolynomial,
    NonUnitaryMapError,
    fock_amplitudes,
    from_fock_amplitudes,
    inner,
    monomial_state,
    substitute,
    tensor,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def balanced_map(phase=0.0, inputs=("a", "A"), outputs=("c", "C")):
    ph = np.exp(1j * phase)
    m = np.array([[INV_SQRT2, INV_SQRT2 * ph], [INV_SQRT2, -INV_SQRT2 * ph]])
    return LinearModeMap(inputs, outputs, m)


def unitary_2x2(theta, phi, psi):
    """Generic U(2) element (up to global phase)."""
    return np.array([
        [math.cos(theta) * np.exp(1j * phi), math.sin(theta) * np.exp(1j * psi)],
        [-math.sin(theta) * np.exp(-1j * psi), math.cos(theta) * np.exp(-1j * phi)],
    ])


def permanent(matrix):
    n = matrix.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= matrix[i, j]
        total += prod
    return total


def transition_amplitude(matrix, occ_in, occ_out):
    """<occ_out| U |occ_in> via the permanent of the repeated-index matrix."""
    rows = [i for i, n in enumerate(occ_out) for _ in range(n)]
    cols = [j for j, n in enumerate(occ_in) for _ in range(n)]
    if len(rows) != len(cols):
        return 0.0 + 0.0j
    sub = matrix[np.ix_(rows, cols)]
    norm = math.prod(math.factorial(n) for n in occ_in + occ_out)
    return permanent(sub) / math.sqrt(norm)


class TestMonomialState:
    def test_vacuum(self):
        vac = monomial_state({"a": 0, "A": 0})
        assert vac.terms == {(0, 0): 1.0 + 0.0j}

    def test_single_particle(self):
        s = monomial_state({"a": 1})
        assert s.terms == {(1,): 1.0 + 0.0j}

    def test_factorial_normalization(self):
        # (a†)^2 |0> = sqrt(2) |2>, so the stored coefficient is 1/sqrt(2)
        s = monomial_state({"a": 2})
        assert s.coefficient((2,)) == pytest.approx(INV_SQRT2)
        assert fock_amplitudes(s)[(2,)] == pytest.approx(1.0)

    def test_single_unit_amplitude(self):
        for occ in [{"a": 3}, {"a": 2, "b": 1}, {"a": 0, "b": 4}]:
            amps = fock_amplitudes(monomial_state(occ))
            assert len(amps) == 1
            assert next(iter(amps.values())) == pytest.approx(1.0)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            monomial_state({"a": -1})

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


class TestSubstitute:
    def test_single_particle_balanced_split(self):
        out = substitute(monomial_state({"a": 1, "A": 0}), balanced_map())
        assert out.coefficient((1, 0)) == pytest.approx(INV_SQRT2)
        assert out.coefficient((0, 1)) == pytest.approx(INV_SQRT2)

    def test_identity_map(self):
        state = from_fock_amplitudes(("a", "A"), {(2, 0): 0.6, (1, 1): 0.8})
        out = substitute(state, LinearModeMap(("a", "A"), ("a", "A"), np.eye(2)))
        assert out.terms == pytest.approx(state.terms)

    def test_missing_mode_rejected(self):
        with pytest.raises(ModeMismatchError):
            substitute(monomial_state({"x": 1}), balanced_map())

    def test_non_unitary_map_rejected(self):
        with pytest.raises(NonUnitaryMapError):
            LinearModeMap(("a", "A"), ("c", "C"), np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_nan_map_rejected(self):
        with pytest.raises(NonUnitaryMapError):
            LinearModeMap(("a", "A"), ("c", "C"), np.array([[math.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_permanent_oracle(self, seed):
        rng = np.random.default_rng(seed)
        matrix = unitary_2x2(*rng.uniform(0, 2 * math.pi, 3))
        mode_map = LinearModeMap(("a", "A"), ("c", "C"), matrix)
        for n_in in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)]:
            state = monomial_state({"a": n_in[0], "A": n_in[1]}, ("a", "A"))
            engine = fock_amplitudes(substitute(state, mode_map))
            total = sum(n_in)
            for n_out in [(k, total - k) for k in range(total + 1)]:
                expected = transition_amplitude(matrix, n_in, n_out)
                assert engine.get(n_out, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_four_mode_distribution_normalized(self):
        # both parties balanced, all phases zero: probabilities sum to one
        state = tensor(
            from_fock_amplitudes(("a", "b"), {(1, 0): INV_SQRT2, (0, 1): INV_SQRT2}),
            from_fock_amplitudes(("A", "B"), {(1, 0): INV_SQRT2, (0, 1): INV_SQRT2}),
        )
        # one balanced splitter on (a, A) -> (c, C), one on (b, B) -> (d, D)
        mapping = LinearModeMap(("a", "A", "b", "B"), ("c", "C", "d", "D"),
                                np.kron(np.eye(2), balanced_map().matrix))
        amps = fock_amplitudes(substitute(state, mapping))
        assert sum(abs(a) ** 2 for a in amps.values()) == pytest.approx(1.0)


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
        assert fock_amplitudes(state) == pytest.approx(amps)

    def test_scales_are_products_of_square_rooted_factorials(self):
        # the defining formula, evaluated directly, to the last bit
        rng = np.random.default_rng(5)
        occupations = [tuple(int(n) for n in rng.integers(0, 40, 4)) for _ in range(50)]
        amps = {occ: complex(*rng.normal(size=2)) for occ in occupations}
        state = from_fock_amplitudes(("a", "b", "A", "B"), amps)
        back = fock_amplitudes(state)
        for occ, amp in amps.items():
            scale = math.prod(math.sqrt(math.factorial(n)) for n in occ)
            assert state.terms[occ] == amp / scale
            assert back[occ] == amp / scale * scale

    def test_adjoint_inverts_substitution(self):
        mode_map = balanced_map(phase=0.7)
        state = from_fock_amplitudes(("a", "A"), {(2, 0): 0.6, (1, 1): 0.64, (0, 2): 0.48})
        inverse = LinearModeMap(mode_map.outputs, mode_map.inputs, mode_map.matrix.conj().T)
        back = substitute(substitute(state, mode_map), inverse)
        assert back.terms == pytest.approx(state.terms, abs=1e-12)


# -- property tests ---------------------------------------------------------

angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)
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


@given(two_mode_states(), angles, angles, angles)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_substitution_preserves_norm(state, theta, phi, psi):
    mode_map = LinearModeMap(("a", "A"), ("c", "C"), unitary_2x2(theta, phi, psi))
    image = substitute(state, mode_map)
    assert abs(inner(image, image) - inner(state, state)) < 1e-12


@given(two_mode_states(), angles, angles, angles)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_substitution_preserves_particle_number(state, theta, phi, psi):
    mode_map = LinearModeMap(("a", "A"), ("c", "C"), unitary_2x2(theta, phi, psi))
    n = state.particle_number()
    if n is not None:
        assert substitute(state, mode_map).particle_number() == n


@given(two_mode_states(), two_mode_states())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_tensor_norm_multiplies(p, q):
    q_relabel = ModePolynomial(("b", "B"), dict(q.terms))
    product = tensor(p, q_relabel)
    lhs = inner(product, product)
    rhs = inner(p, p) * inner(q_relabel, q_relabel)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
