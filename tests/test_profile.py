"""The contracted correlation profile against independent routes.

The profile is contracted from per-party beam-splitter blocks
(``measurement.parity_blocks``).  Blocks and profile are checked here
against the 50-digit binomial route of tests/oracle.py, the profile also
against the polynomial engine (``joint_distribution``), the oracle's dense
matrix-exponential route, the noise formulas, and the physical bounds; and
the polynomial engine is kept off its path.

Three family-wide closed forms are checked at every particle number, with
d = phi - theta:

- bec(n, n), one alpha for both parties: (-1)^n (2 alpha beta sin(d/2))^(2n),
  at the balanced splitter (-1)^n sin^(2n)(d/2).  On k = a + A particles
  Alice's weight is eps = s_k (-1)^m, with s_k = (-1)^(k(k+1)/2) and m the
  count in the input mode g = (beta, -alpha e^{-i phi}) over (a, A) that
  her splitter sends to its second output (``effective_basis``).  As
  k_A + k_B = 2n, s_kA s_kB = (-1)^(n + k_A), and (-1)^(k_A + m_A) is the
  parity of her other input mode f = (alpha, beta e^{-i phi}).  So the
  correlation is (-1)^n times the mean of the passive unitary that
  reflects one mode per party: 1 - 2|f><f| on (a, A) and 1 - 2|h><h| on
  (b, B), h = (beta, -alpha e^{-i theta}).  The state is
  (u†)^n (v†)^n |0> / n! with u = (a + b)/sqrt(2) and v = (A + B)/sqrt(2),
  since each condensate puts its n bosons in one mode.  The reflections
  send u to u' and v to v' with <u|u'> = <v|v'> = 0, because
  1 - 2 alpha^2 = -(1 - 2 beta^2), and <v|u'> = alpha beta (e^{-i theta} -
  e^{-i phi}) = conj(<u|v'>).  Only the part of u' along v and of v'
  along u reach the bra, so the mean is (<v|u'> <u|v'>)^n =
  (alpha^2 beta^2 |e^{i theta} - e^{i phi}|^2)^n = (2 alpha beta sin(d/2))^(2n).
  At n = 1 and 2 it is the correlation of the tabulated bell_bec1 and
  bell_bec2 forms.
- balanced noon(n, m): ((-1)^n + cos((n - 2m) d)) / 2.  The balanced block
  O_k is s_k Z_k D_k(-pi/2), which sends |p, k-p> to +-|k-p, p>, so a
  pair (x, y) counts only when y swaps x's occupations for Alice and for
  Bob.  The copies' terms with a = A (and b = B) pair with themselves and
  make c0; the two with a != A pair with each other at order n - 2m.
  Each entry is +-1 and every weight 1/4, so both parts have magnitude
  1/2; their signs, (-1)^n and +, are observed.  At n = 2, m = 0 it is
  the correlation of the tabulated bell_noon form.
- balanced bec(n1, n2), n1 != n2: identically 0.  By the same swap,
  b_y = n1 - a_y = n1 - A_x must equal B_x = n2 - A_x, which needs n1 = n2.
"""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from twocopy import cli, inequalities, measurement, states
from twocopy.fock import fock_amplitudes, from_fock_amplitudes
from twocopy.inequalities import (
    AngleQuad,
    QUANTUM_BOUND,
    bell_value,
    correlation,
    correlation_vector,
    steering_value,
    verify_closed_forms,
    visibility_threshold,
)
from twocopy.measurement import (
    BALANCED_ALPHA,
    BeamSplitterSetting,
    epsilon,
    joint_distribution,
    local_outcomes,
    outcome_count,
    parity_blocks,
    sector_trace_product,
    weighted_parity,
)
from twocopy.search import optimize
from twocopy.states import (
    COMPOSITE_MODES,
    MAX_FACTORIZED_TOTAL,
    MAX_PARTICLES,
    CompositeState,
    admix,
    bec_pair,
    noon_pair,
)

TWO_PI = 2.0 * math.pi
setting = BeamSplitterSetting.from_alpha


# -- the party blocks ----------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.0 / math.sqrt(2.0), 0.3, 0.9])
def test_blocks_match_binomial_expansion(alpha):
    # the recurrence's S_k against the 50-digit binomial expansion, up to the largest basis
    beta = math.sqrt(1.0 - alpha * alpha)
    want = oracle.decimal_blocks(alpha, beta, MAX_PARTICLES)
    for k, block in enumerate(measurement._transfer_blocks(alpha, beta, MAX_PARTICLES)):
        assert np.max(np.abs(block - np.array(want[k], dtype=float))) <= 1e-14


@pytest.mark.parametrize("alpha", [1.0 / math.sqrt(2.0), 0.3])
def test_blocks_stay_reflections_up_to_the_largest_block(alpha):
    # O_k = S_k^T diag(eps) S_k with S_k orthogonal: symmetric, squaring to
    # one, with the trace of diag(eps).  Blocks reach n1 + n2 particles.
    n_max = 2 * MAX_PARTICLES
    blocks = parity_blocks(setting(alpha, 0.0), n_max)
    for k in range(0, n_max + 1, 8):
        o = blocks[k, :k + 1, :k + 1]
        assert np.max(np.abs(o - o.T)) < 1e-14
        assert np.max(np.abs(o @ o - np.eye(k + 1))) < 1e-13
        assert np.trace(o) == pytest.approx(
            sum(epsilon(n, k - n) for n in range(k + 1)), abs=1e-12)


def reference_transfer_blocks(alpha, beta, n_max):
    """The recurrence of ``measurement._transfer_blocks`` as first written:
    a fresh zero-padded copy of S_(k-1) and fresh square roots at every k.
    The engine keeps its arithmetic and association, so it must match this
    bit for bit."""
    blocks = [np.ones((1, 1))]
    for k in range(1, n_max + 1):
        padded = np.zeros((k + 2, k + 2))
        padded[1:-1, 1:-1] = blocks[-1]
        first = np.sqrt(np.arange(k + 1))
        second = first[::-1]
        blocks.append((first * (alpha * first[:, None] * padded[:-1, :-1]
                                 + beta * second[:, None] * padded[1:, :-1])
                        + second * (beta * first[:, None] * padded[:-1, 1:]
                                    - alpha * second[:, None] * padded[1:, 1:])) / k)
    return blocks


def random_splitters(seed, count):
    rng = np.random.default_rng(seed)
    alphas = [0.0, 1.0, 1.0 / math.sqrt(2.0)] + list(np.sqrt(rng.uniform(0.0, 1.0, count)))
    for alpha in alphas:
        yield setting(float(alpha), 0.0), int(rng.integers(0, 41))


def test_blocks_match_reference_recurrence_bit_for_bit():
    for bs, n_max in random_splitters(15, 40):
        got = measurement._transfer_blocks(bs.alpha, bs.beta, n_max)
        want = reference_transfer_blocks(bs.alpha, bs.beta, n_max)
        assert len(got) == len(want) == n_max + 1
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def assert_blocks_near(blocks, want, tol):
    """Within ``tol`` of ``want``, and +0.0 (sign bit clear) outside the blocks."""
    assert blocks.shape == want.shape
    assert np.max(np.abs(blocks - want)) <= tol
    k = np.arange(len(blocks))
    outside = (k[None, :, None] > k[:, None, None]) | (k[None, None, :] > k[:, None, None])
    assert not blocks[outside].any() and not np.signbit(blocks[outside]).any()


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.0 / math.sqrt(2.0)]
                         + list(np.random.default_rng(18).uniform(0.0, 1.0, 3)))
def test_parity_blocks_match_decimal_oracle(alpha):
    # n_max 33 cuts its blocks from the largest table, of 65 rows
    bs = setting(float(alpha), 0.0)
    want = np.zeros((34,) * 3)
    for k, o in enumerate(oracle.decimal_observables(bs.alpha, bs.beta, 33)):
        want[k, :k + 1, :k + 1] = [[float(v) for v in row] for row in o]
    assert_blocks_near(parity_blocks(bs, 33), want, 1e-14)


def test_balanced_table_grown_in_steps_matches_one_build():
    # each table size holds the 65-row table's leading entries, byte for byte
    whole, whole_signs = measurement._balanced_table(65)
    assert not (whole.flags.writeable or whole_signs.flags.writeable)
    for size in (2, 3, 5, 9, 17, 33):
        table, signs = measurement._balanced_table(size)
        assert table.tobytes() == whole[:size, :size, :size].tobytes()
        assert signs.tobytes() == whole_signs[:size, :size].tobytes()


def test_balanced_table_size_built_for_each_n_max(monkeypatch):
    # parity blocks of n_max ask for the smallest table of 2^m + 1 rows
    # that covers orders 0..n_max: 2 rows up to n_max 1, then 3, 5, 9, ...
    sizes = []

    def counted(size):
        sizes.append(size)
        return table(size)
    table = measurement._balanced_table
    monkeypatch.setattr(measurement, "_balanced_table", counted)
    for n_max in range(1, 65):
        measurement._cached_parity_blocks.__wrapped__(0.6, 0.8, n_max)
        want = 2
        while want < n_max + 1:
            want = 2 * want - 1
        assert sizes[-1] == want, n_max
    assert len(sizes) == 64 and sorted(set(sizes)) == [2, 3, 5, 9, 17, 33, 65]


def test_parity_block_bytes_do_not_depend_on_call_history(monkeypatch):
    whole, whole_signs = measurement._balanced_table(65)
    bs = setting(0.37, 0.0)

    def blocks(sizes):
        measurement._cached_parity_blocks.cache_clear()
        return {n_max: parity_blocks(bs, n_max).tobytes() for n_max in sizes}

    # tables built in rising or falling order, or every block cut from the 65-row table
    sizes = (0, 1, 2, 4, 5, 9, 16, 17, 40, 64)
    measurement._balanced_table.cache_clear()
    rising = blocks(sizes)
    measurement._balanced_table.cache_clear()
    assert blocks(sizes[::-1]) == rising
    assert measurement._balanced_table.cache_info().currsize == 7
    monkeypatch.setattr(measurement, "_balanced_table", lambda size: (whole, whole_signs))
    assert blocks(sizes) == rising
    measurement._cached_parity_blocks.cache_clear()


def test_parity_blocks_are_read_only_and_phase_free():
    blocks = parity_blocks(setting(0.6, 0.0), 6)
    assert not blocks.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        blocks[1, 0, 0] = 2.0
    for phase in (0.4, -3.0, 2.0 * TWO_PI + 1.0):
        assert np.array_equal(parity_blocks(setting(0.6, phase), 6), blocks)
        assert np.array_equal(parity_blocks(BeamSplitterSetting(0.6, 0.8, phase), 6),
                              parity_blocks(BeamSplitterSetting(0.6, 0.8, 0.0), 6))


@pytest.mark.parametrize("noise, alphas, builds, reads", [
    ("sector", (0.69, 0.72), 2, 4), ("sector", (0.69, 0.69), 1, 4),
    ("factorized", (0.69, 0.72), 2, 2)])
def test_visibility_builds_each_party_blocks_once(noise, alphas, builds, reads):
    # the profile reads both parties' blocks, and the sector trace reads them again
    inequalities._profile.cache_clear()
    measurement._cached_parity_blocks.cache_clear()
    visibility_threshold(bec_pair(2), "steering", AngleQuad(0.0, 1.07, 3.93, 3.00),
                         alpha=alphas[0], bob_alpha=alphas[1], noise=noise)
    info = measurement._cached_parity_blocks.cache_info()
    assert (info.misses, info.hits + info.misses) == (builds, reads)


# -- property net ---------------------------------------------------------------

angles = st.floats(0.0, TWO_PI, allow_nan=False)
alphas = st.floats(0.1, 0.95)


@given(oracle.sector_states(), alphas, alphas, angles, angles)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_correlation_matches_engine_and_dense_oracle(state, alpha, bob_alpha, phi, theta):
    alice, bob = setting(alpha, phi), setting(bob_alpha, theta)
    value = correlation(state, phi, theta, alpha, bob_alpha)
    assert abs(value - weighted_parity(joint_distribution(state, alice, bob))) < 1e-12
    assert abs(value - oracle.dense_correlation(state, alice, bob)) < 1e-12


@given(oracle.sector_states(), alphas, alphas, st.tuples(angles, angles, angles, angles), angles)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_bounds_and_common_shift(state, alpha, bob_alpha, quad, shift):
    q = AngleQuad(*quad)
    shifted = AngleQuad(*(v + shift for v in quad))
    e = correlation_vector(state, q, alpha, bob_alpha)
    assert max(abs(e.e11), abs(e.e12), abs(e.e21), abs(e.e22)) <= 1.0 + 1e-12
    bell = bell_value(state, q, alpha, bob_alpha)
    steering = steering_value(state, q, alpha, bob_alpha)
    assert abs(bell) <= QUANTUM_BOUND + 1e-12
    assert steering <= QUANTUM_BOUND + 1e-12
    assert bell_value(state, shifted, alpha, bob_alpha) == pytest.approx(bell, abs=1e-12)
    assert steering_value(state, shifted, alpha, bob_alpha) == pytest.approx(
        steering, abs=1e-12)


# -- exact relations at every particle number ------------------------------------
# With C_k = (a_k - i b_k) / 2 the Fourier coefficient of e^{ikd}, d = phi - theta:
# conjugating every amplitude conjugates C_k; a phase e^{i chi} per particle in
# mode A multiplies C_k by e^{ik chi}; swapping the parties, their alphas with
# them, maps E(d) to E(-d) and so conjugates C_k.  Each relation holds for any
# state and splitters, so each needs one profile per side at any N.

# -- family-wide closed forms (module docstring) ------------------------------

PARTICLE_NUMBERS = list(range(9)) + [12, 16, 24, 32]
DELTAS = np.random.default_rng(35).uniform(0.0, TWO_PI, 16)


def profile_at_deltas(state, alpha=BALANCED_ALPHA):
    return np.array([correlation(state, d, 0.0, alpha) for d in DELTAS])


@pytest.mark.parametrize("n", PARTICLE_NUMBERS)
def test_bec_pair_closed_form(n):
    for alpha in (0.3, BALANCED_ALPHA, 0.8):
        beta = math.sqrt(1.0 - alpha * alpha)
        form = (-1) ** n * (2.0 * alpha * beta * np.sin(DELTAS / 2.0)) ** (2 * n)
        assert np.max(np.abs(profile_at_deltas(bec_pair(n), alpha) - form)) <= 1e-12


@pytest.mark.parametrize("n", PARTICLE_NUMBERS[1:])
def test_balanced_noon_pair_closed_form(n):
    for m in range(n + 1):
        if 2 * m != n:
            form = ((-1) ** n + np.cos((n - 2 * m) * DELTAS)) / 2.0
            assert np.max(np.abs(profile_at_deltas(noon_pair(n, m)) - form)) <= 1e-12


@pytest.mark.parametrize("n1, n2", [pair for n1, n2 in zip(PARTICLE_NUMBERS, PARTICLE_NUMBERS[1:])
                                    for pair in ((n1, n2), (n2, n1))])
def test_balanced_unequal_bec_pair_vanishes(n1, n2):
    assert np.max(np.abs(profile_at_deltas(bec_pair(n1, n2)))) <= 1e-12


RELATION_CASES = [(1, 1, 1), (1, 3, 2), (2, 2, 1), (5, 3, 2), (8, 8, 1), (12, 7, 2),
                  (16, 16, 1), (16, 16, 2), (32, 32, 1)]


def relation_states(n1, n2, members, seed):
    """(build, alpha, bob_alpha, chi): ``build(transform)`` is the pure state
    or two-member mixture in the (n1, n2) sector whose Fock amplitudes are
    ``transform(occupation, amplitude)`` of those of ``oracle.random_state``;
    the splitters are unbalanced and chi is a random phase."""
    rng = np.random.default_rng(seed)
    state = oracle.random_state(rng, n1, n2, members)

    def build(transform):
        polys = [from_fock_amplitudes(COMPOSITE_MODES,
                                      dict(transform(o, c) for o, c in fock_amplitudes(m).items()))
                 for _, m in state.entries]
        return CompositeState(tuple(zip((w for w, _ in state.entries), polys)), n1=n1, n2=n2)
    alpha, bob_alpha = np.sqrt(rng.uniform(0.05, 0.95, 2)).tolist()
    return build, alpha, bob_alpha, float(rng.uniform(0.0, TWO_PI))


@pytest.mark.parametrize("n1, n2, members", RELATION_CASES,
                         ids=[f"{n1}+{n2}x{m}" for n1, n2, m in RELATION_CASES])
def test_profile_exact_relations(n1, n2, members):
    build, alpha, bob_alpha, chi = relation_states(n1, n2, members, seed=97 * n1 + n2 + members)
    want = inequalities._profile(build(lambda o, c: (o, c)), alpha, bob_alpha)
    assert want.terms  # every case has orders past 0
    k = np.arange(len(want.terms) + 1)

    phased = inequalities._profile(
        build(lambda o, c: (o, c * complex(math.cos(chi * o[2]), math.sin(chi * o[2])))),
        alpha, bob_alpha)
    shifted = oracle.fourier(want) * np.exp(1j * k * chi)
    assert np.abs(oracle.fourier(phased) - shifted).max() <= 1e-15

    # conjugated amplitudes, and the parties swapped: c0 and a_k kept, b_k negated
    conjugated = inequalities._profile(build(lambda o, c: (o, c.conjugate())), alpha, bob_alpha)
    swapped = inequalities._profile(build(lambda o, c: ((o[1], o[0], o[3], o[2]), c)),
                                    bob_alpha, alpha)
    for got in (conjugated, swapped):
        assert abs(got.c0 - want.c0) <= 1e-15
        flipped = np.multiply(want.terms, [1.0, 1.0, -1.0])
        assert np.abs(np.subtract(got.terms, flipped)).max() <= 1e-15


DECIMAL_CASES = [(4, 4, 2), (12, 7, 2), (16, 16, 1), (32, 0, 1)]


@pytest.mark.parametrize("n1, n2, members", DECIMAL_CASES,
                         ids=[f"{n1}+{n2}x{m}" for n1, n2, m in DECIMAL_CASES])
def test_profile_matches_decimal_route(n1, n2, members):
    # random states on unbalanced splitters, each coefficient against the
    # 50-digit binomial route (tests/oracle.py runs 24 + 24 and 32 + 32)
    rng = np.random.default_rng(1000 * n1 + 10 * n2 + members)
    state = oracle.random_state(rng, n1, n2, members)
    alpha, bob_alpha = np.sqrt(rng.uniform(0.05, 0.95, 2)).tolist()
    got = oracle.fourier(inequalities._profile(state, alpha, bob_alpha))
    want = oracle.decimal_profile(state, alpha, bob_alpha)
    assert len(got) == len(want) == min(n1, n2) + 1
    assert np.abs(got - want).max() <= 1e-15


# -- noise and sector errors -----------------------------------------------------

SECTORS = [(1, 1), (2, 1), (2, 2), (3, 1), (1, 4)]


def random_settings(seed, count=3):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        alpha, bob_alpha = np.sqrt(rng.uniform(0.1, 0.9, 2))
        phi, theta = rng.uniform(0.0, TWO_PI, 2)
        yield float(alpha), float(bob_alpha), float(phi), float(theta)


@pytest.mark.parametrize("n1, n2", SECTORS)
def test_factorized_noise_correlation(n1, n2):
    # each party is uniform over its d outcome states, so E = (tr eps / d)^2
    n_total = n1 + n2
    t = sum(epsilon(n, m) for n, m in local_outcomes(n_total))
    want = (t / outcome_count(n_total)) ** 2
    noise = admix(bec_pair(n1, n2), 0.0, "factorized")
    for alpha, bob_alpha, phi, theta in random_settings(10 * n1 + n2):
        assert correlation(noise, phi, theta, alpha, bob_alpha) == pytest.approx(
            want, abs=1e-12)


@pytest.mark.parametrize("n_total", range(65))
def test_factorized_noise_correlation_from_the_outcome_sum(n_total):
    # the rule N mod 4 < 2 gives the bytes of the sum over every outcome
    weights = [epsilon(n, m) for n, m in local_outcomes(n_total)]
    want = (sum(weights) / len(weights)) ** 2
    n1 = n_total // 2
    got = inequalities._noise_correlation(bec_pair(n1, n_total - n1), BALANCED_ALPHA, None,
                                          "factorized")
    assert got.hex() == want.hex()


@pytest.mark.parametrize("n1, n2", SECTORS)
def test_sector_noise_correlation(n1, n2):
    noise = admix(bec_pair(n1, n2), 0.0, "sector")
    for alpha, bob_alpha, phi, theta in random_settings(20 * n1 + n2):
        trace = sector_trace_product(n1, n2, setting(alpha, phi), setting(bob_alpha, theta))
        assert correlation(noise, phi, theta, alpha, bob_alpha) == pytest.approx(
            trace / ((n1 + 1) * (n2 + 1)), abs=1e-12)


@pytest.mark.parametrize("n1, n2", [(8, 9), (MAX_PARTICLES, MAX_PARTICLES)])
def test_factorized_noise_correlation_past_admix_bound(n1, n2):
    # admix builds factorized noise only up to MAX_FACTORIZED_TOTAL particles;
    # visibility needs just its correlation, here from the numerical traces
    # of each party's blocks
    n_total = n1 + n2
    assert n_total > MAX_FACTORIZED_TOTAL
    rng = np.random.default_rng(n_total)
    alpha, bob_alpha = (float(a) for a in np.sqrt(rng.uniform(0.1, 0.9, 2)))
    traces = [np.trace(parity_blocks(setting(a, rng.uniform(0.0, TWO_PI)), n_total),
                       axis1=1, axis2=2).sum() for a in (alpha, bob_alpha)]
    want = traces[0] * traces[1] / outcome_count(n_total) ** 2
    got = inequalities._noise_correlation(bec_pair(n1, n2), alpha, bob_alpha, "factorized")
    assert got != 0.0
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("other", [(2, 0, 1, 0), (1, 0, 2, 0)], ids=["system1", "system2"])
def test_member_superposing_sectors_raises(other):
    member = from_fock_amplitudes(COMPOSITE_MODES, {(1, 0, 1, 0): 0.6, other: 0.8})
    with pytest.raises(ValueError, match="superposes different particle-number sectors"):
        CompositeState(((1.0, member),), n1=1, n2=1, sector_pure=False)


def test_zero_weight_member_adds_nothing():
    # a member at weight 0.0 of higher order than the state only appends
    # zero orders to the series, so every value read from it keeps its bits
    state = bec_pair(1)
    padded = CompositeState(state.entries + ((0.0, bec_pair(3, 2).entries[0][1]),),
                            n1=1, n2=1, sector_pure=False)
    q = AngleQuad(0.3, 1.9, 0.0, 2.4)
    for alpha, bob_alpha in ((BALANCED_ALPHA, BALANCED_ALPHA), (0.6, 0.8)):
        want = inequalities._profile(state, alpha, bob_alpha)
        got = inequalities._profile(padded, alpha, bob_alpha)
        assert (len(want.terms), len(got.terms)) == (1, 2)
        assert got.c0.hex() == want.c0.hex()
        assert [v.hex() for v in got.terms[0]] == [v.hex() for v in want.terms[0]]
        assert got.terms[1][1:] == (0.0, 0.0)
        assert (repr(correlation_vector(padded, q, alpha, bob_alpha))
                == repr(correlation_vector(state, q, alpha, bob_alpha)))
        assert (repr(optimize("steering", padded, restarts=8, seed=3, alpha=alpha,
                              bob_alpha=bob_alpha))
                == repr(optimize("steering", state, restarts=8, seed=3, alpha=alpha,
                                 bob_alpha=bob_alpha)))


# -- the polynomial engine stays off the hot path ----------------------------------


def forbid(monkeypatch, originals, message):
    """Make every alias of the ``originals`` in the package raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    modules = [m for name, m in sys.modules.items()
               if name == "twocopy" or name.startswith("twocopy.")]
    for original in originals:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)
    inequalities._profile.cache_clear()


@pytest.fixture
def without_polynomial_engine(monkeypatch):
    """Every alias of ``joint_distribution`` and ``_party_image`` raises."""
    forbid(monkeypatch, (measurement.joint_distribution, measurement._party_image),
           "the polynomial engine was called")


@pytest.fixture
def without_noise_mixtures(monkeypatch):
    """Every alias of ``states.admix`` raises: visibility reads the noise
    correlation from traces and builds no mixture."""
    forbid(monkeypatch, (states.admix,), "a noise mixture was built")


def test_closed_form_check_builds_one_profile_per_state():
    inequalities._profile.cache_clear()
    report = verify_closed_forms(draws=20)
    assert report["max_abs_deviation"] < 1e-9
    # one profile lookup per family for all its draws: bec1, bec2 and
    # noon2 are built once each, and bec1 and bec2 are read again
    info = inequalities._profile.cache_info()
    assert (info.misses, info.hits) == (3, 2)


def test_hot_path_avoids_polynomial_engine(without_polynomial_engine,
                                           without_noise_mixtures, capsys):
    state = oracle.random_state(np.random.default_rng(71), 3, 2)
    q = AngleQuad(0.0, math.pi / 2, 3.93, 2.90)
    e = correlation_vector(state, q, 0.61, 0.77)
    assert max(abs(e.e11), abs(e.e12), abs(e.e21), abs(e.e22)) <= 1.0 + 1e-12
    for noise in ("sector", "factorized"):
        p = visibility_threshold(bec_pair(1), "steering", q, alpha=0.69, bob_alpha=0.72,
                                 noise=noise)
        assert 0.0 < p < 1.0
    assert sector_trace_product(2, 3, setting(0.6, 0.4), setting(0.7, 1.1),
                                alice2=setting(0.6, 2.0), sign=-1.0) == pytest.approx(
        0.0, abs=1e-12)
    assert len(measurement.effective_basis(6, setting(0.6, 0.4))) == outcome_count(6)
    assert cli.main(["basis", "--n-total", "4", "--raw", "--phi", "0.4"]) == 0
    assert capsys.readouterr().out.count("\n") == 2 + outcome_count(4)
