"""The contracted correlation profile against independent routes.

The profile is contracted from per-party beam-splitter blocks
(``measurement.parity_blocks``).  It is checked here against the binomial
expansion of those blocks, the polynomial engine (``joint_distribution``),
a dense matrix-exponential oracle built per party, the noise formulas, and
the physical bounds; and the polynomial engine is kept off its path.
"""
import math
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, logm

from twocopy import cli, fock, inequalities, measurement, states
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
    BeamSplitterSetting,
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
    MAX_FACTORIZED_TOTAL,
    MAX_PARTICLES,
    CompositeState,
    admix,
    bec_pair,
)

TWO_PI = 2.0 * math.pi
setting = BeamSplitterSetting.from_alpha


# -- the party blocks ----------------------------------------------------------


def binomial_block(alpha, beta, k):
    """S_k from the expansion of (alpha c† + beta C†)^p (beta c† - alpha C†)^(k-p)."""
    s = np.zeros((k + 1, k + 1))
    for p in range(k + 1):
        for i in range(p + 1):
            for j in range(k - p + 1):
                s[i + j, p] += (math.comb(p, i) * alpha ** i * beta ** (p - i)
                                * math.comb(k - p, j) * beta ** j
                                * (-alpha) ** (k - p - j))
        for n in range(k + 1):
            s[n, p] *= math.sqrt(math.comb(k, p) / math.comb(k, n))
    return s


@pytest.mark.parametrize("alpha", [1.0 / math.sqrt(2.0), 0.3, 0.9])
def test_blocks_match_binomial_expansion(alpha):
    beta = math.sqrt(1.0 - alpha * alpha)
    blocks = parity_blocks(BeamSplitterSetting(alpha, beta, 2.1), 8)
    for k in range(9):
        s = binomial_block(alpha, beta, k)
        signs = np.array([epsilon(n, k - n) for n in range(k + 1)])
        want = s.T @ (signs[:, None] * s)
        assert np.max(np.abs(blocks[k, :k + 1, :k + 1] - want)) < 1e-13
        assert not blocks[k, k + 1:].any() and not blocks[k, :, k + 1:].any()


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


def reference_parity_blocks(alpha, beta, n_max):
    blocks = np.zeros((n_max + 1,) * 3)
    blocks[0, 0, 0] = 1.0
    for k, s in enumerate(reference_transfer_blocks(alpha, beta, n_max)[1:], 1):
        signs = np.array([epsilon(m, k - m) for m in range(k + 1)], dtype=float)
        blocks[k, :k + 1, :k + 1] = np.einsum("np,n,nq->pq", s, signs, s)
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
        blocks = parity_blocks(bs, n_max)
        assert blocks.tobytes() == reference_parity_blocks(bs.alpha, bs.beta, n_max).tobytes()


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


# -- dense oracle, one party at a time ----------------------------------------


def party_observable(bs, cut):
    """U† diag(eps) U on one party's two modes, occupations below ``cut``.

    U = exp(sum_ij G_ij m_i† m_j) with exp(G) the one-particle map
    a† -> alpha c† + beta C†, A† -> e^{i phase}(beta c† - alpha C†), so that
    U a† U† and U A† U† are its columns.  Blocks of fewer than ``cut``
    particles are exact.
    """
    ladder = np.diag(np.sqrt(np.arange(1.0, cut)), 1)
    modes = (np.kron(ladder, np.eye(cut)), np.kron(np.eye(cut), ladder))
    phase = np.exp(1j * bs.phase)
    target = np.array([[bs.alpha, bs.beta * phase], [bs.beta, -bs.alpha * phase]])
    gen = logm(target)
    unitary = expm(sum(gen[i, j] * modes[i].T @ modes[j]
                       for i in range(2) for j in range(2)))
    signs = np.array([epsilon(n, m) for n in range(cut) for m in range(cut)])
    return unitary.conj().T @ (signs[:, None] * unitary)


def dense_correlation(state, alice, bob):
    cut = state.n_total + 1
    o_alice, o_bob = party_observable(alice, cut), party_observable(bob, cut)
    total = 0.0
    for weight, member in state.entries:
        psi = np.zeros((cut * cut, cut * cut), dtype=complex)  # (a, A) x (b, B)
        for (a, b, big_a, big_b), amp in fock_amplitudes(member).items():
            psi[a * cut + big_a, b * cut + big_b] = amp
        total += weight * np.vdot(psi, o_alice @ psi @ o_bob.T).real
    return total


# -- property net ---------------------------------------------------------------

angles = st.floats(0.0, TWO_PI, allow_nan=False)
alphas = st.floats(0.1, 0.95)
amplitudes = st.one_of(st.just(0j), st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False))


@st.composite
def sector_states(draw, max_particles=4):
    """A pure state or two-member mixture in a random (n1, n2) sector."""
    n1 = draw(st.integers(0, max_particles))
    n2 = draw(st.integers(0, max_particles))
    occupations = [(k, n1 - k, l, n2 - l) for k in range(n1 + 1) for l in range(n2 + 1)]
    members = []
    for _ in range(draw(st.integers(1, 2))):
        amps = draw(st.lists(amplitudes, min_size=len(occupations),
                             max_size=len(occupations)))
        if not any(amps):
            amps[0] = 1.0
        norm = math.sqrt(sum(abs(c) ** 2 for c in amps))
        members.append(from_fock_amplitudes(
            COMPOSITE_MODES, {o: c / norm for o, c in zip(occupations, amps) if c}))
    weight = draw(st.floats(0.05, 0.95))
    weights = (1.0,) if len(members) == 1 else (weight, 1.0 - weight)
    return CompositeState(tuple(zip(weights, members)), n1=n1, n2=n2)


@given(sector_states(), alphas, alphas, angles, angles)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_correlation_matches_engine_and_dense_oracle(state, alpha, bob_alpha, phi, theta):
    alice, bob = setting(alpha, phi), setting(bob_alpha, theta)
    value = correlation(state, phi, theta, alpha, bob_alpha)
    assert abs(value - weighted_parity(joint_distribution(state, alice, bob))) < 1e-12
    assert abs(value - dense_correlation(state, alice, bob)) < 1e-12


@given(sector_states(), alphas, alphas, st.tuples(angles, angles, angles, angles), angles)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_bounds_and_common_shift(state, alpha, bob_alpha, quad, shift):
    q = AngleQuad(*quad)
    shifted = AngleQuad(*(v + shift for v in quad))
    assert max(abs(e) for e in astuple(correlation_vector(state, q, alpha, bob_alpha))) \
        <= 1.0 + 1e-12
    bell = bell_value(state, q, alpha, bob_alpha)
    steering = steering_value(state, q, alpha, bob_alpha)
    assert abs(bell) <= QUANTUM_BOUND + 1e-12
    assert steering <= QUANTUM_BOUND + 1e-12
    assert bell_value(state, shifted, alpha, bob_alpha) == pytest.approx(bell, abs=1e-12)
    assert steering_value(state, shifted, alpha, bob_alpha) == pytest.approx(
        steering, abs=1e-12)


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
    """Every alias of ``fock.substitute`` and ``joint_distribution`` raises."""
    forbid(monkeypatch, (fock.substitute, measurement.joint_distribution),
           "the polynomial engine was called")


@pytest.fixture
def without_noise_mixtures(monkeypatch):
    """Every alias of ``states.admix`` raises: visibility reads the noise
    correlation from traces and builds no mixture."""
    forbid(monkeypatch, (states.admix,), "a noise mixture was built")


@pytest.fixture
def without_scalar_evaluators(monkeypatch):
    """Every alias of the per-call correlation and functional routes raises."""
    forbid(monkeypatch, (correlation, correlation_vector, steering_value, bell_value),
           "a scalar evaluator was called")


def test_closed_form_check_is_one_array_call_per_family(without_scalar_evaluators):
    inequalities._profile.cache_clear()
    report = verify_closed_forms(draws=20)
    assert report["max_abs_deviation"] < 1e-9
    # one profile lookup per family: bec1, bec2 and noon2 are built once each
    info = inequalities._profile.cache_info()
    assert (info.misses, info.hits) == (3, 2)


def test_hot_path_avoids_polynomial_engine(without_polynomial_engine,
                                           without_noise_mixtures, capsys):
    rng = np.random.default_rng(71)
    occupations = [(k, 3 - k, l, 2 - l) for k in range(4) for l in range(3)]
    amps = rng.normal(size=len(occupations)) + 1j * rng.normal(size=len(occupations))
    amps /= np.linalg.norm(amps)
    member = from_fock_amplitudes(COMPOSITE_MODES, dict(zip(occupations, amps)))
    state = CompositeState(((1.0, member),), n1=3, n2=2)
    q = AngleQuad(0.0, math.pi / 2, 3.93, 2.90)
    e = correlation_vector(state, q, 0.61, 0.77)
    assert max(abs(v) for v in astuple(e)) <= 1.0 + 1e-12
    for noise in ("sector", "factorized"):
        p = visibility_threshold(bec_pair(1), "steering", q, alpha=0.69, bob_alpha=0.72,
                                 noise=noise)
        assert 0.0 < p < 1.0
    assert sector_trace_product(2, 3, setting(0.6, 0.4), setting(0.7, 1.1),
                                alice2=setting(0.6, 2.0), sign=-1.0) == pytest.approx(
        0.0, abs=1e-12)
    for input_modes in (("a", "A"), ("b", "B")):
        basis = measurement.effective_basis(6, setting(0.6, 0.4), input_modes)
        assert len(basis) == outcome_count(6)
    assert cli.main(["basis", "--n-total", "4", "--raw", "--phi", "0.4"]) == 0
    assert capsys.readouterr().out.count("\n") == 2 + outcome_count(4)
