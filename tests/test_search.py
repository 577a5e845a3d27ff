"""Optimizer, scans, and peak counting."""
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar
from scipy.stats import qmc

import oracle
import twocopy
from twocopy import inequalities, search
from twocopy.fock import from_fock_amplitudes
from twocopy.inequalities import (
    ANGLE_NAMES,
    AngleQuad,
    QUANTUM_BOUND,
    TWO_PI,
    bell_value,
    correlation,
    steering_value,
)
from twocopy.search import count_local_maxima, optimize, scan_1d
from twocopy.states import COMPOSITE_MODES, CompositeState, bec_pair, noon_pair

GOLDEN = 1.0 + math.sqrt(2.0)


def random_pure_state(rng, n1, n2):
    """A random complex pure state in the (n1, n2) sector."""
    amps = {(k, n1 - k, l, n2 - l): complex(*rng.normal(size=2))
            for k in range(n1 + 1) for l in range(n2 + 1)}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    member = from_fock_amplitudes(
        COMPOSITE_MODES, {occ: a / norm for occ, a in amps.items()})
    return CompositeState(((1.0, member),), n1=n1, n2=n2)


def oracle_cases():
    """(label, state, alpha, bob_alpha): the documented families, an
    unbalanced unequal pair, and seeded random sector-pure states."""
    balanced = 1.0 / math.sqrt(2.0)
    cases = [("bec1", bec_pair(1), balanced, balanced),
             ("bec2", bec_pair(2), balanced, balanced),
             ("noon2", noon_pair(2, 0), balanced, balanced),
             ("bec12-r0.3", bec_pair(1, 2), math.sqrt(0.3), math.sqrt(0.3))]
    rng = np.random.default_rng(23)
    for n1, n2 in ((1, 1), (2, 1), (1, 3), (3, 2)):
        alpha, bob_alpha = np.sqrt(rng.uniform(0.1, 0.9, 2))
        cases.append((f"random{n1}{n2}", random_pure_state(rng, n1, n2),
                      float(alpha), float(bob_alpha)))
    return cases


ORACLE_CASES = oracle_cases()


def on_oracle_cases(test):
    """Run `test` on each of ORACLE_CASES with each search objective."""
    test = pytest.mark.parametrize("objective", ["steering", "bell_abs"])(test)
    return pytest.mark.parametrize("label, state, alpha, bob_alpha", ORACLE_CASES,
                                   ids=[case[0] for case in ORACLE_CASES])(test)


def angle_quads(u):
    """Angle quads (phi1, phi2, 0, theta2) from search coordinates of shape (..., 3)."""
    return np.insert(u, 2, 0.0, axis=-1)


def objective_array(objective, state, alpha, bob_alpha):
    """The objective over arrays of angle quads (..., 4), each row ordered as
    (phi1, phi2, theta1, theta2), by the cached series' numpy evaluation."""
    functional = inequalities._functional(objective)
    series = inequalities._series(state, alpha, bob_alpha)
    return lambda q: functional(inequalities._correlations(series, q))


def scalar_objective(objective):
    """The reference objective, called as ``(state, q, alpha, bob_alpha)``:
    four scalar ``correlation`` calls combined with ``math.hypot`` and
    ``abs``, sharing no code with the engine's objective table."""
    def value(state, q, alpha, bob_alpha):
        e11, e12, e21, e22 = [correlation(state, phi, theta, alpha, bob_alpha)
                              for phi in (q.phi1, q.phi2) for theta in (q.theta1, q.theta2)]
        if objective == "steering":
            return math.hypot(e11 + e21, e12 + e22) + math.hypot(e11 - e21, e12 - e22)
        return abs(e11 + e12 + e21 - e22)
    return value


# The lockstep array ascent that the engine's one-restart float ascent
# replaced, kept as its reference: every running restart advances together,
# one series call per step over all their points, a stopped restart leaves
# the arrays.  reference_optimize builds the OptimizationResult the engine
# must match bit for bit.

REFERENCE_ARGUMENT_COLUMNS = [0, 0, 1, 1]  # of e11 .. e22, before theta2 is subtracted
# d(e11, e12, e21, e22) / d(phi1, phi2, theta2), and each row's outer product
REFERENCE_JACOBIAN = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0],
                               [0.0, 1.0, -1.0]])
REFERENCE_JACOBIAN_SQUARES = REFERENCE_JACOBIAN[:, :, None] * REFERENCE_JACOBIAN[:, None, :]
REFERENCE_ROTATION = np.array([-1.0, 1.0])  # (v1, v2) reversed and rotated to t = (-v2, v1)
REFERENCE_PAIR_SIGNS = np.array([[1.0], [-1.0]])  # the sign of e21 and e22 in each term's v
REFERENCE_BELL_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])


def reference_series_derivatives(series, deltas):
    """The series and its first and second derivatives at ``deltas``: the
    derivative series have the cosine and sine coefficients (k b_k, -k a_k)
    and (-k^2 a_k, -k^2 b_k)."""
    orders, a, b = series._columns
    angles = orders * deltas.reshape(1, -1)
    cos, sin = np.cos(angles), np.sin(angles)
    terms = a * cos + b * sin
    first = (orders * (b * cos - a * sin)).sum(axis=0)
    second = -(orders * orders * terms).sum(axis=0)
    return tuple(v.reshape(deltas.shape) for v in (series.c0 + terms.sum(axis=0), first, second))


def libm_inverse_power(r):
    """r ** -1.5 per element by libm's pow, through Python floats, inf where
    r is 0 or the power overflows: numpy's own power loop can take a SIMD
    path that rounds differently from libm."""
    def power(v):
        try:
            return v ** -1.5
        except (OverflowError, ZeroDivisionError):
            return math.inf
    return np.vectorize(power, otypes=[float])(r)


# arccos per element by libm, for the same reason
libm_arccos = np.vectorize(math.acos, otypes=[float])


def reference_steering_derivatives(e):
    """Steering, its gradient in (e11, e12, e21, e22), and two factors f,
    shape (..., 2, 4), whose outer products f f^T sum to its Hessian."""
    row1, row2 = e[..., :2], e[..., 2:]
    v = np.concatenate([row1 + row2, row1 - row2], axis=-1).reshape(e.shape[:-1] + (2, 2))
    r = np.hypot(v[..., 0], v[..., 1])[..., None]
    n = v / r
    gradient = np.concatenate([n[..., 0, :] + n[..., 1, :], n[..., 0, :] - n[..., 1, :]], axis=-1)
    t = v[..., ::-1] * REFERENCE_ROTATION * libm_inverse_power(r)
    return (r[..., 0, 0] + r[..., 1, 0], gradient,
            np.concatenate([t, t * REFERENCE_PAIR_SIGNS], axis=-1))


def reference_abs_bell_derivatives(e):
    """|Bell|, its gradient sign(Bell) * (1, 1, 1, -1), and no Hessian factors."""
    bell = e[..., 0] + e[..., 1] + e[..., 2] - e[..., 3]
    return (np.abs(bell), np.sign(bell)[..., None] * REFERENCE_BELL_SIGNS,
            np.zeros(e.shape[:-1] + (0, 4)))


def reference_derivatives(objective):
    if inequalities._functional(objective) is inequalities._steering:
        return reference_steering_derivatives
    return reference_abs_bell_derivatives


def reference_coordinate_objective(objective, state, alpha, bob_alpha):
    """The objective with its gradient (k, 3) and Hessian (k, 3, 3) over
    search coordinates of shape (k, 3)."""
    derivative = reference_derivatives(objective)
    series = inequalities._series(state, alpha, bob_alpha)

    def evaluate(u):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            arguments = u.take(REFERENCE_ARGUMENT_COLUMNS, axis=-1)
            arguments[..., 1::2] -= u[..., 2:]
            e, first, second = reference_series_derivatives(series, arguments)
            value, gradient, factors = derivative(e)
            slopes = (gradient * first)[..., None] * REFERENCE_JACOBIAN
            vectors = ((factors * first[..., None, :])[..., None]
                       * REFERENCE_JACOBIAN).sum(axis=-2)
            hessian = (((gradient * second)[..., None, None]
                        * REFERENCE_JACOBIAN_SQUARES).sum(axis=-3)
                       + (vectors[..., :, None] * vectors[..., None, :]).sum(axis=-3))
            return value, slopes.sum(axis=-2), hessian
    return evaluate


def reference_extreme_eigenvalues(a, b, c, d, e, k):
    """The extreme eigenvalues of [[a, b, c], [b, d, e], [c, e, k]] per array element."""
    q = (a + d + k) / 3.0
    a, d, k = a - q, d - q, k - q
    p = np.sqrt((a * a + d * d + k * k + 2.0 * (b * b + c * c + e * e)) / 6.0)
    det = a * (d * k - e * e) - b * (b * k - c * e) + c * (b * e - c * d)
    cos3 = det / np.maximum(2.0 * p * p * p, np.finfo(float).tiny)
    third = libm_arccos(np.minimum(np.maximum(cos3, -1.0), 1.0)) / 3.0
    return q + 2.0 * p * np.cos(third + 2.0 * np.pi / 3.0), q + 2.0 * p * np.cos(third)


def reference_damped_step(g, h, lam):
    """The steps for gradients (k, 3), Hessians (k, 3, 3) and dampings (k,),
    and each one's model gain."""
    a, b, c, _, d, e, _, _, k = h.reshape(-1, 9).T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        low, high = reference_extreme_eigenvalues(a, b, c, d, e, k)
        mu = np.maximum(high, 0.0) + lam * (1.0 + np.maximum(-low, high))
        a, d, k = mu - a, mu - d, mu - k
        c11, c12, c13 = d * k - e * e, c * e + b * k, b * e + c * d
        c22, c23, c33 = a * k - c * c, b * c + a * e, a * d - b * b
        g1, g2, g3 = g.T
        step = np.stack([c11 * g1 + c12 * g2 + c13 * g3,
                         c12 * g1 + c22 * g2 + c23 * g3,
                         c13 * g1 + c23 * g2 + c33 * g3], axis=1)
        step /= (a * c11 - b * c12 - c * c13)[:, None]
        return step, 0.5 * ((g * step).sum(axis=1) + mu * (step * step).sum(axis=1))


def reference_levenberg(evaluate, x):
    """Every row of ``x`` raised at once; per restart, the last kept point,
    its value, the evaluations used and whether a stop rule ended it."""
    f, g, h = evaluate(x)
    x, done_x, done_f = x.copy(), np.empty_like(x), np.empty_like(f)
    lam = np.full(len(x), search.LAMBDA_START)
    evaluations = np.ones(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    rows = np.arange(len(x))

    def finish(stop):
        nonlocal x, f, g, h, lam, rows
        finished = rows[stop]
        done_x[finished], done_f[finished], converged[finished] = x[stop], f[stop], True
        x, f, g, h, lam, rows = (v[~stop] for v in (x, f, g, h, lam, rows))

    for _ in range(search.MAX_STEPS):
        step, gain = reference_damped_step(g, h, lam)
        stop = ~((np.abs(step).max(axis=1) >= search.STEP_TOL) & np.isfinite(step).all(axis=1)
                 & (gain > search.GAIN_TOL) & (lam <= search.LAMBDA_MAX))
        if stop.any():
            step = step[~stop]
            finish(stop)
            if not rows.size:
                break
        trial = (x + step) % TWO_PI
        f_trial, g_trial, h_trial = evaluate(trial)
        evaluations[rows] += 1
        up = f_trial > f
        gained = f_trial - f
        x[up], f[up], g[up], h[up] = trial[up], f_trial[up], g_trial[up], h_trial[up]
        lam = np.where(up, 0.1 * lam, 10.0 * lam)
        stop = up & (gained < search.GAIN_TOL)
        if stop.any():
            finish(stop)
            if not rows.size:
                break
    done_x[rows], done_f[rows] = x, f
    return done_x, done_f, evaluations, converged


def reference_optimize(objective, state, restarts, seed, alpha=1.0 / math.sqrt(2.0),
                       bob_alpha=None):
    evaluate = reference_coordinate_objective(objective, state, alpha, bob_alpha)
    x, f, used, converged = reference_levenberg(evaluate,
                                                search._start_coordinates(restarts, seed))
    # the objective re-evaluated at the wrapped argmax
    best = x[int(np.argmax(f))] % TWO_PI
    return search.OptimizationResult(
        max_value=float(evaluate(best[None])[0][0]),
        argmax=AngleQuad(*angle_quads(best).tolist()), restarts_used=restarts,
        evaluations=int(used.sum()) + 1, seed=seed, converged=int(converged.sum()))


def ascend_each(engine, starts):
    """search._ascend with the engine's (value, derivatives) pair from every
    row of ``starts``, one at a time, as arrays of the last points, values,
    evaluations and stop flags."""
    runs = [search._ascend(*engine, start) for start in np.asarray(starts).tolist()]
    x, f, used, converged = zip(*runs)
    return np.array(x), np.array(f), np.array(used), np.array(converged)


def evaluate_each(engine, u):
    """The engine's (value, derivatives) pair at every row of ``u``: values
    (k,), gradients (k, 3) and full Hessians (k, 3, 3)."""
    value, derivatives = engine
    values, points = zip(*(value(*point) for point in np.asarray(u).tolist()))
    gradients, uppers = zip(*map(derivatives, points))
    hessians = np.empty((len(values), 3, 3))
    rows, columns = np.triu_indices(3)
    hessians[:, rows, columns] = hessians[:, columns, rows] = uppers
    return np.array(values), np.array(gradients), hessians


# d(e11, e12, e21, e22) / d(phi1, phi2, theta1, theta2), and the outer
# product of each row with itself
DIFFERENCES = np.array([[1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0],
                        [0.0, 1.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
DIFFERENCE_SQUARES = DIFFERENCES[:, :, None] * DIFFERENCES[:, None, :]


def quad_derivatives(objective, state, alpha, bob_alpha):
    """The objective with its exact gradient and Hessian over the four angles,
    as the engine first took them: the reference functional derivatives, and
    the chain rule through every correlation's difference phi_j - theta_k,
    over quads of shape (k, 4), sliced to the search coordinates
    (phi1, phi2, theta2).  The reference for the engine's fused
    evaluation in those coordinates."""
    functional = inequalities._functional(objective)
    derivative = reference_derivatives(objective)
    series = inequalities._series(state, alpha, bob_alpha)

    def evaluate(u):
        q = angle_quads(u)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e, first, second = reference_series_derivatives(
                series, q.take([0, 0, 1, 1], axis=-1) - q.take([2, 3, 2, 3], axis=-1))
            _, gradient, factors = derivative(e)
            slopes = (gradient * first)[..., None] * DIFFERENCES
            vectors = ((factors * first[..., None, :])[..., None] * DIFFERENCES).sum(axis=-2)
            hessian = (((gradient * second)[..., None, None] * DIFFERENCE_SQUARES).sum(axis=-3)
                       + (vectors[..., :, None] * vectors[..., None, :]).sum(axis=-3))
        columns = [0, 1, 3]
        return functional(e), slopes.sum(axis=-2)[:, columns], hessian[:, columns][:, :, columns]
    return evaluate


class TestOptimize:
    def test_deterministic_for_fixed_seed(self):
        a = optimize("steering", bec_pair(1), restarts=12, seed=42)
        b = optimize("steering", bec_pair(1), restarts=12, seed=42)
        assert a == b

    def test_different_seeds_explore_differently(self):
        a = optimize("bell_abs", bec_pair(2), restarts=4, seed=1)
        b = optimize("bell_abs", bec_pair(2), restarts=4, seed=2)
        assert a.argmax != b.argmax

    def test_monotone_in_restarts(self):
        values = [optimize("bell_abs", bec_pair(2), restarts=r, seed=5).max_value
                  for r in (1, 2, 4, 8, 16)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12

    def test_bell_single_particle_reaches_analytic_maximum(self):
        result = optimize("bell_abs", bec_pair(1), restarts=16, seed=3)
        assert result.max_value == pytest.approx(GOLDEN, abs=1e-6)

    def test_argmax_canonical_and_consistent(self):
        result = optimize("steering", noon_pair(2, 0), restarts=8, seed=9)
        for value in result.argmax.as_tuple():
            assert 0.0 <= value < 2.0 * math.pi
        assert steering_value(noon_pair(2, 0), result.argmax) == pytest.approx(
            result.max_value, abs=1e-9)

    def test_never_exceeds_quantum_bound(self):
        for state in (bec_pair(1), bec_pair(2), noon_pair(2, 0)):
            for objective in ("steering", "bell_abs"):
                result = optimize(objective, state, restarts=8, seed=11)
                assert result.max_value <= QUANTUM_BOUND + 1e-6

    def test_restart_count_validated(self):
        with pytest.raises(ValueError):
            optimize("steering", bec_pair(1), restarts=0)

    @pytest.mark.parametrize("restarts, seed, named", [
        (2.5, 0, "restarts=2.5"), (True, 0, "restarts=True"), ("3", 0, "restarts='3'"),
        (2, True, "seed=True"), (2, 1.0, "seed=1.0")])
    def test_non_integer_restarts_and_seed_rejected(self, restarts, seed, named):
        bound = f"in [1, {search.MAX_RESTARTS}]" if named.startswith("restarts") else ">= 0"
        with pytest.raises(ValueError, match=f"^{re.escape(named)} must be an integer "
                                             f"{re.escape(bound)}$"):
            optimize("steering", bec_pair(1), restarts=restarts, seed=seed)

    def test_numpy_integers_accepted_and_reported_as_int(self):
        result = optimize("steering", bec_pair(1), restarts=np.int64(2), seed=np.int32(3))
        assert result == optimize("steering", bec_pair(1), restarts=2, seed=3)
        assert type(result.restarts_used) is int and type(result.seed) is int

    def test_evaluation_count_reported(self):
        result = optimize("steering", bec_pair(1), restarts=2, seed=0)
        assert result.evaluations > 10
        assert result.restarts_used == 2

    def test_default_run_converges_every_restart(self):
        # |Bell| is smooth at its maxima, so every restart meets a stop rule
        # before the step cap
        result = optimize("bell_abs", bec_pair(1))
        assert result.converged == result.restarts_used == 64

    def test_iteration_cap_reported_as_not_converged(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_STEPS", 3)
        result = optimize("steering", bec_pair(1), restarts=8, seed=0)
        assert result.converged == 0
        # each restart's start and its three trial points, and the final value
        assert result.evaluations == 8 * (1 + 3) + 1

    def test_restart_bound(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_STEPS", 1)  # keeps the run cheap
        result = optimize("bell_abs", bec_pair(1), restarts=search.MAX_RESTARTS)
        assert result.restarts_used == search.MAX_RESTARTS
        with pytest.raises(ValueError, match=rf"restarts={search.MAX_RESTARTS + 1} must be an "
                                             rf"integer in \[1, {search.MAX_RESTARTS}\]"):
            optimize("bell_abs", bec_pair(1), restarts=search.MAX_RESTARTS + 1)

    @pytest.mark.parametrize("restarts", [8, 64])
    def test_reaches_basin_the_simplex_missed(self, restarts):
        # the 31st draw of oracle_cases' generator for a (3, 2) state, where
        # the Nelder-Mead search this replaced gave 0.807320 at 8 and 64
        # restarts and reached 0.813371 only at 512; it is the global maximum
        rng = np.random.default_rng(23)
        for _ in range(31):
            state = random_pure_state(rng, 3, 2)
            alpha, bob_alpha = np.sqrt(rng.uniform(0.1, 0.9, 2))
        assert (round(alpha, 4), round(bob_alpha, 4)) == (0.5313, 0.5003)
        result = optimize("bell_abs", state, restarts=restarts, seed=41, alpha=float(alpha),
                          bob_alpha=float(bob_alpha))
        assert abs(result.max_value - 0.8133710806405092) <= 1e-12
        want = oracle.maximum("bell_abs", state, float(alpha), float(bob_alpha))
        assert abs(want.value - 0.8133710806405092) <= 1e-12


class TestStartPoints:
    # scipy is the oracle: its scrambled Sobol points times 2*pi, called with
    # seed=int.  A Generator in place of the int would make scipy spawn a
    # child stream and draw other points.
    @pytest.mark.filterwarnings("ignore:The balance properties")
    # and the counts at the edges of the XOR scan: 2^k - 1, 2^k and 2^k + 1
    # rows, and a numpy integer
    @pytest.mark.parametrize("restarts", [1, 2, 3, 5, 8, 17, 64, 100, 512, 4096, 4095, 1025,
                                          2048, pytest.param(np.int64(33), id="int64-33")])
    def test_bit_identical_to_scipy_sobol(self, restarts):
        for seed in [*range(64), 301, 12345, 2 ** 31 - 1]:
            sobol = qmc.Sobol(d=4, scramble=True, seed=seed).random(restarts)
            assert np.array_equal(search._start_points(restarts, seed), sobol * TWO_PI)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            search._start_points(4, -1)


class TestFinish:
    """max_value is the search's own libm objective at the wrapped argmax."""

    @pytest.mark.parametrize("n", [1, 2], ids=["bec1", "bec2"])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    def test_no_array_evaluation(self, objective, n, monkeypatch):
        want = optimize(objective, bec_pair(n), restarts=8, seed=n)

        def refused(*args):
            raise AssertionError("the array objective was called")
        monkeypatch.setattr(inequalities, "_correlations", refused)
        monkeypatch.setattr(search, "_correlations", refused)
        monkeypatch.setattr(inequalities._TrigSeries, "evaluate", refused)
        assert optimize(objective, bec_pair(n), restarts=8, seed=n) == want

    @on_oracle_cases
    @pytest.mark.parametrize("restarts", [1, 8, 64])
    def test_max_value_is_search_objective_at_argmax(self, restarts, objective, label, state,
                                                     alpha, bob_alpha):
        result = optimize(objective, state, restarts=restarts, seed=len(label), alpha=alpha,
                          bob_alpha=bob_alpha)
        q = result.argmax
        value, _ = search._coordinate_objective(objective, state, alpha, bob_alpha)
        assert q.theta1 == 0.0
        assert result.max_value == value(q.phi1, q.phi2, q.theta2)[0]
        # the series' numpy evaluation sums its orders in another order
        array = objective_array(objective, state, alpha, bob_alpha)(np.array(q.as_tuple()))
        assert abs(result.max_value - array) <= 1e-15


# Run in a fresh interpreter where every scipy import fails.
WITHOUT_SCIPY = """
import sys
sys.path.insert(0, {src!r})
sys.modules["scipy"] = None
import twocopy, twocopy.cli
from twocopy.search import optimize
result = optimize("steering", twocopy.bec_pair(1), restarts=8, seed=7)
assert result.max_value > 2.8, result
code = twocopy.cli.main(["optimize", "--state", "bec", "--n1", "1", "--n2", "1",
                         "--objective", "steering", "--restarts", "8"])
assert code == 0, code
loaded = [name for name, module in sys.modules.items()
          if name.startswith("scipy") and module is not None]
assert not loaded, loaded
"""


def test_runtime_needs_no_scipy():
    src = str(pathlib.Path(twocopy.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY.format(src=src)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert '"converged": 8' in run.stdout


# 40 seeded results, as reprs, which tell every float bit apart
DISPATCH_GRID = """
from twocopy.search import optimize
from twocopy.states import bec_pair, noon_pair
reprs = [repr(optimize(objective, state, restarts=64, seed=seed))
         for state in (bec_pair(1), bec_pair(2), noon_pair(2, 0), bec_pair(1, 2))
         for objective in ("steering", "bell_abs") for seed in range(5)]
"""


def dispatched_cpu_features():
    """The CPU features numpy dispatches its SIMD loops to and finds on this
    machine, as NPY_DISABLE_CPU_FEATURES names them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


def test_results_do_not_depend_on_numpy_cpu_dispatch():
    # The search runs on libm through Python floats, so seeded results are
    # the same with numpy's dispatched SIMD loops disabled.  Under a run
    # that already disables them the list is empty, and the subprocess runs
    # with them enabled.
    src = str(pathlib.Path(twocopy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src,
           "NPY_DISABLE_CPU_FEATURES": " ".join(dispatched_cpu_features())}
    run = subprocess.run([sys.executable, "-c", DISPATCH_GRID + "print(*reprs, sep='\\n')"],
                         capture_output=True, text=True, timeout=120, env=env)
    assert run.returncode == 0, run.stderr
    here = {}
    exec(DISPATCH_GRID, here)
    assert len(here["reprs"]) == 40 and run.stdout.splitlines() == here["reprs"]


BENCHMARK_STATES = [("bec1", bec_pair(1)), ("bec2", bec_pair(2)), ("bec3", bec_pair(3)),
                    ("noon2", noon_pair(2, 0)), ("bec12", bec_pair(1, 2))]


class TestLockstepAscent:
    """The engine's ascent, one restart at a time on floats, against the
    lockstep array ascent it replaced (reference_levenberg), in the search
    coordinates (phi1, phi2, theta2) at theta1 = 0."""

    @on_oracle_cases
    def test_matches_one_start_reference(self, objective, label, state, alpha,
                                         bob_alpha):
        # each restart run alone takes, bit for bit, its path in the
        # lockstep run of all six
        starts = search._start_coordinates(6, seed=len(label))
        together = reference_levenberg(
            reference_coordinate_objective(objective, state, alpha, bob_alpha), starts)
        alone = ascend_each(search._coordinate_objective(objective, state, alpha, bob_alpha),
                            starts)
        for name, a, b in zip(("x", "f", "evaluations", "converged"), together, alone):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("label, state", BENCHMARK_STATES,
                             ids=[case[0] for case in BENCHMARK_STATES])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    def test_results_match_reference(self, objective, label, state):
        # a random pair of splitters, the balanced one, and the ends 0 and 1
        rng = np.random.default_rng(len(label))
        alphas = [(float(a), float(b)) for a, b in rng.uniform(0.05, 0.95, (1, 2))]
        alphas += [(1.0 / math.sqrt(2.0), None), (0.0, 1.0), (1.0, 0.0)]
        for restarts in (1, 8, 64):
            for seed, (alpha, bob_alpha) in enumerate(alphas):
                got = optimize(objective, state, restarts=restarts, seed=seed,
                               alpha=alpha, bob_alpha=bob_alpha)
                want = reference_optimize(objective, state, restarts, seed, alpha, bob_alpha)
                # repr tells every float bit apart but NaN payloads
                assert repr(got) == repr(want), (restarts, alpha, bob_alpha)

    @given(data=st.data(), objective=st.sampled_from(["steering", "bell_abs"]),
           alphas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           restarts=st.sampled_from([1, 8, 64]), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_results_match_reference_on_random_states(self, data, objective, alphas,
                                                      restarts, seed):
        n1, n2 = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        state = random_mixture(data.draw, n1, n2, data.draw(st.integers(1, 2)))
        alpha, bob_alpha = alphas
        got = optimize(objective, state, restarts=restarts, seed=seed, alpha=alpha,
                       bob_alpha=bob_alpha)
        want = reference_optimize(objective, state, restarts, seed, alpha, bob_alpha)
        assert repr(got) == repr(want)

    def test_extreme_eigenvalues_match_eigvalsh(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(500, 3, 3)) * rng.uniform(1e-3, 1e3, (500, 1, 1))
        m = m + m.transpose(0, 2, 1)
        # repeated eigenvalues: multiples of the identity (the zero matrix
        # among them), a double root either side, and a rank-one matrix
        v = rng.normal(size=3)
        m[:4] = np.array([0.0, 1.0, -2.5, 7.0])[:, None, None] * np.eye(3)
        m[4] = np.diag([1.0, 1.0, -3.0])
        m[5] = np.diag([-2.0, 4.0, 4.0])
        m[6] = np.outer(v, v)
        want = np.linalg.eigvalsh(m)
        for row, (lowest, _, highest) in zip(m, want):
            low, high = search._extreme_eigenvalues(*row[np.triu_indices(3)].tolist())
            scale = max(abs(lowest), abs(highest))
            assert abs(low - lowest) <= 1e-13 * scale + 1e-300
            assert abs(high - highest) <= 1e-13 * scale + 1e-300

    def test_damped_step_matches_linalg_solve(self):
        # random symmetric Hessians, definite and indefinite, at dampings
        # that keep mu I - H well conditioned
        rng = np.random.default_rng(7)
        g = rng.normal(size=(300, 3))
        h = rng.normal(size=(300, 3, 3))
        h = h + h.transpose(0, 2, 1)
        lam = 10.0 ** rng.uniform(-3.0, 3.0, 300)
        for g_row, h_row, lam_row in zip(g, h, lam):
            upper = tuple(h_row[np.triu_indices(3)].tolist())
            step, gain = search._damped_step(tuple(g_row.tolist()), upper,
                                             *search._extreme_eigenvalues(*upper),
                                             float(lam_row))
            eigenvalues = np.linalg.eigvalsh(h_row)
            mu = max(eigenvalues[-1], 0.0) + lam_row * (1.0 + np.abs(eigenvalues).max())
            want = np.linalg.solve(mu * np.eye(3) - h_row, g_row)
            assert np.abs(np.array(step) - want).max() <= 1e-11 * np.abs(want).max()
            model = g_row @ want + 0.5 * want @ h_row @ want
            assert abs(gain - model) <= 1e-11 * abs(model)
            assert gain > 0.0

    def test_kept_points_wrapped(self):
        # a restart's point is wrapped into [0, 2*pi) at every kept step, and
        # its value is that of the wrapped point
        engine = search._coordinate_objective("bell_abs", bec_pair(2),
                                              1.0 / math.sqrt(2.0), None)
        starts = search._start_coordinates(64, seed=3)
        x, f, _, _ = ascend_each(engine, starts)
        moved = (x != starts).any(axis=1)
        assert moved.any() and (starts < 0.0).any()
        assert ((0.0 <= x[moved]) & (x[moved] < TWO_PI)).all()
        assert np.array_equal(f, evaluate_each(engine, x)[0])

    def test_stops_at_a_maximum(self):
        # from the point an ascent from near bec1's Bell working point ends
        # on, the model promises no gain, so a second ascent stops there,
        # converged, after one evaluation
        q = AngleQuad(0.0, math.pi / 2, 3.93, 2.36)
        engine = search._coordinate_objective("bell_abs", bec_pair(1),
                                              1.0 / math.sqrt(2.0), None)
        x, _, _, _ = search._ascend(*engine, [q.phi1 - q.theta1, q.phi2 - q.theta1,
                                              q.theta2 - q.theta1])
        x, f, evaluations, converged = search._ascend(*engine, x)
        assert f == pytest.approx(GOLDEN, abs=1e-12)
        assert (evaluations, converged) == (1, True)


class TestBatchedSimplex:
    """The batched objective against four scalar correlation calls."""

    @on_oracle_cases
    def test_array_objective_matches_scalar(self, objective, label, state, alpha,
                                            bob_alpha):
        quads = np.random.default_rng(29).uniform(-10.0, 10.0, (200, 4))
        values = objective_array(objective, state, alpha, bob_alpha)(quads)
        scalar = scalar_objective(objective)
        for quad, v in zip(quads, values):
            assert v == pytest.approx(
                scalar(state, AngleQuad(*quad), alpha, bob_alpha), abs=1e-14)


class TestPathIdentity:
    """The fused objective against the reference it replaced, which runs the
    same arithmetic in the same order, so the two are equal bit for bit."""

    @on_oracle_cases
    def test_derivatives_match_reference(self, objective, label, state, alpha, bob_alpha):
        engine = search._coordinate_objective(objective, state, alpha, bob_alpha)
        reference = quad_derivatives(objective, state, alpha, bob_alpha)
        u = np.random.default_rng(len(label)).uniform(-10.0, 10.0, (50, 3))
        # and the quad (0, 0, pi, pi) shifted to theta1 = 0: for bec1 all four
        # correlations agree there, a steering hypot argument vanishes, and
        # both derivatives are NaN (TestNewtonFinish)
        u = np.vstack([u, [[-math.pi, -math.pi, 0.0]]])
        for got, want in zip(evaluate_each(engine, u), reference(u)):
            assert np.array_equal(got, want, equal_nan=True)


class TestNewtonFinish:
    """The Newton steps' exact derivatives, and where they are not finite."""

    @on_oracle_cases
    def test_derivatives_match_central_differences(self, objective, label, state,
                                                   alpha, bob_alpha):
        quad_value = objective_array(objective, state, alpha, bob_alpha)

        def value(u):
            return quad_value(angle_quads(u))
        engine = search._coordinate_objective(objective, state, alpha, bob_alpha)
        rng = np.random.default_rng(len(label))
        u = rng.uniform(0.0, TWO_PI, (60, 3))
        # only points well away from the kinks, where both hypot arguments
        # and Bell are at least a third of the largest correlation
        e11, e12, e21, e22 = (np.vectorize(lambda d: correlation(state, d, 0.0, alpha,
                                                                 bob_alpha))(delta)
                              for delta in (u[:, 0], u[:, 0] - u[:, 2], u[:, 1],
                                            u[:, 1] - u[:, 2]))
        clearance = np.minimum.reduce([np.hypot(e11 + e21, e12 + e22),
                                       np.hypot(e11 - e21, e12 - e22),
                                       np.abs(e11 + e12 + e21 - e22)])
        u = u[clearance > np.abs([e11, e12, e21, e22]).max() / 3]
        assert len(u) >= 10
        fused, gradient, hessian = evaluate_each(engine, u)
        assert np.abs(fused - value(u)).max() <= 1e-14
        h, unit = 1e-5, np.eye(3)
        numeric = np.stack([(value(u + h * unit[i]) - value(u - h * unit[i])) / (2 * h)
                            for i in range(3)], axis=-1)
        assert np.abs(gradient - numeric).max() <= 1e-8
        h = 1e-4
        numeric = np.stack([np.stack([
            (value(u + h * (unit[i] + unit[j])) - value(u + h * (unit[i] - unit[j]))
             - value(u - h * (unit[i] - unit[j])) + value(u - h * (unit[i] + unit[j])))
            / (4 * h * h) for j in range(3)], axis=-1) for i in range(3)], axis=-2)
        # the second differences carry about 1e-7 of rounding and truncation
        assert np.abs(hessian - numeric).max() <= 1e-6 * max(1.0, np.abs(hessian).max())

    def test_step_refused_at_hypot_zero_without_warning(self):
        value, derivatives = search._coordinate_objective("steering", bec_pair(1),
                                                          1.0 / math.sqrt(2.0), None)
        # the quad (0, 0, pi, pi): all four correlations agree, so E11 - E21
        # and E12 - E22 vanish
        u = [-math.pi, -math.pi, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start, point = value(*u)
            gradient, hessian = derivatives(point)
            x, f, evaluations, converged = search._ascend(value, derivatives, u)
            optimize("steering", bec_pair(1), restarts=16, seed=0)
        assert start == pytest.approx(QUANTUM_BOUND, abs=1e-12)
        assert not np.isfinite(hessian).all()
        # the step is not finite, a stop rule: no trial point is evaluated
        assert (evaluations, converged) == (1, True)
        assert x == u and f == start

    def test_step_refused_at_zero_determinant_without_warning(self, monkeypatch):
        # a zero Hessian at a damping of 1e-120: mu = 1e-120, and the
        # determinant mu^3 of mu I - H underflows to 0, so the step is not
        # finite, as in the reference, and the ascent stops at its start
        g, h = (1.0, 0.0, 0.0), (0.0,) * 6
        step, _ = search._damped_step(g, h, *search._extreme_eigenvalues(*h), 1e-120)
        want, _ = reference_damped_step(np.array([g]), np.zeros((1, 3, 3)), np.array([1e-120]))
        assert not np.isfinite(step).all() and not np.isfinite(want).all()
        monkeypatch.setattr(search, "LAMBDA_START", 1e-120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, f, evaluations, converged = search._ascend(lambda *u: (0.5, None),
                                                          lambda point: (g, h), [1.0, 2.0, 3.0])
        assert (x, f, evaluations, converged) == ([1.0, 2.0, 3.0], 0.5, 1, True)

    def test_step_refused_at_subnormal_hypot_without_warning(self, monkeypatch):
        # Correlations 2e-310 cos(d): both hypot arguments are subnormal at
        # every start, r ** -1.5 overflows, the Hessian is not finite, and
        # every restart stops at its start, as in the reference.
        tiny = inequalities._TrigSeries(np.array([0.0, 1e-310 + 0j]))
        monkeypatch.setattr(inequalities, "_series", lambda *args: tiny)
        monkeypatch.setattr(search, "_series", lambda *args: tiny)
        value, derivatives = search._coordinate_objective("steering", bec_pair(1), 0.5, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, point = value(0.3, 1.2, 2.5)
            gradient, hessian = derivatives(point)
            result = optimize("steering", bec_pair(1), restarts=8, seed=3, alpha=0.5)
        assert 0.0 < f < 1e-300 and np.isfinite(gradient).all()
        assert not np.isfinite(hessian).all()
        assert result.converged == 8 and result.evaluations == 8 + 1
        assert repr(result) == repr(reference_optimize("steering", bec_pair(1), 8, 3, 0.5))

    def test_each_derivative_and_trial_counts_as_evaluation(self):
        value, derivatives = search._coordinate_objective("bell_abs", bec_pair(2),
                                                          1.0 / math.sqrt(2.0), None)
        points = []

        def counted(*u):
            points.append(u)
            return value(*u)
        # one call per point, the start and each trial of every restart
        for start in search._start_coordinates(16, seed=4).tolist():
            before = len(points)
            _, _, evaluations, _ = search._ascend(counted, derivatives, start)
            assert len(points) - before == evaluations and points[before] == tuple(start)
        result = optimize("bell_abs", bec_pair(2), restarts=16, seed=4)
        assert result.evaluations == len(points) + 1

    @pytest.mark.parametrize("objective, state, restarts", [
        ("steering", bec_pair(1), 16), ("bell_abs", bec_pair(2), 16),
        ("steering", bec_pair(1), 64)],
        ids=["bec1-steering", "bec2-bell_abs", "bec1-steering-64"])
    def test_derivatives_built_only_where_a_step_follows(self, objective, state, restarts,
                                                         monkeypatch):
        # one value call per point evaluated; the derivatives and the
        # Hessian's extreme eigenvalues once at each start and at each kept
        # trial that does not end its restart, never at a refused trial (at
        # 64 restarts one restart ends on a kept trial at the step cap)
        value, derivatives = search._coordinate_objective(objective, state,
                                                          1.0 / math.sqrt(2.0), None)
        values, built, eigenvalues = [], [], []

        def counted_value(*u):
            f, point = value(*u)
            values.append(f)
            return f, point

        def counted_derivatives(point):
            built.append(point)
            return derivatives(point)

        extreme = search._extreme_eigenvalues

        def counted_eigenvalues(*h):
            eigenvalues.append(h)
            return extreme(*h)
        monkeypatch.setattr(search, "_extreme_eigenvalues", counted_eigenvalues)
        monkeypatch.setattr(search, "_coordinate_objective",
                            lambda *args: (counted_value, counted_derivatives))
        starts = search._start_coordinates(restarts, seed=0).tolist()
        refused = 0
        for start in starts:
            before = len(values), len(built), len(eigenvalues)
            _, _, evaluations, converged = search._ascend(counted_value, counted_derivatives,
                                                          start)
            path = values[before[0]:]
            assert len(path) == evaluations
            # a trial is kept where it beats every point before it in its restart
            kept = [i for i in range(1, len(path)) if path[i] > max(path[:i])]
            refused += len(path) - 1 - len(kept)
            # a kept last trial ends the restart at the step cap or on the gain rule
            ends = bool(kept) and kept[-1] == len(path) - 1 and (
                not converged or path[-1] - max(path[:-1]) < search.GAIN_TOL)
            assert len(built) - before[1] == 1 + len(kept) - ends
            assert len(eigenvalues) - before[2] == len(built) - before[1]
        assert refused > 0
        totals = len(values), len(built), len(eigenvalues)
        del values[:], built[:], eigenvalues[:]
        result = optimize(objective, state, restarts=restarts, seed=0)
        # the final re-evaluation of the argmax is one more value call
        assert len(values) == result.evaluations == totals[0] + 1
        assert (len(built), len(eigenvalues)) == totals[1:]

    def test_every_restart_polished_on_smooth_maxima(self):
        # |Bell| of bec2 is smooth at its maxima: at seed 1 every restart
        # meets a stop rule on a strict local maximum, its gradient at
        # rounding level
        engine = search._coordinate_objective("bell_abs", bec_pair(2),
                                              1.0 / math.sqrt(2.0), None)
        x, _, _, converged = ascend_each(engine, search._start_coordinates(64, seed=1))
        _, gradient, hessian = evaluate_each(engine, x)
        assert converged.all()
        assert np.abs(gradient).max() <= 1e-7
        assert (np.linalg.eigvalsh(hessian)[:, -1] < 0.0).all()
        result = optimize("bell_abs", bec_pair(2), seed=1)
        assert result.converged == result.restarts_used == 64

    def test_hypot_zero_maximum_left_unpolished(self):
        state, alpha = bec_pair(3), 1.0 / math.sqrt(2.0)
        engine = search._coordinate_objective("steering", state, alpha, None)
        x, _, evaluations, converged = ascend_each(engine, search._start_coordinates(64, seed=0))
        e = np.array([[correlation(state, phi, theta, alpha) for phi, theta in
                       ((p1, 0.0), (p1, t2), (p2, 0.0), (p2, t2))] for p1, p2, t2 in x])
        smallest = np.minimum(np.hypot(e[:, 0] + e[:, 2], e[:, 1] + e[:, 3]),
                              np.hypot(e[:, 0] - e[:, 2], e[:, 1] - e[:, 3]))
        # A restart that creeps toward a maximum with a hypot argument near 0,
        # where the quadratic model fails, runs to the step cap; every other
        # restart meets a stop rule.
        assert (~converged).any()
        assert (smallest[~converged] < 1e-3).all()
        assert (evaluations[~converged] == 1 + search.MAX_STEPS).all()
        result = optimize("steering", state, seed=0)
        assert result.converged == converged.sum() < result.restarts_used
        assert result.max_value == pytest.approx(QUANTUM_BOUND, abs=1e-12)


def random_mixture(draw, n1, n2, members):
    """A mixture of ``members`` pure states in the (n1, n2) sector, drawn."""
    occupations = [(k, n1 - k, l, n2 - l) for k in range(n1 + 1) for l in range(n2 + 1)]
    entries = []
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=members, max_size=members))
    for weight in weights:
        amps = draw(st.lists(AMPLITUDES, min_size=len(occupations),
                             max_size=len(occupations)))
        if not any(amps):
            amps[0] = 1.0
        norm = math.sqrt(sum(abs(c) ** 2 for c in amps))
        member = from_fock_amplitudes(
            COMPOSITE_MODES, {o: c / norm for o, c in zip(occupations, amps) if c})
        entries.append((weight / sum(weights), member))
    return CompositeState(tuple(entries), n1=n1, n2=n2)


AMPLITUDES = st.one_of(st.just(0j), st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False))


class TestMaximaOracle:
    """optimize against the exact global maximum (tests/oracle.py)."""

    @on_oracle_cases
    @pytest.mark.parametrize("restarts", [8, 64])
    def test_same_maximum(self, restarts, objective, label, state, alpha, bob_alpha):
        result = optimize(objective, state, restarts=restarts, seed=len(label), alpha=alpha,
                          bob_alpha=bob_alpha)
        want = oracle.maximum(objective, state, alpha, bob_alpha)
        assert abs(result.max_value - want.value) <= 1e-12
        assert result.max_value <= want.upper + 1e-12

    @given(data=st.data(), objective=st.sampled_from(["steering", "bell_abs"]),
           alphas=st.tuples(st.floats(0.1, 0.95), st.floats(0.1, 0.95)),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_never_below_oracle(self, data, objective, alphas, seed):
        # at the default 64 restarts optimize reaches the global maximum on
        # every draw, vacuum sectors among them
        n1, n2 = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        state = random_mixture(data.draw, n1, n2, data.draw(st.integers(1, 2)))
        alpha, bob_alpha = alphas
        result = optimize(objective, state, seed=seed, alpha=alpha, bob_alpha=bob_alpha)
        want = oracle.maximum(objective, state, alpha, bob_alpha)
        assert abs(result.max_value - want.value) <= 1e-12
        assert result.max_value <= want.upper + 1e-12


class TestExactOracle:
    """tests/oracle.py against brute force."""

    @given(coefficients=st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False),
                                 min_size=1, max_size=9), vanish=st.booleans(),
           odd=st.sampled_from([1.0, 1e-12, 0.0]))
    # f'(pi) = 8e-13: the eigenvalue for the maximum near x = 0 is 1e-4 off,
    # and the Newton step mends it
    @example(coefficients=[-0.7 - 0.3j, 0.7 - 0.4j], vanish=False, odd=1e-12)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_trig_extremes_match_dense_grid(self, coefficients, vanish, odd):
        # degree 0 to 8, with a vanishing top order, and odd parts scaled
        # down: f'(pi), the leading coefficient in t, is then 0 or nearly
        F = np.array([coefficients[:-1] + [coefficients[-1] * (not vanish)]])
        F = F.real + 1j * odd * F.imag
        low, high, _, _ = oracle.trig_extremes(F)
        grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        tolerance = 1e-12 * (1.0 + 2.0 * np.abs(F).sum())
        for G, extreme in ((F, high[0]), (-F, -low[0])):
            values = oracle.trig_values(G, grid[None])[0][0]
            # the grid's largest maxima, at most d of them, polished
            peaks = np.flatnonzero((values >= np.roll(values, 1))
                                   & (values >= np.roll(values, -1)))
            polished = min(minimize_scalar(
                lambda x: -oracle.trig_values(G, np.array([[x]]))[0][0, 0], method="bounded",
                bounds=grid[i] + [-grid[1], grid[1]], options={"xatol": 1e-10}).fun
                for i in peaks[np.argsort(values[peaks])[-F.shape[1]:]])
            assert values.max() <= extreme + tolerance and abs(extreme + polished) <= tolerance

    @given(data=st.data(), objective=st.sampled_from(["steering", "bell_abs"]),
           alphas=st.tuples(st.floats(0.1, 0.95), st.floats(0.1, 0.95)))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_reduction_against_four_angle_grid(self, data, objective, alphas):
        # the maximum is reached at the oracle's quad, neither a 16^4 grid over
        # the four angles nor a local search from its best point beats it, and
        # the reduced objective is reached at its quads everywhere and keeps
        # to its Lipschitz constants
        n1, n2 = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        state = random_mixture(data.draw, n1, n2, data.draw(st.integers(1, 2)))
        want = oracle.maximum(objective, state, *alphas)
        value = objective_array(objective, state, *alphas)
        axis = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        quads = np.stack(np.meshgrid(*[axis] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
        grid = value(quads)
        polished = minimize(lambda q: -value(q), quads[np.argmax(grid)], method="Powell")
        assert abs(value(np.array(want.quad)) - want.value) <= 1e-12
        assert max(grid.max(), -polished.fun) <= want.value + 1e-12 <= want.upper + 2e-12
        reduced, lipschitz, _, _ = oracle.reduction(objective, state, *alphas)
        rng = np.random.default_rng(0)
        p = rng.uniform(0.0, TWO_PI, (400, len(lipschitz)))
        q = p + rng.normal(0.0, 0.01, p.shape)
        (at_p, quads), (at_q, _) = reduced(p), reduced(q)
        assert (at_p <= value(quads) + 1e-12).all()
        assert (abs(at_p - at_q) <= abs(p - q) @ lipschitz + 1e-12).all()


class TestScan:
    def test_series_structure(self):
        series, = scan_1d(("steering",), bec_pair(1),
                          {"phi1": 0.0, "phi2": math.pi / 2, "theta1": 3.93},
                          axis="theta2", points=16)
        assert series.axis == "theta2"
        assert len(series.samples) == 16
        xs = [x for x, _ in series.samples]
        assert xs == sorted(xs)
        assert xs[0] == 0.0 and xs[-1] < 2.0 * math.pi
        assert dict(series.fixed) == {"phi1": 0.0, "phi2": math.pi / 2, "theta1": 3.93}

    def test_values_match_direct_evaluation(self):
        state = noon_pair(2, 0)
        fixed = {"phi1": -0.13, "phi2": 0.65, "theta1": 0.26}
        steer, bell = scan_1d(("steering", "bell"), state, fixed, points=32)
        for (x, vs), (_, vb) in zip(steer.samples, bell.samples):
            q = AngleQuad(fixed["phi1"], fixed["phi2"], fixed["theta1"], x)
            assert vs == pytest.approx(steering_value(state, q))
            assert vb == pytest.approx(abs(bell_value(state, q)))

    def test_one_correlation_pass_for_every_objective(self, monkeypatch):
        state = bec_pair(1, 2)
        fixed = {"phi1": 0.3, "phi2": 1.9, "theta2": 4.1}
        singles = [scan_1d([name], state, fixed, axis="theta1", points=64)[0]
                   for name in ("steering", "bell")]
        calls = []

        def counted(*args):
            calls.append(args)
            return inequalities._correlations(*args)
        monkeypatch.setattr(search, "_correlations", counted)
        both = scan_1d(["steering", "bell"], state, fixed, axis="theta1", points=64)
        assert list(both) == singles
        assert len(calls) == 1

    def test_every_objective_checked_before_evaluation(self, monkeypatch):
        monkeypatch.setattr(search, "_correlations", None)
        with pytest.raises(ValueError, match="^unknown objective 'nope'; choose from "):
            scan_1d(["steering", "nope"], bec_pair(1), {"phi1": 0, "phi2": 1, "theta1": 2})

    def test_peak_below_optimizer_maximum(self):
        state = bec_pair(2)
        series, = scan_1d(("steering",), state,
                          {"phi1": 0.0, "phi2": 1.07, "theta1": 3.93}, points=720)
        best = optimize("steering", state, restarts=16, seed=21)
        assert series.peak()[1] <= best.max_value + 1e-6

    def test_constant_series_for_vacuum(self):
        state = bec_pair(0, 0)
        series, = scan_1d(("steering",), state,
                          {"phi1": 0.1, "phi2": 0.9, "theta1": 2.0}, points=16)
        values = series.values()
        assert max(values) - min(values) < 1e-14

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            scan_1d(("steering",), bec_pair(1), {"phi1": 0, "phi2": 1, "theta1": 2},
                    axis="sigma")

    def test_fixed_angle_validation(self):
        with pytest.raises(ValueError):
            scan_1d(("steering",), bec_pair(1), {"phi1": 0, "phi2": 1}, axis="theta2")
        with pytest.raises(ValueError):
            scan_1d(("steering",), bec_pair(1),
                    {"phi1": 0, "phi2": 1, "theta1": 2, "theta2": 3}, axis="theta2")

    def test_stray_key_is_not_an_angle(self):
        message = f"fixed sigma is not an angle; angles are {ANGLE_NAMES}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scan_1d(["bell"], bec_pair(1), {"phi1": 0, "phi2": 1, "theta1": 2, "sigma": 3})

    def test_fixed_axis_angle_conflicts(self):
        with pytest.raises(ValueError, match="^fixed theta2 conflicts with axis theta2$"):
            scan_1d(["bell"], bec_pair(1),
                    {"phi1": 0, "phi2": 1, "theta1": 2, "theta2": 3}, axis="theta2")

    def test_empty_objective_list_rejected(self):
        with pytest.raises(ValueError, match="no objectives given"):
            scan_1d((), bec_pair(1), {"phi1": 0, "phi2": 1, "theta1": 2})

    def test_points_validation(self):
        fixed = {"phi1": 0, "phi2": 1, "theta1": 2}
        with pytest.raises(ValueError):
            scan_1d(("steering",), bec_pair(1), fixed, points=4)
        series, = scan_1d(("steering",), bec_pair(1), fixed, points=search.MAX_POINTS)
        assert len(series.samples) == search.MAX_POINTS
        with pytest.raises(ValueError, match=rf"points={search.MAX_POINTS + 1} must be an "
                                             rf"integer in \[8, {search.MAX_POINTS}\]"):
            scan_1d(("steering",), bec_pair(1), fixed, points=search.MAX_POINTS + 1)


class TestCountLocalMaxima:
    def test_flat_series(self):
        assert count_local_maxima([1.0] * 50, threshold=0.0) == 0

    def test_two_peaks(self):
        xs = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
        values = np.sin(2 * xs)
        assert count_local_maxima(list(values), threshold=0.5) == 2
        assert count_local_maxima(list(values), threshold=1.5) == 0

    def test_wraparound_peak(self):
        xs = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
        values = np.cos(xs)  # peak at index 0, across the seam
        assert count_local_maxima(list(values), threshold=0.0) == 1

    def test_plateau_merged(self):
        values = [0.0, 1.0, 1.0 + 1e-12, 1.0, 0.0, 2.0, 0.0, 0.0]
        assert count_local_maxima(values, threshold=0.1) == 2

    def test_threshold_is_strict(self):
        values = [0.0, 2.0, 0.0, 3.0, 0.0, 1.0]
        assert count_local_maxima(values, threshold=2.0) == 1

    def test_accepts_scan_series(self):
        series, = scan_1d(("steering",), bec_pair(1),
                          {"phi1": 0.0, "phi2": math.pi / 2, "theta1": 3.93},
                          points=720)
        assert count_local_maxima(series, threshold=2.0) == 2
