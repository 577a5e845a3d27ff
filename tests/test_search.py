"""Optimizer, scans, and peak counting."""
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar
from scipy.stats import qmc

import golden
import oracle
import twocopy
from twocopy import inequalities, search
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
from twocopy.states import bec_pair, noon_pair

GOLDEN = 1.0 + math.sqrt(2.0)


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
        cases.append((f"random{n1}{n2}", oracle.random_state(rng, n1, n2),
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


def ascend_each(engine, starts):
    """search._ascend with the engine's (value, steering) pair from every
    row of ``starts``, one at a time, as arrays of the last points, values,
    evaluations and stop flags."""
    runs = [search._ascend(*engine, start) for start in np.asarray(starts).tolist()]
    x, f, used, converged = zip(*runs)
    return np.array(x), np.array(f), np.array(used), np.array(converged)


def first_step(engine, start, lam=1.0, gain_tol=-math.inf):
    """What search._ascend builds from ``start`` for its first step, at the
    damping ``lam`` and with GAIN_TOL at ``gain_tol``: the Hessian (3, 3)
    whose extreme eigenvalues it asks for, and the step s (3,) to its first
    trial point, wrapped into [-pi, pi).  Either is None where the ascent
    stops before it.  At the default GAIN_TOL every finite step is taken,
    a maximum's too."""
    value, steering = engine
    uppers, trials = [], []
    extreme = search._extreme_eigenvalues

    def counted_eigenvalues(*upper):
        uppers.append(upper)
        return extreme(*upper)

    def counted_value(*u):
        trials.append(u)
        return value(*u)
    with mock.patch.multiple(search, _extreme_eigenvalues=counted_eigenvalues,
                             LAMBDA_START=lam, GAIN_TOL=gain_tol, MAX_STEPS=1):
        search._ascend(counted_value, steering, list(start))
    hessian = step = None
    if uppers:
        hessian = np.empty((3, 3))
        rows, columns = np.triu_indices(3)
        hessian[rows, columns] = hessian[columns, rows] = uppers[0]
    if len(trials) == 2:
        step = (np.subtract(trials[1], start) + math.pi) % TWO_PI - math.pi
    return hessian, step


def ascent_derivatives(engine, u):
    """The values (k,), gradients (k, 3) and Hessians (k, 3, 3) that
    search._ascend builds at the rows of ``u``: each Hessian as
    ``first_step`` reads it, and each gradient as (mu I - H) s from the
    first step s at the damping 1, with mu = max(lambda_max, 0) +
    1 + max|lambda| from numpy's eigenvalues of H."""
    values, gradients, hessians = [], [], []
    for start in np.asarray(u).tolist():
        hessian, step = first_step(engine, start)
        eigenvalues = np.linalg.eigvalsh(hessian)
        mu = max(eigenvalues[-1], 0.0) + 1.0 + np.abs(eigenvalues).max()
        values.append(engine[0](*start)[0])
        gradients.append(mu * step - hessian @ step)
        hessians.append(hessian)
    return np.array(values), np.array(gradients), np.array(hessians)


def chain_rule_gradient(point, steering):
    """The gradient in the search coordinates from a point record of
    ``value``, by numpy: d(e11, e12, e21, e22)/d(x, y, z) is the record's
    first derivatives times [[1, 0, 0], [1, 0, -1], [0, 1, 0], [0, 1, -1]]."""
    jacobian = np.array(point[0:8:2])[:, None] * np.array(
        [[1.0, 0.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
    if steering:
        v1, v2, u1, u2, rv, ru = point[8:]
        n, m = np.array([v1, v2]) / rv, np.array([u1, u2]) / ru
        weights = np.concatenate([n + m, n - m])
    else:
        weights = np.sign(point[8]) * np.array([1.0, 1.0, 1.0, -1.0])
    return weights @ jacobian


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
            state = oracle.random_state(rng, 3, 2)
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

    @pytest.mark.parametrize("n", [1, 2, 0], ids=["bec1", "bec2", "bec0"])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    def test_no_array_evaluation(self, objective, n, monkeypatch):
        want = optimize(objective, bec_pair(n), restarts=8, seed=n)

        def refused(*args):
            raise AssertionError("the array objective was called")
        monkeypatch.setattr(inequalities, "_correlations", refused)
        monkeypatch.setattr(search, "_correlations", refused)
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


GOLDEN_STATES = [("bec1", bec_pair(1)), ("bec2", bec_pair(2)), ("bec3", bec_pair(3)),
                 ("noon2", noon_pair(2, 0)), ("bec12", bec_pair(1, 2))]


def golden_cases():
    """(label, state, objective, restarts, seed, alpha, bob_alpha) of every
    optimize run that tests/golden_search.json pins, each with both
    objectives: the golden states at seeds 0-4 and 64 restarts, the same
    states at four splitter pairs (a random pair, the balanced one, and the
    ends 0 and 1) and 1 and 8 restarts, and the random ORACLE_CASES at
    seeds 0 and 1 and 1 and 8 restarts."""
    balanced = 1.0 / math.sqrt(2.0)
    cases = []
    for index, (label, state) in enumerate(GOLDEN_STATES):
        pairs = [tuple(np.random.default_rng(index).uniform(0.05, 0.95, 2).tolist()),
                 (balanced, None), (0.0, 1.0), (1.0, 0.0)]
        for objective in ("steering", "bell_abs"):
            cases += [(label, state, objective, 64, seed, balanced, None) for seed in range(5)]
            cases += [(label, state, objective, restarts, seed, alpha, bob_alpha)
                      for restarts in (1, 8) for seed, (alpha, bob_alpha) in enumerate(pairs)]
    for label, state, alpha, bob_alpha in ORACLE_CASES:
        if label.startswith("random"):
            cases += [(label, state, objective, restarts, seed, alpha, bob_alpha)
                      for objective in ("steering", "bell_abs") for restarts in (1, 8)
                      for seed in (0, 1)]
    return cases


class TestGoldenGrid:
    """Seeded optimize results against tests/golden_search.json, which pins
    each case's series and result; ``python tests/golden.py`` rewrites it."""

    def test_results_on_pinned_series(self):
        cases, pinned = golden_cases(), golden.load()
        assert [golden.key(case) for case in cases] == [entry["case"] for entry in pinned]
        moved = []
        for case, entry in zip(cases, pinned):
            _, state, _, _, _, alpha, bob_alpha = case
            series = golden.pinned_series(entry["series"])
            assert golden.series_record(series) == entry["series"], entry["case"]
            # the engine's own series, whatever BLAS kernel contracted it
            live = inequalities._series(state, alpha, bob_alpha)
            assert np.shape(live.terms) == np.shape(series.terms), entry["case"]
            assert np.abs(np.subtract([live.c0, *np.ravel(live.terms)],
                                      [series.c0, *np.ravel(series.terms)])).max() <= 1e-15
            got = golden.result(case, series)
            if got != entry["result"]:
                moved.append(f"{entry['case']}: {entry['result']} -> {got}")
        assert not moved, f"{len(moved)} of {len(cases)} results moved:\n" + "\n".join(moved)

    def test_public_value_at_argmax_is_max_value(self, monkeypatch):
        # the point functions share the search's arithmetic, so the value a
        # user reads at a pinned argmax is the pinned max_value, bit for bit
        records = {"OptimizationResult": search.OptimizationResult, "AngleQuad": AngleQuad}
        for case, entry in zip(golden_cases(), golden.load()):
            _, state, objective, _, _, alpha, bob_alpha = case
            result = eval(entry["result"], {"__builtins__": {}}, records)
            series = golden.pinned_series(entry["series"])
            monkeypatch.setattr(inequalities, "_series", lambda *args, series=series: series)
            if objective == "steering":
                value = steering_value(state, result.argmax, alpha, bob_alpha)
            else:
                value = abs(bell_value(state, result.argmax, alpha, bob_alpha))
            assert value.hex() == result.max_value.hex(), entry["case"]


class TestLockstepAscent:
    """The ascent's parts against independent routes: numpy's eigenvalues
    and solve, the wrapping of kept points, and the stop at a maximum."""

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

    @pytest.mark.parametrize("scale", [1.0, -1.0, 3e-7, -2.5e4])
    def test_extreme_eigenvalues_at_repeated_roots(self, scale):
        # scale * I, and scale * R diag(2, 2, -1) R^T for random rotations R:
        # det(B) / (2 p^3) is +-1 at a repeated root and rounds past it on
        # some rotations, where the clamps keep acos's argument in [-1, 1].
        # A repeated root is ill conditioned in the trigonometric form: an
        # error d in cos 3t moves it by about sqrt(d).
        rng = np.random.default_rng(3)
        rotations = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(200)]
        matrices = [scale * np.eye(3)] + [scale * r @ np.diag([2.0, 2.0, -1.0]) @ r.T
                                          for r in rotations]
        for m in matrices:
            lowest, _, highest = np.linalg.eigvalsh(m)
            low, high = search._extreme_eigenvalues(*m[np.triu_indices(3)].tolist())
            assert abs(low - lowest) <= 1e-7 * abs(scale)
            assert abs(high - highest) <= 1e-7 * abs(scale)

    def test_damped_step_matches_linalg_solve(self):
        # The first step from random points of every oracle case, definite
        # and indefinite Hessians, at dampings that keep mu I - H well
        # conditioned, against numpy's solve with the gradient by numpy's
        # chain rule; and the gain the stop rule compares is the model's.
        rng = np.random.default_rng(7)
        for label, state, alpha, bob_alpha in ORACLE_CASES:
            for objective in ("steering", "bell_abs"):
                engine = search._coordinate_objective(objective, state, alpha, bob_alpha)
                for u, lam in zip(rng.uniform(0.0, TWO_PI, (20, 3)).tolist(),
                                  10.0 ** rng.uniform(-3.0, 3.0, 20)):
                    hessian, step = first_step(engine, u, lam=lam)
                    g = chain_rule_gradient(engine[0](*u)[1], engine[1])
                    eigenvalues = np.linalg.eigvalsh(hessian)
                    mu = max(eigenvalues[-1], 0.0) + lam * (1.0 + np.abs(eigenvalues).max())
                    want = np.linalg.solve(mu * np.eye(3) - hessian, g)
                    # the step is read off the trial point, wrapped into [0, 2*pi)
                    off = (step - want + math.pi) % TWO_PI - math.pi
                    assert np.abs(off).max() <= 1e-11 * np.abs(want).max() + 4e-15, label
                    model = g @ want + 0.5 * want @ hessian @ want
                    assert model > 0.0
                    assert first_step(engine, u, lam, model * (1.0 - 1e-9))[1] is not None
                    assert first_step(engine, u, lam, model * (1.0 + 1e-9))[1] is None

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
        assert np.array_equal(f, [engine[0](*point)[0] for point in x.tolist()])

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
        fused, gradient, hessian = ascent_derivatives(engine, u)
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
        engine = search._coordinate_objective("steering", bec_pair(1), 1.0 / math.sqrt(2.0),
                                              None)
        # the quad (0, 0, pi, pi): all four correlations agree, so E11 - E21
        # and E12 - E22 vanish
        u = [-math.pi, -math.pi, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start, point = engine[0](*u)
            hessian, step = first_step(engine, u)
            x, f, evaluations, converged = search._ascend(*engine, u)
            optimize("steering", bec_pair(1), restarts=16, seed=0)
        assert start == pytest.approx(QUANTUM_BOUND, abs=1e-12)
        assert point[-1] == 0.0
        # no derivative there, a stop rule: neither a Hessian nor a trial point
        assert hessian is None and step is None
        assert (evaluations, converged) == (1, True)
        assert x == u and f == start

    def test_step_refused_at_zero_determinant_without_warning(self, monkeypatch):
        # A Bell record whose gradient is (1, 0, 0) and Hessian zero, at a
        # damping of 1e-120: mu = 1e-120, and the determinant mu^3 of
        # mu I - H underflows to 0, so the step is not finite and the ascent
        # stops at its start.
        record = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5)
        assert chain_rule_gradient(record, False).tolist() == [1.0, 0.0, 0.0]
        calls = []

        def value(*u):
            calls.append(u)
            return 0.5, record
        monkeypatch.setattr(search, "LAMBDA_START", 1e-120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, f, evaluations, converged = search._ascend(value, False, [1.0, 2.0, 3.0])
        assert (x, f, evaluations, converged) == ([1.0, 2.0, 3.0], 0.5, 1, True)
        assert calls == [(1.0, 2.0, 3.0)]

    def test_step_refused_where_infinite_without_warning(self):
        # A Bell record whose gradient is (1e308, 0, 0) and Hessian zero: at
        # lam = LAMBDA_START the step is (inf, 0, 0) and the model gain inf,
        # so only the finite-step rule stops the ascent at its start.
        record = (1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5)
        mu = search.LAMBDA_START
        assert chain_rule_gradient(record, False).tolist() == [1e308, 0.0, 0.0]
        assert (1e308 * mu ** 2) / mu ** 3 == math.inf
        calls = []

        def value(*u):
            calls.append(u)
            return 0.5, record
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, f, evaluations, converged = search._ascend(value, False, [1.0, 2.0, 3.0])
        assert (x, f, evaluations, converged) == ([1.0, 2.0, 3.0], 0.5, 1, True)
        assert calls == [(1.0, 2.0, 3.0)]

    @pytest.mark.parametrize("restarts", [1, 8, 64])
    @pytest.mark.parametrize("objective, want", [("steering", 2.0 * math.sqrt(2.0)),
                                                 ("bell_abs", 2.0)])
    @pytest.mark.parametrize("state, scale", [(bec_pair(0), 1.0), (bec_pair(0, 3), 0.0)],
                             ids=["bec0", "bec03"])
    def test_constant_series_stops_every_restart_at_its_start(self, state, scale, objective,
                                                              want, restarts):
        # A series with no orders: E is its constant term (1 for bec0 and,
        # to rounding, 0 for bec03), the gradient vanishes or is NaN, and
        # every restart stops at its start.
        assert inequalities._series(state, 1.0 / math.sqrt(2.0), None).terms == ()
        result = optimize(objective, state, restarts=restarts, seed=restarts)
        assert (result.evaluations, result.converged) == (restarts + 1, restarts)
        assert abs(result.max_value - scale * want) <= 1e-15
        # so the argmax is the first start, wrapped
        first = search._start_coordinates(restarts, seed=restarts).tolist()[0]
        x1, x2, x3 = (u % TWO_PI for u in first)
        assert result.argmax == AngleQuad(x1, x2, 0.0, x3)

    def test_subnormal_hypot_finite_hessian_without_warning(self, monkeypatch):
        # Correlations 2e-310 cos(d): both hypot arguments are subnormal at
        # every start.  The Hessian factor t / r^1.5 is taken as
        # (-n2, n1) / sqrt(r), which does not overflow, so the Hessian is
        # finite; the promised gain, of order 1e-617, is 0, and every
        # restart stops at its start on the gain rule.
        tiny = inequalities._Series(0.0, ((1.0, 2e-310, -0.0),))
        monkeypatch.setattr(inequalities, "_series", lambda *args: tiny)
        monkeypatch.setattr(search, "_series", lambda *args: tiny)
        engine = search._coordinate_objective("steering", bec_pair(1), 0.5, None)
        value = engine[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, point = value(0.3, 1.2, 2.5)
            hessian, step = first_step(engine, [0.3, 1.2, 2.5], lam=search.LAMBDA_START,
                                       gain_tol=search.GAIN_TOL)
            result = optimize("steering", bec_pair(1), restarts=8, seed=3, alpha=0.5)
        assert 0.0 < f < 1e-300 and np.isfinite(chain_rule_gradient(point, True)).all()
        assert min(point[-2:]) >= search.KINK_RATIO * f
        assert np.isfinite(hessian).all() and step is None
        assert result.converged == 8 and result.evaluations == 8 + 1
        # so the argmax is the first best start, wrapped, and the maximum its value
        starts = search._start_coordinates(8, seed=3).tolist()
        values = [value(*start)[0] for start in starts]
        x1, x2, x3 = (u % TWO_PI for u in starts[values.index(max(values))])
        assert result.argmax == AngleQuad(x1, x2, 0.0, x3) and result.argmax.theta1 == 0.0
        assert result.max_value == value(x1, x2, x3)[0]

    def test_each_derivative_and_trial_counts_as_evaluation(self):
        value, steering = search._coordinate_objective("bell_abs", bec_pair(2),
                                                       1.0 / math.sqrt(2.0), None)
        points = []

        def counted(*u):
            points.append(u)
            return value(*u)
        # one call per point, the start and each trial of every restart
        for start in search._start_coordinates(16, seed=4).tolist():
            before = len(points)
            _, _, evaluations, _ = search._ascend(counted, steering, start)
            assert len(points) - before == evaluations and points[before] == tuple(start)
        result = optimize("bell_abs", bec_pair(2), restarts=16, seed=4)
        assert result.evaluations == len(points) + 1

    @pytest.mark.parametrize("objective, state, restarts, max_steps", [
        ("steering", bec_pair(1), 16, None), ("bell_abs", bec_pair(2), 16, None),
        ("steering", bec_pair(1), 64, None), ("steering", bec_pair(1), 16, 4)],
        ids=["bec1-steering", "bec2-bell_abs", "bec1-steering-64", "bec1-steering-cap4"])
    def test_derivatives_built_only_where_a_step_follows(self, objective, state, restarts,
                                                         max_steps, monkeypatch):
        # one value call per point evaluated; the gradient, the Hessian and
        # its extreme eigenvalues once at each start and at each kept trial
        # that does not end its restart, never at a refused trial (at a cap
        # of 4 steps some restarts end on a kept trial at the cap)
        if max_steps:
            monkeypatch.setattr(search, "MAX_STEPS", max_steps)
        value, steering = search._coordinate_objective(objective, state,
                                                       1.0 / math.sqrt(2.0), None)
        values, built = [], []

        def counted_value(*u):
            f, point = value(*u)
            values.append(f)
            return f, point

        extreme = search._extreme_eigenvalues

        def counted_eigenvalues(*h):
            built.append(h)
            return extreme(*h)
        monkeypatch.setattr(search, "_extreme_eigenvalues", counted_eigenvalues)
        monkeypatch.setattr(search, "_coordinate_objective",
                            lambda *args: (counted_value, steering))
        starts = search._start_coordinates(restarts, seed=0).tolist()
        refused = capped_on_kept = 0
        for start in starts:
            before = len(values), len(built)
            _, _, evaluations, converged = search._ascend(counted_value, steering, start)
            path = values[before[0]:]
            assert len(path) == evaluations
            # a trial is kept where it beats every point before it in its restart
            kept = [i for i in range(1, len(path)) if path[i] > max(path[:i])]
            refused += len(path) - 1 - len(kept)
            # a kept last trial ends the restart at the step cap or on the gain rule
            ends = bool(kept) and kept[-1] == len(path) - 1 and (
                not converged or path[-1] - max(path[:-1]) < search.GAIN_TOL)
            assert len(built) - before[1] == 1 + len(kept) - ends
            capped_on_kept += ends and not converged
        assert refused > 0
        assert (capped_on_kept > 0) == bool(max_steps)
        totals = len(values), len(built)
        del values[:], built[:]
        result = optimize(objective, state, restarts=restarts, seed=0)
        # the final re-evaluation of the argmax is one more value call
        assert len(values) == result.evaluations == totals[0] + 1
        assert len(built) == totals[1]

    def test_every_restart_polished_on_smooth_maxima(self):
        # |Bell| of bec2 is smooth at its maxima: at seed 1 every restart
        # meets a stop rule on a strict local maximum, its gradient at
        # rounding level
        engine = search._coordinate_objective("bell_abs", bec_pair(2),
                                              1.0 / math.sqrt(2.0), None)
        x, _, _, converged = ascend_each(engine, search._start_coordinates(64, seed=1))
        _, gradient, hessian = ascent_derivatives(engine, x)
        assert converged.all()
        assert np.abs(gradient).max() <= 1e-7
        assert (np.linalg.eigvalsh(hessian)[:, -1] < 0.0).all()
        result = optimize("bell_abs", bec_pair(2), seed=1)
        assert result.converged == result.restarts_used == 64

    def test_damping_follows_the_gain_ratio(self, monkeypatch):
        # A Bell record with gradient (1e-3, 0, 0) and a zero Hessian: mu is
        # lam, the step (1e-3 / lam, 0, 0) and the model's gain 1e-3 times
        # the step, so each trial's x1 reads the damping it was taken at.
        # Each trial realizes the scripted share of that gain, or is refused.
        record = (1e-3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        script = [0.5, 0.1, None, 0.26, 0.24]
        trials, kept = [], {"x1": 1.0, "f": 0.0}

        def value(x1, x2, x3):
            trials.append(x1 - kept["x1"])
            if len(trials) == 1:  # the start
                return 0.0, record
            ratio = script[len(trials) - 2]
            if ratio is None:
                return kept["f"] - 1.0, record
            kept["f"] += ratio * 1e-3 * (x1 - kept["x1"])
            kept["x1"] = x1
            return kept["f"], record
        monkeypatch.setattr(search, "LAMBDA_START", 1.0)
        monkeypatch.setattr(search, "MAX_STEPS", len(script))
        _, _, evaluations, converged = search._ascend(value, False, [1.0, 2.0, 3.0])
        assert (evaluations, converged) == (1 + len(script), False)
        # divided by 10 after a kept step that gained more than a quarter of
        # the promise, halved after one that gained less, times 10 on a refusal
        lam = [1.0, 0.1, 0.05, 0.5, 0.05]
        assert np.allclose(trials[1:], [1e-3 / v for v in lam], rtol=1e-9, atol=0.0)
        # a gain of exactly a quarter of the promise halves: with gradient
        # 2^-10 at lam 1 the step is 2^-10 and the promise 2^-20, all exact
        record, trials = (2.0 ** -10,) + record[1:], []

        def exact(x1, x2, x3):
            trials.append(x1)
            return (0.0, 2.0 ** -22, -1.0)[len(trials) - 1], record
        monkeypatch.setattr(search, "MAX_STEPS", 2)
        search._ascend(exact, False, [1.0, 2.0, 3.0])
        assert np.diff(trials).tolist() == [2.0 ** -10, 2.0 ** -9]

    def test_minorant_drops_the_small_radius_factor(self, monkeypatch):
        # Near bec1's kink at the quad (0, 0, pi, pi) the radius of
        # u = (e11 - e21, e12 - e22) is below KINK_RATIO of the value: the
        # Hessian the ascent builds lacks that radius' factor h h^T, a
        # positive semidefinite matrix of rank one, and the gradient is the
        # same with the factor kept.
        engine = search._coordinate_objective("steering", bec_pair(1), 1.0 / math.sqrt(2.0),
                                              None)
        u = [-math.pi + 3e-3, -math.pi, 1e-3]
        f, point = engine[0](*u)
        assert 0.0 < point[-1] < search.KINK_RATIO * f < point[-2]
        minorant, step = first_step(engine, u)
        gradient = chain_rule_gradient(point, True)
        monkeypatch.setattr(search, "KINK_RATIO", 0.0)
        full, _ = first_step(engine, u)
        factor = full - minorant
        eigenvalues = np.linalg.eigvalsh(factor)
        assert eigenvalues[-1] > 1.0 and np.abs(eigenvalues[:2]).max() <= 1e-12 * eigenvalues[-1]
        for hessian, step in ((minorant, step), (full, first_step(engine, u)[1])):
            mu = max(np.linalg.eigvalsh(hessian)[-1], 0.0) + 1.0 + np.abs(
                np.linalg.eigvalsh(hessian)).max()
            assert np.abs(mu * step - hessian @ step - gradient).max() <= 1e-12 * mu

    def test_hypot_zero_maximum_converges(self, monkeypatch):
        # bec3 steering at seed 0, whose maxima include quads where a hypot
        # argument vanishes: every restart meets a stop rule, on 2 sqrt(2)
        state = bec_pair(3)
        engine = search._coordinate_objective("steering", state, 1.0 / math.sqrt(2.0), None)
        _, f, evaluations, converged = ascend_each(engine, search._start_coordinates(64, seed=0))
        assert converged.all() and (evaluations <= search.MAX_STEPS).all()
        assert np.abs(f - QUANTUM_BOUND).max() <= 1e-14
        result = optimize("steering", state, seed=0)
        assert result.converged == result.restarts_used == 64
        assert result.max_value == pytest.approx(QUANTUM_BOUND, abs=1e-12)
        # bec1 at seed 0: without the kink minorant one restart runs to the cap
        assert optimize("steering", bec_pair(1), seed=0).converged == 64
        monkeypatch.setattr(search, "KINK_RATIO", 0.0)
        assert optimize("steering", bec_pair(1), seed=0).converged == 63


# The oracle's certified gap, upper - optimize, stated per case as
# (steering, bell_abs): steering's upper is capped at 2 sqrt(2), which is
# tight where the maximum reaches it.
CERTIFIED_GAPS = {
    "bec1": (1e-12, 9.6e-5), "bec2": (1e-12, 1.5e-4), "noon2": (1e-12, 3.9e-4),
    "bec12-r0.3": (0.093, 6.5e-5), "random11": (0.11, 6.7e-5), "random21": (0.037, 1.8e-5),
    "random13": (0.046, 2.9e-5), "random32": (0.044, 6.1e-6)}


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
        gap = CERTIFIED_GAPS[label][objective == "bell_abs"]
        assert want.upper - result.max_value <= gap

    @given(state=oracle.sector_states(st.tuples(st.integers(0, 3), st.integers(0, 3))),
           objective=st.sampled_from(["steering", "bell_abs"]),
           alphas=st.tuples(st.floats(0.1, 0.95), st.floats(0.1, 0.95)),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_never_below_oracle(self, state, objective, alphas, seed):
        # at the default 64 restarts optimize reaches the global maximum on
        # every draw, vacuum sectors among them
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

    @given(state=oracle.sector_states(st.tuples(st.integers(1, 2), st.integers(1, 2))),
           objective=st.sampled_from(["steering", "bell_abs"]),
           alphas=st.tuples(st.floats(0.1, 0.95), st.floats(0.1, 0.95)))
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_reduction_against_four_angle_grid(self, state, objective, alphas):
        # the maximum is reached at the oracle's quad, neither a 16^4 grid over
        # the four angles nor a local search from its best point beats it, and
        # the reduced objective is reached at its quads everywhere and keeps
        # to its Lipschitz constants
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
        series, = scan_1d(("steering",), bec_pair(1), dict(series.fixed))
        assert len(series.samples) == 720  # the default grid, along theta2

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
    def test_empty_series(self):
        assert count_local_maxima([], threshold=0.0) == 0

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

    def test_peak_at_the_threshold_not_counted(self):
        values = [0.0, 1.5, 0.0, 1.5, 0.5]
        assert count_local_maxima(values, threshold=1.5) == 0
        assert count_local_maxima(values, threshold=math.nextafter(1.5, 0.0)) == 2

    def test_accepts_scan_series(self):
        series, = scan_1d(("steering",), bec_pair(1),
                          {"phi1": 0.0, "phi2": math.pi / 2, "theta1": 3.93},
                          points=720)
        assert count_local_maxima(series, threshold=2.0) == 2
