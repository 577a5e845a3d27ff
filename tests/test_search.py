"""Optimizer, scans, and peak counting."""
import math
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import qmc

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
    objective_array,
    steering_value,
)
from twocopy.search import count_local_maxima, optimize, scan_1d
from twocopy.states import COMPOSITE_MODES, CompositeState, bec_pair, noon_pair

GOLDEN = 1.0 + math.sqrt(2.0)


def scalar_nelder_mead(func, x0, step=0.6):
    """One-start Nelder-Mead, the reference for the batched one.

    Minimizes ``func`` from ``x0``; returns (x, f(x), evaluations).  Stops
    when the simplex coordinate spread drops below SIMPLEX_TOL or after
    MAX_ITERATIONS iterations.
    """
    n = x0.size
    vertices = [np.array(x0, dtype=float)]
    for i in range(n):
        v = np.array(x0, dtype=float)
        v[i] += step
        vertices.append(v)
    values = [func(v) for v in vertices]
    evaluations = n + 1

    for _ in range(search.MAX_ITERATIONS):
        order = np.argsort(values, kind="stable")
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]
        stack = np.stack(vertices)
        if float(np.max(stack.max(axis=0) - stack.min(axis=0))) < search.SIMPLEX_TOL:
            break
        centroid = stack[:-1].mean(axis=0)
        worst = vertices[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = func(reflected)
        evaluations += 1
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = func(expanded)
            evaluations += 1
            if f_expanded < f_reflected:
                vertices[-1], values[-1] = expanded, f_expanded
            else:
                vertices[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            vertices[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (worst - centroid)
            f_contracted = func(contracted)
            evaluations += 1
            if f_contracted < min(f_reflected, values[-1]):
                vertices[-1], values[-1] = contracted, f_contracted
            else:
                best = vertices[0]
                for i in range(1, n + 1):
                    vertices[i] = best + 0.5 * (vertices[i] - best)
                    values[i] = func(vertices[i])
                evaluations += n

    i_best = int(np.argmin(values))
    return vertices[i_best], values[i_best], evaluations


# The maxima oracle's simplex stops at this coordinate spread, as the
# engine's did before its Newton finish.
ORACLE_TOL = 1e-8


def lockstep_nelder_mead(func, starts, step=0.6, tol=None):
    """The lockstep Nelder-Mead as the engine first wrote it: one
    (restarts, n + 1, n) array of vertices and one of values, reordered by
    fancy indexing, and a nested ``where`` for the new worst vertex.

    With ``tol`` None it stops at SIMPLEX_TOL and is the reference for the
    engine's ``_nelder_mead``, path for path; over the four angles at
    ORACLE_TOL it is the maxima oracle.  Minimizes ``func`` from every row
    of ``starts``; returns the best vertex, its value, the evaluations used
    and whether the simplex converged, per restart.
    """
    tol = search.SIMPLEX_TOL if tol is None else tol
    restarts, n = starts.shape
    x = np.repeat(starts[:, None, :], n + 1, axis=1)
    x[:, 1:] += step * np.eye(n)
    f = func(x)
    evaluations = np.full(restarts, n + 1)
    rows = np.arange(restarts)
    best_x = np.empty((restarts, n))
    best_f = np.empty(restarts)
    used = np.empty(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    for _ in range(search.MAX_ITERATIONS):
        order = np.argsort(f, axis=1, kind="stable")
        index = np.arange(rows.size)[:, None]
        f, x = f[index, order], x[index, order]
        done = (x.max(axis=1) - x.min(axis=1)).max(axis=1) < tol
        if done.any():
            finished = rows[done]
            best_x[finished], best_f[finished] = x[done, 0], f[done, 0]
            used[finished] = evaluations[done]
            converged[finished] = True
            running = ~done
            x, f = x[running], f[running]
            evaluations, rows = evaluations[running], rows[running]
            if not rows.size:
                break
        centroid = x[:, :-1].sum(axis=1) / n
        worst = x[:, -1]
        reflected = centroid + (centroid - worst)
        f_reflected = func(reflected)
        expand = f_reflected < f[:, 0]
        contract = ~expand & ~(f_reflected < f[:, -2])
        # the second point tried: expanded, or contracted toward the better
        # of the reflected and the worst vertex
        toward = np.where((f_reflected < f[:, -1])[:, None], reflected, worst)
        trial = np.where(expand[:, None], centroid + 2.0 * (centroid - worst),
                         centroid + 0.5 * (toward - centroid))
        tried = expand | contract
        f_trial = np.full(rows.size, np.inf)
        if tried.any():
            f_trial[tried] = func(trial[tried])
        take = f_trial < np.where(expand, f_reflected, np.minimum(f_reflected, f[:, -1]))
        shrink = contract & ~take
        f[:, -1] = np.where(take, f_trial, np.where(shrink, f[:, -1], f_reflected))
        x[:, -1] = np.where(take[:, None], trial,
                            np.where(shrink[:, None], worst, reflected))
        evaluations += 1 + tried + n * shrink
        if shrink.any():
            best = x[shrink, :1]
            x[shrink, 1:] = best + 0.5 * (x[shrink, 1:] - best)
            f[shrink, 1:] = func(x[shrink, 1:])
    # restarts stopped by MAX_ITERATIONS
    at, pick = np.arange(rows.size), np.argmin(f, axis=1)
    best_x[rows], best_f[rows] = x[at, pick], f[at, pick]
    used[rows] = evaluations
    return best_x, best_f, used, converged


def oracle_maximum(objective, state, restarts, seed, alpha=1.0 / math.sqrt(2.0),
                   bob_alpha=None):
    """The maximum over the four angles from the same Sobol starts, by
    ``lockstep_nelder_mead`` alone."""
    value = objective_array(objective, state, alpha, bob_alpha)
    _, f, _, _ = lockstep_nelder_mead(lambda q: -value(q), search._start_points(restarts, seed),
                                      tol=ORACLE_TOL)
    return -float(f.min())


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


# d(e11, e12, e21, e22) / d(phi1, phi2, theta1, theta2), and the outer
# product of each row with itself
DIFFERENCES = np.array([[1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0],
                        [0.0, 1.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
DIFFERENCE_SQUARES = DIFFERENCES[:, :, None] * DIFFERENCES[:, None, :]


def quad_derivatives(objective, state, alpha, bob_alpha):
    """The exact gradient and Hessian over the four angles, as the engine
    first took them: the chain rule through every correlation's difference
    phi_j - theta_k, over quads of shape (k, 4), sliced to the search
    coordinates (phi1, phi2, theta2).  The reference for the engine's
    derivatives in those coordinates."""
    derivative = inequalities._DERIVATIVES[inequalities._functional(objective)]
    series = inequalities._series(state, alpha, bob_alpha)

    def derivatives(u):
        quads = search._quads(u)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e, first, second = series.derivatives(
                quads.take([0, 0, 1, 1], axis=-1) - quads.take([2, 3, 2, 3], axis=-1))
            gradient, factors = derivative(e)
            slopes = (gradient * first)[..., None] * DIFFERENCES
            vectors = ((factors * first[..., None, :])[..., None] * DIFFERENCES).sum(axis=-2)
            hessian = (((gradient * second)[..., None, None] * DIFFERENCE_SQUARES).sum(axis=-3)
                       + (vectors[..., :, None] * vectors[..., None, :]).sum(axis=-3))
        columns = [0, 1, 3]
        return slopes.sum(axis=-2)[:, columns], hessian[:, columns][:, :, columns]
    return derivatives


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
        result = optimize("steering", bec_pair(1))
        assert result.converged == result.restarts_used == 64

    def test_iteration_cap_reported_as_not_converged(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_ITERATIONS", 3)
        result = optimize("steering", bec_pair(1), restarts=8, seed=0)
        assert result.converged == 0

    def test_restart_bound(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_ITERATIONS", 1)  # keeps the run cheap
        result = optimize("bell_abs", bec_pair(1), restarts=search.MAX_RESTARTS)
        assert result.restarts_used == search.MAX_RESTARTS
        with pytest.raises(ValueError, match=rf"restarts={search.MAX_RESTARTS + 1} must be an "
                                             rf"integer in \[1, {search.MAX_RESTARTS}\]"):
            optimize("bell_abs", bec_pair(1), restarts=search.MAX_RESTARTS + 1)


class TestStartPoints:
    # scipy is the oracle: its scrambled Sobol points times 2*pi, called with
    # seed=int.  A Generator in place of the int would make scipy spawn a
    # child stream and draw other points.
    @pytest.mark.filterwarnings("ignore:The balance properties")
    @pytest.mark.parametrize("restarts", [1, 2, 3, 5, 8, 17, 64, 100, 512, 4096])
    def test_bit_identical_to_scipy_sobol(self, restarts):
        for seed in [*range(64), 301, 12345, 2 ** 31 - 1]:
            sobol = qmc.Sobol(d=4, scramble=True, seed=seed).random(restarts)
            assert np.array_equal(search._start_points(restarts, seed), sobol * TWO_PI)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            search._start_points(4, -1)


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


class TestBatchedSimplex:
    """The lockstep simplex against the one-start reference, restart by restart,
    in the engine's search coordinates (phi1, phi2, theta2) at theta1 = 0."""

    @pytest.mark.parametrize("label, state, alpha, bob_alpha", ORACLE_CASES,
                             ids=[case[0] for case in ORACLE_CASES])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    def test_matches_one_start_reference(self, objective, label, state, alpha,
                                         bob_alpha):
        value = objective_array(objective, state, alpha, bob_alpha)
        scalar = scalar_objective(objective)
        starts = search._start_coordinates(6, seed=len(label))
        x, f, used, converged = search._nelder_mead(
            lambda u: -value(search._quads(u)), starts)
        for i, start in enumerate(starts):
            x_ref, f_ref, used_ref = scalar_nelder_mead(
                lambda v: -scalar(state, AngleQuad(v[0], v[1], 0.0, v[2]), alpha,
                                  bob_alpha), start)
            # the requirement on every platform
            assert f[i] == pytest.approx(f_ref, abs=1e-12)
            if objective == "bell_abs":
                # Both routes run the same float64 arithmetic, so the same
                # path.  This holds as long as numpy's np.cos/np.sin give an
                # element the same value whatever the array length; a
                # failure here alone, with the check above passing, points
                # at the platform's trig loops, not at the simplex.
                assert used[i] == used_ref
                assert np.array_equal(x[i], x_ref)
        assert converged.all()

    @pytest.mark.parametrize("label, state, alpha, bob_alpha", ORACLE_CASES,
                             ids=[case[0] for case in ORACLE_CASES])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    def test_array_objective_matches_scalar(self, objective, label, state, alpha,
                                            bob_alpha):
        quads = np.random.default_rng(29).uniform(-10.0, 10.0, (200, 4))
        values = objective_array(objective, state, alpha, bob_alpha)(quads)
        scalar = scalar_objective(objective)
        for quad, v in zip(quads, values):
            assert v == pytest.approx(
                scalar(state, AngleQuad(*quad), alpha, bob_alpha), abs=1e-14)


class TestPathIdentity:
    """The engine's simplex and derivatives against the references they
    replaced, which run the same arithmetic in the same order: every
    restart must take the same path, so the results are equal bit for bit."""

    @staticmethod
    def assert_same_paths(objective, state, alpha, bob_alpha, restarts, seed):
        value, _ = search._coordinate_objective(objective, state, alpha, bob_alpha)
        starts = search._start_coordinates(restarts, seed)
        got = search._nelder_mead(lambda u: -value(u), starts)
        want = lockstep_nelder_mead(lambda u: -value(u), starts)
        for name, a, b in zip(("x", "f", "used", "converged"), got, want):
            assert np.array_equal(a, b), name
        return got

    @pytest.mark.parametrize("label, state, alpha, bob_alpha", ORACLE_CASES,
                             ids=[case[0] for case in ORACLE_CASES])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    @pytest.mark.parametrize("restarts", [1, 5, 64])
    def test_simplex_matches_reference(self, restarts, objective, label, state, alpha,
                                       bob_alpha):
        for seed in (0, 1):
            _, _, _, converged = self.assert_same_paths(objective, state, alpha, bob_alpha,
                                                        restarts, seed)
            assert converged.all()

    @pytest.mark.parametrize("label, state, alpha, bob_alpha", ORACLE_CASES,
                             ids=[case[0] for case in ORACLE_CASES])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    def test_simplex_matches_reference_at_iteration_cap(self, monkeypatch, objective, label,
                                                        state, alpha, bob_alpha):
        monkeypatch.setattr(search, "MAX_ITERATIONS", 3)
        for restarts, seed in ((1, 0), (5, 1), (64, 0)):
            _, _, used, converged = self.assert_same_paths(objective, state, alpha,
                                                           bob_alpha, restarts, seed)
            assert not converged.any()
            # four starting vertices and three reflections at the least
            assert (used >= 7).all()

    def test_reference_takes_a_shrink_step(self):
        # a shrink evaluates the n shrunk vertices of each shrinking
        # restart, the only call on points of shape (k, n, n) after the
        # starting simplex
        value, _ = search._coordinate_objective("steering", bec_pair(1),
                                                1.0 / math.sqrt(2.0), None)
        shapes = []

        def func(u):
            shapes.append(u.shape)
            return -value(u)
        lockstep_nelder_mead(func, search._start_coordinates(1, 0))
        assert (1, 3, 3) in shapes[1:]
        self.assert_same_paths("steering", bec_pair(1), 1.0 / math.sqrt(2.0), None, 1, 0)

    @pytest.mark.parametrize("label, state, alpha, bob_alpha", ORACLE_CASES,
                             ids=[case[0] for case in ORACLE_CASES])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    def test_derivatives_match_reference(self, objective, label, state, alpha, bob_alpha):
        _, derivatives = search._coordinate_objective(objective, state, alpha, bob_alpha)
        reference = quad_derivatives(objective, state, alpha, bob_alpha)
        u = np.random.default_rng(len(label)).uniform(-10.0, 10.0, (50, 3))
        # and the quad (0, 0, pi, pi) shifted to theta1 = 0: for bec1 all four
        # correlations agree there, a steering hypot argument vanishes, and
        # both derivatives are NaN (TestNewtonFinish)
        u = np.vstack([u, [[-math.pi, -math.pi, 0.0]]])
        for got, want in zip(derivatives(u), reference(u)):
            assert np.array_equal(got, want, equal_nan=True)


class TestNewtonFinish:
    @pytest.mark.parametrize("label, state, alpha, bob_alpha", ORACLE_CASES,
                             ids=[case[0] for case in ORACLE_CASES])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    def test_derivatives_match_central_differences(self, objective, label, state,
                                                   alpha, bob_alpha):
        quad_value = objective_array(objective, state, alpha, bob_alpha)

        def value(u):
            return quad_value(search._quads(u))
        _, derivatives = search._coordinate_objective(objective, state, alpha, bob_alpha)
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
        gradient, hessian = derivatives(u)
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
        value, derivatives = search._coordinate_objective(
            "steering", bec_pair(1), 1.0 / math.sqrt(2.0), None)
        # the quad (0, 0, pi, pi): all four correlations agree, so E11 - E21
        # and E12 - E22 vanish
        u = np.array([[-math.pi, -math.pi, 0.0]])
        start = value(u)
        assert start[0] == pytest.approx(QUANTUM_BOUND, abs=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gradient, hessian = derivatives(u)
            x, f, kept, evaluations = search._newton(value, derivatives, u.copy(), start.copy())
            optimize("steering", bec_pair(1), restarts=16, seed=0)
        assert not np.isfinite(hessian).all()
        assert kept.tolist() == [0] and evaluations.tolist() == [1]
        assert np.array_equal(x, u) and np.array_equal(f, start)

    def test_each_derivative_and_trial_counts_as_evaluation(self):
        value, derivatives = search._coordinate_objective(
            "bell_abs", bec_pair(2), 1.0 / math.sqrt(2.0), None)
        starts = search._start_coordinates(16, seed=4)
        x, f, _, _ = search._nelder_mead(lambda u: -value(u), starts)
        _, polished, kept, evaluations = search._newton(value, derivatives, x, -f)
        assert (kept >= 1).all() and (polished >= -f).all()
        # a kept step costs two evaluations, and so does the refused step
        # that ends a finish before NEWTON_STEPS
        assert evaluations.tolist() == (2 * np.minimum(kept + 1, search.NEWTON_STEPS)).tolist()

    def test_every_restart_polished_on_smooth_maxima(self):
        # At seed 1 no restart stops on the value-2 ridge of bec2, where the
        # Hessian is nearly singular and the step overshoots.
        result = optimize("bell_abs", bec_pair(2), seed=1)
        assert result.polished == result.restarts_used == 64

    def test_hypot_zero_maximum_left_unpolished(self):
        state, alpha = bec_pair(3), 1.0 / math.sqrt(2.0)
        value, derivatives = search._coordinate_objective("steering", state, alpha, None)
        x, f, _, _ = search._nelder_mead(lambda u: -value(u),
                                         search._start_coordinates(64, seed=0))
        _, _, kept, _ = search._newton(value, derivatives, x, -f)
        e = np.array([[correlation(state, phi, theta, alpha) for phi, theta in
                       ((p1, 0.0), (p1, t2), (p2, 0.0), (p2, t2))] for p1, p2, t2 in x])
        smallest = np.minimum(np.hypot(e[:, 0] + e[:, 2], e[:, 1] + e[:, 3]),
                              np.hypot(e[:, 0] - e[:, 2], e[:, 1] - e[:, 3]))
        # a restart that settled on a local maximum with a hypot argument near 0
        assert (smallest[kept == 0] < 1e-3).any()
        result = optimize("steering", state, seed=0)
        assert result.polished < result.restarts_used
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
    """optimize against the four-angle lockstep simplex run to 1e-8."""

    @pytest.mark.parametrize("label, state, alpha, bob_alpha", ORACLE_CASES,
                             ids=[case[0] for case in ORACLE_CASES])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    @pytest.mark.parametrize("restarts", [8, 64])
    def test_same_maximum(self, restarts, objective, label, state, alpha, bob_alpha):
        seed = len(label)
        result = optimize(objective, state, restarts=restarts, seed=seed, alpha=alpha,
                          bob_alpha=bob_alpha)
        want = oracle_maximum(objective, state, restarts, seed, alpha, bob_alpha)
        assert abs(result.max_value - want) <= 1e-12

    @given(data=st.data(), objective=st.sampled_from(["steering", "bell_abs"]),
           alphas=st.tuples(st.floats(0.1, 0.95), st.floats(0.1, 0.95)),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_never_below_oracle(self, data, objective, alphas, seed):
        # One-sided: from the same starts the two searches can settle in
        # different basins, and the three-angle one sometimes finds a higher
        # maximum.  Neither is a global oracle: on a few random (3, 2)
        # states at unbalanced splitters the four-angle search finds a
        # basin the three-angle one misses at 64 restarts, so this is
        # checked on these draws, not claimed for every state.
        n1, n2 = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        state = random_mixture(data.draw, n1, n2, data.draw(st.integers(1, 2)))
        alpha, bob_alpha = alphas
        result = optimize(objective, state, seed=seed, alpha=alpha, bob_alpha=bob_alpha)
        want = oracle_maximum(objective, state, 64, seed, alpha, bob_alpha)
        assert result.max_value >= want - 1e-12


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
