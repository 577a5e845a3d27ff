"""Optimizer, scans, and peak counting."""
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import qmc

import twocopy
from twocopy import search
from twocopy.fock import from_fock_amplitudes
from twocopy.inequalities import (
    AngleQuad,
    QUANTUM_BOUND,
    TWO_PI,
    bell_value,
    objective_array,
    objective_function,
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
        with pytest.raises(ValueError, match=f"exceeds the bound {search.MAX_RESTARTS}"):
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
    """The lockstep simplex against the one-start reference, restart by restart."""

    @pytest.mark.parametrize("label, state, alpha, bob_alpha", ORACLE_CASES,
                             ids=[case[0] for case in ORACLE_CASES])
    @pytest.mark.parametrize("objective", ["steering", "bell_abs"])
    def test_matches_one_start_reference(self, objective, label, state, alpha,
                                         bob_alpha):
        value = objective_array(objective, state, alpha, bob_alpha)
        scalar = objective_function(objective)
        starts = search._start_points(6, seed=len(label))
        x, f, used, converged = search._nelder_mead(lambda q: -value(q), starts)
        for i, start in enumerate(starts):
            x_ref, f_ref, used_ref = scalar_nelder_mead(
                lambda v: -scalar(state, AngleQuad(*v), alpha, bob_alpha), start)
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
        scalar = objective_function(objective)
        for quad, v in zip(quads, values):
            assert v == pytest.approx(
                scalar(state, AngleQuad(*quad), alpha, bob_alpha), abs=1e-14)


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

    def test_points_validation(self):
        fixed = {"phi1": 0, "phi2": 1, "theta1": 2}
        with pytest.raises(ValueError):
            scan_1d(("steering",), bec_pair(1), fixed, points=4)
        series, = scan_1d(("steering",), bec_pair(1), fixed, points=search.MAX_POINTS)
        assert len(series.samples) == search.MAX_POINTS
        with pytest.raises(ValueError, match=f"exceeds the bound {search.MAX_POINTS}"):
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
