"""Job lists of the four workloads, and the checks of their outputs.

Each workload is a fixed list of operations.  Its structure (which states,
how many restarts, which subcommands) does not depend on the seed, so its
cost is the same from seed to seed; the seed draws the angles,
reflectivities, coefficients, optimizer seeds and the order of the ops.

Every engine function is looked up through its module when an op runs, so
that the tracer's wrappers are seen.  Only long-lived public API is used.

Each op's output is checked after the timed job list, against the most
independent reference available:

* the reference closed forms times ``FORM_ORIENTATION`` (bec1, bec2, noon);
* the maxima 2*sqrt(2) and 1 + sqrt(2);
* the shortcut threshold 2/S where factorized noise acts linearly;
* the polynomial engine evaluated directly at each (phi, theta) setting
  pair, which bypasses the cached trigonometric profile;
* otherwise values frozen at the first benchmarked commit
  (``references.json``).

Values are compared to ``VALUE_TOL``; values that went through the CLI's
12-significant-digit output to that precision; bisection thresholds to the
call's own ``tol``.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from twocopy import ModePolynomial, cli, inequalities, measurement, search, states

VALUE_TOL = 1e-12
MAX_STEERING = 2.0 * math.sqrt(2.0)
MAX_BELL = 1.0 + math.sqrt(2.0)
TWO_PI = 2.0 * math.pi
BALANCED = 1.0 / math.sqrt(2.0)
COMPOSITE_MODES = ("a", "b", "A", "B")

# 64-restart runs per optimize job list; see optimize_ops.
OPTIMIZE_DEFAULT_RUNS = 4

# Reflectivities of the unequal-copy pair bec_pair(1, 2) whose optimum is
# frozen in references.json.
UNBALANCED_REFLECTIVITIES = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)

# Documented working points (tests/test_acceptance.py, demos/).  bec3 has
# none of its own; it violates both bounds at the bec2 quads.
Q_STEER_BEC1 = (0.0, math.pi / 2, 3.93, 2.90)
Q_BELL_BEC1 = (0.0, math.pi / 2, 3.93, 2.36)
Q_STEER_BEC2 = (0.0, 1.07, 3.93, 3.00)
Q_BELL_BEC2 = (0.0, 1.07, 3.68, 2.60)
Q_STEER_NOON = (-0.13, 0.65, 0.26, 0.672)
Q_BELL_NOON = (-0.13, 0.65, 0.26, -0.52)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # Returns None when the output is right, else what is wrong with it.
    check: Callable[[Any], str | None]


def _mismatch(label: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{label}: got {got!r}, want {want!r} (|diff| {abs(got - want):.3e} > {tol:.1e})"


def _printed_tol(reference: float) -> float:
    """Tolerance for a value printed with 12 significant digits."""
    return VALUE_TOL + 1e-11 * abs(reference)


def _first(*messages: str | None) -> str | None:
    return next((m for m in messages if m), None)


def named_state(name: str):
    return {
        "bec1": lambda: states.bec_pair(1),
        "bec2": lambda: states.bec_pair(2),
        "bec3": lambda: states.bec_pair(3),
        "noon2": lambda: states.noon_pair(2, 0),
        "bec12": lambda: states.bec_pair(1, 2),
    }[name]()


def objective_of(name: str, e) -> float:
    """Steering or |Bell| from the four correlations (e11, e12, e21, e22)."""
    e11, e12, e21, e22 = e
    if name == "steering":
        return math.hypot(e11 + e21, e12 + e22) + math.hypot(e11 - e21, e12 - e22)
    return abs(e11 + e12 + e21 - e22)


def direct_correlations(state, q, alpha: float, bob_alpha: float) -> tuple:
    """The four correlations from the polynomial engine at each setting pair."""
    setting = measurement.BeamSplitterSetting.from_alpha
    out = []
    for phi in q[:2]:
        for theta in q[2:]:
            dist = measurement.joint_distribution(
                state, setting(alpha, phi), setting(bob_alpha, theta))
            out.append(measurement.weighted_parity(dist))
    return tuple(out)  # e11, e12, e21, e22


def closed_form_value(family: str, q) -> float:
    orientation = inequalities.FORM_ORIENTATION[family]
    return orientation * inequalities.closed_form(family, inequalities.AngleQuad(*q))


# Closed-form families per named state, for steering and for Bell.
CLOSED_FORMS = {
    "bec1": ("steer_bec1", "bell_bec1"),
    "bec2": ("steer_bec2", "bell_bec2"),
    "noon2": (None, "bell_noon"),
}


# -- optimize ----------------------------------------------------------------


def _optimum(references: dict, state_name: str, objective: str,
             reflectivity: float | None) -> float:
    if state_name == "bec12":
        return references["optimize"][f"bec12/r{reflectivity}/{objective}"]
    if objective == "steering":
        return MAX_STEERING
    if state_name == "bec2":
        return references["optimize"]["bec2/bell_abs"]
    return MAX_BELL


def optimize_ops(rng: np.random.Generator, references: dict) -> list[Op]:
    """Multistart optimization; the profile is warm after the first call per
    key, so the work is Nelder-Mead plus warm evaluations."""
    keys = [(s, o, None) for s in ("bec1", "bec2", "noon2")
            for o in ("steering", "bell_abs")]
    for r in rng.choice(UNBALANCED_REFLECTIVITIES, size=2, replace=False):
        keys += [("bec12", "steering", float(r)), ("bec12", "bell_abs", float(r))]
    jobs = [(key, 8) for key in keys for _ in range(3)]
    # Runs at the default 64 restarts.  Their cost is a sum over many
    # restarts and barely moves with the seed (evaluations within 3 %, where
    # an 8-restart run moves by a third), and there are enough of them that
    # the tail latency falls inside their group, not on its edge.
    jobs += [(("bec1", "steering", None), 64)] * OPTIMIZE_DEFAULT_RUNS
    ops = []
    for index in rng.permutation(len(jobs)):
        (state_name, objective, r), restarts = jobs[index]
        state = named_state(state_name)
        alpha = BALANCED if r is None else math.sqrt(r)
        seed = int(rng.integers(2 ** 31))
        want = _optimum(references, state_name, objective, r)

        def run(state=state, objective=objective, restarts=restarts, seed=seed,
                alpha=alpha):
            return search.optimize(objective, state, restarts=restarts, seed=seed,
                                   alpha=alpha)

        def check(result, state_name=state_name, objective=objective,
                  restarts=restarts, want=want):
            message = _first(
                _mismatch("max_value", result.max_value, want, VALUE_TOL),
                None if result.restarts_used == restarts
                else f"restarts_used {result.restarts_used} != {restarts}",
                None if result.evaluations > restarts
                else f"only {result.evaluations} evaluations")
            if message:
                return message
            families = CLOSED_FORMS.get(state_name, (None, None))
            family = families[0] if objective == "steering" else families[1]
            if family is None:
                return None
            at_argmax = closed_form_value(family, result.argmax.as_tuple())
            if objective != "steering":
                at_argmax = abs(at_argmax)
            return _mismatch("closed form at argmax", at_argmax, want, VALUE_TOL)

        label = state_name if r is None else f"{state_name}@r={r}"
        ops.append(Op(f"optimize {label} {objective} x{restarts}", run, check))
    return ops


# -- profile -----------------------------------------------------------------

# Cost tiers, so that the median and the tail of the op latencies each fall
# inside a group of ops of similar cost rather than on a jump between two:
# about 1-8 ms, 8-16 ms, 25-70 ms, 90-150 ms, 200-300 ms (bec(5, 7),
# bec(6, 6), bec(4, 8), where the tail falls), and bec(8, 8) near 1 s.
PROFILE_BEC = ((1, 2), (2, 3), (3, 2), (1, 4), (4, 1), (3, 5), (2, 6), (4, 4),
               (5, 5), (4, 6), (5, 7), (6, 6), (4, 8), (8, 8))
PROFILE_NOON = ((3, 0), (3, 1), (4, 1), (5, 0), (5, 2), (6, 1), (7, 2))
PROFILE_RANDOM = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (1, 4), (3, 4), (2, 5),
                  (4, 4), (5, 5))


def _random_amplitudes(rng: np.random.Generator, n1: int, n2: int) -> dict:
    """Normalized random creation-monomial coefficients on the (n1, n2) sector."""
    occupations = [(k, n1 - k, l, n2 - l) for k in range(n1 + 1) for l in range(n2 + 1)]
    amplitudes = rng.normal(size=len(occupations)) + 1j * rng.normal(size=len(occupations))
    amplitudes /= np.linalg.norm(amplitudes)
    # Fock amplitude = coefficient * prod(sqrt(n_k!)).
    return {occ: complex(amp) / math.sqrt(math.prod(math.factorial(n) for n in occ))
            for occ, amp in zip(occupations, amplitudes)}


def profile_ops(rng: np.random.Generator) -> list[Op]:
    """One cold correlation profile per op, each on a state new to the process."""
    builders = [("bec1", lambda: states.bec_pair(1), True),
                ("bec2", lambda: states.bec_pair(2), True),
                ("noon2", lambda: states.noon_pair(2, 0), True)]
    builders += [(f"bec({a},{b})", lambda a=a, b=b: states.bec_pair(a, b), False)
                 for a, b in PROFILE_BEC]
    builders += [(f"noon({n},{m})", lambda n=n, m=m: states.noon_pair(n, m), False)
                 for n, m in PROFILE_NOON]
    for n1, n2 in PROFILE_RANDOM:
        terms = _random_amplitudes(rng, n1, n2)

        def build(terms=terms, n1=n1, n2=n2):
            member = ModePolynomial(COMPOSITE_MODES, terms)
            return states.CompositeState(((1.0, member),), n1=n1, n2=n2)
        builders.append((f"random({n1},{n2})", build, False))

    ops = []
    for index in rng.permutation(len(builders)):
        label, build, balanced = builders[index]
        q = tuple(float(v) for v in rng.uniform(0.0, TWO_PI, 4))
        if balanced:
            alpha = bob_alpha = BALANCED
        else:
            alpha, bob_alpha = (math.sqrt(float(r)) for r in rng.uniform(0.1, 0.9, 2))

        def run(build=build, q=q, alpha=alpha, bob_alpha=bob_alpha):
            state = build()
            e = inequalities.correlation_vector(
                state, inequalities.AngleQuad(*q), alpha, bob_alpha)
            return state, e

        def check(output, label=label, q=q, alpha=alpha, bob_alpha=bob_alpha,
                  balanced=balanced):
            state, e = output
            got = (e.e11, e.e12, e.e21, e.e22)
            if balanced:
                steer_family, bell_family = CLOSED_FORMS[label]
                bell = got[0] + got[1] + got[2] - got[3]
                return _first(
                    steer_family and _mismatch(
                        "steering", objective_of("steering", got),
                        closed_form_value(steer_family, q), VALUE_TOL),
                    _mismatch("bell", bell, closed_form_value(bell_family, q),
                              VALUE_TOL))
            want = direct_correlations(state, q, alpha, bob_alpha)
            return _first(*(_mismatch(f"E{name}", g, w, VALUE_TOL) for name, g, w
                            in zip(("11", "12", "21", "22"), got, want)))

        ops.append(Op(f"profile {label}", run, check))
    return ops


# -- visibility --------------------------------------------------------------

# (state, objective, noise, quad, tol, repeats).  The last case has
# n_total = 4 and 225 factorized noise members, on which the noise does not
# act linearly; its looser tol keeps the round short.  The cheap bec1
# sector cases are repeated so that the job list has enough ops for a tail,
# and so that the median latency falls inside their group, not on its edge.
VISIBILITY_CASES = (
    ("bec1", "steering", "sector", Q_STEER_BEC1, 1e-9, 12),
    ("bec1", "bell", "sector", Q_BELL_BEC1, 1e-9, 12),
    ("bec1", "steering", "factorized", Q_STEER_BEC1, 1e-9, 1),
    ("bec1", "bell", "factorized", Q_BELL_BEC1, 1e-9, 1),
    ("noon2", "steering", "sector", Q_STEER_NOON, 1e-9, 1),
    ("noon2", "bell", "sector", Q_BELL_NOON, 1e-9, 1),
    ("bec2", "steering", "sector", Q_STEER_BEC2, 1e-9, 1),
    ("bec2", "bell", "sector", Q_BELL_BEC2, 1e-9, 1),
    ("bec3", "steering", "sector", Q_STEER_BEC2, 1e-9, 1),
    ("bec3", "bell", "sector", Q_BELL_BEC2, 1e-9, 1),
    ("noon2", "bell", "factorized", Q_BELL_NOON, 1e-4, 1),
)


def _threshold_reference(state, objective: str, q, alpha: float, bob_alpha: float,
                         noise: str) -> float:
    """Root of objective = 2 along the mixture, from two profiles only.

    Correlations are linear in the mixture weight, so the correlations of
    admix(state, p) are p * E(state) + (1 - p) * E(noise alone).
    """
    quad = inequalities.AngleQuad(*q)
    signal = inequalities.correlation_vector(state, quad, alpha, bob_alpha)
    noise_only = inequalities.correlation_vector(
        states.admix(state, 0.0, noise=noise), quad, alpha, bob_alpha)
    fields = ("e11", "e12", "e21", "e22")
    e1 = [getattr(signal, f) for f in fields]
    e0 = [getattr(noise_only, f) for f in fields]

    def value(p: float) -> float:
        return objective_of(objective, [p * a + (1.0 - p) * b for a, b in zip(e1, e0)])

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if value(mid) >= 2.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def visibility_ops(rng: np.random.Generator) -> list[Op]:
    """Bisected white-noise thresholds at the documented working points.

    Each op draws its own reflectivities near balance, so that no two ops
    share an admixed state and every profile an op builds is cold.
    """
    cases = [case[:5] for case in VISIBILITY_CASES for _ in range(case[5])]
    ops = []
    for index in rng.permutation(len(cases)):
        state_name, objective, noise, q, tol = cases[index]
        state = named_state(state_name)
        alpha, bob_alpha = (math.sqrt(float(r)) for r in rng.uniform(0.47, 0.53, 2))

        def run(state=state, objective=objective, noise=noise, q=q, tol=tol,
                alpha=alpha, bob_alpha=bob_alpha):
            return inequalities.visibility_threshold(
                state, objective, inequalities.AngleQuad(*q), alpha=alpha,
                bob_alpha=bob_alpha, noise=noise, tol=tol)

        def check(threshold, state=state, state_name=state_name, objective=objective,
                  noise=noise, q=q, tol=tol, alpha=alpha, bob_alpha=bob_alpha):
            want = _threshold_reference(state, objective, q, alpha, bob_alpha, noise)
            message = _mismatch("threshold", threshold, want, tol)
            if message or not (state_name == "bec1" and noise == "factorized"):
                return message
            # Two particles in all: the parity observables are traceless on
            # each party's space, so the threshold is 2 / (pure value).
            e = inequalities.correlation_vector(
                state, inequalities.AngleQuad(*q), alpha, bob_alpha)
            pure = objective_of(objective, (e.e11, e.e12, e.e21, e.e22))
            return _mismatch("shortcut 2/S", threshold, 2.0 / pure, tol)

        ops.append(Op(f"visibility {state_name} {objective} {noise}", run, check))
    return ops


# -- cli ---------------------------------------------------------------------

SCAN_STATES = {"bec1": ["--state", "bec", "--n1", "1"],
               "bec2": ["--state", "bec", "--n1", "2"],
               "noon2": ["--state", "noon", "--n", "2", "--m", "0"]}
SCAN_DIRECT_POINTS = 8


def _run_cli(argv: list[str]) -> tuple[int, str]:
    path = argv[argv.index("--output") + 1]
    code = cli.main(argv)
    return code, path


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _scan_op(rng, tmp: str, index: int, state_name: str) -> Op:
    fixed = {name: float(v) for name, v in
             zip(("phi1", "phi2", "theta1"), rng.uniform(0.0, TWO_PI, 3))}
    argv = ["scan", *SCAN_STATES[state_name], "--objective", "steering,bell",
            "--points", "720", "--output", os.path.join(tmp, f"{index}.csv")]
    for name, value in fixed.items():
        argv += [f"--{name}", repr(value)]
    direct_rows = sorted(rng.choice(720, SCAN_DIRECT_POINTS, replace=False).tolist())

    def check(output) -> str | None:
        code, path = output
        if code != 0:
            return f"exit code {code}"
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["param", "steering", "bell"] or len(rows) != 721:
            return f"unexpected CSV shape: header {rows[0]}, {len(rows)} rows"
        steer_family, bell_family = CLOSED_FORMS[state_name]
        state = named_state(state_name)
        for i, row in enumerate(rows[1:]):
            theta2, steering, bell = (float(v) for v in row)
            want_theta2 = TWO_PI * i / 720
            q = (fixed["phi1"], fixed["phi2"], fixed["theta1"], want_theta2)
            wants = [("theta2", theta2, want_theta2)]
            if bell_family:
                wants.append(("bell", bell, abs(closed_form_value(bell_family, q))))
            if steer_family:
                wants.append(("steering", steering,
                              closed_form_value(steer_family, q)))
            elif i in direct_rows:
                e = direct_correlations(state, q, BALANCED, BALANCED)
                wants.append(("steering", steering, objective_of("steering", e)))
            for label, got, want in wants:
                message = _mismatch(f"row {i} {label}", got, want, _printed_tol(want))
                if message:
                    return message
        return None

    return Op(f"cli scan {state_name}", lambda: _run_cli(argv), check)


def _trace_op(rng, tmp: str, index: int, n1: int, n2: int, combined: bool) -> Op:
    phi, theta, phi2 = (float(v) for v in rng.uniform(0.0, TWO_PI, 3))
    alpha, bob_alpha = (math.sqrt(float(r)) for r in rng.uniform(0.2, 0.8, 2))
    sign = float(rng.choice((1.0, -1.0)))
    argv = ["trace", "--n1", str(n1), "--n2", str(n2), "--phi", repr(phi),
            "--theta", repr(theta), "--alpha", repr(alpha), "--alpha-bob",
            repr(bob_alpha), "--output", os.path.join(tmp, f"{index}.json")]
    if combined:
        argv += ["--phi2", repr(phi2), "--sign", repr(sign)]

    def check(output) -> str | None:
        code, path = output
        if code != 0:
            return f"exit code {code}"
        report = json.loads(_read(path))
        # The trace is the sector dimension times the correlation of the
        # uniform sector mixture, taken here through the profile route.
        noise = states.admix(states.bec_pair(n1, n2), 0.0, noise="sector")
        want = inequalities.correlation(noise, phi, theta, alpha, bob_alpha)
        if combined:
            want += sign * inequalities.correlation(noise, phi2, theta, alpha, bob_alpha)
        want *= (n1 + 1) * (n2 + 1)
        return _first(
            None if (report["n1"], report["n2"]) == (n1, n2) else "n1/n2 not echoed",
            _mismatch("trace", report["value"], want, _printed_tol(want)))

    return Op(f"cli trace ({n1},{n2}){' combined' if combined else ''}",
              lambda: _run_cli(argv), check)


def _epsilon(n: int, m: int) -> int:
    s = n + m
    return -1 if (m + s * (s + 1) // 2) % 2 else 1


def _reference_basis(n_total: int, alpha: float, phi: float, raw: bool) -> list:
    """Rows (n, m, weight, {(i, j): amplitude}) from the documented formula

    ((alpha a† + beta e^{-i phi} A†)^n / sqrt(n!))
    ((beta a† - alpha e^{-i phi} A†)^m / sqrt(m!)) |0, 0>.
    """
    beta = math.sqrt(1.0 - alpha * alpha)
    phase = complex(math.cos(phi), -math.sin(phi))
    rows = []
    for n in range(n_total + 1):
        for m in range(n_total + 1 - n):
            coefficients: dict[tuple[int, int], complex] = {}
            for k in range(n + 1):
                for l in range(m + 1):
                    c = (math.comb(n, k) * alpha ** k * (beta * phase) ** (n - k)
                         * math.comb(m, l) * beta ** l * (-alpha * phase) ** (m - l))
                    key = (k + l, n + m - k - l)
                    coefficients[key] = coefficients.get(key, 0.0) + c
            scale = 1.0 / math.sqrt(math.factorial(n) * math.factorial(m))
            entries = {}
            for (i, j), c in coefficients.items():
                amplitude = c * scale
                if not raw:
                    amplitude *= math.sqrt(math.factorial(i) * math.factorial(j))
                entries[(i, j)] = amplitude
            rows.append((n, m, _epsilon(n, m), entries))
    return rows


def _parse_basis(text: str) -> list:
    rows = []
    for line in text.splitlines()[2:]:
        label, expansion, weight = (cell.strip() for cell in line.split(" | "))
        n, m = (int(v) for v in label.strip("|>").split())
        entries = {}
        for term in expansion.split(" + "):
            value, ket = term.split(")|")
            i, j = (int(v) for v in ket.rstrip(">").split())
            entries[(i, j)] = complex(value.lstrip("(").replace("i", "j"))
        rows.append((n, m, int(weight), entries))
    return rows


def _basis_op(rng, tmp: str, index: int, n_total: int, raw: bool) -> Op:
    phi = float(rng.uniform(0.0, TWO_PI))
    alpha = math.sqrt(float(rng.uniform(0.2, 0.8)))
    argv = ["basis", "--n-total", str(n_total), "--phi", repr(phi), "--alpha",
            repr(alpha), "--output", os.path.join(tmp, f"{index}.txt")]
    if raw:
        argv.append("--raw")

    def check(output) -> str | None:
        code, path = output
        if code != 0:
            return f"exit code {code}"
        got = _parse_basis(_read(path))
        want = _reference_basis(n_total, alpha, phi, raw)
        if [r[:3] for r in got] != [r[:3] for r in want]:
            return "outcome labels or weights differ"
        for (n, m, _, got_entries), (_, _, _, want_entries) in zip(got, want):
            for key in set(got_entries) | set(want_entries):
                g = got_entries.get(key, 0.0)
                w = want_entries.get(key, 0.0)
                # Amplitudes are printed with 6 significant digits.
                if abs(g - w) > 1e-12 + 1e-5 * abs(w):
                    return f"|{n} {m}> entry {key}: got {g}, want {w}"
        return None

    return Op(f"cli basis n={n_total}{' raw' if raw else ''}",
              lambda: _run_cli(argv), check)


def _verify_op(rng, tmp: str, index: int) -> Op:
    draws, seed = 20, int(rng.integers(2 ** 31))
    argv = ["verify", "--draws", str(draws), "--seed", str(seed),
            "--output", os.path.join(tmp, f"{index}.json")]

    def check(output) -> str | None:
        code, path = output
        if code != 0:
            return f"exit code {code}"
        report = json.loads(_read(path))
        return _first(
            None if set(report["families"]) == set(inequalities.FORM_ORIENTATION)
            else f"families {sorted(report['families'])}",
            None if (report["draws"], report["seed"]) == (draws, seed)
            else "draws/seed not echoed",
            None if report["max_abs_deviation"] <= VALUE_TOL
            else f"max_abs_deviation {report['max_abs_deviation']}")

    return Op("cli verify", lambda: _run_cli(argv), check)


def _optimize_cli_op(rng, tmp: str, index: int, state_name: str, objective: str) -> Op:
    seed = int(rng.integers(2 ** 31))
    argv = ["optimize", *SCAN_STATES[state_name], "--objective", objective,
            "--restarts", "4", "--seed", str(seed),
            "--output", os.path.join(tmp, f"{index}.json")]
    want = MAX_STEERING if objective == "steering" else MAX_BELL

    def check(output) -> str | None:
        code, path = output
        if code != 0:
            return f"exit code {code}"
        report = json.loads(_read(path))
        return _first(
            None if (report["seed"], report["restarts_used"]) == (seed, 4)
            else "seed/restarts not echoed",
            _mismatch("max_value", report["max_value"], want, _printed_tol(want)))

    return Op(f"cli optimize {state_name} {objective}", lambda: _run_cli(argv), check)


def cli_ops(rng: np.random.Generator, tmp: str) -> list[Op]:
    """In-process runs of every subcommand but visibility, writing to ``tmp``."""
    makers = [lambda i, s=s: _scan_op(rng, tmp, i, s) for s in SCAN_STATES] * 3
    makers += [lambda i, n1=n1, n2=n2, c=c: _trace_op(rng, tmp, i, n1, n2, c)
               for n1 in (1, 2, 3) for n2 in (1, 2, 3) for c in (False, True)] * 2
    makers += [lambda i, n=n, raw=raw: _basis_op(rng, tmp, i, n, raw)
               for n in (1, 2, 3, 4) for raw in (False, True)] * 2
    makers += [lambda i: _verify_op(rng, tmp, i)] * 6
    makers += [lambda i, s=s, o=o: _optimize_cli_op(rng, tmp, i, s, o)
               for s in ("bec1", "noon2") for o in ("steering", "bell_abs")] * 2
    order = rng.permutation(len(makers))
    return [makers[k](i) for i, k in enumerate(order)]


def build(workload: str, seed: int, references: dict, tmp: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    if workload == "optimize":
        return optimize_ops(rng, references)
    if workload == "profile":
        return profile_ops(rng)
    if workload == "visibility":
        return visibility_ops(rng)
    if workload == "cli":
        return cli_ops(rng, tmp)
    raise ValueError(f"unknown workload {workload!r}")
