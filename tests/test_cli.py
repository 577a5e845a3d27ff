"""Command-line interface tests: parsing, output formats, exit codes."""
import argparse
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import typing

import pytest

import twocopy
from twocopy import cli, inequalities, measurement, search, states
from twocopy.cli import main, parse_angle
from twocopy.fock import fock_amplitudes
from twocopy.inequalities import AngleQuad, bell_value, steering_value
from twocopy.measurement import BALANCED_ALPHA, BeamSplitterSetting
from twocopy.states import bec_pair, noon_pair

SRC = str(pathlib.Path(twocopy.__file__).resolve().parents[1])
BALANCED = BeamSplitterSetting.from_alpha(BALANCED_ALPHA, 0.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python_m(*argv):
    """``python -m twocopy`` in a fresh interpreter on this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "twocopy", *argv],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    return run.returncode, run.stdout, run.stderr


class TestParseAngle:
    @pytest.mark.parametrize("text,expected", [
        ("1.5", 1.5),
        ("-0.52", -0.52),
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("pi/2", math.pi / 2),
        ("-pi/2", -math.pi / 2),
        ("3pi/4", 3 * math.pi / 4),
        ("2*pi/3", 2 * math.pi / 3),
        ("0.5pi", 0.5 * math.pi),
        ("PI/6", math.pi / 6),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["tau", "pi/x", "1..2", "pi/0"])
    def test_rejected_forms(self, text):
        with pytest.raises(Exception):
            parse_angle(text)


class TestOptimizeCommand:
    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--state", "bec", "--n1", "1", "--n2", "1",
            "--objective", "bell", "--restarts", "8", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"max_value", "angles", "seed", "restarts_used",
                                "evaluations", "converged"}
        assert payload["seed"] == 7
        result = search.optimize("bell", bec_pair(1), restarts=8, seed=7)
        # every restart met a stop rule before the step cap
        assert payload["converged"] == result.converged == 8
        assert payload["evaluations"] == result.evaluations
        q = AngleQuad(**payload["angles"])
        value = abs(bell_value(bec_pair(1), q))
        assert value == pytest.approx(payload["max_value"], abs=1e-9)

    def test_noon_state_steering(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--state", "noon", "--n", "2", "--m", "0",
            "--objective", "steering", "--restarts", "4", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        q = AngleQuad(**payload["angles"])
        assert steering_value(noon_pair(2, 0), q) == pytest.approx(
            payload["max_value"], abs=1e-9)

    def test_missing_state_parameters(self, capsys):
        code, _, err = run_cli(
            capsys, "optimize", "--state", "bec", "--objective", "steering")
        assert code == 2
        assert "n1" in err

    def test_noon_without_n(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--state", "noon", "--objective", "steering")
        assert (code, out) == (2, "")
        assert err == "twocopy: error: --state noon requires --n (and optionally --m)\n"

    def test_noon_occupation_above_n(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--state", "noon", "--n", "3", "--m", "5",
            "--objective", "steering", "--restarts", "2")
        assert code == 2
        assert out == ""
        assert "twocopy: error: m=5 must be an integer in [0, 3]" in err


class TestScanCommand:
    ARGS = ("scan", "--state", "noon", "--n", "2", "--m", "0",
            "--objective", "steering,bell", "--phi1", "-0.13", "--phi2", "0.65",
            "--theta1", "0.26", "--points", "24")

    def test_csv_structure(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,steering,bell"
        assert len(lines) == 25
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        state = noon_pair(2, 0)
        q = AngleQuad(-0.13, 0.65, 0.26, 0.0)
        assert float(first[1]) == pytest.approx(steering_value(state, q), rel=1e-11)
        assert float(first[2]) == pytest.approx(abs(bell_value(state, q)), rel=1e-11)

    def test_bit_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("param,steering,bell\n")

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "scan.csv"
        code, _, err = run_cli(capsys, *self.ARGS, "--output", str(target))
        assert code == 2
        assert err

    @pytest.mark.parametrize("seed", range(6))
    def test_csv_matches_per_row_formatting(self, capsys, seed):
        rng = random.Random(seed)
        objectives = rng.sample(list(inequalities._OBJECTIVES), rng.randint(1, 3))
        axis = rng.choice(search.ANGLE_NAMES)
        fixed = {name: rng.uniform(-7.0, 7.0) for name in search.ANGLE_NAMES if name != axis}
        points = rng.randint(8, 400)
        alpha = rng.uniform(0.05, 1.0)
        state = bec_pair(rng.randint(0, 3), rng.randint(0, 3))
        argv = ["scan", "--state", "bec", "--n1", str(state.n1), "--n2", str(state.n2),
                "--objective", ",".join(objectives), "--axis", axis,
                "--points", str(points), "--alpha", repr(alpha)]
        for name, value in fixed.items():
            argv += [f"--{name}", repr(value)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        series = search.scan_1d(objectives, state, fixed, axis=axis, points=points, alpha=alpha)
        lines = ["param," + ",".join(objectives)]
        for i in range(points):
            row = [f"{series[0].samples[i][0]:.12g}"]
            row += [f"{s.samples[i][1]:.12g}" for s in series]
            lines.append(",".join(row))
        assert out == "\n".join(lines) + "\n"

    def test_axis_flag_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--state", "bec", "--n1", "1", "--n2", "1",
            "--objective", "steering", "--phi1", "0", "--phi2", "1",
            "--theta1", "2", "--theta2", "3", "--axis", "theta2")
        assert code == 2
        assert "conflicts" in err


def parse_basis(out):
    """Outcome -> {occupation: printed complex} for each row of a basis table."""
    rows = {}
    for line in out.splitlines()[2:]:
        outcome = tuple(map(int, re.match(r"\|(\d+) (\d+)>", line).groups()))
        rows[outcome] = {(int(p), int(q)): complex(z.replace("i", "j"))
                         for z, p, q in re.findall(r"\(([^)]*)\)\|(\d+) (\d+)>", line)}
    return rows


class TestBasisCommand:
    def test_balanced_two_particle_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--n-total", "2", "--phi", "0",
            "--alpha", str(1.0 / math.sqrt(2.0)))
        assert code == 0
        lines = out.splitlines()
        assert "eps" in lines[0]
        assert len(lines) == 8  # header, rule, six outcomes
        row10 = next(line for line in lines if line.startswith("|1 0>"))
        assert "0.707107" in row10
        assert row10.rstrip().endswith("-1")

    def test_raw_view_differs(self, capsys):
        args = ("basis", "--n-total", "4", "--phi", "0",
                "--alpha", str(1.0 / math.sqrt(2.0)))
        _, fock, _ = run_cli(capsys, *args)
        _, raw, _ = run_cli(capsys, *args, "--raw")
        assert fock != raw
        row22 = next(line for line in raw.splitlines() if line.startswith("|2 2>"))
        assert "0.125" in row22  # monomial coefficients (1, -2, 1)/8

    def test_purely_imaginary_amplitude(self, capsys):
        # at phi = pi/2 the |0 1> amplitudes are +-i/sqrt(2); their real
        # parts are rounding residue and are not printed
        code, out, _ = run_cli(capsys, "basis", "--n-total", "1", "--phi", "pi/2")
        assert code == 0
        rows = [line.split(" | ")[1].rstrip() for line in out.splitlines()[2:]]
        assert rows == ["(1)|0 0>", "(0.707107i)|0 1> + (0.707107)|1 0>",
                        "(-0.707107i)|0 1> + (0.707107)|1 0>"]

    @pytest.mark.parametrize("n_total,raw", [(2, False), (24, True)], ids=["fock", "raw"])
    def test_printed_terms_follow_amplitudes(self, capsys, n_total, raw):
        # terms and their real and imaginary parts are printed by their size
        # in the normalized amplitude; below 5e-13 is rounding residue
        argv = ["basis", "--n-total", str(n_total), "--phi", "0.4"] + ["--raw"] * raw
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        printed = parse_basis(out)
        basis = measurement.effective_basis(n_total, BeamSplitterSetting.balanced(0.4))
        assert set(printed) == {vector.outcome for vector in basis}
        for vector in basis:
            kept = {occ: amp for occ, amp in fock_amplitudes(vector.vector).items()
                    if abs(amp) >= 5e-13}
            row = printed[vector.outcome]
            assert set(row) == set(kept), vector.outcome
            for (p, q), amp in kept.items():
                scale = math.sqrt(math.factorial(p) * math.factorial(q)) if raw else 1.0
                got = row[p, q] * scale
                for part_got, part in ((got.real, amp.real), (got.imag, amp.imag)):
                    assert abs(part_got - part) <= 1e-5 * abs(part) + 5e-13, (vector.outcome, p)


class TestVisibilityCommand:
    def test_threshold_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "visibility", "--state", "bec", "--n1", "1", "--n2", "1",
            "--objective", "steering", "--phi1", "0", "--phi2", "pi/2",
            "--theta1", "3.93", "--theta2", "2.90")
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold"] == pytest.approx(0.7164930, abs=1e-5)

    def test_factorized_noise_past_admix_bound(self, capsys):
        # n1 + n2 = 18 exceeds MAX_FACTORIZED_TOTAL, which bounds only the
        # explicit noise mixture of admix
        best = search.optimize("steering", bec_pair(9), restarts=8, seed=0)
        angles = [f"--{name}={value!r}" for name, value
                  in zip(inequalities.ANGLE_NAMES, best.argmax.as_tuple())]
        code, out, err = run_cli(
            capsys, "visibility", "--state", "bec", "--n1", "9",
            "--objective", "steering", "--noise", "factorized", *angles)
        assert code == 0, err
        # the outcome weights of 18 particles sum to zero, so the noise
        # alone does not correlate and the threshold is 2 / S
        assert json.loads(out)["threshold"] == pytest.approx(
            2.0 / best.max_value, abs=1e-9)

    def test_no_violation_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "visibility", "--state", "bec", "--n1", "1", "--n2", "1",
            "--objective", "steering", "--phi1", "0", "--phi2", "0",
            "--theta1", "0", "--theta2", "0")
        assert code == 3
        assert "numerical failure" in err

    def test_noise_alone_above_bound_exit_code(self, capsys):
        # sector noise with very unequal splitters already exceeds 2
        code, out, err = run_cli(
            capsys, "visibility", "--state", "bec", "--n1", "1", "--n2", "1",
            "--objective", "steering", "--phi1", "0", "--phi2", "pi/2",
            "--theta1", "3.93", "--theta2", "2.90", "--noise", "sector",
            "--alpha", str(math.sqrt(0.98)), "--alpha-bob", str(math.sqrt(0.02)))
        assert code == 3
        assert out == ""
        assert "noise alone" in err


class TestVerifyCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--draws", "25", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_abs_deviation"] < 1e-9
        assert set(payload["families"]) == {
            "steer_bec1", "bell_bec1", "steer_bec2", "bell_bec2", "bell_noon"}


class TestTraceCommand:
    def test_single_observable(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--n1", "1", "--n2", "1",
            "--phi", "0.4", "--theta", "1.1")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-2.0)

    def test_difference_combination(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--n1", "1", "--n2", "1", "--phi", "0.4",
            "--theta", "1.1", "--phi2", "2.2", "--sign", "-1.0")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-12)

    def test_sign_defaults_to_sum(self, capsys):
        argv = ("trace", "--n1", "1", "--n2", "2", "--phi", "0.4",
                "--theta", "1.1", "--phi2", "2.2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--sign", "1") == (0, out, "")
        assert run_cli(capsys, *argv, "--sign", "-1")[1] != out

    @pytest.mark.parametrize("sign", ["-1.0", "1.0"])
    def test_sign_without_second_angle(self, capsys, sign):
        code, out, err = run_cli(
            capsys, "trace", "--n1", "1", "--n2", "1", "--phi", "0.4",
            "--theta", "1.1", "--sign", sign)
        assert code == 2
        assert out == ""
        assert "--sign" in err and "--phi2" in err


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--frobnicate"])
        assert excinfo.value.code == 2

    OPTIMIZE = ("optimize", "--state", "bec", "--n1", "1", "--n2", "1",
                "--objective", "steering", "--restarts", "2")

    def test_alpha_out_of_range(self, capsys):
        # the library's closed range [0, 1] is the only rule
        for flag, value in [("--alpha", "1.5"), ("--alpha", "-0.1"), ("--alpha", "nan"),
                            ("--alpha-bob", "1.5")]:
            code, out, err = run_cli(capsys, *self.OPTIMIZE, flag, value)
            assert code == 2
            assert out == ""
            assert err.startswith(f"twocopy: error: alpha={float(value)} and beta=")

    def test_unmixing_alphas_accepted(self, capsys):
        # alpha 1 and alpha 0 are splitters that do not mix
        code, out, err = run_cli(capsys, *self.OPTIMIZE, "--alpha", "1.0", "--alpha-bob", "0")
        assert (code, err) == (0, "")
        want = search.optimize("steering", bec_pair(1, 1), restarts=2, alpha=1.0,
                               bob_alpha=0.0)
        assert json.loads(out)["max_value"] == float(f"{want.max_value:.12g}")

    @pytest.mark.parametrize("argv", [
        ("trace", "--n1", "-1", "--n2", "1", "--phi", "0", "--theta", "0"),
        ("basis", "--n-total", "-1"),
        ("verify", "--draws", "-3"),
    ], ids=["trace", "basis", "verify"])
    def test_negative_counts(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "twocopy: error:" in err

    @pytest.mark.parametrize("argv", [
        ("basis", "--n-total", "1", "--phi", "nan"),
        ("basis", "--n-total", "1", "--phi", "inf"),
        ("trace", "--n1", "1", "--n2", "1", "--phi", "nan", "--theta", "0"),
    ], ids=["basis-nan", "basis-inf", "trace-nan"])
    def test_non_finite_phase(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "phase" in err


class TestLibraryNames:
    """Objective, noise-model and axis names are the library's to check."""

    STATE = ("--state", "bec", "--n1", "1")
    QUAD = ("--phi1", "0", "--phi2", "pi/2", "--theta1", "3.93", "--theta2", "2.90")
    Q = AngleQuad(0, math.pi / 2, 3.93, 2.90)
    OBJECTIVES = tuple(inequalities._OBJECTIVES)
    NOISE_MODELS = typing.get_args(states.NoiseModel)
    # (argv, the library call that rejects the name, the names its message lists)
    CASES = [
        (("optimize", *STATE, "--objective", "nope", "--restarts", "1"),
         lambda: search.optimize("nope", bec_pair(1), restarts=1), OBJECTIVES),
        (("visibility", *STATE, "--objective", "nope", *QUAD),
         lambda: inequalities.visibility_threshold(bec_pair(1), "nope", TestLibraryNames.Q),
         OBJECTIVES),
        (("visibility", *STATE, "--objective", "steering", *QUAD, "--noise", "nope"),
         lambda: inequalities.visibility_threshold(bec_pair(1), "steering",
                                                   TestLibraryNames.Q, noise="nope"),
         NOISE_MODELS),
        (("scan", *STATE, "--objective", "bell", "--phi1", "0", "--phi2", "0",
          "--theta1", "0", "--axis", "nope"),
         lambda: search.scan_1d(["bell"], bec_pair(1),
                                {"phi1": 0, "phi2": 0, "theta1": 0}, axis="nope"),
         inequalities.ANGLE_NAMES),
    ]

    @pytest.mark.parametrize("argv, library_call, names", CASES,
                             ids=["optimize-objective", "visibility-objective", "noise", "axis"])
    def test_bad_name_exits_2_with_library_message(self, capsys, argv, library_call, names):
        with pytest.raises(ValueError) as library:
            library_call()
        assert all(name in str(library.value) for name in names)
        assert run_cli(capsys, *argv) == (2, "", f"twocopy: error: {library.value}\n")

    def test_help_lists_the_library_names(self):
        commands, = (action.choices for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
        helps = {(command, action.dest): action.help
                 for command, parser in commands.items() for action in parser._actions}
        for key, names in [(("optimize", "objective"), self.OBJECTIVES),
                           (("scan", "objective"), self.OBJECTIVES),
                           (("visibility", "objective"), self.OBJECTIVES),
                           (("visibility", "noise"), self.NOISE_MODELS),
                           (("scan", "axis"), inequalities.ANGLE_NAMES)]:
            assert all(name in helps[key] for name in names), key


class TestStateFamilyFlags:
    @pytest.mark.parametrize("state, flag", [
        ("noon", "--n1"), ("noon", "--n2"), ("bec", "--n"), ("bec", "--m")])
    def test_flag_of_other_family_rejected(self, capsys, state, flag):
        own = ("--n1", "1") if state == "bec" else ("--n", "2")
        code, out, err = run_cli(
            capsys, "optimize", "--state", state, *own, flag, "1",
            "--objective", "steering", "--restarts", "1")
        assert (code, out) == (2, "")
        assert err == f"twocopy: error: {flag} does not apply to --state {state}\n"


class TestCountBounds:
    # count flags with no upper bound
    UNBOUNDED = {"--seed", "--m"}
    # (flag, bound, argv with "{}" for the value, the library call that
    # rejects the value); the other inputs are the smallest that run
    CASES = [
        ("--n1", states.MAX_PARTICLES,
         "optimize --state bec --objective steering --restarts 1 --n1 {}",
         lambda n: bec_pair(n)),
        ("--n2", states.MAX_PARTICLES, "trace --n1 1 --phi 0 --theta 0 --n2 {}",
         lambda n: measurement.sector_trace_product(1, n, BALANCED, BALANCED)),
        ("--n", states.MAX_PARTICLES,
         "optimize --state noon --objective bell --restarts 1 --n {}",
         lambda n: noon_pair(n)),
        ("--n-total", measurement.MAX_BASIS_TOTAL, "basis --n-total {}",
         lambda n: measurement.effective_basis(n, BALANCED)),
        ("--points", search.MAX_POINTS,
         "scan --state bec --n1 1 --objective bell --phi1 0 --phi2 0 --theta1 0 "
         "--points {}",
         lambda n: search.scan_1d(["bell"], bec_pair(1),
                                  {"phi1": 0, "phi2": 0, "theta1": 0}, points=n)),
        ("--restarts", search.MAX_RESTARTS,
         "optimize --state bec --n1 1 --objective bell --restarts {}",
         lambda n: search.optimize("bell", bec_pair(1), restarts=n)),
        ("--draws", inequalities.MAX_DRAWS, "verify --draws {}",
         lambda n: inequalities.verify_closed_forms(draws=n)),
    ]

    @pytest.mark.parametrize("flag, bound, argv, library_call", CASES,
                             ids=[case[0] for case in CASES])
    def test_bound(self, capsys, monkeypatch, flag, bound, argv, library_call):
        monkeypatch.setattr(search, "MAX_STEPS", 1)  # keeps optimize cheap
        code, out, err = run_cli(capsys, *argv.format(bound).split())
        assert (code, err) == (0, "") and out
        code, out, err = run_cli(capsys, *argv.format(bound + 1).split())
        assert (code, out) == (2, "")
        with pytest.raises(ValueError) as library:
            library_call(bound + 1)
        assert err == f"twocopy: error: {library.value}\n"
        assert re.search(rf"\b{bound + 1}\b", err) and re.search(rf"\b{bound}\b", err)

    def test_every_count_flag_has_a_case(self):
        commands, = (action.choices.values() for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
        flags = {flag for command in commands for action in command._actions
                 if action.type is int for flag in action.option_strings}
        bounded = {case[0] for case in self.CASES}
        assert flags - self.UNBOUNDED == bounded
        assert self.UNBOUNDED <= flags


@pytest.mark.parametrize("argv, defaults", [
    (["optimize", "--state", "bec", "--objective", "bell"], {"restarts": 64, "seed": 0}),
    (["scan", "--state", "bec", "--objective", "bell"], {"points": 720}),
    (["basis", "--n-total", "2"], {"phi": 0.0}),
    (["verify"], {"draws": 100}),
], ids=["optimize", "scan", "basis", "verify"])
def test_parser_defaults(argv, defaults):
    args = cli.build_parser().parse_args(argv)
    assert {name: getattr(args, name) for name in defaults} == defaults


class TestParserCache:
    ARGV = ("optimize", "--state", "bec", "--n1", "1", "--objective", "bell",
            "--restarts", "2")

    def test_no_value_carried_between_calls(self, capsys):
        first = run_cli(capsys, *self.ARGV, "--n2", "2", "--alpha", "0.6",
                        "--alpha-bob", "0.7", "--seed", "3")
        second = run_cli(capsys, *self.ARGV)
        assert second[0] == 0 and second[1] != first[1]
        assert second == run_python_m(*self.ARGV)

    def test_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert run_cli(capsys, "verify", "--draws", "1")[0] == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestEntryPoint:
    def test_success(self, capsys):
        argv = ("trace", "--n1", "1", "--n2", "2", "--phi", "0.4", "--theta", "1.1")
        code, out, err = run_python_m(*argv)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv)[1]

    def test_argument_error(self):
        code, out, err = run_python_m("verify", "--draws", "0")
        assert (code, out) == (2, "")
        assert err == "twocopy: error: draws=0 must be an integer in [1, 10000]\n"
