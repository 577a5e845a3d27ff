"""Command-line front end.

Subcommands: optimize, scan, basis, visibility, verify, trace.  Scans are
written as CSV; everything else as JSON.  All numeric output carries 12
significant digits.  Exit codes: 0 success, 2 argument errors, 3 numerical
failure (e.g. no violation to threshold).

This module holds the flags and the formatting.  The library validates the
values: counts past their bounds, non-finite angles and phases, and state
parameters all raise ``ValueError`` there, which ``main`` reports as exit 2.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Sequence

from . import inequalities, measurement, search, states
from .fock import fock_amplitudes
from .inequalities import ANGLE_NAMES, AngleQuad, NegativeRadicandError, NoViolationError
from .measurement import BALANCED_ALPHA, BeamSplitterSetting

_PI_LITERAL = re.compile(
    r"^\s*([+-]?)(\d+(?:\.\d*)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Radians, either as a float or a pi-fraction literal like 'pi/2'."""
    try:
        return float(text)
    except ValueError:
        pass
    match = _PI_LITERAL.match(text)
    if match is None:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")
    sign = -1.0 if match.group(1) == "-" else 1.0
    coefficient = float(match.group(2)) if match.group(2) else 1.0
    denominator = float(match.group(3)) if match.group(3) else 1.0
    if denominator == 0.0:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
    return sign * coefficient * math.pi / denominator


def _sig12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _sig12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig12(v) for v in value]
    return value


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload: dict, path: str | None) -> None:
    _emit(json.dumps(_sig12(payload), indent=2, sort_keys=True), path)


def _add_state_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", choices=("bec", "noon"), required=True,
                        help="state family")
    parser.add_argument("--n1", type=int, help="bec: particles in system 1")
    parser.add_argument("--n2", type=int, help="bec: particles in system 2")
    parser.add_argument("--n", type=int, help="noon: total particles per system")
    parser.add_argument("--m", type=int, help="noon: minority occupation")


def _add_reflectivity_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=BALANCED_ALPHA,
                        help="beam-splitter amplitude alpha (default balanced)")
    parser.add_argument("--alpha-bob", type=float, default=None,
                        help="Bob's alpha when different from Alice's")


def _add_quad_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    for name in ANGLE_NAMES:
        parser.add_argument(f"--{name}", type=parse_angle, required=required,
                            help=f"angle {name} in radians ('pi/2' accepted)")


def _resolve_state(args: argparse.Namespace) -> states.CompositeState:
    for name in ("n", "m") if args.state == "bec" else ("n1", "n2"):
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} does not apply to --state {args.state}")
    if args.state == "bec":
        if args.n1 is None:
            raise ValueError("--state bec requires --n1 (and optionally --n2)")
        return states.bec_pair(args.n1, args.n2)
    if args.n is None:
        raise ValueError("--state noon requires --n (and optionally --m)")
    return states.noon_pair(args.n, args.m or 0)


def _check_alpha(value: float) -> float:
    if not 0.0 < value < 1.0:
        raise ValueError(f"alpha {value} must lie strictly inside (0, 1)")
    return value


def _alphas(args: argparse.Namespace) -> tuple[float, float | None]:
    """Alice's alpha, and Bob's or None when it is Alice's."""
    alpha = _check_alpha(args.alpha)
    return alpha, None if args.alpha_bob is None else _check_alpha(args.alpha_bob)


def _format_complex(z: complex) -> str:
    if abs(z.imag) < 5e-13:
        return f"{z.real:.6g}"
    if abs(z.real) < 5e-13:
        return f"{z.imag:.6g}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6g}{sign}{abs(z.imag):.6g}i"


def _cmd_optimize(args: argparse.Namespace) -> int:
    state = _resolve_state(args)
    alpha, bob_alpha = _alphas(args)
    result = search.optimize(args.objective, state, restarts=args.restarts,
                             seed=args.seed, alpha=alpha, bob_alpha=bob_alpha)
    _emit_json({
        "max_value": result.max_value,
        "angles": dict(zip(ANGLE_NAMES, result.argmax.as_tuple())),
        "seed": result.seed,
        "restarts_used": result.restarts_used,
        "evaluations": result.evaluations,
        "converged": result.converged,
    }, args.output)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    state = _resolve_state(args)
    objectives = [name.strip() for name in args.objective.split(",") if name.strip()]
    if not objectives:
        raise ValueError("no objectives given")
    fixed = {}
    for name in ANGLE_NAMES:
        value = getattr(args, name)
        if name == args.axis:
            if value is not None:
                raise ValueError(f"--{name} conflicts with --axis {args.axis}")
            continue
        if value is None:
            raise ValueError(f"--{name} is required when scanning {args.axis}")
        fixed[name] = value
    alpha, bob_alpha = _alphas(args)
    series = search.scan_1d(objectives, state, fixed, axis=args.axis,
                            points=args.points, alpha=alpha, bob_alpha=bob_alpha)
    lines = ["param," + ",".join(objectives)]
    for i in range(args.points):
        x = series[0].samples[i][0]
        row = [f"{x:.12g}"] + [f"{s.samples[i][1]:.12g}" for s in series]
        lines.append(",".join(row))
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_basis(args: argparse.Namespace) -> int:
    setting = BeamSplitterSetting.from_alpha(_check_alpha(args.alpha), args.phi)
    basis = measurement.effective_basis(args.n_total, setting)
    header = ("|n m>", "effective measurement basis on (a, A)", "eps")
    rows = []
    for vector in basis:
        if args.raw:
            entries = sorted(vector.vector.terms.items())
        else:
            entries = sorted(fock_amplitudes(vector.vector).items())
        expansion = " + ".join(
            f"({_format_complex(c)})|{e[0]} {e[1]}>" for e, c in entries
        )
        rows.append((f"|{vector.outcome[0]} {vector.outcome[1]}>",
                     expansion, f"{vector.weight:+d}"))
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(3)]
    lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_visibility(args: argparse.Namespace) -> int:
    state = _resolve_state(args)
    q = AngleQuad(args.phi1, args.phi2, args.theta1, args.theta2)
    alpha, bob_alpha = _alphas(args)
    threshold = inequalities.visibility_threshold(
        state, args.objective, q, alpha=alpha, bob_alpha=bob_alpha, noise=args.noise)
    _emit_json({"threshold": threshold, "objective": args.objective,
                "noise": args.noise}, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = inequalities.verify_closed_forms(draws=args.draws, seed=args.seed)
    _emit_json(report, args.output)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    alpha, bob_alpha = _alphas(args)
    alice = BeamSplitterSetting.from_alpha(alpha, args.phi)
    bob = BeamSplitterSetting.from_alpha(alpha if bob_alpha is None else bob_alpha,
                                         args.theta)
    alice2 = None
    if args.phi2 is not None:
        alice2 = BeamSplitterSetting.from_alpha(alpha, args.phi2)
    elif args.sign is not None:
        raise ValueError("--sign combines two Alice observables and needs --phi2")
    value = measurement.sector_trace_product(
        args.n1, args.n2, alice, bob, alice2=alice2,
        sign=1.0 if args.sign is None else args.sign)
    _emit_json({"value": value, "n1": args.n1, "n2": args.n2}, args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="twocopy",
        description="Bell and steering inequality analysis for two-copy "
                    "beam-splitter measurements of number-conserving states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="maximize an objective over the angles")
    _add_state_arguments(p)
    _add_reflectivity_arguments(p)
    p.add_argument("--objective", choices=("steering", "bell", "bell_abs"),
                   required=True)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("scan", help="sweep one angle over [0, 2*pi)")
    _add_state_arguments(p)
    _add_reflectivity_arguments(p)
    p.add_argument("--objective", required=True,
                   help="comma-separated list, e.g. steering,bell")
    _add_quad_arguments(p, required=False)
    p.add_argument("--axis", choices=ANGLE_NAMES, default="theta2")
    p.add_argument("--points", type=int, default=720)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("basis", help="print the effective measurement basis")
    p.add_argument("--n-total", type=int, required=True)
    p.add_argument("--phi", type=parse_angle, default=0.0)
    p.add_argument("--alpha", type=float, default=BALANCED_ALPHA)
    p.add_argument("--raw", action="store_true",
                   help="raw creation-monomial coefficients instead of "
                        "normalized amplitudes")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("visibility", help="white-noise visibility threshold")
    _add_state_arguments(p)
    _add_reflectivity_arguments(p)
    p.add_argument("--objective", choices=("steering", "bell", "bell_abs"),
                   required=True)
    _add_quad_arguments(p, required=True)
    p.add_argument("--noise", choices=("factorized", "sector"),
                   default="factorized")
    p.set_defaults(func=_cmd_visibility)

    p = sub.add_parser("verify", help="engine vs reference closed forms")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("trace", help="sector trace of the joint observable, "
                                     "which does not depend on the angles")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--phi", type=parse_angle, required=True)
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--phi2", type=parse_angle, default=None,
                   help="second Alice angle for a combined observable")
    p.add_argument("--sign", type=float, default=None, choices=(1.0, -1.0),
                   help="sign combining the two Alice observables (default +1; "
                        "needs --phi2); both use --alpha, so -1 gives 0 and +1 "
                        "doubles the value")
    _add_reflectivity_arguments(p)
    p.set_defaults(func=_cmd_trace)

    for p in sub.choices.values():
        p.add_argument("--output", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NoViolationError, NegativeRadicandError) as exc:
        print(f"twocopy: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"twocopy: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
