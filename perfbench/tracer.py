"""Span tracer that wraps the engine's public functions from the outside.

Modules import each other's functions by value (``inequalities`` holds its
own reference to ``measurement.joint_distribution``, ``measurement`` to
``fock.substitute``, and so on), so patching a function only where it is
defined misses most of its callers.  :meth:`Tracer.install` therefore
replaces every attribute of every loaded ``twocopy`` module that *is* the
function, and :meth:`Tracer.uninstall` puts the originals back.

A function that no longer exists is recorded in ``absent`` and skipped; the
benchmark then reports that layer as zero instead of crashing.

Spans are kept in memory as ``(name, start, end, parent, op, info)`` tuples
and written out once, after the timed job list.  Their times are read from
``calibration.CLOCK``, the same clock as the untraced rounds' latencies.
"""
from __future__ import annotations

import gzip
import inspect
import json
import statistics
import sys

from calibration import CLOCK

# (defining module, function, span name).  Evaluation entry points get
# their span name, cold or warm, when called.
LAYERS = (
    ("fock", "substitute", "fock.substitute"),
    ("measurement", "joint_distribution", "measurement.joint_distribution"),
    ("measurement", "sector_trace_product", "measurement.sector_trace_product"),
    ("measurement", "effective_basis", "measurement.effective_basis"),
    ("states", "admix", "states.admix"),
    ("inequalities", "correlation_vector", None),
    ("inequalities", "correlation", None),
    ("inequalities", "visibility_threshold", "inequalities.visibility_threshold"),
    ("inequalities", "verify_closed_forms", "inequalities.verify_closed_forms"),
    ("search", "optimize", "search.optimize"),
    ("search", "scan_1d", "search.scan_1d"),
    ("cli", "main", "cli.main"),
)

COLD_EVAL = "inequalities.cold_eval"
WARM_EVAL = "inequalities.warm_eval"


def _argument_getter(fn, name):
    """Return ``get(args, kwargs)`` for parameter ``name`` of ``fn``, or None."""
    params = list(inspect.signature(fn).parameters.values())
    for position, param in enumerate(params):
        if param.name == name:
            default = None if param.default is inspect.Parameter.empty else param.default

            def get(args, kwargs, position=position, default=default):
                if position < len(args):
                    return args[position]
                return kwargs.get(name, default)
            return get
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []
        self._seen: set = set()

    # -- recording -------------------------------------------------------

    def _record(self, name, fn, args, kwargs, info=None):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = CLOCK()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = CLOCK()
            stack.pop()
            spans[index] = (name, start, end, parent, self.op, info)
        return result

    def _plain(self, name, fn):
        record = self._record

        def wrapper(*args, **kwargs):
            return record(name, fn, args, kwargs)
        return wrapper

    def _optimize(self, name, fn):
        spans, record = self.spans, self._record

        def wrapper(*args, **kwargs):
            index = len(spans)
            result = record(name, fn, args, kwargs)
            info = (getattr(result, "evaluations", 0), getattr(result, "restarts_used", 0))
            spans[index] = spans[index][:5] + (info,)
            return result
        return wrapper

    def _evaluation(self, fn):
        """A cold evaluation is the first one of a (state, alpha, bob_alpha) key."""
        record, seen = self._record, self._seen
        get_state = _argument_getter(fn, "state")
        get_alpha = _argument_getter(fn, "alpha")
        get_bob = _argument_getter(fn, "bob_alpha")

        def wrapper(*args, **kwargs):
            state = get_state(args, kwargs) if get_state else None
            alpha = get_alpha(args, kwargs) if get_alpha else None
            bob = get_bob(args, kwargs) if get_bob else None
            key = (state, alpha, alpha if bob is None else bob)
            if key in seen:
                return record(WARM_EVAL, fn, args, kwargs)
            seen.add(key)
            members = len(getattr(state, "entries", ()))
            return record(COLD_EVAL, fn, args, kwargs, members)
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "twocopy" or n.startswith("twocopy."))]
        for module_name, func_name, span_name in LAYERS:
            home = sys.modules.get(f"twocopy.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.absent.append(f"{module_name}.{func_name}")
                continue
            if span_name is None:
                wrapper = self._evaluation(original)
            elif span_name == "search.optimize":
                wrapper = self._optimize(span_name, original)
            else:
                wrapper = self._plain(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times for one traced job list.

        A span's self time is its duration minus its children's durations.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        warm_us = []
        members = evaluations = restarts = 0
        for i, (name, start, end, parent, _, info) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
            if name == WARM_EVAL:
                warm_us.append((end - start) * 1e6)
            elif name == COLD_EVAL:
                members += info
            elif name == "search.optimize":
                evaluations += info[0]
                restarts += info[1]
        cold = calls.get(COLD_EVAL, 0)
        warm = calls.get(WARM_EVAL, 0)
        return {
            "fock.substitute.calls": calls.get("fock.substitute", 0),
            "fock.substitute.self_s": self_s.get("fock.substitute", 0.0),
            "measurement.joint_distribution.calls": calls.get("measurement.joint_distribution", 0),
            "measurement.joint_distribution.self_s": self_s.get("measurement.joint_distribution", 0.0),
            "measurement.sector_trace_product.self_s": self_s.get("measurement.sector_trace_product", 0.0),
            "measurement.effective_basis.self_s": self_s.get("measurement.effective_basis", 0.0),
            "states.admix.calls": calls.get("states.admix", 0),
            "states.admix.self_s": self_s.get("states.admix", 0.0),
            "states.members_evaluated": members,
            "inequalities.cold_evals": cold,
            "inequalities.cold_eval.self_s": self_s.get(COLD_EVAL, 0.0),
            "inequalities.warm_evals": warm,
            "inequalities.warm_eval.self_s": self_s.get(WARM_EVAL, 0.0),
            "inequalities.warm_eval_us": statistics.median(warm_us) if warm_us else 0.0,
            "inequalities.warm_share": warm / (cold + warm) if cold + warm else 0.0,
            "inequalities.visibility_threshold.self_s": self_s.get("inequalities.visibility_threshold", 0.0),
            "inequalities.verify_closed_forms.self_s": self_s.get("inequalities.verify_closed_forms", 0.0),
            "search.optimize.calls": calls.get("search.optimize", 0),
            "search.optimize.self_s": self_s.get("search.optimize", 0.0),
            "search.evaluations": evaluations,
            "search.evals_per_restart": evaluations / restarts if restarts else 0.0,
            "search.scan_1d.self_s": self_s.get("search.scan_1d", 0.0),
            "cli.main.self_s": self_s.get("cli.main", 0.0),
        }
