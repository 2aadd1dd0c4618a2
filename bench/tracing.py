"""Spans around fairshare's public functions, for the traced run.

Each wrapper replaces a function in the module whose code looks it up, so
the caller finds the wrapper: ``solve`` finds ``preprocess`` and ``verify``
in ``fairshare.solver``, ``preprocess`` finds ``remove_dominated_constraints``
in ``fairshare.reductions``, and the polish step and the oracle find
``maximize`` in ``fairshare.lp``. ``remove_dominated_constraints`` binds
``lp.maximize`` as a default argument at import, so its LPs never reach the
wrapper; they are timed by the span around it.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer name)
SPAN_SITES = (
    ("fairshare.solver", "solve", "solver.solve"),
    ("fairshare.solver", "validate_instance", "model.validate_instance"),
    ("fairshare.solver", "preprocess", "reductions.preprocess"),
    ("fairshare.reductions", "remove_dominated_constraints",
     "reductions.remove_dominated_constraints"),
    ("fairshare.solver", "integrate_trajectory", "solver.integrate_trajectory"),
    ("fairshare.solver", "lift_solution", "reductions.lift_solution"),
    ("fairshare.solver", "verify", "verifier.verify"),
    ("fairshare.lp", "maximize", "lp.maximize"),
    ("fairshare.oracle", "enumerate_solutions", "oracle.enumerate_solutions"),
)
# Called about 500 times per solve, so it gets a count and a time on the
# calling span instead of a span of its own.
DERIVATIVE = ("fairshare.solver", "trajectory_derivative", "solver.trajectory_derivative")

# Counts read off a layer's return value.
_ATTRIBUTES = {
    "solver.solve": lambda out: {"polished": int(out.polish_applied)},
    "reductions.preprocess": lambda out: {
        "removed_columns": len(out[1].removed_dominated),
        "eliminated_users": len(out[1].eliminations),
    },
    "solver.integrate_trajectory": lambda out: {"steps": max(len(out[0]) - 1, 0)},
    "lp.maximize": lambda out: {"optimal": int(out.status == "optimal")},
    "oracle.enumerate_solutions": lambda out: {"witnesses": len(out.witnesses)},
}

# Per-layer metrics and their units; times are normalised ms per pass.
PER_LAYER_UNITS = {
    "model.validate_instance.ms": "ms",
    "reductions.preprocess.ms": "ms",
    "reductions.remove_dominated_constraints.ms": "ms",
    "reductions.removed_columns": "count",
    "reductions.eliminated_users": "count",
    "reductions.lift_solution.ms": "ms",
    "solver.integrate_trajectory.ms": "ms",
    "solver.integrate_trajectory.steps": "count",
    "solver.trajectory_derivative.calls": "count",
    "solver.trajectory_derivative.ms": "ms",
    "solver.evals_per_step": "calls/step",
    "solver.solve.self_ms": "ms",
    "solver.polished": "count",
    "lp.maximize.calls": "count",
    "lp.maximize.ms": "ms",
    "lp.maximize.optimal_per_call": "ratio",
    "verifier.verify.calls": "count",
    "verifier.verify.ms": "ms",
    "oracle.enumerate_solutions.ms": "ms",
    "oracle.witnesses": "count",
}


class Tracer:
    """Records spans per operation and folds them into per-layer totals.

    A span is [layer, start, end, parent index, counts]. The spans of the
    operation in progress are folded once its normalisation factor is known;
    all of them are kept for the trace file.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # spans of the operation in progress
        self.stack: list[int] = []
        self.log: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)  # normalised
        self.self_s: dict[str, float] = defaultdict(float)  # normalised
        self.counts: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        """Wrap every site. A site the program no longer has raises, so a
        renamed layer fails the traced run instead of reading 0."""
        sites = [(site, self._span) for site in SPAN_SITES] + [(DERIVATIVE, self._counter)]
        for (module_name, attribute, layer), wrap in sites:
            module = sys.modules[module_name]
            setattr(module, attribute, wrap(layer, getattr(module, attribute)))

    def _span(self, layer: str, fn):
        attributes = _ATTRIBUTES.get(layer)

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, self.stack[-1] if self.stack else None, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if attributes is not None:
                span[4].update(attributes(out))
            return out

        return traced

    def _counter(self, layer: str, fn):
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.stack:  # outside every span it is not counted
                    counts = self.spans[self.stack[-1]][4]
                    counts[layer + ".calls"] = counts.get(layer + ".calls", 0) + 1
                    counts[layer + ".s"] = counts.get(layer + ".s", 0.0) + perf_counter() - start

        return counted

    def end_operation(self, name: str, factor: float) -> None:
        """Fold the finished operation's spans, scaled by ``factor``."""
        children_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                children_s[span[3]] += span[2] - span[1]
        for k, (layer, start, end, _, counts) in enumerate(self.spans):
            self.calls[layer] += 1
            self.busy_s[layer] += (end - start) * factor
            self.self_s[layer] += (end - start - children_s[k]) * factor
            for key, value in counts.items():
                if key == DERIVATIVE[2] + ".s":
                    self.busy_s[DERIVATIVE[2]] += value * factor
                elif key == DERIVATIVE[2] + ".calls":
                    self.calls[DERIVATIVE[2]] += value
                else:
                    self.counts[key] += value
        self.log.append({"op": name, "factor": factor, "spans": self.spans})
        self.spans = []

    def per_layer(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, as totals per pass over the operation list."""

        def ms(layer: str) -> float:
            return 1e3 * self.busy_s[layer] / passes

        steps = self.counts["steps"]
        lp_calls = self.calls["lp.maximize"]
        derivative_calls = self.calls["solver.trajectory_derivative"]
        values = {
            "model.validate_instance.ms": ms("model.validate_instance"),
            "reductions.preprocess.ms": ms("reductions.preprocess"),
            "reductions.remove_dominated_constraints.ms":
                ms("reductions.remove_dominated_constraints"),
            "reductions.removed_columns": self.counts["removed_columns"] / passes,
            "reductions.eliminated_users": self.counts["eliminated_users"] / passes,
            "reductions.lift_solution.ms": ms("reductions.lift_solution"),
            "solver.integrate_trajectory.ms": ms("solver.integrate_trajectory"),
            "solver.integrate_trajectory.steps": steps / passes,
            "solver.trajectory_derivative.calls": derivative_calls / passes,
            "solver.trajectory_derivative.ms": ms("solver.trajectory_derivative"),
            "solver.evals_per_step": derivative_calls / steps if steps else 0.0,
            "solver.solve.self_ms": 1e3 * self.self_s["solver.solve"] / passes,
            "solver.polished": self.counts["polished"] / passes,
            "lp.maximize.calls": lp_calls / passes,
            "lp.maximize.ms": ms("lp.maximize"),
            "lp.maximize.optimal_per_call":
                self.counts["optimal"] / lp_calls if lp_calls else 0.0,
            "verifier.verify.calls": self.calls["verifier.verify"] / passes,
            "verifier.verify.ms": ms("verifier.verify"),
            "oracle.enumerate_solutions.ms": ms("oracle.enumerate_solutions"),
            "oracle.witnesses": self.counts["witnesses"] / passes,
        }
        return values
