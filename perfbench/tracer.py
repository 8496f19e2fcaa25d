"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the agefire modules from outside the
package and rebinds every name that refers to them: module globals (so
``evolution.merge_atoms``, imported by name, and ``mfffa.strike``, called as
a module global by ``mfffa.run``, are both seen) and module-level dict
registries such as ``validation.SUITES``.  The package source stays as it is.

Each wrapped call is a span.  Spans nest on a stack, and a span's self time
is its duration minus the durations of the wrapped calls made inside it.
A call that re-enters the span already on top of the stack (the
``ProbabilityAgeMeasure`` constructor reaching ``AgeMeasure.__post_init__``)
is counted once, as the outer span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Span stack plus per-span call counts, self times and counters."""

    def __init__(self):
        self.stack: list[list] = []          # [name, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list = []

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``observe(counters, args, kwargs, result)`` runs after a successful
        call to record counts beside the span.
        """
        stack, calls, self_s, counters = (self.stack, self.calls, self.self_s,
                                          self.counters)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def patch_function(self, modules, home, attr, name, observe=None):
        """Wrap ``home.attr`` and rebind it wherever ``modules`` bind it,
        in their globals or in a dict held by a module global."""
        original = getattr(home, attr)
        traced = self.wrap(name, original, observe)
        self.calls[name] += 0
        self.self_s[name] += 0.0
        for module in modules:
            namespaces = [vars(module)]
            namespaces += [v for v in vars(module).values() if isinstance(v, dict)]
            for ns in namespaces:
                for key in [k for k, v in ns.items() if v is original]:
                    ns[key] = traced
                    self._undo.append(functools.partial(ns.__setitem__, key, original))

    def patch_method(self, cls, attr, name, observe=None):
        """Wrap a method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        self.calls[name] += 0
        self.self_s[name] += 0.0
        setattr(cls, attr, self.wrap(name, original, observe))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self):
        """Restore every binding the tracer replaced."""
        while self._undo:
            self._undo.pop()()

    def flat(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.self_s`` and every counter, by name."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = float(self.calls[name])
            out[f"{name}.self_s"] = float(self.self_s[name])
        out.update(self.counters)
        return out


# ---------------------------------------------------------------------------
# what the benchmark traces in agefire
# ---------------------------------------------------------------------------

def _merge_observe(counters, args, kwargs, result):
    atoms_in = args[0].n_atoms
    counters["measures.merge_atoms.atoms_in"] += atoms_in
    counters["measures.merge_atoms.atoms_removed"] += atoms_in - result.n_atoms


def _leading_pair_observe(counters, args, kwargs, result):
    kind = "warm" if kwargs.get("start") is not None else "cold"
    counters[f"spectral.leading_pair.calls_{kind}"] += 1
    counters[f"spectral.leading_pair.iters_{kind}_sum"] += result.iterations


def _min_kernel_observe(counters, args, kwargs, result):
    counters["spectral.min_kernel_apply.elems"] += len(args[0])


def _step_observe(counters, args, kwargs, result):
    counters["evolution.atoms_sum"] += result.atom_count
    counters["evolution.atoms_final"] = result.atom_count


def _irg_observe(counters, args, kwargs, result):
    counters["mfffa.sample_irg.edges"] += result.edge_count


def _strike_observe(counters, args, kwargs, result):
    counters["mfffa.strike.vertices"] += result


def install(tracer: Tracer):
    """Wrap the agefire functions the per-layer metrics are built from."""
    import agefire
    from agefire import cli, evolution, measures, mfffa, spectral, validation

    modules = (agefire, measures, spectral, evolution, mfffa, validation, cli)
    functions = [
        (measures, "merge_atoms", "measures.merge_atoms", _merge_observe),
        (measures, "w1", "measures.w1", None),
        (spectral, "leading_pair", "spectral.leading_pair", _leading_pair_observe),
        (spectral, "min_kernel_apply", "spectral.min_kernel_apply",
         _min_kernel_observe),
        (spectral, "theta_at", "spectral.theta_at", None),
        (evolution, "step", "evolution.step", _step_observe),
        (evolution, "gelation_time", "evolution.gelation_time", None),
        (evolution, "write_trajectory", "evolution.write_trajectory", None),
        (mfffa, "sample_irg", "mfffa.sample_irg", _irg_observe),
        (mfffa, "run", "mfffa.run", None),
        (mfffa, "strike", "mfffa.strike", _strike_observe),
        (mfffa, "cluster_sizes", "mfffa.cluster_sizes", None),
        (mfffa, "empirical_age_measure", "mfffa.empirical_age_measure", None),
    ]
    functions += [(validation, f"suite_{s}", f"validation.suite_{s}", None)
                  for s in ("metric", "spectral", "roundtrip", "evolution")]
    functions += [(cli, f"cmd_{c}", f"cli.{c}", None)
                  for c in ("solve", "simulate", "compare", "validate")]
    for home, attr, name, observe in functions:
        tracer.patch_function(modules, home, attr, name, observe)
    # both constructors are one span: ProbabilityAgeMeasure.__init__ runs the
    # dataclass __init__ of AgeMeasure, which calls __post_init__
    tracer.patch_method(measures.AgeMeasure, "__post_init__", "measures.ctor")
    tracer.patch_method(measures.ProbabilityAgeMeasure, "__init__",
                        "measures.ctor")
    for key in ("measures.merge_atoms.atoms_in",
                "measures.merge_atoms.atoms_removed",
                "spectral.leading_pair.calls_warm",
                "spectral.leading_pair.calls_cold",
                "spectral.leading_pair.iters_warm_sum",
                "spectral.leading_pair.iters_cold_sum",
                "spectral.min_kernel_apply.elems",
                "evolution.atoms_sum", "evolution.atoms_final",
                "mfffa.sample_irg.edges", "mfffa.strike.vertices"):
        tracer.counters[key] += 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced execution, ratios included."""
    out = tracer.flat()

    def ratio(num, den):
        return out[num] / out[den] if out[den] else 0.0

    out["measures.merge_atoms.removed_ratio"] = ratio(
        "measures.merge_atoms.atoms_removed", "measures.merge_atoms.atoms_in")
    out["spectral.leading_pair.iters_warm_mean"] = ratio(
        "spectral.leading_pair.iters_warm_sum", "spectral.leading_pair.calls_warm")
    out["spectral.leading_pair.iters_cold_mean"] = ratio(
        "spectral.leading_pair.iters_cold_sum", "spectral.leading_pair.calls_cold")
    out["evolution.atoms_mean"] = ratio("evolution.atoms_sum", "evolution.step.calls")
    return out
