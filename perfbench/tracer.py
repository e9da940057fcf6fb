"""External tracer: spans and counters around the layers of ``absorblab``.

Nothing in the package changes.  ``install`` replaces every public function
of each layer module by a wrapper in *every* ``absorblab`` module namespace
that binds it (``scenarios`` imports ``run_scheme_A4``, ``shoot_profile``
and others by name, so patching only the defining module would miss those
calls); ``uninstall`` puts the originals back.

A span is ``(name, start_ns, end_ns, parent, pass_id)`` kept in memory; a
layer's self time is its span durations minus those of its child spans.
Three hot functions are counted, not timed, through the caller module's
global, so their time stays in the caller's self time:

* ``h_of_w`` and ``dh_dw`` as bound in ``evolution`` (residual/warm-start
  evaluations and Newton iterations of the stepper);
* ``osgood_tail_from_log`` wherever it is bound (tail integrals of the flat
  envelope inversion).

Other public functions called thousands of times per pass from inside a
layer (pointwise ``h`` evaluations, quadrature integrands) are left
unwrapped for the same reason; see ``UNTRACED``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = (
    "cli", "config", "scenarios", "evolution", "flat_ode", "profiles",
    "nonlinearity", "threshold", "io",
)

# Pointwise helpers with thousands of calls per pass: timing them would cost
# more than they do, so they get no span (``install`` still counts h_of_w and
# dh_dw in ``evolution`` and osgood_tail_from_log everywhere).
UNTRACED = {
    "nonlinearity": {"eval_h", "eval_H", "log_h_at_log", "h_of_w", "dh_dw"},
    "flat_ode": {"osgood_tail_from_log", "osgood_tail"},
}

PHI_INF = ("flat_ode.solve_phi_infinity_log", "flat_ode.solve_phi_infinity")
SOLVE_PHI = ("flat_ode.solve_phi", "flat_ode.solve_phi_log")
DRIVERS = (
    "evolution.run_scheme_A4", "evolution.run_scheme_A8", "evolution.run_scheme_A8_1",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.pass_id = -1
        self._stack: list = []
        self._patches: list = []
        self._modules = {name: importlib.import_module(f"absorblab.{name}") for name in LAYERS}
        self.counts: dict = {}

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.pass_id)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, fn, calls_key, size_key=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(spec, x, *args, **kwargs):
            counts[calls_key] += 1
            if size_key is not None:
                counts[size_key] += getattr(x, "size", 1)
            return fn(spec, x, *args, **kwargs)

        return wrapper

    def _on_evolve(self, field):
        # public EvolutionField fields; a field type without them counts 0
        c = self.counts
        c["evolution.newton_iters_max"] = max(
            c["evolution.newton_iters_max"], getattr(field, "newton_iterations_max", 0)
        )
        c["evolution.negative_clips"] += getattr(field, "negative_clips", 0)

    def _on_emit(self, path):
        self.counts["io.bytes"] += Path(path).stat().st_size

    # -- install / uninstall ----------------------------------------------

    def _patch(self, module, attr, new):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, pass_id: int) -> None:
        """Wrap every public layer function for one traced pass."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.pass_id = pass_id
        self.counts = {
            k: 0 for k in (
                "evolution.newton_iters", "evolution.h_evals", "evolution.h_nodes",
                "evolution.newton_iters_max", "evolution.negative_clips",
                "flat_ode.tail_evals", "io.bytes",
            )
        }
        hooks = {
            "evolution.evolve": self._on_evolve,
            "io.emit_csv": self._on_emit,
            "io.emit_manifest": self._on_emit,
        }
        wrapped = {}
        for layer, mod in self._modules.items():
            skip = UNTRACED.get(layer, set())
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in skip or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[obj] = self._span(obj, name, hooks.get(name))
        nl, fo = self._modules["nonlinearity"], self._modules["flat_ode"]
        counted = {
            "evolution": {
                nl.h_of_w: self._counter(nl.h_of_w, "evolution.h_evals", "evolution.h_nodes"),
                nl.dh_dw: self._counter(nl.dh_dw, "evolution.newton_iters"),
            },
        }
        tail = self._counter(fo.osgood_tail_from_log, "flat_ode.tail_evals")
        for mod_name, mod in self._modules.items():
            local = counted.get(mod_name, {})
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                if obj in local:
                    self._patch(mod, attr, local[obj])
                elif obj is fo.osgood_tail_from_log:
                    self._patch(mod, attr, tail)
                elif obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- reading ------------------------------------------------------------

    def pass_metrics(self, pass_id: int, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass (times in seconds)."""
        idx = [i for i, s in enumerate(self.spans) if s is not None and s[4] == pass_id]
        child_ns = dict.fromkeys(idx, 0)
        for i in idx:
            parent = self.spans[i][3]
            if parent in child_ns:
                child_ns[parent] += self.spans[i][2] - self.spans[i][1]
        self_s: dict = {}
        calls: dict = {}
        layer_s = dict.fromkeys(LAYERS, 0.0)
        covered_ns = 0
        for i in idx:
            name, t0, t1, parent, _ = self.spans[i]
            own = (t1 - t0 - child_ns[i]) * 1e-9
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            layer_s[name.split(".", 1)[0]] += own
            if parent >= 0 and self.spans[parent][0].startswith("cli."):
                covered_ns += t1 - t0

        def total(names, table=self_s):
            return sum(table.get(n, 0) for n in names)

        c = self.counts
        phi_calls = total(PHI_INF, calls)
        return {
            "evolution.evolve_s": self_s.get("evolution.evolve", 0.0),
            "evolution.evolve_calls": calls.get("evolution.evolve", 0),
            "evolution.newton_iters": c["evolution.newton_iters"],
            "evolution.h_evals": c["evolution.h_evals"],
            "evolution.h_nodes": c["evolution.h_nodes"],
            "evolution.newton_iters_max": c["evolution.newton_iters_max"],
            "evolution.negative_clips": c["evolution.negative_clips"],
            "evolution.driver_s": total(DRIVERS),
            "flat_ode.phi_inf_calls": phi_calls,
            "flat_ode.phi_inf_s": total(PHI_INF),
            "flat_ode.tail_evals": c["flat_ode.tail_evals"],
            "flat_ode.tail_evals_per_phi_inf": (
                c["flat_ode.tail_evals"] / phi_calls if phi_calls else 0.0
            ),
            "flat_ode.solve_phi_s": total(SOLVE_PHI),
            "profiles.shoot_calls": calls.get("profiles.shoot_profile", 0),
            "profiles.shoot_s": self_s.get("profiles.shoot_profile", 0.0),
            "profiles.apriori_s": self_s.get("profiles.apriori_bound", 0.0),
            "nonlinearity.classify_s": self_s.get("nonlinearity.classify_conditions", 0.0),
            "threshold.s": layer_s["threshold"],
            "io.s": layer_s["io"],
            "io.bytes": c["io.bytes"],
            "scenarios.self_s": layer_s["scenarios"],
            "config.s": layer_s["config"],
            "cli.s": layer_s["cli"],
            "trace.coverage": covered_ns * 1e-9 / wall_s,
        }

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "pass_id")
        path.write_text(
            json.dumps([dict(zip(keys, s)) for s in self.spans if s is not None]) + "\n",
            encoding="utf-8",
        )
