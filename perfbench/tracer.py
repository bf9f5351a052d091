"""Outside-in tracing of ramify's layers, for the per-layer metrics.

The tracer wraps every public function of each layer module, both at the
module that defines it and at every ``from ... import`` site that binds
it (``ramify.optimizer.energy_avg`` as well as
``ramify.mollified.energy_avg``), so no call escapes through an import
alias. Each wrapped call is a span; its self time is its duration minus
the time its child spans cover. Spans stay in memory and are reduced to
metrics when the traced solve ends. The program itself is not changed.

A few spans carry counts measured where the work happens: the kernel
integrals record how many (midpoint, segment) pairs they evaluated, how
many came out nonzero and how many bytes their input and output arrays
hold; the evaluator and optimizer entry points record the event order
from which evaluation counts, iteration times and re-discretization
outcomes are recovered. Time spent on these counts is excluded from
every span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

PACKAGE = "ramify"
LAYERS = ("config", "plan_model", "geometry", "kernels", "mollified", "objective",
          "gradients", "optimizer", "exact_cost", "svg", "cli")

OBJECTIVE_FUNCS = ("mollified.energy_avg", "mollified.energy_max", "objective.tree_objective")
GRADIENT_FUNCS = ("mollified.energy_avg_gradient", "mollified.energy_max_gradient",
                  "objective.tree_objective_gradient")
KERNEL_FUNCS = ("kernels.bump_segment_integral", "kernels.bump_segment_integral_grad")


def _array_bytes(value) -> int:
    return sum(np.asarray(v).nbytes for v in value) if isinstance(value, tuple) \
        else np.asarray(value).nbytes


class Tracer:
    """Per-function self time and calls, plus the counts named above."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.top_spans = []
        self.events = []
        self.pairs = 0
        self.active_pairs = 0
        self.bytes_computed = 0
        self._stack = []
        self._patches = []
        self._hooks = {key: self._on_objective for key in OBJECTIVE_FUNCS}
        self._hooks.update({key: self._on_gradient for key in GRADIENT_FUNCS})
        self._hooks.update({key: self._on_kernel for key in KERNEL_FUNCS})
        self._hooks["optimizer.rediscretize_plan"] = self._on_rediscretize
        self._hooks["optimizer.run_descent"] = self._on_stage_end

    # -- installation -------------------------------------------------

    def install(self):
        """Replace every binding of every public layer function by its wrapper."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        sites = [m for name, m in sorted(sys.modules.items())
                 if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module in sites:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, key, func):
        self.self_s[key] = 0.0
        self.calls[key] = 0
        hook = self._hooks.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self._close(key, start, clock())
                raise
            end = clock()
            self._close(key, start, end)
            if hook is not None:
                hook(args, result, start, end)
                if stack:
                    stack[-1] += clock() - end
            return result

        return wrapper

    def _close(self, key, start, end):
        duration = end - start
        self.self_s[key] += duration - self._stack.pop()
        self.calls[key] += 1
        if self._stack:
            self._stack[-1] += duration
        else:
            self.top_spans.append((start, end))

    # -- counting hooks -----------------------------------------------

    def _on_objective(self, args, result, start, end):
        self.events.append(("obj", result.total if hasattr(result, "total") else result.value))

    def _on_gradient(self, args, result, start, end):
        self.events.append(("grad", start))

    def _on_rediscretize(self, args, result, start, end):
        self.events.append(("redisc", None))

    def _on_stage_end(self, args, result, start, end):
        self.events.append(("stage_end", end))

    def _on_kernel(self, args, result, start, end):
        value = result[0] if isinstance(result, tuple) else result
        self.pairs += int(np.size(value))
        self.active_pairs += int(np.count_nonzero(value))
        self.bytes_computed += _array_bytes(tuple(args[:3])) + _array_bytes(result)

    # -- reductions ---------------------------------------------------

    def covered_s(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(end - start for start, end in self.top_spans)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def evaluator_calls(self):
        """(objective evaluations, gradient evaluations)."""
        kinds = [kind for kind, _ in self.events]
        return kinds.count("obj"), kinds.count("grad")

    def iteration_ms(self) -> list:
        """Wall time of every descent iteration: gradient start to the next one.

        The last iteration of a stage ends when its run_descent span ends.
        """
        times, starts = [], []
        for kind, value in self.events:
            if kind == "grad":
                starts.append(value)
            elif kind == "stage_end":
                bounds = starts + [value]
                times.extend(1e3 * (b - a) for a, b in zip(bounds, bounds[1:]))
                starts = []
        return times

    def rediscretizations(self):
        """(attempts, accepted): a resample is kept when it does not raise J.

        The optimizer evaluates the resampled plan right after the
        accepted trial step and keeps it when its value is not larger.
        """
        attempts = accepted = 0
        last_value = None
        pending = False
        for kind, value in self.events:
            if kind == "redisc":
                attempts += 1
                pending = True
            elif kind == "obj":
                if pending:
                    accepted += value <= last_value
                    pending = False
                last_value = value
        return attempts, accepted


def quantile(values: list, q: float) -> float:
    """Inclusive-method quantile; the single value when there is only one."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
