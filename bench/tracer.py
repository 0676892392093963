"""Span tracing for the traced benchmark run, installed from outside the program.

:func:`install` wraps the public functions and methods named in ``SPANS``.
It replaces the attribute on the class or module, and every alias of it in
other ``eesampler`` modules, so internal callers go through the wrapper too.
Each call is one span; spans nest through a stack. Only per-(span, parent)
aggregates are kept (count, total seconds, self seconds), never a list of
spans, because one unit makes about a million calls. Self time is a span's
duration minus the time of the spans it directly contains.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

import numpy as np

# span name -> (module of eesampler, function or method names it covers).
# A method name covers that method on every class defined in the module.
SPANS = {
    "cli.main": ("cli", ("main",)),
    "experiments.slln_rate_study": ("experiments", ("slln_rate_study",)),
    "experiments.run_experiment": ("experiments", ("run_experiment",)),
    "experiments.verify_suite": ("experiments", ("verify_suite",)),
    "experiments.fluctuation_bound_battery": ("experiments", ("fluctuation_bound_battery",)),
    "sampler.step_round": ("sampler", ("step_round",)),
    "sampler.trace_record": ("sampler", ("record",)),
    "sampler.trace_write": ("sampler", ("write_csv", "write_mass_csv", "write_events_csv")),
    "kernels.mh_step": ("kernels", ("mh_step",)),
    "kernels.interacting_step": ("kernels", ("interacting_step",)),
    "measures.insert": ("measures", ("insert",)),
    "measures.draw": ("measures", ("draw",)),
    "measures.masses": ("measures", ("masses",)),
    "measures.snapshot": ("measures", ("snapshot",)),
    "measures.monitor_check": ("measures", ("check",)),
    "state_space.assign": ("state_space", ("assign",)),
    "state_space.log_density": ("state_space", ("log_density",)),
    "state_space.contains": ("state_space", ("contains",)),
    "exact.k_matrix": ("exact", ("k_matrix",)),
    "exact.q_matrix": ("exact", ("q_matrix",)),
    "exact.ee_jump_matrix": ("exact", ("ee_jump_matrix",)),
    "exact.stationary": ("exact", ("stationary",)),
    "exact.poisson_solve": ("exact", ("poisson_solve",)),
    "exact.checks": ("exact", ("composition_identity_check", "mixture_expansion_check",
                               "lipschitz_check", "invariant_continuity_check")),
}


class Tracer:
    """Per-(span, parent) aggregates plus the counters the observers keep."""

    def __init__(self):
        self.stack = []  # one [name, child seconds] frame per open span
        self.agg = {}  # (name, parent name or None) -> [count, total s, self s]
        self.counters = dict.fromkeys(
            ("mh_moved", "swap_attempts", "swap_accepted", "fallbacks", "trace_bytes"), 0)
        self.missing = []

    def wrap(self, name, fn, observe=None):
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = None
                if stack:
                    stack[-1][1] += dt
                    parent = stack[-1][0]
                entry = agg.get((name, parent))
                if entry is None:
                    entry = agg[(name, parent)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
            if observe is not None:
                observe(self.counters, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def root_seconds(self) -> float:
        return sum(total for (_, parent), (_, total, _) in self.agg.items() if parent is None)

    def dump(self) -> list:
        return [{"span": span, "parent": parent, "count": c, "total_s": t, "self_s": s}
                for (span, parent), (c, t, s) in sorted(self.agg.items(), key=str)]


def _observe_mh(counters, args, out):
    x = args[2]
    counters["mh_moved"] += (out is not x) if isinstance(x, np.ndarray) else (out != x)


def _observe_interacting(counters, args, out):
    info = out[1]
    if info.swap_accepted is not None:
        counters["swap_attempts"] += 1
        counters["swap_accepted"] += bool(info.swap_accepted)
    counters["fallbacks"] += bool(info.fallback)


def _observe_write(counters, args, out):
    counters["trace_bytes"] += os.path.getsize(args[1])


OBSERVERS = {
    "kernels.mh_step": _observe_mh,
    "kernels.interacting_step": _observe_interacting,
    "sampler.trace_write": _observe_write,
}


def install(tracer: Tracer, package: str = "eesampler") -> None:
    """Wrap every target in ``SPANS`` that the loaded package defines; names
    that no longer exist are listed in ``tracer.missing``."""
    modules = [m for name, m in list(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    for span, (modname, attrs) in SPANS.items():
        mod = sys.modules.get(f"{package}.{modname}")
        for attr in attrs:
            found = False
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped = tracer.wrap(span, fn, OBSERVERS.get(span))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)
                found = True
            classes = [c for c in vars(mod).values()
                       if inspect.isclass(c) and c.__module__ == mod.__name__] if mod else []
            for cls in classes:
                method = cls.__dict__.get(attr)
                if inspect.isfunction(method):
                    setattr(cls, attr, tracer.wrap(span, method, OBSERVERS.get(span)))
                    found = True
            if not found:
                tracer.missing.append(f"{package}.{modname}.{attr}")
