"""Span tracing of glharmonic from outside the library.

``Tracer.installed()`` rebinds each traced public function in every
glharmonic module that holds a reference to it (``runner`` imports most of
them by name, ``fd_partial`` is imported into four modules, ``runner``
reaches the scenario builders through ``sc.``), wraps
``Expression.__call__`` on its class, and wraps the evaluator factories of
``scenarios`` so the callables they return count their calls by role.
Leaving the block restores every original binding.

A span records name, start, end and parent span.  Spans are kept in
memory in flat arrays and written out when the run ends.  A span's self
time is its duration minus the durations of its direct children; spans do
not overlap in a single thread, so this handles recursion such as nested
``fiber_partials`` calls.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

TRACED = {
    "runner": ("run_scenario", "dump_field_csv"),
    "scenarios": ("validate_scenario", "build_grid", "sampled_metric", "build_map_values"),
    "tensor_core": ("fd_partial", "invert_metric", "quadrature"),
    "energy": ("energy", "el_residual", "lagrangian_density", "density_partials",
               "assemble_residual"),
    "systems": ("certify_minimizer", "quotient_functional", "integrate_orbit",
                "orbit_geodesic_residual", "group_system_lagrangian",
                "level_set_geodesic_defect", "pseudolinear_scenario"),
    "riemann": ("curvature_package",),
    "gl_space": ("sigma_blocks", "fiber_partials", "hv_covariant_cov2"),
    "field_equations": ("maxwell_residuals", "einstein_system", "deflection_tensor"),
}

# evaluator factory -> role of the callables it returns
ROLES = {
    "scalar_evaluator_two_args": "sigma",   # sigma and tau
    "metric_evaluator": "metric",
    "covector_evaluator": "covector",       # xi, A and P
}

EXPRESSION = "expressions.Expression.__call__"
ELEMENTS = "expressions.elements"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, count_elements: bool = False):
        nid = self._id(name)
        start, end, name_id, parent, stack = (self.start, self.end, self.name_id,
                                              self.parent, self._stack)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_elements:
                counts[ELEMENTS] += getattr(out, "size", 1)
            return out

        return traced

    def _counting_factory(self, factory, role: str):
        counts = self.counts
        key = f"expressions.{role}_calls"

        @functools.wraps(factory)
        def wrapped_factory(*args, **kwargs):
            ev = factory(*args, **kwargs)

            def counted(*a, **k):
                counts[key] += 1
                return ev(*a, **k)

            return counted

        return wrapped_factory

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "glharmonic" and not mod_name.startswith("glharmonic."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        for mod_name, functions in TRACED.items():
            module = sys.modules[f"glharmonic.{mod_name}"]
            for fname in functions:
                original = getattr(module, fname)
                self._rebind(original, self._wrap(f"{mod_name}.{fname}", original))
        scenarios = sys.modules["glharmonic.scenarios"]
        for fname, role in ROLES.items():
            original = getattr(scenarios, fname)
            self._rebind(original, self._counting_factory(original, role))
        expression = sys.modules["glharmonic.expressions"].Expression
        call = expression.__dict__["__call__"]
        expression.__call__ = self._wrap(EXPRESSION, call, count_elements=True)
        self._restore.append((expression, "__call__", call))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def stats(self, lo: int, hi: int) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over spans [lo, hi),
        which must hold whole span trees."""
        dur = np.frombuffer(self.end, float)[lo:hi] - np.frombuffer(self.start, float)[lo:hi]
        parent = np.frombuffer(self.parent, np.int32)[lo:hi]
        name_id = np.frombuffer(self.name_id, np.int32)[lo:hi]
        child = np.zeros(hi - lo)
        nested = parent >= 0
        np.add.at(child, parent[nested] - lo, dur[nested])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        total = np.bincount(name_id, weights=dur, minlength=n)
        self_s = np.bincount(name_id, weights=own, minlength=n)
        return {name: (int(calls[k]), float(total[k]), float(self_s[k]))
                for k, name in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans as flat arrays: names, name_id, parent, start, end."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start, float),
                 end=np.frombuffer(self.end, float))
