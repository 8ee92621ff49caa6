"""Span tracing around szegopoly's public functions, from outside the package.

install() replaces every attribute of a loaded ``szegopoly`` module that is
bound to one of the TRACED functions by a wrapper, so calls between modules
(``szego.solve_exact``, ``dirichlet.xy_to_zzbar``, ...) are caught as well as
the benchmark's own calls.  Each call records a span (name, start, end,
parent span, operation id) in memory; uninstall() puts the originals back.
A function missing from the package is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs; the span name is "<module>.<function>".
TRACED = (
    ("szego", "szego_project"),
    ("szego", "operator_A"),
    ("szego", "verify_decomposition"),
    ("dirichlet", "fischer_system"),
    ("dirichlet", "harmonic_extension"),
    ("dirichlet", "harmonic_extension_zzbar"),
    ("dirichlet", "is_harmonic"),
    ("polynomials", "xy_to_zzbar"),
    ("polynomials", "zzbar_to_xy"),
    ("polynomials", "divide_exact"),
    ("linalg", "solve_exact"),
    ("linalg", "det_exact"),
    ("parsing", "parse_poly_zzbar"),
    ("parsing", "parse_poly_real"),
    ("parsing", "format_poly_zzbar"),
    ("parsing", "format_poly_real"),
    ("boundary", "compare_symbolic_numeric"),
    ("boundary", "boundary_grid"),
    ("boundary", "numerical_szego"),
    ("boundary", "numerical_bergman"),
    ("boundary", "bergman_residual_orthogonality"),
    ("boundary", "area_quadrature"),
    ("boundary", "poly_values"),
    ("boundary", "holomorphic_coeffs_in_scaled_basis"),
)

# Metric groups that sum several functions: "parsing.parse" and "parsing.format".
GROUPS = {
    "parsing.parse": ("parsing.parse_poly_zzbar", "parsing.parse_poly_real"),
    "parsing.format": ("parsing.format_poly_zzbar", "parsing.format_poly_real"),
}


def _cache_key_szego(args, kwargs):
    e, f = args[0], args[1]
    n = kwargs.get("ambient_degree")
    return (e, max(f.degree(), 0) if n is None else n)


def _cache_key_fischer(args, kwargs):
    return (args[0], args[1])


# Span name -> (cache metric name, key of the cache that call consults).  A
# call whose key was not seen since the last cache reset counts as a miss;
# keys warmed during the untraced set-up count once as misses.
CACHE_KEYS = {
    "szego.szego_project": ("szego.column_cache", _cache_key_szego),
    "dirichlet.fischer_system": ("dirichlet.fischer_cache", _cache_key_fischer),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for none
    op: int


@dataclass
class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    op: int = -1
    cells: int = 0
    cache_keys: dict[str, set] = field(default_factory=dict)  # since the last reset
    cache_calls: dict[str, int] = field(default_factory=dict)
    cache_misses: dict[str, int] = field(default_factory=dict)
    max_coeff_bits: int = 0
    _stack: list[int] = field(default_factory=list)
    _installed: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name, fn):
        cache = CACHE_KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cache is not None:
                self.note_cache_call(cache[0], cache[1](args, kwargs))
            if name == "linalg.solve_exact" and args[0]:
                self.cells += len(args[0]) * len(args[0][0])
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name == "szego.szego_project":
                self.note_exact(result.projection, result.preimage, result.cofactor)
            return result

        return traced

    def note_cache_call(self, metric: str, key) -> None:
        seen = self.cache_keys.setdefault(metric, set())
        self.cache_calls[metric] = self.cache_calls.get(metric, 0) + 1
        if key not in seen:
            seen.add(key)
            self.cache_misses[metric] = self.cache_misses.get(metric, 0) + 1

    def caches_reset(self) -> None:
        """The package's caches were emptied: every key is new again."""
        self.cache_keys.clear()

    def note_exact(self, *polys) -> None:
        """Track the largest coefficient bit size among exact results."""
        for p in polys:
            for _, c in p.terms():
                bits = c.bit_size()
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits

    def install(self) -> None:
        originals = {}
        for module, fname in TRACED:
            fn = getattr(importlib.import_module(f"szegopoly.{module}"), fname, None)
            if fn is not None:
                originals[id(fn)] = (fn, self.wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "szegopoly" or modname.startswith("szegopoly.")):
                continue
            for attr, value in list(vars(mod).items()):
                pair = originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    # -- derived per-layer metrics --------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost calls only) and self_s."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = s.end - s.start
            row["calls"] += 1
            row["self_s"] += duration - child_time[i]
            if not self._nested_in_same(i):
                row["busy_s"] += duration
        for group, members in GROUPS.items():
            rows = [out[m] for m in members if m in out]
            if rows:
                out[group] = {k: sum(r[k] for r in rows) for k in ("calls", "busy_s", "self_s")}
        return out

    def _nested_in_same(self, i: int) -> bool:
        name = self.spans[i].name
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def metric(self, name: str, summary: dict) -> float:
        """Value of one per-layer metric name such as 'linalg.solve_exact.cells'."""
        if name == "linalg.solve_exact.cells":
            return self.cells
        if name == "rational.max_coeff_bits":
            return self.max_coeff_bits
        base, _, leaf = name.rpartition(".")
        if leaf == "miss_ratio":
            calls = self.cache_calls.get(base, 0)
            return self.cache_misses.get(base, 0) / calls if calls else 0.0
        row = summary.get(base)
        return float(row[leaf]) if row else 0.0
