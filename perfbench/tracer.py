"""Spans around vortexlab's public functions, recorded from outside the package.

A traced process calls install() after importing vortexlab. Each entry of
TARGETS names a function by its defining module; install() replaces it in
that module and in every vortexlab module that imported it by name, so both
kinds of call site (``tunneling.total_potential`` and ``rabi.solve_qrm`` as
reached through ``fitting.rabi``) record a span. A target a later version
of the package no longer has is listed as absent instead of failing.

Spans are kept in memory and written out once, when the process ends.
summarize() turns the spans of one round into the per-layer metrics.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time

# (defining module, attribute, span name); "Class.method" for methods
TARGETS = [
    ("vortexlab.cli", "main", "cli.main"),
    ("vortexlab.cli", "Run.csv", "cli.csv_write"),
    ("vortexlab.config", "load_config", "config.load_config"),
    ("vortexlab.core", "derive_scales", "core.derive_scales"),
    ("vortexlab.energetics", "total_potential", "energetics.total_potential"),
    ("vortexlab.energetics", "gamma_from_geometry", "energetics.gamma_from_geometry"),
    ("vortexlab.tunneling", "spectrum_vs_field", "tunneling.spectrum_vs_field"),
    ("vortexlab.tunneling", "solve_schrodinger", "tunneling.solve_schrodinger"),
    ("vortexlab.tunneling", "lanczos_lowest", "tunneling.lanczos_lowest"),
    ("vortexlab.rabi", "solve_qrm", "rabi.solve_qrm"),
    ("vortexlab.rabi", "build_hamiltonian", "rabi.build_hamiltonian"),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh"),
    ("vortexlab.fitting", "least_squares", "fitting.least_squares"),
    ("vortexlab.fitting", "fit_hyperbola", "fitting.fit_hyperbola"),
    ("vortexlab.fitting", "fit_joint_aqrm", "fitting.fit_joint_aqrm"),
    ("vortexlab.fitting", "fit_exponential", "fitting.fit_exponential"),
    ("vortexlab.jumps", "simulate_trajectory", "jumps.simulate_trajectory"),
    ("vortexlab.jumps", "iq_cluster", "jumps.iq_cluster"),
    ("vortexlab.jumps", "latching_filter", "jumps.latching_filter"),
    ("vortexlab.jumps", "dwell_statistics", "jumps.dwell_statistics"),
]


class Tracer:
    """Records (id, parent, name, start, end, attrs) spans for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._ids = iter(range(1, sys.maxsize))
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn, before=None, after=None):
        """fn recording a span; before(args, kwargs, attrs) may replace the
        arguments, after(result, args, attrs) may add attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs: dict = {}
            if before is not None:
                args, kwargs = before(args, kwargs, attrs)
            with self._lock:
                sid = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            else:
                if after is not None:
                    after(result, args, attrs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append([sid, parent, name, start, end, attrs])

        return traced

    def propagate_to_threads(self) -> None:
        """Tasks submitted to a thread pool inherit the submitter's span."""
        tracer = self
        original = concurrent.futures.ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **kw):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*a, **kw)
                finally:
                    stack.pop()

            return original(pool, run, *args, **kwargs)

        concurrent.futures.ThreadPoolExecutor.submit = submit

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, span in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(span)
                continue
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = getattr(holder, leaf, None) if holder is not None else None
            if fn is None or not callable(fn):
                self.absent.append(span)
                continue
            wrapped = self.wrap(span, fn, *_HOOKS.get(span, (None, None)))
            setattr(holder, leaf, wrapped)
            if owner:
                continue
            # call sites that imported the function by name
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name.startswith("vortexlab") and mod is not module
                        and getattr(mod, leaf, None) is fn):
                    setattr(mod, leaf, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-target hooks: counts read from arguments and results
# ---------------------------------------------------------------------------

def _lanczos_before(args, kwargs, attrs):
    m = kwargs["m"] if "m" in kwargs else args[3]
    attrs["m"] = int(m)
    return args, kwargs


def _least_squares_before(args, kwargs, attrs):
    residual_fn = args[0] if args else kwargs.pop("residual_fn")
    attrs["residual_evals"] = 0

    @functools.wraps(residual_fn)
    def counted(*a, **kw):
        attrs["residual_evals"] += 1
        return residual_fn(*a, **kw)

    return (counted,) + tuple(args[1:]), kwargs


def _iterations_after(result, args, attrs):
    attrs["iterations"] = int(getattr(result, "iterations", 0))


def _csv_after(result, args, attrs):
    attrs["bytes"] = os.path.getsize(result)


_HOOKS = {
    "tunneling.lanczos_lowest": (_lanczos_before, None),
    "fitting.least_squares": (_least_squares_before, _iterations_after),
    "jumps.iq_cluster": (None, _iterations_after),
    "cli.csv_write": (None, _csv_after),
}


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def self_time(span, children) -> float:
    """Span duration minus the part of its interval its children cover.

    Children that ran in parallel threads can overlap each other; their
    union is what the parent did not spend itself.
    """
    start, end = span[3], span[4]
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted((max(c[3], start), min(c[4], end))
                                 for c in children):
        if c_end <= cursor:
            continue
        covered += c_end - max(c_start, cursor)
        cursor = c_end
    return (end - start) - covered


PER_LAYER = [
    ("config.load_config_s", "s"),
    ("core.derive_scales_calls", "count"),
    ("energetics.total_potential_calls", "count"),
    ("energetics.total_potential_s", "s"),
    ("energetics.gamma_from_geometry_calls", "count"),
    ("energetics.gamma_from_geometry_s", "s"),
    ("tunneling.spectrum_vs_field_s", "s"),
    ("tunneling.solve_schrodinger_calls", "count"),
    ("tunneling.solve_schrodinger_s", "s"),
    ("tunneling.solve_schrodinger_ms_p50", "ms"),
    ("tunneling.lanczos_calls", "count"),
    ("tunneling.krylov_vectors", "count"),
    ("rabi.solve_qrm_calls", "count"),
    ("rabi.solve_qrm_s", "s"),
    ("rabi.solve_qrm_ms_p50", "ms"),
    ("rabi.build_hamiltonian_s", "s"),
    ("rabi.eigh_s", "s"),
    ("rabi.label_s", "s"),
    ("rabi.sweep_gaps", "count"),
    ("fitting.least_squares_calls", "count"),
    ("fitting.least_squares_s", "s"),
    ("fitting.iterations", "count"),
    ("fitting.residual_evals", "count"),
    ("fitting.solves_per_joint_fit", "count"),
    ("fitting.fit_hyperbola_s", "s"),
    ("fitting.fit_exponential_calls", "count"),
    ("fitting.fit_exponential_s", "s"),
    ("jumps.simulate_trajectory_s", "s"),
    ("jumps.iq_cluster_s", "s"),
    ("jumps.iq_cluster_iterations", "count"),
    ("jumps.latching_filter_s", "s"),
    ("jumps.dwell_statistics_s", "s"),
    ("cli.csv_write_s", "s"),
    ("cli.csv_write_bytes", "bytes"),
    ("cli.self_s", "s"),
]


def summarize(span_files: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics over the spans of several processes.

    span_files holds one span list per process; span ids are unique within
    a process only.
    """
    durations: dict[str, list[float]] = {}
    m = {name: 0.0 for name, _ in PER_LAYER}
    joint_fits = 0
    joint_solves = 0
    for spans in span_files:
        by_id = {s[0]: s for s in spans}
        children: dict[int, list] = {}
        for s in spans:
            children.setdefault(s[1], []).append(s)

        def under(span, name) -> bool:
            parent = by_id.get(span[1])
            while parent is not None:
                if parent[2] == name:
                    return True
                parent = by_id.get(parent[1])
            return False

        for s in spans:
            name, attrs = s[2], s[5]
            durations.setdefault(name, []).append(s[4] - s[3])
            if name == "tunneling.lanczos_lowest":
                m["tunneling.krylov_vectors"] += attrs["m"]
            elif name == "rabi.solve_qrm":
                m["rabi.label_s"] += self_time(s, children.get(s[0], []))
                in_fit = under(s, "fitting.fit_joint_aqrm")
                joint_solves += in_fit
                if "error" in attrs and not in_fit:
                    m["rabi.sweep_gaps"] += 1
            elif name == "numpy.linalg.eigh":
                parent = by_id.get(s[1])
                if parent is not None and parent[2] == "rabi.solve_qrm":
                    m["rabi.eigh_s"] += s[4] - s[3]
            elif name == "fitting.least_squares":
                m["fitting.iterations"] += attrs.get("iterations", 0)
                if under(s, "fitting.fit_joint_aqrm"):
                    m["fitting.residual_evals"] += attrs["residual_evals"]
            elif name == "fitting.fit_joint_aqrm":
                joint_fits += 1
            elif name == "jumps.iq_cluster":
                m["jumps.iq_cluster_iterations"] += attrs.get("iterations", 0)
            elif name == "cli.csv_write":
                m["cli.csv_write_bytes"] += attrs.get("bytes", 0)
            elif name == "cli.main":
                m["cli.self_s"] += self_time(s, children.get(s[0], []))

    def total(name):
        return float(sum(durations.get(name, [])))

    def count(name):
        return float(len(durations.get(name, [])))

    def p50_ms(name):
        d = durations.get(name)
        return 1e3 * statistics.median(d) if d else 0.0

    m["config.load_config_s"] = total("config.load_config")
    m["core.derive_scales_calls"] = count("core.derive_scales")
    for layer in ("energetics.total_potential", "energetics.gamma_from_geometry",
                  "tunneling.solve_schrodinger", "rabi.solve_qrm",
                  "fitting.least_squares", "fitting.fit_exponential"):
        m[layer + "_calls"] = count(layer)
    for layer in ("energetics.total_potential", "energetics.gamma_from_geometry",
                  "tunneling.spectrum_vs_field", "tunneling.solve_schrodinger",
                  "rabi.solve_qrm", "rabi.build_hamiltonian",
                  "fitting.least_squares", "fitting.fit_hyperbola",
                  "fitting.fit_exponential", "jumps.simulate_trajectory",
                  "jumps.iq_cluster", "jumps.latching_filter",
                  "jumps.dwell_statistics"):
        m[layer + "_s"] = total(layer)
    m["cli.csv_write_s"] = total("cli.csv_write")
    m["tunneling.solve_schrodinger_ms_p50"] = p50_ms("tunneling.solve_schrodinger")
    m["rabi.solve_qrm_ms_p50"] = p50_ms("rabi.solve_qrm")
    m["tunneling.lanczos_calls"] = count("tunneling.lanczos_lowest")
    m["fitting.solves_per_joint_fit"] = joint_solves / joint_fits if joint_fits else 0.0
    return m
