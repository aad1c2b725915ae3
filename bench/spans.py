"""Span recording around tc2q's layer modules, installed from outside.

The layers are the package modules ``cli``, ``series``, ``analytic``,
``oracle`` and ``classical``.  :meth:`Tracer.install` replaces every public
function of those modules (and ``oracle.SpectralPropagator.__init__``) by a
wrapper that records a span ``(name, start, end, parent, job)``.  The
wrapper is rebound in every ``tc2q`` module that holds the function, so a
``from .series import write_table`` copy is traced too.  Private helpers are
not wrapped: their time falls into the self time of the public span that
called them.  ``model`` holds value types and is not wrapped either.

Spans are recorded only while :attr:`Tracer.job` is set, so the
benchmark's own output checks, which call the same functions, leave no
spans.  Nothing in ``src/`` is modified on disk.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "series", "analytic", "oracle", "classical")
TRACED_CLASSES = {"oracle": ("SpectralPropagator",)}

SERIES = "oracle.oracle_concurrence_series"
INITIAL_STATE = ("oracle.composite_initial_state", "oracle.oscillator_initial_state")
MONTE_CARLO = "classical.monte_carlo_classical_concurrence"
WRITE_TABLE = "series.write_table"


def oracle_columns(spec, dim: int) -> int:
    """Rank of the initial oscillator density: the pure columns the oracle evolves.

    A thermal state with mean_n > 0 has full rank in the truncated space;
    coherent and number states are pure.
    """
    mean_n = getattr(spec, "mean_n", None)
    return dim if mean_n else 1


def _series_attrs(bound, result) -> dict:
    spec = bound.arguments["spec"]
    dim = int(result.meta["dim"])
    return {"dim": dim, "points": int(result.t.size),
            "columns": oracle_columns(spec, dim)}


def _monte_carlo_attrs(bound, result) -> dict:
    args = bound.arguments
    return {"samples": int(args["n_samples"]),
            "draw": (args["dist"], int(args["n_samples"]), int(args["seed"]))}


def _write_attrs(bound, result) -> dict:
    path = bound.arguments["path"]
    size = os.path.getsize(path)
    if bound.arguments.get("fmt", "csv") == "csv":
        size += os.path.getsize(path + ".meta.json")
    return {"bytes": size}


_ATTRS = {SERIES: _series_attrs, MONTE_CARLO: _monte_carlo_attrs,
          WRITE_TABLE: _write_attrs}


class Tracer:
    """In-memory span log.  A span is [name, start, end, parent, job, attrs]."""

    def __init__(self) -> None:
        self.spans: list = []
        self.job: str | None = None
        self._stack: list = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id: str, fn):
        """Call ``fn()`` inside a root span ``job`` tagged with ``job_id``."""
        self.job = job_id
        index = self._open("job")
        try:
            return fn()
        finally:
            self._close(index)
            self.job = None

    def _wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index][5] = attrs(bound, result)
            return result

        return traced

    def install(self, package_name: str = "tc2q") -> list:
        """Wrap the layers' public functions; return the span names installed."""
        wrapped = {}
        names = []
        for layer in LAYERS:
            module = sys.modules[f"{package_name}.{layer}"]
            for name, obj in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                    names.append(f"{layer}.{name}")
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name, None)
                if cls is not None:
                    cls.__init__ = self._wrap(f"{layer}.{cls_name}", cls.__init__)
                    names.append(f"{layer}.{cls_name}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package_name and not mod_name.startswith(package_name + "."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
        return sorted(names)

    def write_csv_gz(self, path: str, t0: float) -> None:
        """Dump every span, times relative to ``t0``, as gzipped CSV."""
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "job", "name", "start_s", "end_s", "parent"])
            for index, (name, start, end, parent, job, _) in enumerate(self.spans):
                out.writerow([index, job, name, f"{start - t0:.9f}",
                              f"{end - t0:.9f}", parent])


def pass_metrics(spans: list, first: int) -> dict:
    """Per-layer metrics of one pass from ``spans`` (indices start at ``first``)."""
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= first:
            child[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    initial_state = 0.0
    gflop = 0.0
    dim_max = columns = 0
    drawn = 0
    draws = {}
    written = 0
    for offset, (name, start, end, parent, _, attrs) in enumerate(spans):
        dur = end - start
        own = dur - child[first + offset]
        total[name] += dur
        self_time[name] += own
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
        if name in INITIAL_STATE and (parent < first or spans[parent - first][0]
                                      not in INITIAL_STATE):
            initial_state += dur
        if name == SERIES and attrs:
            gflop += 8.0 * (4 * attrs["dim"]) ** 2 * attrs["columns"] * attrs["points"] / 1e9
            dim_max = max(dim_max, attrs["dim"])
            columns += attrs["columns"]
        elif name == MONTE_CARLO and attrs:
            drawn += attrs["samples"]
            draws[attrs["draw"]] = attrs["samples"]
        elif name == WRITE_TABLE and attrs:
            written += attrs["bytes"]
    return {
        "cli.self_s": layer_self["cli"],
        "series.self_s": layer_self["series"],
        "analytic.self_s": layer_self["analytic"],
        "classical.self_s": layer_self["classical"],
        "oracle.self_s": layer_self["oracle"],
        "oracle.series_self_s": self_time[SERIES],
        "oracle.series_calls": calls[SERIES],
        "oracle.propagate_gflop": gflop,
        "oracle.eigh_s": total["oracle.SpectralPropagator"],
        "oracle.eigh_calls": calls["oracle.SpectralPropagator"],
        "oracle.hamiltonian_s": total["oracle.build_hamiltonian"],
        "oracle.hamiltonian_calls": calls["oracle.build_hamiltonian"],
        "oracle.initial_state_s": initial_state,
        "oracle.wootters_s": total["oracle.wootters_concurrence"],
        "oracle.wootters_calls": calls["oracle.wootters_concurrence"],
        "oracle.dim_max": dim_max,
        "oracle.columns_total": columns,
        "classical.mc_s": total[MONTE_CARLO],
        "classical.mc_calls": calls[MONTE_CARLO],
        "classical.samples_drawn": drawn,
        "classical.sample_use_ratio": sum(draws.values()) / drawn if drawn else 0.0,
        "analytic.half_period_s": total["analytic.half_period_concurrence"],
        "analytic.half_period_calls": calls["analytic.half_period_concurrence"],
        "analytic.coherence_s": total["analytic.coherence_integral"],
        "analytic.coherence_calls": calls["analytic.coherence_integral"],
        "series.write_s": total[WRITE_TABLE],
        "series.write_calls": calls[WRITE_TABLE],
        "series.bytes_written": written,
    }
