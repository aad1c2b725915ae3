"""The concurrence-series container and the one artifact writer.

A concurrence-versus-time series has ``t, omega_t, C`` plus optional
``u, v, std_error, leakage`` columns, in that order.  Every artifact, series
or not, goes through :func:`write_table`: CSV with 12 significant digits or
JSON with full doubles, under one envelope (artifact version, engine,
summary fields, config echo).  Files are written through temp files and
renamed into place, so a failed run never leaves a partial artifact.

CSV files are exactly header + rows.  Because that leaves no room for
provenance, a CSV emit also drops ``<path>.meta.json`` alongside, holding
the envelope a JSON emit embeds, without the columns.  The table and its
sidecar are placed together or not at all.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__

_OPTIONAL_COLUMNS = ("u", "v", "std_error", "leakage")


def _finite_1d(name: str, values, size: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if size is not None and arr.size != size:
        raise ValueError(f"{name} has length {arr.size}, expected {size}")
    return arr


@dataclass
class ConcurrenceSeries:
    """Concurrence on a time grid, with engine-dependent extra columns."""

    engine: str
    t: np.ndarray
    omega_t: np.ndarray
    concurrence: np.ndarray
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    std_error: np.ndarray | None = None
    leakage: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.t = _finite_1d("t", self.t)
        n = self.t.size
        self.omega_t = _finite_1d("omega_t", self.omega_t, n)
        self.concurrence = _finite_1d("C", self.concurrence, n)
        if n > 1 and np.any(np.diff(self.t) <= 0):
            raise ValueError("t must be strictly increasing")
        if self.concurrence.min() < 0.0 or self.concurrence.max() > 1.0:
            raise ValueError("concurrence values must lie in [0, 1]")
        for name in _OPTIONAL_COLUMNS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, _finite_1d(name, value, n))

    def columns(self) -> dict:
        """Ordered name -> array mapping of the populated columns."""
        cols = {"t": self.t, "omega_t": self.omega_t, "C": self.concurrence}
        for name in _OPTIONAL_COLUMNS:
            value = getattr(self, name)
            if value is not None:
                cols[name] = value
        return cols


def _write_temp(path: str, text: str) -> str:
    """Write ``text`` to a new temp file beside ``path`` and return its name;
    created like any new file, so the umask sets its mode (mkstemp's is 0600)."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.urandom(8).hex()}.part")
    handle = open(tmp, "x")
    try:
        with handle:
            handle.write(text)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _write_all(texts: dict) -> None:
    """Place the text of every path, all or nothing: every text goes to a
    temp file, then each is renamed into place; on a failure the temp files
    left and the paths already placed are removed."""
    temps, placed = [], []
    try:
        for path, text in texts.items():
            temps.append(_write_temp(path, text))
        for path, tmp in zip(texts, temps):
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for name in temps[len(placed):] + placed:
            with contextlib.suppress(OSError):
                os.unlink(name)
        raise


def _csv_text(columns: dict) -> str:
    """Header and rows, numbers to 12 significant digits, strings as given;
    each row is one ``%`` format, whose ``%.12g`` is ``format(v, ".12g")``."""
    row = ",".join("%s" if isinstance(vals, list) else "%.12g" for vals in columns.values())
    cells = [vals if isinstance(vals, list) else np.asarray(vals, dtype=float).tolist()
             for vals in columns.values()]
    return "\n".join([",".join(columns), *(row % cell for cell in zip(*cells))]) + "\n"


def write_table(path: str, fmt: str, engine: str, columns: dict, meta: dict,
                summary: dict | None = None) -> None:
    """Write one artifact to ``path`` as ``csv`` or ``json``, atomically.

    The envelope is ``{"artifact_version", "engine", **summary, "meta"}``.
    JSON appends ``"columns"`` to it; CSV writes header + rows and puts the
    envelope in the ``<path>.meta.json`` sidecar.  ``columns`` maps names to
    arrays, or to lists of strings.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    envelope = {"artifact_version": __version__, "engine": engine, **(summary or {}),
                "meta": meta}
    texts = {}
    if fmt == "csv":
        texts[path] = _csv_text(columns)
        path += ".meta.json"
    else:
        envelope["columns"] = {name: vals if isinstance(vals, list) else vals.tolist()
                               for name, vals in columns.items()}
    texts[path] = json.dumps(envelope, indent=2) + "\n"
    _write_all(texts)


def read_series(path: str) -> ConcurrenceSeries:
    """Read back a concurrence series written by :func:`write_table`.

    The format is told by the content, not the file name: a JSON artifact
    starts with ``{``, a CSV one with its header.
    """
    with open(path) as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        cols = {name: np.asarray(vals, dtype=float)
                for name, vals in payload["columns"].items()}
        engine = payload.get("engine") or "unknown"
        meta = payload.get("meta", {})
    else:
        lines = [line for line in text.splitlines() if line]
        names = lines[0].split(",")
        data = np.array([[float(cell) for cell in line.split(",")]
                         for line in lines[1:]])
        cols = {name: data[:, i] for i, name in enumerate(names)}
        meta, engine = {}, "unknown"
        if os.path.exists(path + ".meta.json"):
            with open(path + ".meta.json") as handle:
                sidecar = json.load(handle)
            meta = sidecar.get("meta", {})
            engine = sidecar.get("engine") or "unknown"
    return ConcurrenceSeries(
        engine=engine,
        t=cols["t"],
        omega_t=cols["omega_t"],
        concurrence=cols["C"],
        u=cols.get("u"),
        v=cols.get("v"),
        std_error=cols.get("std_error"),
        leakage=cols.get("leakage"),
        meta=meta,
    )
