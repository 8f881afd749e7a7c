"""Span tracer that wraps sdsosc's public functions from outside.

``Tracer.install()`` replaces each listed function wherever a module of the
package binds its name (``cli`` imports ``derive_params`` and
``gauss_jacobi_rule`` by name, ``spectrum1d`` imports the polynomial kernels,
``thermo`` imports ``parallel_map``, ...), and ``uninstall()`` puts the
originals back.  Each call records one span: name, start, end, parent span
and operation id.  The span stack is thread-local, and work that
``parallel_map`` hands to pool threads is parented to the ``parallel_map``
span, so parents stay correct if the pool is switched on.  Spans stay in
memory until ``save``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from array import array

import numpy as np

# (metric prefix, module of sdsosc, attribute); "Class.method" wraps a method.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("model.derive_params", "model", "derive_params"),
    ("tables.to_csv", "tables", "SpectrumTable.to_csv"),
    ("spectrum1d.energy_1d", "spectrum1d", "energy_1d"),
    ("spectrum1d.energy_deviation_first_order", "spectrum1d", "energy_deviation_first_order"),
    ("spectrum1d.wavefunction_1d", "spectrum1d", "wavefunction_1d"),
    ("spectrum1d.wavefunction_norm_1d", "spectrum1d", "wavefunction_norm_1d"),
    ("spectrumnd.energy_nd", "spectrumnd", "energy_nd"),
    ("spectrumnd.energy_deviation_first_order_nd", "spectrumnd", "energy_deviation_first_order_nd"),
    ("spectrumnd.radial_wavefunction", "spectrumnd", "radial_wavefunction"),
    ("spectrumnd.radial_norm", "spectrumnd", "radial_norm"),
    ("spectrumnd.radial_inner_product", "spectrumnd", "radial_inner_product"),
    ("polynomials.gauss_jacobi_scaled", "polynomials", "gauss_jacobi_scaled"),
    ("polynomials.gauss_jacobi_rule", "polynomials", "gauss_jacobi_rule"),
    ("polynomials.gegenbauer", "polynomials", "gegenbauer"),
    ("polynomials.jacobi", "polynomials", "jacobi"),
    ("polynomials.log_gamma", "polynomials", "log_gamma"),
    ("thermo.thermo_curve", "thermo", "thermo_curve"),
    ("thermo.partition_direct", "thermo", "partition_direct"),
    ("thermo.partition_em_series", "thermo", "partition_em_series"),
    ("thermo.partition_highT", "thermo", "partition_highT"),
    ("parallel.parallel_map", "parallel", "parallel_map"),
)

# Work counters recorded with the span: (metric suffix, unit, value of one call).
COUNTERS = {
    "polynomials.gauss_jacobi_scaled": ("nodes", "count", lambda args, kwargs, result: args[0] if args else kwargs["n"]),
    "thermo.partition_em_series": ("terms", "count", lambda args, kwargs, result: result.terms_used),
    "tables.to_csv": ("bytes", "bytes", lambda args, kwargs, result: len(result.encode("utf-8"))),
}


class _Buffer:
    """Spans recorded by one thread."""

    def __init__(self):
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.counts = array("d")


class Tracer:
    def __init__(self):
        self.names = [label for label, _, _ in TARGETS]
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.buf = _Buffer()
            with self._lock:
                self._buffers.append(local.buf)
        return local.stack, local.buf

    def _wrap(self, name_id: int, fn):
        label = self.names[name_id]
        counter = COUNTERS[label][2] if label in COUNTERS else None
        pool_entry = label == "parallel.parallel_map"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buf = tracer._thread_state()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            if pool_entry:
                args = (tracer._adopt(args[0], sid),) + args[1:]
            stack.append(sid)
            count = 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = float(counter(args, kwargs, result))
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(name_id)
                buf.starts.append(start - tracer._t0)
                buf.ends.append(end - tracer._t0)
                buf.parents.append(parent)
                buf.ops.append(tracer.op)
                buf.counts.append(count)

        return traced

    def _adopt(self, fn, sid: int):
        """Run ``fn`` with span ``sid`` as parent on whichever thread calls it."""

        def adopted(item):
            stack, _ = self._thread_state()
            if stack and stack[-1] == sid:
                return fn(item)
            stack.append(sid)
            try:
                return fn(item)
            finally:
                stack.pop()

        return adopted

    def install(self) -> None:
        package = [m for name, m in sys.modules.items() if name == "sdsosc" or name.startswith("sdsosc.")]
        for name_id, (_, module, attr) in enumerate(TARGETS):
            owner = importlib.import_module(f"sdsosc.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name_id, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name_id, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def spans(self) -> dict:
        """All spans so far, as arrays ordered by span id."""
        with self._lock:
            buffers = list(self._buffers)
        fields = ("ids", "names", "starts", "ends", "parents", "ops", "counts")
        merged = {f: np.concatenate([np.frombuffer(getattr(b, f), dtype=getattr(b, f).typecode)
                                     for b in buffers]) if buffers else np.empty(0) for f in fields}
        order = np.argsort(merged["ids"], kind="stable")
        return {f: merged[f][order] for f in fields}

    def summary(self) -> dict:
        """Per-layer metrics: calls, self time and work counters per target.

        Self time is a span's duration minus the union of its children's
        intervals, so overlapping children on pool threads are not counted
        twice.
        """
        s = self.spans()
        n_names = len(self.names)
        dur = s["ends"] - s["starts"]
        covered = np.zeros(dur.size)
        has_parent = np.flatnonzero(s["parents"] >= 0)
        if has_parent.size:
            parent_pos = np.searchsorted(s["ids"], s["parents"][has_parent])
            order = np.lexsort((s["starts"][has_parent], parent_pos))
            starts = s["starts"][has_parent][order].tolist()
            ends = s["ends"][has_parent][order].tolist()
            parents = parent_pos[order].tolist()
            current, reach = -1, 0.0
            for parent, lo, hi in zip(parents, starts, ends):
                if parent != current:
                    current, reach = parent, lo
                lo = max(lo, reach)
                if hi > lo:
                    covered[parent] += hi - lo
                    reach = hi
        names = s["names"].astype(np.int64)
        calls = np.bincount(names, minlength=n_names)
        self_s = np.bincount(names, weights=dur - covered, minlength=n_names)
        counts = np.bincount(names, weights=s["counts"], minlength=n_names)
        metrics = {}
        for i, label in enumerate(self.names):
            metrics[f"{label}.calls"] = {"value": int(calls[i]), "unit": "count"}
            metrics[f"{label}.self_s"] = {"value": float(self_s[i]), "unit": "s"}
            if label in COUNTERS:
                suffix, unit, _ = COUNTERS[label]
                metrics[f"{label}.{suffix}"] = {"value": int(counts[i]), "unit": unit}
        return metrics

    def save(self, path) -> None:
        s = self.spans()
        np.savez(path, labels=np.array(self.names), **s)
