"""Spans around the public functions of each kreincalc module, and kernel counts.

Installing a ``Tracer`` replaces every binding of a traced function: the
attribute of its defining module or class and every ``from ... import`` copy
in the other ``kreincalc`` modules.  Kernel counters are installed on the
numpy/scipy module attributes themselves (and on any copy bound inside
``kreincalc``), so they keep counting when the program moves a call from
scipy to numpy.

A span records its self time: its duration minus the time covered by its
child spans.  Hot helpers (``RationalFunction.jet_at`` and the kernels) are
count-only, because timing them roughly doubles the request time.  A typed
error is charged to the first span it leaves.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer -> (owner class or None, attribute, span name)
SPANS = {
    "relations": [
        ("LinearRelation", "adjoint", "adjoint"),
        ("LinearRelation", "operator_matrix", "operator_matrix"),
        ("LinearRelation", "moebius", "moebius"),
        (None, "diagonal_preimage", "diagonal_preimage"),
        ("LinearRelation", "from_graph_columns", "from_graph_columns"),
    ],
    "spectral": [
        (None, "spectrum", "spectrum"),
        (None, "rational_apply", "rational_apply"),
        (None, "resolvent_at", "resolvent_at"),
    ],
    "rational": [
        ("Polynomial", "clustered_roots", "clustered_roots"),
        ("RationalFunction", "partial_fractions", "partial_fractions"),
        ("RationalFunction", "__init__", "RationalFunction"),
    ],
    "krein": [
        (None, "verify_definitizing", "verify_definitizing"),
        (None, "gram_factorize", "gram_factorize"),
        (None, "spectral_measure", "spectral_measure"),
        (None, "theta_op", "theta_op"),
        (None, "xi", "xi"),
    ],
    "jetcalc": [
        (None, "decompose", "decompose"),
        (None, "apply_calculus", "apply_calculus"),
        (None, "spectral_projection", "spectral_projection"),
    ],
    "cli": [
        (None, "main", "main"),
    ],
}

COUNT_ONLY = {"rational.jet_at": ("rational", "RationalFunction", "jet_at")}

# kernel -> numpy/scipy module attributes counted under it
KERNELS = {
    "svd": [("scipy.linalg", "svd"), ("scipy.linalg", "svdvals"), ("numpy.linalg", "svd")],
    "qz": [("scipy.linalg", "eig"), ("scipy.linalg", "qz"), ("scipy.linalg", "eigvals")],
    "eigh": [("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
             ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh")],
    "roots": [("numpy.polynomial.polynomial", "polyroots"), ("numpy", "roots")],
    "solve": [("numpy.linalg", "solve"), ("scipy.linalg", "solve"),
              ("numpy.linalg", "lstsq"), ("scipy.linalg", "lstsq")],
}

# kernels whose repeated inputs within one request are tracked
HASHED = ("eigh", "roots")

TIMED_SPANS = [f"{layer}.{name}" for layer, rows in SPANS.items() for _, _, name in rows]
ALL_SPANS = TIMED_SPANS + list(COUNT_ONLY)
ROOT = "bench.request"


def _arg_key(args):
    parts = []
    for a in args:
        if isinstance(a, np.ndarray):
            parts.append((a.shape, a.dtype.str, a.tobytes()))
    return hash(tuple(parts))


class Tracer:
    """Collects spans and counts for the requests run between begin and end."""

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.self_s = Counter()
        self.calls = Counter()
        self.errors = Counter()
        self.kernels = Counter()
        self.distinct = Counter()       # summed per-request distinct inputs
        self.requests = 0
        self.spans: list[list] = []     # per request: [id, parent, name, start, end, self]
        self._stack: list[list] = []    # open frames: [id, name, start, child seconds]
        self._next_id = 0
        self._current: list = []
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self):
        mods = {layer: importlib.import_module(f"kreincalc.{layer}") for layer in SPANS}
        for layer, rows in SPANS.items():
            for owner, attr, name in rows:
                self._wrap(mods[layer], owner, attr, self._span_wrapper(f"{layer}.{name}"))
        for name, (layer, owner, attr) in COUNT_ONLY.items():
            self._wrap(mods[layer], owner, attr, self._count_wrapper(name))
        for kernel, sites in KERNELS.items():
            for modname, attr in sites:
                mod = importlib.import_module(modname)
                original = getattr(mod, attr)
                wrapped = self._kernel_wrapper(kernel, original)
                self._set(mod, attr, wrapped)
                self._rebind_copies(original, wrapped)
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _set(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr) if not isinstance(target, type)
                              else target.__dict__[attr]))
        setattr(target, attr, value)

    def _wrap(self, module, owner, attr, make):
        if owner is None:
            original = getattr(module, attr)
            wrapped = make(original)
            self._set(module, attr, wrapped)
            self._rebind_copies(original, wrapped)
            return
        cls = getattr(module, owner)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def _rebind_copies(self, original, wrapped):
        """Replace `from x import name` copies inside the kreincalc package."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "kreincalc" or modname.startswith("kreincalc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.run_span(name, fn, *args, **kwargs)
            return wrapper
        return make

    def _count_wrapper(self, name):
        calls, errors = self.calls, self.errors

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    self._charge_error(name, exc)
                    raise
            return wrapper
        return make

    def _kernel_wrapper(self, kernel, fn):
        kernels, seen = self.kernels, self._seen
        hashed = kernel in HASHED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kernels[kernel] += 1
            if hashed:
                seen[kernel].add(_arg_key(args))
            return fn(*args, **kwargs)
        return wrapper

    def _charge_error(self, name, exc):
        from kreincalc.errors import KreinCalcError
        if isinstance(exc, KreinCalcError) and not hasattr(exc, "bench_span"):
            exc.bench_span = name
            self.errors[name] += 1

    def run_span(self, name, fn, *args, **kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        start = time.perf_counter()
        frame = [span_id, name, start, 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._charge_error(name, exc)
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            own = duration - frame[3]
            self.self_s[name] += own
            self.calls[name] += 1
            parent = None
            if stack:
                stack[-1][3] += duration
                parent = stack[-1][0]
            if self.keep_spans:
                self._current.append([span_id, parent, name, start, end, own])

    # -- requests ------------------------------------------------------------

    def request(self, fn, *args, **kwargs):
        """Run fn as one request under the root span; returns its result."""
        self._seen.clear()
        self._current = []
        try:
            return self.run_span(ROOT, fn, *args, **kwargs)
        finally:
            self.requests += 1
            for kernel in HASHED:
                self.distinct[kernel] += len(self._seen[kernel])
            if self.keep_spans:
                self.spans.append(self._current)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """Plain sums, mergeable across processes."""
        return {
            "requests": self.requests,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "kernels": dict(self.kernels),
            "distinct": dict(self.distinct),
        }


def merge_totals(parts) -> dict:
    out = {"requests": 0, "self_s": Counter(), "calls": Counter(), "errors": Counter(),
           "kernels": Counter(), "distinct": Counter()}
    for part in parts:
        out["requests"] += part["requests"]
        for key in ("self_s", "calls", "errors", "kernels", "distinct"):
            out[key].update(part[key])
    return out


def layer_metrics(totals) -> dict:
    """Per-request metrics named <module>.<function>.self_ms/.calls/.errors etc."""
    per = max(totals["requests"], 1)
    out = {}
    for name in ALL_SPANS:
        if name in TIMED_SPANS:
            out[f"{name}.self_ms"] = (1e3 * totals["self_s"].get(name, 0.0) / per, "ms")
        out[f"{name}.calls"] = (totals["calls"].get(name, 0) / per, "count")
        out[f"{name}.errors"] = (totals["errors"].get(name, 0) / per, "count")
    out[f"{ROOT}.self_ms"] = (1e3 * totals["self_s"].get(ROOT, 0.0) / per, "ms")
    for kernel in KERNELS:
        out[f"kernel.{kernel}"] = (totals["kernels"].get(kernel, 0) / per, "count")
    for kernel in HASHED:
        calls = totals["kernels"].get(kernel, 0)
        out[f"kernel.{kernel}.unique_frac"] = (totals["distinct"].get(kernel, 0) / calls if calls else 1.0, "ratio")
    return out
