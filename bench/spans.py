"""In-memory span tracing of graspslip, installed from outside the package.

``Tracer.install`` replaces functions of the graspslip modules with
wrappers that record one span per call: name, start, end (both
``perf_counter_ns``) and the index of the enclosing span. Nothing in the
package is edited; a wrapper is bound under every name that refers to the
original function in any loaded ``graspslip.*`` module, so calls made
through ``from x import f`` bindings are seen too. ``uninstall`` puts the
originals back.

Targets are looked up by name. A target whose names no longer exist (a
later change deleted or renamed the function) is skipped, and its span
name is absent from ``installed``; the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "graspslip"
MODULES = ("data", "signal", "nn", "models", "evaluation", "stream")

_INHERITED = object()  # restore marker: the attribute lived on a base class


def _clip_counter(args, kwargs, out) -> dict:
    """1 when clip_gradients(grads, max_norm) had to scale the gradients."""
    grads = args[0] if args else kwargs.get("grads")
    max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm")
    if not max_norm or max_norm <= 0:
        return {"clipped": 0}
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    return {"clipped": int(total > max_norm)}


def _steps_counter(args, kwargs, out) -> dict:
    """Per-step predictions returned by one predict call."""
    return {"steps": len(out)}


@dataclass(frozen=True)
class Target:
    """One span name and where to find the function it times.

    ``candidates`` are ``attr`` or ``Class.method`` paths inside ``module``;
    the first that exists is wrapped. ``counter(args, kwargs, out)``
    returns extra per-call counts, taken after the span has ended.
    """

    span: str
    module: str
    candidates: tuple[str, ...]
    counter: object = None


# Spans that the per-layer metrics need beyond "<module>.<public function>":
# the band function under the name ``models`` imports it as, both checkpoint
# directions under one span, methods under their layer's name, and counters.
NAMED_TARGETS = (
    Target("signal.band_magnitudes", "models",
           ("band_magnitudes", "sliding_band_magnitudes", "_sliding_band_magnitudes")),
    Target("models.featurize", "models", ("GraspModel.featurize",)),
    Target("models.predict", "models", ("GraspModel.predict",), _steps_counter),
    Target("models.loss_and_grads", "models", ("GraspModel.loss_and_grads",)),
    Target("models.checkpoint_io", "models", ("save_checkpoint",)),
    Target("models.checkpoint_io", "models", ("load_checkpoint",)),
    Target("nn.clip_gradients", "nn", ("clip_gradients",), _clip_counter),
    Target("stream.push", "stream", ("StreamingPredictor.push",)),
)


def _resolve(owner, path: str):
    """(object holding the last attribute, attribute name, value) or None."""
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        # One row per span: [name, start_ns, end_ns, parent index or -1].
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.installed: set[str] = set()   # span names with a wrapper in place
        self._stack = [-1]
        self._active = [True]
        self._patched: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}   # id(original) -> wrapper

    # -- recording -------------------------------------------------------

    def _wrapper(self, span: str, fn, counter):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter_ns
        counts = self.counts.setdefault(span, {})
        self.installed.add(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            row = [span, 0, 0, stack[-1]]
            spans.append(row)
            stack.append(len(spans) - 1)
            row[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if counter is not None:
                for key, val in counter(args, kwargs, out).items():
                    counts[key] = counts.get(key, 0) + val
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its own calls."""
        row = [name, 0, 0, self._stack[-1]]
        self.spans.append(row)
        self._stack.append(len(self.spans) - 1)
        row[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            row[2] = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    # -- installation ----------------------------------------------------

    def _loaded_modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, new)

    def _wrap_function(self, span: str, fn, counter=None) -> None:
        """Bind one wrapper under every module-level name for ``fn``."""
        if id(fn) in self._wrapped:
            return
        wrapper = self._wrapper(span, fn, counter)
        self._wrapped[id(fn)] = wrapper
        for mod in self._loaded_modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every public function of MODULES plus NAMED_TARGETS."""
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        for target in NAMED_TARGETS:
            found = None
            for cand in target.candidates:
                found = _resolve(mods[target.module], cand)
                if found is not None:
                    break
            if found is None:
                continue
            owner, attr, fn = found
            if inspect.isclass(owner):
                if id(fn) not in self._wrapped:
                    wrapper = self._wrapper(target.span, fn, target.counter)
                    self._wrapped[id(fn)] = wrapper
                    self._patch(owner, attr, wrapper)
            else:
                self._wrap_function(target.span, fn, target.counter)
        wrappers = {id(w) for w in self._wrapped.values()}
        for name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or id(fn) in wrappers):
                    continue
                self._wrap_function(f"{name}.{attr}", fn)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()
        self._wrapped.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- analysis --------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, s (total), self_s, us_p50, us_p99, counts.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        n = len(self.spans)
        dur = np.empty(n)
        child = np.zeros(n)
        for idx, (_, start, end, parent) in enumerate(self.spans):
            d = (end - start) / 1e9
            dur[idx] = d
            if parent >= 0:
                child[parent] += d
        by_name: dict[str, list[int]] = {}
        for idx, row in enumerate(self.spans):
            by_name.setdefault(row[0], []).append(idx)
        out = {}
        for name, idxs in by_name.items():
            d = dur[idxs]
            us = np.sort(d) * 1e6
            out[name] = {
                "calls": len(idxs),
                "s": float(d.sum()),
                "self_s": float((d - child[idxs]).sum()),
                "us_p50": _nearest_rank(us, 50.0),
                "us_p99": _nearest_rank(us, 99.0),
                **self.counts.get(name, {}),
            }
        return out


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * sorted_values.size))
    return float(sorted_values[rank - 1])
