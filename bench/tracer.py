"""Span tracer that observes the package from outside, without editing it.

``Tracer.install`` replaces a package function by a timing wrapper in every
loaded module of the package that bound it by name. ``from .util import
as_points`` copies the function into eight modules, and the package
attribute ``mongemmd.train`` is the function while ``sys.modules
["mongemmd.train"]`` is the module, so patching one attribute would miss most
calls. ``enable(False)`` binds the original functions again, so one process
can alternate traced and untraced operations. A target that no longer
exists is listed in ``absent``, and a target whose counter function no
longer fits its signature in ``unmetered``, instead of raising, so a later
change that merges or renames a function leaves the benchmark running.

Spans are ``(name, start_ns, end_ns, parent_index, counters)`` kept in memory;
``summarize`` folds one operation's spans into per-name totals, self times
(duration minus the part covered by child spans) and counter sums, split into
all spans and spans under a ``train.train`` span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

TRAIN = "train.train"


class TraceError(Exception):
    """The spans do not nest, so their self times cannot account for the time."""


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self.unmetered: set[str] = set()
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list = []
        self._wrapped: dict = {}

    def install(self, package: str, layers, targets) -> None:
        """Wrap each ``"module.function"`` target with its counter function.

        ``layers`` are the package's module names; each is imported first so
        that every module binding a target is patched.
        """
        for layer in layers:
            try:
                importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                pass
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == package or name.startswith(package + "."))]
        for target, meter in targets:
            modname, fname = target.rsplit(".", 1)
            mod = sys.modules.get(f"{package}.{modname}")
            orig = getattr(mod, fname, None)
            if not callable(orig):
                self.absent.append(target)
                continue
            wrapped = self._wrap(target, orig, meter)
            self._wrapped[orig] = wrapped
            for m in modules:
                for attr, value in vars(m).items():
                    if value is orig:
                        self._patches.append((m, attr, orig, wrapped))
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Bind the wrappers (on) or the original functions (off) everywhere."""
        self.enabled = on
        for module, attr, orig, wrapped in self._patches:
            setattr(module, attr, wrapped if on else orig)

    def route(self, fn):
        """What a call to ``fn`` held from before ``install`` should reach."""
        return self._wrapped.get(fn, fn) if self.enabled else fn

    def _wrap(self, name: str, fn, meter):
        spans = self.spans
        stack = self._stack
        unmetered = self.unmetered
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if meter is not None:
                try:
                    counters = meter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # The function's signature changed under the meter.
                    unmetered.add(name)
                else:
                    spans[idx] = (name, t0, t1, parent, counters)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()

    def summarize(self) -> dict:
        """Fold the recorded spans into per-name statistics and clear them.

        Returns ``{"all": {name: stats}, "train": {name: stats},
        "train_ns": total train.train duration}``, where ``stats`` holds
        ``calls``, ``ns``, ``self_ns`` and summed counters. Raises TraceError
        if the self times under ``train.train`` do not add up to its duration.
        """
        spans = self.spans
        if self._stack or any(s is None for s in spans):
            raise TraceError("a span is still open")
        child_ns = [0] * len(spans)
        in_train = [False] * len(spans)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += t1 - t0
                in_train[i] = in_train[parent]
            if name == TRAIN:
                in_train[i] = True
        out = {"all": {}, "train": {}, "train_ns": 0}
        self_in_train = 0
        for i, (name, t0, t1, parent, counters) in enumerate(spans):
            dur = t1 - t0
            own = dur - child_ns[i]
            if own < 0 or (parent >= 0 and not spans[parent][1] <= t0 <= t1 <= spans[parent][2]):
                raise TraceError(f"span {name} does not nest in its parent")
            groups = ("all", "train") if in_train[i] else ("all",)
            for group in groups:
                st = out[group].setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
                st["calls"] += 1
                st["ns"] += dur
                st["self_ns"] += own
                for key, value in (counters or {}).items():
                    if key.startswith("max_"):
                        st[key] = max(st.get(key, value), value)
                    else:
                        st[key] = st.get(key, 0) + value
            if in_train[i]:
                self_in_train += own
            if name == TRAIN and not (parent >= 0 and in_train[parent]):
                out["train_ns"] += dur
        if self_in_train != out["train_ns"]:
            raise TraceError(
                f"self times under {TRAIN} sum to {self_in_train} ns, "
                f"its spans last {out['train_ns']} ns")
        spans.clear()
        return out
