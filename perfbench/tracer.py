"""Outside-in span tracer for diffeo2d.

The library has no tracing of its own, so the tracer wraps public functions
from outside. Modules such as ``registration`` and ``lie`` bind names like
``sample_values`` and ``log_field`` with ``from .fields import ...``, so a
wrapper installed only in the defining module would miss those calls. The
tracer therefore rebinds every ``diffeo2d.*`` module attribute that holds
the original function object, and restores each binding on exit.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out by the caller when the benchmark ends. ``op`` is whatever the
caller set on :attr:`Tracer.op` when the span opened: an op index, or a phase
label such as ``"input"``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


class Target:
    """One traced function: its span name, where to find the original, and
    an optional counter ``count(counters, args, kwargs, result)`` that adds
    work counts (points, iterations, bytes) after a successful call."""

    def __init__(self, name, module, attr, count=None):
        self.name = name
        self.module = module
        self.attr = attr
        self.count = count


class Tracer:
    """Context manager that wraps the targets on entry and unwraps on exit.
    It may be entered again; spans and counts accumulate."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[list] = []
        self.errors: Counter = Counter()  # (name, op) -> exceptions raised
        self.counters: defaultdict = defaultdict(Counter)  # (name, op) -> counts
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for target in self.targets:
                original = getattr(sys.modules[target.module], target.attr)
                wrapper = self._wrap(target, original)
                for holder in _library_modules():
                    if holder.__dict__.get(target.attr) is original:
                        setattr(holder, target.attr, wrapper)
                        self._patched.append((holder, target.attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def _wrap(self, target, fn):
        name = target.name
        count = target.count
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[(name, span[4])] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counters[(name, span[4])], args, kwargs, result)
            return result

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def summary(self, keep):
        """Aggregate spans, errors and counts whose ``op`` satisfies ``keep(op)``.

        Returns ``{name: Counter}`` with ``calls``, ``total_s``, ``self_s``,
        ``errors`` and the target's own counts. Self time is a span's
        duration minus the durations of its child spans; spans nest strictly
        in this single-threaded caller, so children never overlap. Counts
        whose key ends in ``_max`` merge by maximum, all others by sum.
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: defaultdict = defaultdict(Counter)
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            if keep(op):
                agg = out[name]
                agg["calls"] += 1
                agg["total_s"] += end - start
                agg["self_s"] += end - start - child_s[idx]
        for (name, op), n in self.errors.items():
            if keep(op):
                out[name]["errors"] += n
        for (name, op), counts in self.counters.items():
            if keep(op):
                agg = out[name]
                for key, value in counts.items():
                    agg[key] = max(agg[key], value) if key.endswith("_max") else agg[key] + value
        return out

    def write_spans(self, path):
        """Write one JSON object per span, in the order the spans opened."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                )
                fh.write("\n")


def _library_modules():
    return [
        mod
        for modname, mod in list(sys.modules.items())
        if mod is not None and (modname == "diffeo2d" or modname.startswith("diffeo2d."))
    ]


def wrapped_bindings():
    """Names of ``diffeo2d.*`` module attributes that currently hold a
    tracer wrapper; empty whenever no tracer is active."""
    return sorted(
        f"{mod.__name__}.{attr}"
        for mod in _library_modules()
        for attr, value in vars(mod).items()
        if getattr(value, "__perfbench_wrapped__", False)
    )
