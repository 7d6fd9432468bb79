"""Spans around calls into regtail's public functions, recorded from outside.

The package imports across modules with ``from .x import f``, which binds a
second name for the same function, so a wrapper only sees every call when it
replaces the function in every module namespace that holds it. An
``Instrument`` does that on install and puts the originals back on
uninstall; the package source is never touched.

Two kinds of wrapper exist:

* span wrappers, which record (name, start, end, parent span, job id) for
  every call made while a job is running; and
* sinks, which hand (args, kwargs, result) of selected functions to a
  callback, for output checks and per-layer counters.

With ``spans=False`` only the functions that have a sink are wrapped, which
is how the untraced run captures what its output checks need.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable, Optional

LAYERS = ("graphs", "fractional", "exponents", "graphons", "holder", "sim", "cli")

# The CLI's public surface is its entry point. Its cmd_* handlers are its
# internals, so argument handling and JSON emission count as cli.main self
# time rather than as separate spans.
ONLY = {"cli": ("main",)}

Sink = Callable[[tuple, dict, object], None]


def public_callables(package: ModuleType) -> dict[str, tuple[object, str, object]]:
    """Span name -> (owner, attribute, original) for every wrappable callable.

    Covers the public module-level functions of each layer and the public
    classmethods of its public classes. Generator functions are left out: a
    wrapper would time only the creation of the generator, not its work.
    """
    found: dict[str, tuple[object, str, object]] = {}
    for layer in LAYERS:
        mod = getattr(package, layer)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if layer in ONLY and name not in ONLY[layer]:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                found[f"{layer}.{name}"] = (mod, name, obj)
            elif inspect.isclass(obj) and layer not in ONLY:
                for attr, raw in vars(obj).items():
                    if isinstance(raw, classmethod) and not attr.startswith("_"):
                        found[f"{layer}.{name}.{attr}"] = (obj, attr, raw)
    return found


class Instrument:
    """Installs span wrappers and sinks into the regtail package."""

    def __init__(self, package: ModuleType, spans: bool, sinks: Optional[dict[str, Sink]] = None):
        self.package = package
        self.spans = spans
        self.sinks = dict(sinks or {})
        self.names: list[str] = ["job"]
        self.name_of = array("i")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.active = False
        self.job_id = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        targets = public_callables(self.package)
        unknown = set(self.sinks) - set(targets)
        if unknown:
            raise KeyError(f"no public callable named {sorted(unknown)}")
        replaced: dict[int, object] = {}
        for name, (owner, attr, original) in targets.items():
            sink = self.sinks.get(name)
            if not self.spans and sink is None:
                continue
            if isinstance(original, classmethod):
                wrapper = self._wrap(original.__func__, name, sink)
                self._set(owner, attr, classmethod(wrapper))
                continue
            replaced[id(original)] = self._wrap(original, name, sink)
        # Rebind every name that holds a wrapped function, in every namespace.
        for ns in [self.package] + [getattr(self.package, layer) for layer in LAYERS]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    self._set(ns, attr, replaced[id(obj)])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str, sink: Optional[Sink]):
        if not self.spans:
            @functools.wraps(fn)
            def capture(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.active:
                    sink(args, kwargs, result)
                return result
            return capture

        idx = len(self.names)
        self.names.append(name)
        name_of, parent, job, start, end, stack = (
            self.name_of, self.parent, self.job, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(end)
            name_of.append(idx)
            parent.append(stack[-1])
            job.append(self.job_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if sink is not None:
                sink(args, kwargs, result)
            return result
        return traced

    # -- recording ----------------------------------------------------------

    @contextmanager
    def job_span(self, job_id: int):
        """Root span of one benchmark job; wrappers record only inside it."""
        self.job_id = job_id
        self.active = True
        sid = -1
        if self.spans:
            sid = len(self.end)
            self.name_of.append(0)
            self.parent.append(-1)
            self.job.append(job_id)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf_counter())
        try:
            yield
        finally:
            if self.spans:
                self.end[sid] = perf_counter()
                self._stack.pop()
            self.active = False

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds), root spans included."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, list] = {}
        for i, s in enumerate(selfs):
            entry = out.setdefault(self.names[self.name_of[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path) -> None:
        """Write every span, one column per field, as gzipped JSON."""
        blob = {"names": self.names,
                "fields": ["name", "start", "end", "parent", "job"],
                "spans": [self.name_of.tolist(), self.start.tolist(), self.end.tolist(),
                          self.parent.tolist(), self.job.tolist()]}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(blob, fh)


def self_times(start: Iterable[float], end: Iterable[float], parent: Iterable[int]) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    Spans come from one thread and nest, so children never overlap one
    another or stick out of their parent.
    """
    out = [b - a for a, b in zip(start, end)]
    for i, (a, b, p) in enumerate(zip(start, end, parent)):
        if p >= 0:
            out[p] -= b - a
    return out
