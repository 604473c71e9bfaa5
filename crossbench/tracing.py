"""Span tracing installed from outside the program.

``Tracer.install`` wraps the public functions of the traced crossphy modules
(and the public methods of a few classes) and rebinds every module attribute
that refers to one of them.  The rebinding matters: the modules import each
other's functions by name (``from .gf2 import eliminate``), so patching only
``crossphy.gf2.eliminate`` would miss the call the solver makes.

Spans are recorded only inside an operation opened with ``Tracer.operation``
and stay in memory as ``[name, start_ns, end_ns, parent, op]`` lists until
the run writes them out.  Hooks attached by span name turn a call's
arguments and result into counts at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "crossphy"
TRACED_MODULES = ("sim", "solver", "gf2", "emulation", "wifi", "dsp", "zigbee")
TRACED_CLASSES = {"emulation": ("EmulationModel",)}
# Left unwrapped: diffblocks rebuilds the pilots from these on every training
# epoch, about a thousand calls an epoch, and a span each would cost more
# than the calls themselves (~20% of a traced plan-trained plan).
UNTRACED = ("wifi.pilot_polarity", "wifi.pilot_polarity_sequence")

NAME, START, END, PARENT, OP = range(5)


class RssSampler:
    """Peak growth of resident memory while the block runs, sampled every
    ``interval`` seconds from /proc/self/statm by a helper thread.

    tracemalloc would attribute allocations exactly, but it slows the
    GF(2) eliminator about fourfold, which would make the traced plans of a
    run measure mostly the tracer.  ``peak_mb`` stays None where statm is
    absent.
    """

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.peak_mb = None
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20

    def _rss_mb(self):
        try:
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * self._page_mb
        except OSError:
            return None

    def __enter__(self):
        self._start = self._rss_mb()
        self._peak = self._start
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        if self._start is not None:
            self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(self.interval):
            self._peak = max(self._peak, self._rss_mb())

    def __exit__(self, *exc):
        self._stop.set()
        if self._start is None:
            return False
        self._thread.join()
        self._peak = max(self._peak, self._rss_mb())
        self.peak_mb = self._peak - self._start
        return False


class Tracer:
    """In-memory span recorder with per-name hooks.

    ``hooks`` maps a span name to ``hook(tracer, args, kwargs, result)``;
    ``memory`` names spans whose peak memory growth is sampled into
    ``tracer.peaks[name]``.
    """

    def __init__(self, hooks=None, memory=()):
        self.hooks = dict(hooks or {})
        self.memory = set(memory)
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = None
        self._ops = 0
        self._patched: list[tuple] = []  # (owner, attr, original)

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Record spans under one operation; the op span is their root and
        every span inside carries the operation's id."""
        self._op = self._ops
        self._ops += 1
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def wrap(self, name: str, fn):
        tracer = self
        hook = self.hooks.get(name)
        sample = name in self.memory

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                if sample:
                    with RssSampler() as rss:
                        result = fn(*args, **kwargs)
                    if rss.peak_mb is not None:
                        tracer.peaks[name] = max(tracer.peaks[name], rss.peak_mb)
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions and methods and rebind every reference
        held by a module of the package."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or f"{short}.{attr}" in UNTRACED):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        self._patched.append((cls, attr, obj))
                        setattr(cls, attr, self.wrap(f"{short}.{cls_name}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        """The wrappers in place for the block, the program's own functions after."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis -----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover.  Calls
        are single-threaded and nested, so the children never overlap."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.  No
        traced function calls itself, so inclusive times do not overlap."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s, own in zip(self.spans, self.self_ns()):
            row = out[s[NAME]]
            row["calls"] += 1
            row["total_s"] += (s[END] - s[START]) * 1e-9
            row["self_s"] += own * 1e-9
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, with self time, in recording order."""
        selfs = self.self_ns()
        with open(path, "w") as f:
            for s, own in zip(self.spans, selfs):
                f.write(json.dumps({"name": s[NAME], "start_ns": s[START],
                                    "end_ns": s[END], "parent": s[PARENT],
                                    "op": s[OP], "self_ns": own}) + "\n")
