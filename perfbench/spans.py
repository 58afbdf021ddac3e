"""Span tracing of the convring layers, installed from the benchmark.

The tracer wraps the public functions of each traced convring module, and
the public methods of the two objects the API hands out (``ConvCode`` and
``WindowSystem``), in every module that bound them by name: the defining
module, each module that imported them (``convring.decoder.rref_mod_p``,
``convring.codes.smith_form``, ...) and the package namespace.  ``ring``,
``config`` and ``errors`` are not wrapped: their calls are per element, so
wrapping them would swamp what they measure; their cost shows as the self
time of their callers.  The value types (``Poly``, ``PolyMatrix``,
``ConstMatrix``, ``LinForm``, ...) are left alone for the same reason.

Each call becomes one span ``[name id, start, end, parent, op, phase, tag]``
kept in memory; ``write`` stores them when the run ends and ``self_times``
derives self time (duration minus the direct children's durations).  A few
names carry a tag read from their arguments or result (window position,
branch and fold counts, windows produced, candidates searched).
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import sys
import time
import types

TRACED_MODULES = ("linsolve", "intsolve", "polymat", "codes", "metrics", "decoder", "files", "cli")
TRACED_CLASSES = {"codes": ("ConvCode",), "decoder": ("WindowSystem",)}

SETUP, RUN, CHECK = 0, 1, 2
PHASES = ("setup", "run", "check")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _window_position(args, kwargs, out):
    received = _arg(args, kwargs, 1, "received")
    return _arg(args, kwargs, 2, "i") / max(len(received), 1)


def _branches_and_folds(args, kwargs, out):
    return len(out.branches), sum(len(br.space.events) for br in out.branches)


def _windows_produced(args, kwargs, out):
    return len(out[0])


def _oracle_candidates(args, kwargs, out):
    code = _arg(args, kwargs, 0, "code")
    received = _arg(args, kwargs, 1, "received")
    i, T = _arg(args, kwargs, 2, "i"), _arg(args, kwargs, 3, "T")
    e = sum(1 for sym in received[i : i + T + 1] for x in sym if x is None)
    return code.ctx.q**e


def _distance_candidates(args, kwargs, out):
    code = _arg(args, kwargs, 0, "code")
    return code.ctx.q ** ((_arg(args, kwargs, 1, "j") + 1) * code.n)


TAGS = {
    "decoder.build_window_system": _window_position,
    "decoder.list_decode": _branches_and_folds,
    "decoder.materialize_list": _windows_produced,
    "decoder.oracle_decode": _oracle_candidates,
    "metrics.column_distance": _distance_candidates,
}


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.phase = SETUP
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tag_of = TAGS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [nid, clock(), 0.0, stack[-1] if stack else -1, tracer.op, tracer.phase, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag_of is not None:
                span[6] = tag_of(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _targets(self, lib):
        """(span name, owner, attribute, original) for every wrapped callable."""
        found = []
        for short in TRACED_MODULES:
            mod = getattr(lib, short)
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    found.append((f"{short}.{attr}", mod, attr, obj))
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in vars(cls).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(obj, (classmethod, staticmethod)) or inspect.isfunction(obj):
                        found.append((f"{short}.{attr}", cls, attr, obj))
        names = [t[0] for t in found]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise RuntimeError(f"ambiguous span names: {sorted(dupes)}")
        return found

    def install(self, lib):
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (key == lib.__name__ or key.startswith(lib.__name__ + "."))
        ]
        for name, owner, attr, orig in self._targets(lib):
            if isinstance(orig, (classmethod, staticmethod)):
                wrapped = type(orig)(self._wrapper(name, orig.__func__))
                self._patch(owner, attr, orig, wrapped)
                continue
            wrapped = self._wrapper(name, orig)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def active(self, lib, phase: int):
        """Trace the enclosed calls as spans of the given phase."""
        self.phase = phase
        self.install(lib)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, child)]

    def write(self, path):
        """Spans as gzip JSON lines, one header line then one span a line."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "phases": PHASES}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
