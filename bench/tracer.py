"""In-memory span tracer installed around adsvol's public functions.

`install` replaces every public module-level function of the traced
modules with a timing wrapper, in every namespace that binds it: a name
re-bound by `from .reps import euler_class` inside `admissibility` gets
the same wrapper as `reps.euler_class`, so nested calls are caught.
Module-level dispatch tables (`verify.CHECKS`, `cli.HANDLERS`) are
rebuilt around the wrappers as well, because they hold the functions
themselves rather than their names.

Each call records a span (name, start, end, parent) in flat arrays;
nothing is written until the caller asks for a summary.  Self time is a
span's duration minus the part of its interval covered by its children.
"""

from __future__ import annotations

import functools
import time
import types
from array import array

#: Modules whose public functions are wrapped, in import order.
LAYERS = ("liealg", "forms", "invariants", "reps", "admissibility", "verify", "cli")


class Tracer:
    """Flat span store: span i has name names[name_id[i]], interval
    [start[i], end[i]] and parent index parent[i] (-1 for a root)."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.errors = {}  # (name, exception type name) -> count
        self.observers = {}  # name -> callable(args, kwargs, result)
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span directly, e.g. to build a span tree in
        a test."""
        self.name_id.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            tracer.start.append(clock())
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = (name, type(exc).__name__)
                tracer.errors[key] = tracer.errors.get(key, 0) + 1
                raise
            finally:
                tracer.end[index] = clock()
                stack.pop()
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list:
        """Per-span self time: duration minus the union of the child
        intervals, clipped to the parent's interval."""
        children = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(len(self.start)):
            lo, hi = self.start[i], self.end[i]
            covered = 0.0
            cursor = lo
            for c in sorted(children.get(i, ()), key=self.start.__getitem__):
                a = max(self.start[c], cursor)
                b = min(self.end[c], hi)
                if b > a:
                    covered += b - a
                    cursor = b
            out.append((hi - lo) - covered)
        return out

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"}; total_s counts only
        the outermost span of a recursive chain of the same name."""
        selfs = self.self_times()
        out = {}
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            if not self._has_ancestor_named(i, nid):
                entry["total_s"] += self.end[i] - self.start[i]
        return out

    def _has_ancestor_named(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _public_function(value, package: str) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and (value.__module__ or "").startswith(package + ".")
        and not value.__name__.startswith("_")
        and not getattr(value, "__wrapped_by_tracer__", False)
    )


def install(tracer: Tracer, package) -> list:
    """Wrap the public functions of every module in LAYERS (and their
    re-bindings in the package namespace).  Returns the undo list for
    `uninstall`."""
    pkg = package.__name__
    modules = [package] + [getattr(package, name) for name in LAYERS]
    wrappers = {}

    def wrapper_for(fn):
        w = wrappers.get(fn)
        if w is None:
            short = fn.__module__.rsplit(".", 1)[-1]
            w = wrappers[fn] = tracer.wrap(fn, f"{short}.{fn.__name__}")
        return w

    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            replacement = None
            if _public_function(value, pkg):
                replacement = wrapper_for(value)
            elif isinstance(value, dict) and value and all(
                _public_function(v, pkg) for v in value.values()
            ):
                replacement = {k: wrapper_for(v) for k, v in value.items()}
            elif isinstance(value, tuple) and value and all(
                isinstance(item, tuple)
                and len(item) == 2
                and _public_function(item[1], pkg)
                for item in value
            ):
                replacement = tuple((k, wrapper_for(v)) for k, v in value)
            if replacement is not None:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)
    return undo


def uninstall(undo: list) -> None:
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)
