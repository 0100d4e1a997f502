"""Spans around the deqntk layers, recorded from the benchmark's own code.

A traced iteration replaces each public function of the layer modules by a
wrapper at every module attribute that refers to it, so a call opens a span
whichever name the caller looked it up under (``deqntk.gram.assemble_gram``
and ``deqntk.cli.assemble_gram`` are the same function).  Spans are kept in
memory as ``[name, start, end, parent]`` and written out when the run ends;
a layer's self time is its span minus the spans directly inside it.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("data", "kernel", "gram", "conv", "empirical", "spectra")
PACKAGE = "deqntk"


class Patches:
    """Module attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def undo(self):
        while self._undo:
            obj, name, old = self._undo.pop()
            setattr(obj, name, old)


def package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions(module) -> dict:
    """Public functions (``lru_cache`` wrappers included) defined in ``module``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == module.__name__
    }


def tap(patches: Patches, module, name: str, record) -> None:
    """Pass every result of ``module.name`` to ``record(args, kwargs, result)``."""
    inner = getattr(module, name)

    @functools.wraps(inner)
    def tapped(*args, **kwargs):
        result = inner(*args, **kwargs)
        record(args, kwargs, result)
        return result

    patches.set(module, name, tapped)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _size(value) -> int:
    return int(getattr(value, "size", 1))


# Work counts taken at the layer boundary: metric name -> (function, count).
COUNTS = {
    "data.bytes_parsed": ("data._read_bytes", lambda a, r: len(r)),
    "kernel.theta_deq_grid.entries": ("kernel.theta_deq_grid", lambda a, r: _size(a["dot"])),
    "kernel.finite_depth_theta.layer_entries": (
        "kernel.finite_depth_theta", lambda a, r: _size(a["dot"]) * int(a["d"])
    ),
    "empirical.deq_forward.iterations": ("empirical.deq_forward", lambda a, r: r.iterations),
}
# ``_read_bytes`` is where file bytes enter the data layer; it is private, so
# it is wrapped for its byte count only.
_PRIVATE = {"data": ("_read_bytes",)}


class Tracer:
    """Spans and counts of one traced iteration."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = Patches()

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        counts = [(metric, count) for metric, (target, count) in COUNTS.items()
                  if target == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counts:
                bound = _bound(fn, args, kwargs)
                for metric, count in counts:
                    self.counts[metric] += count(bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions at every attribute that refers to them."""
        modules = package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        wrappers = {}
        for layer in LAYERS:
            mod = by_name[f"{PACKAGE}.{layer}"]
            fns = public_functions(mod)
            fns.update({n: getattr(mod, n) for n in _PRIVATE.get(layer, ())
                        if hasattr(mod, n)})
            for fname, fn in fns.items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.set(mod, attr, hit[1])

    def uninstall(self) -> None:
        self._patches.undo()

    def summary(self) -> tuple[dict, dict, Counter]:
        """Total seconds, self seconds and call count per span name."""
        total, own = defaultdict(float), defaultdict(float)
        calls = Counter()
        inner = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, inner):
            total[name] += end - start
            own[name] += end - start - covered
            calls[name] += 1
        return total, own, calls
