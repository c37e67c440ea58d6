"""Layer spans recorded from outside the library.

The tracer wraps the public functions of every ``qfpuzzles`` module, and
the public methods of the classes those modules define, with a function
that opens a span when a call crosses from one layer into another.  The
wrapper is installed under every module name that refers to the
function, so a layer that calls another through its own namespace
(``zeta.avoiding_path_counts``, ``cli.build_diagram``) is caught too.
Calls that stay inside one layer open no span; their time is that
layer's self time.

Spans are kept in memory as ``(name, start, end, parent, job)`` tuples
and written out by the caller when the run ends.  The library source is
not touched: :meth:`Tracer.install` patches attributes and returns the
list of patches that :meth:`Tracer.uninstall` reverses.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import time

LAYERS = (
    "puzzle",
    "constructions",
    "reducibility",
    "diagram",
    "graphs",
    "series",
    "zeta",
    "polys",
    "coupled",
    "cli",
)
BENCH = "bench"  # the benchmark's own job code: input set-up and checks

# Arithmetic that does real work on series and polynomials.  Other special
# methods (indexing, equality, hashing) are O(1) or O(order) accessors.
_WRAPPED_DUNDERS = frozenset(
    {"__init__", "__post_init__", "__add__", "__sub__", "__rsub__", "__mul__",
     "__neg__", "__truediv__", "__call__"}
)
# O(1) accessors called in the innermost loops of every layer.  Wrapping
# them would cost more than the work they do; their time is their caller's.
_ACCESSORS = {
    "Puzzle": frozenset(
        {"label", "id_of", "order", "level", "i", "f", "i_iter", "f_iter",
         "i_preimages", "project", "pieces"}
    ),
    "DyadicDistance": None,  # None: the whole class is a value type
    "Box": None,
    "Edge": None,
}


class Tracer:
    """Records layer-crossing spans for the jobs run between
    :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[tuple[str, int]] = []
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- spans --------------------------------------------------------------

    def _open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1][1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._job])
        self._stack.append((layer, idx))
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, fn, *args):
        """Run ``fn(*args)`` as job ``job_id`` under a root span."""
        self._job = job_id
        idx = self._open(BENCH, "job")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, fn, layer: str, name: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            idx = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        self._wrappers[key] = traced
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qfpuzzles.{name}") for name in LAYERS}
        package = importlib.import_module("qfpuzzles")
        layer_of = {f"qfpuzzles.{name}": name for name in LAYERS}
        # Classes first: their methods are patched once, on the class.
        for layer, mod in modules.items():
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                    self._install_class(cls, layer)
        # Then every module-level name bound to a library function,
        # wherever it is bound.
        for mod in (*modules.values(), package):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layer_of.get(obj.__module__)
                if layer is None:
                    continue
                self._patch(mod, attr, self._wrap(obj, layer, f"{layer}.{obj.__name__}"))

    def _install_class(self, cls, layer: str) -> None:
        skip = _ACCESSORS.get(cls.__name__, frozenset())
        if skip is None:
            return
        for attr, raw in list(vars(cls).items()):
            if attr in skip:
                continue
            if attr.startswith("__"):
                if attr not in _WRAPPED_DUNDERS:
                    continue
                if attr == "__init__" and dataclasses.is_dataclass(cls):
                    continue  # generated record constructor
            elif attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, layer, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, layer, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, job in self.spans:
                out.write(json.dumps([name, round(start, 9), round(end, 9), parent, job]) + "\n")


def layer_of_span(name: str) -> str:
    return BENCH if name == "job" else name.split(".", 1)[0]


def self_times(spans, first: int = 0) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-layer self time and call count, and the total job time, of
    ``spans[first:]`` (whole jobs; parents are indices into ``spans``).

    A span's self time is its duration minus the durations of its child
    spans; children never overlap because the program is single-threaded.
    """
    spans = spans[first:]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child_time[parent - first] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    total = 0.0
    for k, (name, start, end, parent, _job) in enumerate(spans):
        layer = layer_of_span(name)
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[k]
        calls[layer] = calls.get(layer, 0) + 1
        if parent < 0:
            total += end - start
    return self_s, calls, total
