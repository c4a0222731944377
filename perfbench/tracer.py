"""Self-time tracing of the program's layers, installed from outside.

A :class:`Tracer` replaces named entry points of the ``repro`` package
with timing wrappers for the duration of a ``with`` block and restores
the originals afterwards.  Each wrapper records its calls and its *self
time*: the call's duration minus the time spent in wrapped entry points
it called.  The self times of one traced region therefore add up to the
time spent inside any wrapped call, and the remainder of the region's
wall time is what no wrapper covers.

Wrappers are installed where each caller looks a name up: a function
imported by name into another module (``from x import f``) is patched
on that module, so ``nearest_centroids`` is wrapped twice, once in
``repro.core.birch`` and once in ``repro.serve.frozen``, under the same
layer name.

Nothing here changes the program's arguments or results.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Callable

# (module, attribute path, layer name).  An attribute path with a dot
# names a method on a class of that module.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.guardrails.validation", "PointValidator.screen", "guardrails.screen"),
    ("repro.core.tree", "CFTree.bulk_insert", "tree.bulk_insert"),
    ("repro.core.tree", "CFTree.insert_cf", "tree.insert_cf"),
    ("repro.core.birch", "rebuild_tree", "rebuild"),
    ("repro.core.birch", "agglomerative_cf", "phase3"),
    ("repro.core.birch", "refine", "phase4"),
    ("repro.core.birch", "nearest_centroids", "kernel"),
    ("repro.serve.frozen", "nearest_centroids", "kernel"),
    ("repro.serve.frozen", "FrozenModel.predict", "frozen.predict"),
    ("repro.serve.frozen", "FrozenModel.save", "artifact.save"),
    ("repro.serve.frozen", "FrozenModel.load", "artifact.load"),
    ("repro.serve.frozen", "compile_model", "compile"),
    ("repro.core.checkpoint", "write_checkpoint", "checkpoint.write"),
    ("repro.core.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("repro.parallel.pool", "SharedPool.map", "pool.map"),
)


def _rows(args: tuple) -> int:
    """Row count of a call's first array argument (0 when it has none)."""
    for arg in args:
        shape = getattr(arg, "shape", None)
        if shape:
            return int(shape[0])
    return 0


class LayerStats:
    """Calls, self seconds and rows seen by one layer."""

    __slots__ = ("calls", "self_s", "rows")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.rows = 0


class Tracer:
    """Installs self-time wrappers on :data:`ENTRY_POINTS`.

    ``pool.map`` is split by its ``op`` keyword (``pool.map.build`` vs
    ``pool.map.merge``); ``checkpoint.write`` also sums the size of the
    files it wrote into :attr:`checkpoint_bytes`.
    """

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self.checkpoint_bytes = 0
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _layer(self, name: str) -> LayerStats:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats()
        return stats

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        stack = self._stack
        by_op = name == "pool.map"
        sizes_file = name == "checkpoint.write"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                layer = name
                if by_op:
                    layer = f"pool.map.{kwargs.get('op', 'task')}"
                stats = tracer._layer(layer)
                stats.calls += 1
                stats.self_s += duration - children
                stats.rows += _rows(args)
                if sizes_file:
                    path = args[0] if args else kwargs.get("path")
                    if path is not None and os.path.exists(path):
                        tracer.checkpoint_bytes += os.path.getsize(path)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr_path, name in ENTRY_POINTS:
            owner: object = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched: object = classmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- report --------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        stats = self.layers.get(name)
        return stats.self_s if stats is not None else 0.0

    def calls(self, name: str) -> int:
        stats = self.layers.get(name)
        return stats.calls if stats is not None else 0

    def rows(self, name: str) -> int:
        stats = self.layers.get(name)
        return stats.rows if stats is not None else 0

    def total_self_seconds(self) -> float:
        return sum(stats.self_s for stats in self.layers.values())

    def call_counts(self) -> dict[str, int]:
        return {name: stats.calls for name, stats in sorted(self.layers.items())}


def span_seconds(events: list[dict], name: str) -> float:
    """Sum of the ``seconds`` of the telemetry spans named ``name``."""
    return sum(float(e.get("seconds", 0.0)) for e in events if e.get("event") == name)
