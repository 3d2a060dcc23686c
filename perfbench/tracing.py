"""Span tracing from outside the program: wrap each layer's entry points.

The benchmark never edits ``src/``.  A traced run instead replaces the
public entry points of each layer (module functions, rebound in every
``repro`` module that imported them, and class methods) with thin wrappers
that record one span per call: layer, name, start, end and parent.  Spans
are kept in memory as parallel lists and reduced when the run ends.

Self time is a span's duration minus the durations of its direct children,
so the self times of all layers plus the self time of the benchmark's own
root spans (``other``) add up to the roots' wall time exactly.

An entry point that no longer exists (a later change renamed or removed
it) is reported in :attr:`Installation.missing` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "ENTRY_POINTS",
    "HOOKS",
    "ROOT",
    "Installation",
    "LayerTotals",
    "Tracer",
    "install",
    "reduce_spans",
]

#: layer name of the benchmark's own root spans (one per cell, step, ...)
ROOT = "root"

#: layer -> "module:qualname" entry points wrapped in a traced run
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "scenario": (
        "repro.scenario:make_paper_scenario",
        "repro.scenario:make_trajectory",
        "repro.factory:make_tracker",
        "repro.config.compile:build_scenario",
        "repro.config.compile:build_trajectory",
        "repro.config.compile:build_tracker",
    ),
    "runner": (
        "repro.experiments.runner:generate_step_context",
        "repro.experiments.lockstep:_generate_contexts",
    ),
    "spatial": (
        "repro.network.spatial:GridIndex.__init__",
        "repro.network.spatial:GridIndex.query_disk",
        "repro.network.spatial:GridIndex.query_disk_many",
        "repro.network.spatial:GridIndex.query_disk_batch",
        "repro.network.spatial:GridIndex.query_segment",
        "repro.network.neighborhood:NeighborhoodCache.neighbors",
        "repro.network.neighborhood:NeighborhoodCache.degree",
        "repro.network.neighborhood:NeighborhoodCache.warm",
        "repro.network.neighborhood:NeighborhoodCache.warm_degrees",
        "repro.network.neighborhood:NeighborhoodCache.rebind",
    ),
    "medium": (
        "repro.network.medium:Medium.broadcast",
        "repro.network.medium:Medium.unicast",
        "repro.network.medium:Medium.unicast_path",
        "repro.network.medium:Medium.global_broadcast",
        "repro.network.medium:Medium.collect",
        "repro.network.medium:Medium.peek",
        "repro.network.medium:Medium.flush_delayed",
        "repro.network.medium:Medium.charge_out_of_band",
        "repro.network.medium:Medium.transmission_batch",
        "repro.network.medium:TransmissionBatch.broadcast",
        "repro.network.medium:TransmissionBatch.unicast",
        "repro.network.medium:TransmissionBatch.unicast_path",
        "repro.network.medium:TransmissionBatch.flush",
        "repro.network.medium:CommAccounting.record",
        "repro.network.medium:CommAccounting.record_rows",
        "repro.network.medium:CommAccounting.record_dropped",
        "repro.network.medium:CommAccounting.record_dropped_rows",
    ),
    "kernels": (
        "repro.kernels:batch_contributions",
        "repro.kernels:batch_deliver",
        "repro.kernels:batch_likelihood",
        "repro.kernels:batch_propagate",
        "repro.kernels:batch_propagate_ragged",
        "repro.kernels:concat_csr",
        "repro.kernels:link_uniform_many",
    ),
    "lockstep": (
        "repro.experiments.lockstep:run_lockstep",
        "repro.experiments.lockstep:partition_batchable",
    ),
    "core": ("repro.core.cdpf:CDPFTracker.step",),
    "baselines": (
        "repro.baselines.sdpf:SDPFTracker.step",
        "repro.baselines.cpf:CPFTracker.step",
    ),
    "config": (
        "repro.config.toml_io:loads_config",
        "repro.config.compile:compile_config",
    ),
    "checkpoint": ("repro.service.session:SessionCore.checkpoint",),
}


class Tracer:
    """In-memory span store.  Spans are recorded only inside a root span,
    so set-up work and untimed checks never enter the totals."""

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.layer: list[str] = []
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack: list[int] = []
        #: free-form counters filled by hooks (e.g. lock-step group sizes)
        self.counters: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, layer: str, name: str) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.layer.append(layer)
        self.name.append(name)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, kind: str):
        """A root span: one cell, step, pass or create of the workload."""
        sid = self._open(ROOT, kind)
        try:
            yield
        finally:
            self._close(sid)

    def dump(self, path) -> None:
        """Write the spans as JSON columns (times relative to the first span)."""
        import json

        t0 = self.start[0] if self.start else 0.0
        doc = {
            "parent": self.parent,
            "layer": self.layer,
            "name": self.name,
            "start_s": [round(t - t0, 7) for t in self.start],
            "end_s": [round(t - t0, 7) if t else None for t in self.end],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, fn, layer: str, name: str):
        """A span-recording stand-in for ``fn`` (generators stay generators)."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.stack:
                    return (yield from fn(*args, **kwargs))
                sid = tracer._open(layer, name)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    tracer._close(sid)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            sid = tracer._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return wrapper


@dataclass
class Installation:
    """The wrappers a traced run put in place, and how to take them out."""

    wrapped: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _rebind_everywhere(original, replacement, undo: list) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (modules that did ``from x import f`` hold their own
    reference).  Returns how many bindings changed."""
    n = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append(functools.partial(setattr, module, attr, original))
                n += 1
    return n


def _wrap_method(cls, attr: str, make, undo: list) -> bool:
    own = cls.__dict__.get(attr)
    fn = own if own is not None else getattr(cls, attr, None)
    if not inspect.isfunction(fn):
        return False
    setattr(cls, attr, make(fn))
    if own is not None:
        undo.append(functools.partial(setattr, cls, attr, own))
    else:
        undo.append(functools.partial(delattr, cls, attr))
    return True


def _lockstep_partition_hook(tracer: Tracer, fn):
    """Count lock-step group sizes and fallback cells as the engine routes
    them (read off ``partition_batchable``'s two output lists).  If a later
    change alters that output, the counters stay at 0 rather than failing
    the run."""

    @functools.wraps(fn)
    def wrapper(pending):
        routed = fn(pending)
        if tracer.stack:
            try:
                batchable, rest = routed
                groups = {(spec.task.density, spec.task.algorithm) for _, spec in batchable}
            except (AttributeError, TypeError, ValueError):
                return routed
            tracer.count("lockstep.groups", len(groups))
            tracer.count("lockstep.batched_cells", len(batchable))
            tracer.count("lockstep.fallback_cells", len(rest))
        return routed

    return wrapper


#: entry point -> hook(tracer, wrapped function) that also fills counters
HOOKS = {"repro.experiments.lockstep:partition_batchable": _lockstep_partition_hook}


def install(tracer: Tracer, entry_points: dict[str, tuple[str, ...]] = ENTRY_POINTS) -> Installation:
    """Wrap every entry point (with its :data:`HOOKS` entry, if any);
    missing ones are listed, never fatal."""
    inst = Installation()
    for layer, targets in entry_points.items():
        for target in targets:
            mod_name, _, qualname = target.partition(":")
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                inst.missing.append(target)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            hook = HOOKS.get(target, lambda _, fn: fn)

            def make(fn, layer=layer, name=qualname, hook=hook):
                return hook(tracer, tracer.wrap(fn, layer, name))

            if owner_name:
                owner = getattr(module, owner_name, None)
                ok = inspect.isclass(owner) and _wrap_method(owner, attr, make, inst._undo)
            else:
                original = getattr(module, attr, None)
                ok = inspect.isfunction(original)
                if ok:
                    ok = _rebind_everywhere(original, make(original), inst._undo) > 0
            (inst.wrapped if ok else inst.missing).append(target)
    return inst


@dataclass
class LayerTotals:
    """Self time and call counts of every layer under one kind of root."""

    roots: int = 0
    root_seconds: float = 0.0
    self_seconds: dict[str, float] = field(default_factory=dict)
    #: calls into a layer from a different layer (nested same-layer calls
    #: are part of the outer call's work, not new entries)
    entries: dict[str, int] = field(default_factory=dict)
    #: calls per entry-point name, nested or not
    calls: dict[str, int] = field(default_factory=dict)


def reduce_spans(tracer: Tracer) -> dict[str, LayerTotals]:
    """Per-root-kind layer totals from the recorded spans.

    One forward pass: a span's parent always has a smaller id (ids are
    allocated on entry), so child durations and root ancestry can be
    accumulated in id order.  Open spans (end == 0) are ignored.
    """
    n = len(tracer)
    child_seconds = [0.0] * n
    root_of = [-1] * n
    for sid in range(n):
        parent = tracer.parent[sid]
        root_of[sid] = sid if parent < 0 else root_of[parent]
        if parent >= 0 and tracer.end[sid]:
            child_seconds[parent] += tracer.end[sid] - tracer.start[sid]
    totals: dict[str, LayerTotals] = {}
    for sid in range(n):
        if not tracer.end[sid]:
            continue
        kind = tracer.name[root_of[sid]]
        bucket = totals.setdefault(kind, LayerTotals())
        layer = tracer.layer[sid]
        duration = tracer.end[sid] - tracer.start[sid]
        bucket.self_seconds[layer] = (
            bucket.self_seconds.get(layer, 0.0) + duration - child_seconds[sid]
        )
        if layer == ROOT:
            bucket.roots += 1
            bucket.root_seconds += duration
            continue
        name = tracer.name[sid]
        bucket.calls[name] = bucket.calls.get(name, 0) + 1
        parent = tracer.parent[sid]
        if tracer.layer[parent] != layer:
            bucket.entries[layer] = bucket.entries.get(layer, 0) + 1
    return totals
