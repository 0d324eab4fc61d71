"""Per-layer self time, measured from outside the package.

:class:`LayerTracer` replaces each layer's public entry points on their
classes (or, for ``build_trace``, on the module that calls it) with timing
wrappers.  It must be installed before any simulator is built:
``OOOCore.run_span`` and ``CatchEngine.attach`` bind bound methods at entry,
so a wrapper installed later would never be called.

Every wrapped call is a span.  A span's *self time* is its duration minus
the time covered by the wrapped calls made inside it, so the layers' self
times add up to the traced time without double counting.  Spans are
aggregated in memory per (config/workload pair, layer) and per thread; the
coarse layers (``COARSE``) are also kept as individual complete events and
written once, at the end, in the Chrome trace-event format that
``--trace-out`` emits (:class:`repro.obs.trace.TraceCollector`).  The hot
layers (millions of calls) are aggregated only.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path

#: (layer name, module, owner attribute or None, function attribute).
#: Layer names are the per-layer metric prefixes of BENCHMARK.json.
LAYERS = (
    ("workloads.build_trace", "repro.sim.simulator", None, "build_trace"),
    ("sim.Simulator.run", "repro.sim.simulator", "Simulator", "run"),
    ("cpu.OOOCore.run_span", "repro.cpu.core", "OOOCore", "run_span"),
    ("caches.CacheHierarchy.load", "repro.caches.hierarchy", "CacheHierarchy", "load"),
    ("caches.CacheHierarchy.store", "repro.caches.hierarchy", "CacheHierarchy", "store"),
    ("caches.CacheHierarchy.code_fetch", "repro.caches.hierarchy", "CacheHierarchy", "code_fetch"),
    ("caches.CacheHierarchy.prefetch_l1", "repro.caches.hierarchy", "CacheHierarchy", "prefetch_l1"),
    ("caches.CacheHierarchy.prefetch_l2", "repro.caches.hierarchy", "CacheHierarchy", "prefetch_l2"),
    ("core.BufferedDDG.add", "repro.core.ddg", "BufferedDDG", "add"),
    ("core.BufferedDDG.walk", "repro.core.ddg", "BufferedDDG", "walk"),
    ("core.CriticalLoadTable.tick_retire", "repro.core.critical_table", "CriticalLoadTable", "tick_retire"),
    ("tact.TACTCoordinator.on_load_execute", "repro.core.tact.coordinator", "TACTCoordinator", "on_load_execute"),
    ("tact.TACTCoordinator.on_execute", "repro.core.tact.coordinator", "TACTCoordinator", "on_execute"),
    ("tact.TACTCoordinator.on_code_miss", "repro.core.tact.coordinator", "TACTCoordinator", "on_code_miss"),
    ("runner.ExperimentRunner.run", "repro.runner.runner", "ExperimentRunner", "run"),
    ("runner.ResultStore.get", "repro.runner.store", "ResultStore", "get"),
    ("runner.ResultStore.put", "repro.runner.store", "ResultStore", "put"),
    ("cache.ResultCache.lookup", "repro.cache.result_cache", "ResultCache", "lookup"),
    ("cache.ResultCache.put", "repro.cache.result_cache", "ResultCache", "put"),
)

#: Layers whose every span is also kept as a trace event.
COARSE = frozenset({
    "workloads.build_trace", "sim.Simulator.run", "cpu.OOOCore.run_span",
    "runner.ExperimentRunner.run", "runner.ResultStore.get",
    "runner.ResultStore.put", "cache.ResultCache.lookup",
    "cache.ResultCache.put",
})

#: Spans outside any ``ExperimentRunner.run`` (admission-time cache
#: lookups in the daemon, the benchmark's own cache fills) land here.
NO_PAIR = "-"


def _runner_pair(args) -> str:
    # ExperimentRunner.run(self, config, workload, n_instrs)
    return f"{args[1].name}/{args[2]}"


class _ThreadState:
    __slots__ = ("stack", "pair", "acc")

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.pair = NO_PAIR
        self.acc: dict[tuple[str, str], list] = {}


class LayerTracer:
    """Installs timing wrappers on the layer entry points listed in LAYERS."""

    def __init__(self) -> None:
        from repro.obs.trace import TraceCollector

        self.collector = TraceCollector()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    # ------------------------------------------------------------ install

    def install(self) -> "LayerTracer":
        import importlib

        for layer, module_name, owner_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            pair_of = _runner_pair if layer == "runner.ExperimentRunner.run" else None
            setattr(owner, attr, self._wrap(original, layer, pair_of))
            self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, layer: str, pair_of):
        clock = time.perf_counter
        state_of = self._state
        collector = self.collector if layer in COARSE else None
        tid = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            outer_pair = state.pair
            pair = pair_of(args) if pair_of is not None else outer_pair
            state.pair = pair
            stack.append(0.0)
            ts_us = collector.now_us() if collector is not None else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                state.pair = outer_pair
                rec = state.acc.get((pair, layer))
                if rec is None:
                    rec = state.acc[(pair, layer)] = [0, 0.0]
                rec[0] += 1
                rec[1] += dur - child
                if collector is not None:
                    collector.complete(
                        layer, ts_us, dur * 1e6, cat=layer.split(".")[0],
                        args={"pair": pair, "self_us": (dur - child) * 1e6},
                        tid=tid() % 1_000_000,
                    )

        return wrapper

    # ------------------------------------------------------------- report

    def pair_table(self) -> dict:
        """``{pair: {layer: {"calls": n, "self_s": s}}}`` over all threads."""
        table: dict[str, dict[str, dict]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for (pair, layer), (calls, self_s) in list(state.acc.items()):
                cell = table.setdefault(pair, {}).setdefault(
                    layer, {"calls": 0, "self_s": 0.0}
                )
                cell["calls"] += calls
                cell["self_s"] += self_s
        return table

    def write(self, directory: Path, stem: str) -> dict:
        """Write ``<stem>.trace.json`` and ``<stem>.layers.json``; return the table."""
        directory.mkdir(parents=True, exist_ok=True)
        self.collector.write(directory / f"{stem}.trace.json")
        table = self.pair_table()
        (directory / f"{stem}.layers.json").write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n"
        )
        return table


def layer_totals(*tables: dict) -> dict:
    """Sum pair tables over pairs: ``{layer: {"calls", "self_s"}}``."""
    totals = {layer: {"calls": 0, "self_s": 0.0} for layer, *_ in LAYERS}
    for table in tables:
        for layers in table.values():
            for layer, cell in layers.items():
                totals[layer]["calls"] += cell["calls"]
                totals[layer]["self_s"] += cell["self_s"]
    return totals
