"""Layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer in the
benchmark process only: module-level functions are rebound in their home
module *and* in every ``repro`` module that imported them by name
(``from repro.routing.spf import distances_to_all`` leaves a second
reference in the importer), and methods are replaced on their class.
Nothing in ``src/`` changes, and :meth:`Tracer.restore` undoes every
rebinding.

Each call becomes a span ``(layer, name, start, end, parent)`` kept in
memory.  A span's *self time* is its duration minus the time its direct
children cover; calls nest strictly on one thread, so the self times of
every span under a root span add up to the root's duration exactly.
The root is the benchmark's timed operation; its own self time is the
time spent in program code no wrapped layer covers (reported as layer
``other``), so unattributed time is visible rather than hidden.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "core.search",
    "core.evaluator",
    "routing.spf",
    "routing.incremental",
    "routing.soa",
    "routing.state",
    "costs.fortz",
    "costs.sla",
    "scenarios",
    "other",
)


class Tracer:
    """In-memory span recorder with function/method wrapping."""

    def __init__(self) -> None:
        # [layer, name, start, end, parent_index, outermost_of_name, outermost_of_layer]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._active_names: dict[str, int] = defaultdict(int)
        self._active_layers: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _enter(self, layer: str, name: str) -> list:
        record = [
            layer,
            name,
            0.0,
            0.0,
            self._stack[-1] if self._stack else -1,
            self._active_names[name] == 0,
            self._active_layers[layer] == 0,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._active_names[name] += 1
        self._active_layers[layer] += 1
        record[2] = perf_counter()
        return record

    def _exit(self, record: list) -> None:
        record[3] = perf_counter()
        self._stack.pop()
        self._active_names[record[1]] -= 1
        self._active_layers[record[0]] -= 1

    @contextmanager
    def root(self, name: str):
        """The timed operation every layer span nests under (layer ``other``)."""
        record = self._enter("other", name)
        try:
            yield
        finally:
            self._exit(record)

    def _wrapper(self, original, layer, name, on_call, layer_of):
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._enter(layer_of(args) if layer_of else layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(record)
            if on_call is not None:
                on_call(tracer.counts, result, args)
            return result

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap_function(self, module: str, attr: str, layer: str, on_call=None) -> None:
        """Rebind ``module.attr`` everywhere a ``repro`` module holds it."""
        original = getattr(importlib.import_module(module), attr)
        traced = self._wrapper(original, layer, attr, on_call, None)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and getattr(
                mod, attr, None
            ) is original:
                setattr(mod, attr, traced)
                self._patches.append((mod, attr, original))

    def wrap_method(self, cls, attr: str, layer: str, on_call=None, layer_of=None) -> None:
        """Replace ``cls.attr``; ``layer_of(args)`` may pick the layer per call."""
        original = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        setattr(cls, attr, self._wrapper(original, layer, name, on_call, layer_of))
        self._patches.append((cls, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def ledger(self) -> dict:
        """Self time per layer, busy time and calls per span name and layer."""
        covered = [0.0] * len(self.spans)
        for layer, name, start, end, parent, _on, _ol in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        self_span: dict[str, float] = defaultdict(float)
        busy_name: dict[str, float] = defaultdict(float)
        calls_name: dict[str, int] = defaultdict(int)
        busy_layer: dict[str, float] = defaultdict(float)
        wall = 0.0
        for index, (layer, name, start, end, parent, outer_name, outer_layer) in enumerate(
            self.spans
        ):
            duration = end - start
            self_s[layer] += duration - covered[index]
            self_span[f"{layer}/{name}"] += duration - covered[index]
            calls_name[name] += 1
            if outer_name:
                busy_name[name] += duration
            if outer_layer:
                busy_layer[layer] += duration
            if parent < 0:
                wall += duration
        return {
            "self_s": self_s,
            "self_span": self_span,
            "busy_name": busy_name,
            "calls_name": calls_name,
            "busy_layer": busy_layer,
            "wall_s": wall,
        }


# ----------------------------------------------------------------------
# The in-process layer map
# ----------------------------------------------------------------------
def _count_rows(counts, result, _args) -> None:
    counts["soa.rows"] += result.shape[0]


def _count_derive(counts, result, _args) -> None:
    counts["incremental.derives"] += 1
    counts["incremental.affected"] += result[1].size


def _count_engine_derive(counts, _result, args) -> None:
    # SweepEngine._derive_routing(self, cls, projection, projected, affected)
    counts["incremental.derives"] += 1
    counts["incremental.affected"] += args[4].size


def install_inprocess(tracer: Tracer) -> list:
    """Wrap every layer entry point; returns the evaluators created after."""
    from repro.core.evaluator import DualTopologyEvaluator
    from repro.routing.state import Routing
    from repro.scenarios.batch import SweepEngine

    evaluators: list = []
    tracer.wrap_method(
        DualTopologyEvaluator,
        "__init__",
        "core.evaluator",
        on_call=lambda _counts, _result, args: evaluators.append(args[0]),
    )
    tracer.wrap_function("repro.core.str_search", "_optimize_str_impl", "core.search")
    tracer.wrap_function("repro.core.dtr_search", "_optimize_dtr_impl", "core.search")
    tracer.wrap_method(DualTopologyEvaluator, "evaluate", "core.evaluator")
    # The SLA delay fold runs inside the high-layer build; in SLA mode that
    # method's self time is the fold (sla.fold_s), in load mode it is
    # evaluator bookkeeping.
    tracer.wrap_method(
        DualTopologyEvaluator,
        "_build_high_layer",
        "core.evaluator",
        layer_of=lambda args: "costs.sla" if args[0].mode == "sla" else "core.evaluator",
    )
    for fn in ("distances_to_all", "distances_to_subset", "distances_to_subsets_batched"):
        tracer.wrap_function("repro.routing.spf", fn, "routing.spf")
    tracer.wrap_function(
        "repro.routing.incremental", "derive_routing", "routing.incremental", _count_derive
    )
    tracer.wrap_function("repro.routing.incremental", "affected_destinations", "routing.incremental")
    tracer.wrap_function(
        "repro.routing.incremental", "destinations_using_links", "routing.incremental"
    )
    tracer.wrap_method(SweepEngine, "_derive_routing", "routing.incremental", _count_engine_derive)
    tracer.wrap_function("repro.routing.soa", "build_arrays_and_schedule", "routing.soa")
    tracer.wrap_function("repro.routing.soa", "build_schedule", "routing.soa")
    tracer.wrap_function("repro.routing.soa", "accumulate_rows", "routing.soa", _count_rows)
    tracer.wrap_method(Routing, "__init__", "routing.state")
    tracer.wrap_method(Routing, "destination_rows", "routing.state")
    tracer.wrap_method(Routing, "pair_fraction_rows", "routing.state")
    tracer.wrap_function("repro.costs.fortz", "fortz_cost_vector", "costs.fortz")
    tracer.wrap_function("repro.costs.load_cost", "load_cost_from_loads", "costs.fortz")
    tracer.wrap_function("repro.costs.sla", "link_delays_ms", "costs.sla")
    tracer.wrap_function("repro.costs.sla", "sla_cost_from_loads", "costs.sla")
    tracer.wrap_method(SweepEngine, "evaluate_streaming", "scenarios")
    tracer.wrap_method(SweepEngine, "evaluate", "scenarios")
    tracer.wrap_function("repro.scenarios.spaces", "sweep_scenario_space", "scenarios")
    return evaluators


def layer_metrics(ledger: dict, counts: dict) -> dict:
    """The per-layer metrics one in-process traced operation yields."""
    busy = ledger["busy_name"]
    calls = ledger["calls_name"]
    self_s = ledger["self_s"]
    evaluate_calls = calls.get("DualTopologyEvaluator.evaluate", 0)
    evaluate_busy = busy.get("DualTopologyEvaluator.evaluate", 0.0)
    derives = counts.get("incremental.derives", 0.0)
    spf_names = ("distances_to_all", "distances_to_subset", "distances_to_subsets_batched")
    out = {
        "search.self_s": self_s["core.search"],
        "evaluator.busy_s": evaluate_busy,
        "evaluator.us_per_call": 1e6 * evaluate_busy / evaluate_calls if evaluate_calls else 0.0,
        "evaluator.self_s": self_s["core.evaluator"],
        "spf.calls": float(sum(calls.get(n, 0) for n in spf_names)),
        "spf.busy_s": ledger["busy_layer"].get("routing.spf", 0.0),
        "incremental.derives": derives,
        "incremental.affected_mean": counts.get("incremental.affected", 0.0) / derives
        if derives
        else 0.0,
        "incremental.busy_s": ledger["busy_layer"].get("routing.incremental", 0.0),
        "soa.build_s": busy.get("build_arrays_and_schedule", 0.0) + busy.get("build_schedule", 0.0),
        "soa.accumulate_s": busy.get("accumulate_rows", 0.0),
        "soa.rows": counts.get("soa.rows", 0.0),
        "routing.pair_fraction_s": busy.get("Routing.pair_fraction_rows", 0.0),
        "fortz.busy_s": busy.get("fortz_cost_vector", 0.0),
        "sla.delay_s": busy.get("link_delays_ms", 0.0),
        "sla.fold_s": ledger["self_span"].get("costs.sla/DualTopologyEvaluator._build_high_layer", 0.0),
        "scenarios.busy_s": ledger["busy_layer"].get("scenarios", 0.0),
        "ledger.wall_s": ledger["wall_s"],
    }
    for layer in LAYERS:
        out[f"self_s.{layer}"] = self_s[layer]
    return out
