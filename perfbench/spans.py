"""Span tracing of the program's layers, installed from outside.

The traced process wraps the public callables of each layer (listed in
:data:`LAYER_CALLABLES`) with :meth:`SpanRecorder.wrap`.  Each call becomes
a span holding its name, parent span, start and end (wall clock) and CPU
time at both ends; spans stay in memory until :meth:`SpanRecorder.dump`.
The untraced process imports nothing from this module and installs
nothing, so its timings carry no tracing cost.

A span's *self time* is its duration minus the durations of its direct
children; summed over a tree it equals the root's duration, so no time is
counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

NO_PARENT = -1


def self_times(parents, durations) -> list[float]:
    """Self time of each span given its parent index and its duration.

    ``parents[i]`` is the index of span ``i``'s parent or ``NO_PARENT``;
    a parent must precede its children.
    """
    child_total = [0.0] * len(durations)
    for index, parent in enumerate(parents):
        if parent != NO_PARENT:
            child_total[parent] += durations[index]
    return [d - c for d, c in zip(durations, child_total)]


class SpanRecorder:
    """In-memory span store plus the counters the layer hooks add to.

    Spans are recorded only while :attr:`phase` is set; :meth:`begin`
    starts a phase, and each phase remembers the span range it covers.
    Counters cover the current phase only.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.cpu_start = array("d")
        self.cpu_end = array("d")
        self.phases: dict[str, tuple[int, int]] = {}
        self.phase: str | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------

    def begin(self, phase: str | None) -> None:
        """Close the current phase and start ``phase`` (None stops recording).

        Counters and key sets restart with each phase and survive its end;
        spans are kept.
        """
        if self.phase is not None:
            first, _ = self.phases[self.phase]
            self.phases[self.phase] = (first, len(self.parent))
        self.phase = phase
        if phase is not None:
            self.phases[phase] = (len(self.parent), len(self.parent))
            self.counters.clear()
            self.keys.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span named ``name`` per call.

        ``hook(recorder, args, kwargs, result)`` runs after a recorded
        call returns, to add counts taken where the work happens.
        """
        name_id = self._name_id(name)
        recorder = self
        clock, cpu = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if recorder.phase is None:
                return fn(*args, **kwargs)
            stack = recorder._stack
            index = len(recorder.parent)
            recorder.name_of.append(name_id)
            recorder.parent.append(stack[-1] if stack else NO_PARENT)
            recorder.end.append(0.0)
            recorder.cpu_end.append(0.0)
            stack.append(index)
            recorder.cpu_start.append(cpu())
            recorder.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end[index] = clock()
                recorder.cpu_end[index] = cpu()
                stack.pop()
            if hook is not None:
                hook(recorder, args, kwargs, result)
            return result

        return traced

    # -- reading -------------------------------------------------------

    def totals(self, phase: str) -> "SpanTotals":
        """Per-name self and inclusive time over one phase's spans."""
        return SpanTotals(self, range(*self.phases.get(phase, (0, 0))))

    def dump(self, path) -> None:
        """Write every recorded span, column by column, as gzipped JSON."""
        columns = {
            "names": self.names,
            "phases": self.phases,
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "cpu_s": [e - s for s, e in zip(self.cpu_start, self.cpu_end)],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(columns, handle)


class SpanTotals:
    """Aggregates of one contiguous span range."""

    def __init__(self, recorder: SpanRecorder, spans: range):
        offset = spans.start
        durations = [recorder.end[i] - recorder.start[i] for i in spans]
        parents = [
            recorder.parent[i] - offset if recorder.parent[i] >= offset else NO_PARENT
            for i in spans
        ]
        self.durations = durations
        self.parents = parents
        self.selfs = self_times(parents, durations)
        self.names = [recorder.names[recorder.name_of[i]] for i in spans]

    def count(self, *names: str) -> int:
        return sum(1 for n in self.names if n in names)

    def self_s(self, *names: str) -> float:
        """Summed self time of the spans named."""
        return sum(s for n, s in zip(self.names, self.selfs) if n in names)

    def inclusive_s(self, *names: str, within: tuple = ()) -> float:
        """Wall time covered by the spans named, counting nested ones once.

        With ``within``, only spans below a span named in ``within`` count.
        """
        wanted = set(names)
        inside = set(within)
        total = 0.0
        for index, name in enumerate(self.names):
            if name not in wanted:
                continue
            ancestor = self.parents[index]
            nested = False
            enclosed = not inside
            while ancestor != NO_PARENT:
                if self.names[ancestor] in wanted:
                    nested = True
                    break
                if self.names[ancestor] in inside:
                    enclosed = True
                ancestor = self.parents[ancestor]
            if not nested and enclosed:
                total += self.durations[index]
        return total

    def top_level_s(self) -> float:
        """Summed duration of spans without a recorded parent."""
        return sum(
            d for d, p in zip(self.durations, self.parents) if p == NO_PARENT
        )

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` whose parent is named ``parent_name``."""
        return sum(
            1
            for n, p in zip(self.names, self.parents)
            if n == child_name and p != NO_PARENT and self.names[p] == parent_name
        )


# -- hooks: counts taken at the layer boundary ---------------------------


def _map_bytes(recorder, args, kwargs, result):
    recorder.counters["workloads.map_bytes"] += sum(
        getattr(result, a).nbytes
        for a in ("omap", "imap", "sensitive_counts")
        if hasattr(result, a)
    )


def _accelerator_layers(recorder, args, kwargs, result):
    accelerator, model = args[0], args[1]
    layers = model.conv_layers if model.domain == "cnn" else model.rnn_layers
    cfg = accelerator.config
    stage = (
        cfg.enable_output_switching,
        cfg.enable_input_switching,
        cfg.enable_adaptive_mapping,
    )
    backbone = model.name.split("@")[0]  # truncated exit specs share it
    seed = accelerator.sparsity.seed
    recorder.counters["sim.layers"] += len(layers)
    recorder.keys["dynamic.unique_layers"].update(
        (backbone, index, seed, stage) for index in range(len(layers))
    )


def _injected(recorder, args, kwargs, result):
    context = args[0]
    if context.layers:
        recorder.counters["reliability.injected"] += sum(
            context.layers[-1].injected.values()
        )


def _served(entry):
    def hook(recorder, args, kwargs, result):
        recorder.counters[f"serving.requests.{entry}"] += len(result.records)
        recorder.counters["serving.rejected"] += result.summary.rejected
        if entry == "faulttol":
            recorder.counters["serving.attempts"] += sum(r.attempts for r in result.records)

    return hook


def _disk_bytes(recorder, args, kwargs, result):
    cache, key = args[0], args[1]
    try:
        size = cache._path(key).stat().st_size
    except OSError:
        return  # a failed put wrote nothing
    recorder.counters["core.disk_bytes_written"] += size


#: (span name, module, owner, attributes, hook).  ``owner`` is a class
#: name or None for module-level functions; attribute ``"*"`` means every
#: public method the class defines.
LAYER_CALLABLES = (
    ("workloads.maps", "repro.workloads.sparsity", "SparsityModel",
     ("cnn_layer", "rnn_layer", "fc_layer"), _map_bytes),
    ("workloads.window", "repro.workloads.sparsity", "CnnLayerWorkload",
     ("position_cycles", "channel_tile_cycles_fast",
      "channel_tile_switch_counts_fast", "executed_macs_total"), None),
    ("sim.executor", "repro.sim.executor", "ExecutorModel", ("*",), None),
    ("sim.speculator", "repro.sim.speculator", "SpeculatorModel", ("*",), None),
    ("sim.tiling", "repro.sim.tiling", None, ("choose_tiling_cached",), None),
    ("sim.memory", "repro.sim.dram", "Dram", ("read", "write", "read_bulk"), None),
    ("sim.memory", "repro.sim.glb", "GlobalBuffer", ("read",), None),
    ("sim.pipeline", "repro.sim.pipeline", "CnnPipeline", ("run",), None),
    ("sim.pipeline", "repro.sim.pipeline", "RnnPipeline", ("run",), None),
    ("sim.accelerator", "repro.sim.accelerator", "DuetAccelerator", ("run",),
     _accelerator_layers),
    ("reliability.guard", "repro.reliability.context", "ReliabilityContext",
     ("process_cnn_workload",), None),
    ("reliability.guard", "repro.reliability.context", "ReliabilityContext",
     ("finalize_layer",), _injected),
    ("batching.sample", "repro.sim.batching", "BatchExecutor", ("sample_report",), None),
    ("batching.execute", "repro.sim.batching", "BatchExecutor", ("execute",), None),
    ("batching.execute", "repro.dynamic.executor", "DynamicBatchExecutor",
     ("execute",), None),
    ("sharding.execute", "repro.sim.sharding", "ShardedExecutor", ("execute",), None),
    ("sharding.execute", "repro.dynamic.executor", "DynamicShardedExecutor",
     ("execute",), None),
    ("dynamic.decide", "repro.dynamic.decision", None, ("decide_exit",), None),
    ("dynamic.exit_table", "repro.dynamic.costmodel", "ExitCostModel",
     ("exit_table",), None),
    ("serving.loadgen", "repro.serving.loadgen", None, ("generate_trace",), None),
    ("serving.server", "repro.serving.server", None, ("simulate_serving",),
     _served("server")),
    ("serving.faulttol", "repro.serving.faulttol", None, ("simulate_chaos",),
     _served("faulttol")),
    ("serving.fleet", "repro.serving.fleet", None, ("simulate_fleet",),
     _served("fleet")),
    ("serving.slo", "repro.serving.slo", None, ("summarize",), None),
    ("nn.train", "repro.models.proxies", None, ("train_classifier",), None),
    ("core.build", "repro.models.dualize", "DualizedCNN", ("build",), None),
    ("core.set_thresholds", "repro.models.dualize", "DualizedCNN",
     ("set_thresholds_by_fraction",), None),
    ("core.forward", "repro.models.dualize", "DualizedCNN", ("forward",), None),
    ("core.disk_put", "repro.core.cache", "PersistentCache", ("put_array",),
     _disk_bytes),
)


def _rebind_everywhere(original, replacement) -> None:
    """Point every loaded module's global bound to ``original`` at
    ``replacement`` (``from m import f`` copies the binding)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: SpanRecorder) -> None:
    """Wrap every callable of :data:`LAYER_CALLABLES`.

    Process-wide and permanent: call it only in the traced process.
    """
    for span_name, module_name, owner, attrs, hook in LAYER_CALLABLES:
        module = importlib.import_module(module_name)
        if owner is None:
            for attr in attrs:
                original = getattr(module, attr)
                _rebind_everywhere(original, recorder.wrap(span_name, original, hook))
            continue
        cls = getattr(module, owner)
        if attrs == ("*",):
            attrs = tuple(
                a for a, v in vars(cls).items()
                if inspect.isfunction(v) and not a.startswith("_")
            )
        for attr in attrs:
            original = vars(cls)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(span_name, original.__func__, hook))
            else:
                wrapped = recorder.wrap(span_name, original, hook)
            setattr(cls, attr, wrapped)


def layer_metrics(recorder: SpanRecorder, measurement, cache_before: dict,
                  cache_after: dict) -> dict:
    """Every per-layer metric of a traced run, by name.

    ``*_self_s`` and the leaf-layer times (workloads, sim units, guards)
    are self times; the others are inclusive wall time of the callables,
    counting nested calls once.  Set-up spans feed only ``serving.loadgen_s``
    and ``nn.train_s``.
    """
    from stats import cache_delta, hit_ratio

    setup, timed = recorder.totals("setup"), recorder.totals("timed")
    counters, keys = recorder.counters, recorder.keys
    caches = cache_delta(cache_before, cache_after)

    def ratio(num, den):
        return num / den if den else 0.0

    layers = counters["sim.layers"]
    sample_calls = timed.count("batching.sample")
    accel_runs = timed.children_named("batching.sample", "sim.accelerator")
    unique = len(keys["dynamic.unique_layers"])
    entries = ("serving.server", "serving.faulttol", "serving.fleet")
    requests = {e: counters[f"serving.requests.{e}"] for e in ("server", "faulttol", "fleet")}
    served = sum(requests.values())
    selfs = {e: timed.self_s(f"serving.{e}") for e in requests}
    return {
        "workloads.maps_s": timed.self_s("workloads.maps"),
        "workloads.map_mb": counters["workloads.map_bytes"] / 2**20,
        "workloads.window_s": timed.self_s("workloads.window"),
        "sim.executor_s": timed.self_s("sim.executor"),
        "sim.speculator_s": timed.self_s("sim.speculator"),
        "sim.tiling_s": timed.self_s("sim.tiling"),
        "sim.memory_s": timed.self_s("sim.memory"),
        "sim.pipeline_self_s": timed.self_s("sim.pipeline"),
        "sim.layers": layers,
        "sim.us_per_layer": ratio(timed.inclusive_s("sim.pipeline"), layers) * 1e6,
        "reliability.guard_s": timed.self_s("reliability.guard"),
        "reliability.injected": counters["reliability.injected"],
        "batching.sample_calls": sample_calls,
        "batching.accel_runs": accel_runs,
        "batching.memo_hit_ratio": ratio(sample_calls - accel_runs, sample_calls),
        "batching.sample_s": timed.inclusive_s("batching.sample"),
        "sharding.execute_s": timed.inclusive_s("sharding.execute"),
        "dynamic.decide_s": timed.inclusive_s("dynamic.decide"),
        "dynamic.exit_table_s": timed.inclusive_s("dynamic.exit_table"),
        "dynamic.layers_simulated": layers,
        "dynamic.unique_layers": unique,
        "dynamic.useful_layer_ratio": ratio(unique, layers),
        "serving.loadgen_s": setup.inclusive_s("serving.loadgen"),
        "serving.server_self_s": selfs["server"],
        "serving.faulttol_self_s": selfs["faulttol"],
        "serving.fleet_self_s": selfs["fleet"],
        "serving.exec_s": timed.inclusive_s(
            "batching.execute", "sharding.execute", within=entries
        ),
        "serving.slo_s": timed.inclusive_s("serving.slo"),
        "serving.server_us_per_req": ratio(selfs["server"], requests["server"]) * 1e6,
        "serving.faulttol_us_per_req": ratio(selfs["faulttol"], requests["faulttol"]) * 1e6,
        "serving.fleet_us_per_req": ratio(selfs["fleet"], requests["fleet"]) * 1e6,
        "serving.requests": served,
        "serving.rejected_ratio": ratio(counters["serving.rejected"], served),
        "serving.attempts_per_req": ratio(counters["serving.attempts"], requests["faulttol"]),
        "nn.train_s": setup.inclusive_s("nn.train"),
        "core.build_s": timed.inclusive_s("core.build"),
        "core.set_thresholds_s": timed.inclusive_s("core.set_thresholds"),
        "core.forward_s": timed.inclusive_s("core.forward"),
        "core.im2col_hit_ratio": hit_ratio(caches["im2col"]),
        "core.switching_hit_ratio": hit_ratio(caches["switching_map"]),
        "core.threshold_hit_ratio": hit_ratio(caches["threshold"]),
        "core.disk_hit_ratio": hit_ratio(caches["disk"]),
        "core.disk_mb_written": counters["core.disk_bytes_written"] / 2**20,
        "core.disk_evictions": caches["disk"]["evictions"],
        "core.disk_entries": caches["disk"]["entries"],
        "bench.unattributed_s": measurement.wall_s - timed.top_level_s(),
    }
