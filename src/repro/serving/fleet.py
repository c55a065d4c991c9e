"""Fleet-scale serving: a router over N sharded servers with SLO-class
priority scheduling and occupancy-driven autoscaling.

:func:`simulate_fleet` models the production tier above plain serving
(:mod:`repro.serving.server`), on the same discrete-event core
(:class:`~repro.serving.server.ServingLoop`) with its autoscaler layer on:

- **Servers are shard groups.**  Every server is one replica of the
  model placement: a group of simulated chips joined by a
  :class:`~repro.sim.sharding.ShardPlan` per model (pipeline or
  tensor split, GLB co-location), priced by one shared
  :class:`~repro.sim.sharding.ShardedExecutor` so every replica's
  cost model -- and its memoized per-sample reports -- agree.
- **The router schedules by SLO class.**  Each model maps to an
  :class:`SloClass` (a latency target and a priority, the
  latency-vs-quality service-class framing of D²NN, arXiv:1701.00299);
  the :class:`PriorityBatcher` always dispatches the highest-priority
  dispatchable queue, breaking ties by head arrival (FIFO fairness
  within a class).
- **The fleet autoscales on measured queue occupancy.**  At every
  evaluation interval the :class:`AutoscalerPolicy` compares pending
  depth / queue bound against its thresholds: sustained pressure spawns
  a new server (ready after a startup delay), sustained idleness
  retires an idle one; a cooldown keeps the loop from flapping.  Every
  decision is recorded as a scale event.
- **Clients can close the loop.**  Besides replaying open-loop traces,
  the fleet serves a
  :class:`~repro.serving.loadgen.ClosedLoopConfig` population whose
  members re-issue only after their previous request closed plus an
  exponential think pause.

Everything runs on the integer event clock and every quantity is a pure
function of (configuration, seeds): same inputs, byte-identical
:class:`FleetResult` (see ``tests/serving/test_fleet.py``).  Initial
fleet sizing comes from measured capacity -- see
:func:`initial_fleet_size` and the ``BENCH_serving.json`` feed in
:mod:`repro.bench.fleet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.dynamic.executor import DynamicShardedExecutor
from repro.serving.admission import AdmissionConfig
from repro.serving.batcher import BatchPolicy, DynamicBatcher
from repro.serving.loadgen import ClosedLoopConfig, TraceConfig
from repro.serving.overload import OverloadPolicy
from repro.serving.quality import QualityPolicy
from repro.serving.request import Request, RequestRecord
from repro.serving.server import ServingLoop
from repro.serving.slo import SloSummary, exit_account, percentile, summarize
from repro.sim.config import DuetConfig
from repro.sim.sharding import ShardedExecutor

__all__ = [
    "AutoscalerPolicy",
    "FleetConfig",
    "FleetResult",
    "PriorityBatcher",
    "SloClass",
    "DEFAULT_SLO_CLASSES",
    "initial_fleet_size",
    "simulate_fleet",
]


@dataclass(frozen=True)
class SloClass:
    """One service class: a latency target and a scheduling priority.

    Attributes:
        name: class label (e.g. ``"interactive"``).
        target_ms: end-to-end latency target; completions within it
            count as goodput.
        priority: scheduling rank, lower dispatches first.
        sheddable: whether the quality axis may serve this class at
            early exits under pressure; non-sheddable classes always run
            full depth regardless of the fleet's quality policy.
    """

    name: str
    target_ms: float
    priority: int = 0
    sheddable: bool = True

    def __post_init__(self):
        if not self.name:
            raise ValueError("SloClass.name must be non-empty")
        if self.target_ms <= 0:
            raise ValueError(
                f"SloClass.target_ms must be positive, got {self.target_ms}"
            )
        if self.priority < 0:
            raise ValueError(
                f"SloClass.priority must be >= 0, got {self.priority}"
            )


#: Default service classes: latency-sensitive interactive traffic ahead
#: of throughput-oriented bulk traffic.
DEFAULT_SLO_CLASSES = (
    SloClass(name="interactive", target_ms=30.0, priority=0),
    SloClass(name="bulk", target_ms=200.0, priority=1),
)


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Occupancy-driven scale-out/in policy.

    Attributes:
        min_servers / max_servers: fleet-size bounds (scaling disabled
            when equal).
        scale_out_occupancy: queue occupancy (pending depth / queue
            bound) above which an evaluation requests a new server; the
            default matches the overload ladder's first shedding
            threshold, so capacity grows as soon as quality starts
            degrading.
        scale_in_occupancy: occupancy below which an evaluation retires
            an idle server.
        eval_interval_us: evaluation period in simulated microseconds.
        cooldown_evals: evaluations that must pass after a scale
            decision before the next one (anti-flapping).
        startup_us: delay between requesting a server and it joining
            the idle pool (model load + warmup).
    """

    min_servers: int = 1
    max_servers: int = 4
    scale_out_occupancy: float = 0.5
    scale_in_occupancy: float = 0.15
    eval_interval_us: float = 1000.0
    cooldown_evals: int = 2
    startup_us: float = 5000.0

    def __post_init__(self):
        if self.min_servers < 1:
            raise ValueError(
                f"AutoscalerPolicy.min_servers must be >= 1, got "
                f"{self.min_servers}"
            )
        if self.max_servers < self.min_servers:
            raise ValueError(
                f"AutoscalerPolicy.max_servers ({self.max_servers}) must be "
                f">= min_servers ({self.min_servers})"
            )
        if not 0.0 < self.scale_out_occupancy <= 1.0:
            raise ValueError(
                f"AutoscalerPolicy.scale_out_occupancy must be in (0, 1], "
                f"got {self.scale_out_occupancy}"
            )
        if not 0.0 <= self.scale_in_occupancy < self.scale_out_occupancy:
            raise ValueError(
                "AutoscalerPolicy.scale_in_occupancy must be in [0, "
                f"scale_out_occupancy), got {self.scale_in_occupancy}"
            )
        if self.eval_interval_us <= 0:
            raise ValueError(
                f"AutoscalerPolicy.eval_interval_us must be positive, got "
                f"{self.eval_interval_us}"
            )
        if self.cooldown_evals < 0:
            raise ValueError(
                f"AutoscalerPolicy.cooldown_evals must be >= 0, got "
                f"{self.cooldown_evals}"
            )
        if self.startup_us < 0:
            raise ValueError(
                f"AutoscalerPolicy.startup_us must be >= 0, got "
                f"{self.startup_us}"
            )

    @classmethod
    def fixed(cls, servers: int) -> "AutoscalerPolicy":
        """A policy that pins the fleet at exactly ``servers`` replicas."""
        return cls(min_servers=servers, max_servers=servers)

    @property
    def enabled(self) -> bool:
        """Whether the fleet size can actually change."""
        return self.max_servers > self.min_servers


def initial_fleet_size(
    rate_rps: float, server_capacity_rps: float, policy: AutoscalerPolicy
) -> int:
    """Servers to start with, from offered load and measured capacity.

    The placement feed: ``server_capacity_rps`` comes from the measured
    ``BENCH_serving.json`` batched-capacity scenario (see
    :func:`repro.bench.fleet.serving_capacity_rps`), and the initial
    fleet covers the offered rate at that capacity, clamped to the
    autoscaler's bounds.

    Args:
        rate_rps: offered arrival rate.
        server_capacity_rps: measured per-server completion capacity.
        policy: the fleet's autoscaler bounds.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    if server_capacity_rps <= 0:
        raise ValueError(
            f"server_capacity_rps must be positive, got {server_capacity_rps}"
        )
    needed = math.ceil(rate_rps / server_capacity_rps)
    return min(max(needed, policy.min_servers), policy.max_servers)


class PriorityBatcher(DynamicBatcher):
    """A :class:`~repro.serving.batcher.DynamicBatcher` that dispatches
    by SLO-class priority.

    Among dispatchable model queues the one whose class has the lowest
    priority rank wins; within a rank, the oldest head arrival (the
    parent's FIFO-fairness rule); remaining ties break on the model
    name for full determinism.

    Args:
        policy: dispatch policy.
        clock_hz: simulated clock.
        priorities: model name -> priority rank (missing models rank
            after every explicit entry).
    """

    def __init__(
        self,
        policy: BatchPolicy | None = None,
        clock_hz: float = 1e9,
        priorities: dict | None = None,
    ):
        super().__init__(policy, clock_hz=clock_hz)
        self.priorities = dict(priorities) if priorities else {}
        self._default_rank = (
            max(self.priorities.values()) + 1 if self.priorities else 0
        )

    def _rank(self, model: str, queue):
        return (
            self.priorities.get(model, self._default_rank),
            queue[0].arrival_cycle,
            model,
        )


@dataclass(frozen=True)
class FleetConfig:
    """Full configuration of the fleet tier.

    Attributes:
        slo_classes: the service classes (distinct names).
        model_classes: model name -> SLO-class name; unmapped models
            fall into the *last* (lowest-priority) class.
        plans: model name -> :class:`~repro.sim.sharding.ShardPlan`
            applied on every server; unmapped models run single-chip.
        colocate: partition each chip's GLB across the mapped models
            (:func:`~repro.sim.sharding.glb_partition`).
        batch: the router's dynamic-batching policy.
        admission: the router's admission knobs (queue bound, rate
            limit).
        overload: occupancy -> degradation-rung policy.
        quality: occupancy -> early-exit-threshold policy (the depth
            axis; disabled by default).  Applies to single-chip models
            of SLO classes marked ``sheddable``; sharded models always
            run full depth.
        autoscaler: fleet sizing policy.
        initial_servers: servers active at cycle 0 (clamped into the
            autoscaler's bounds by :func:`simulate_fleet`).
        hardware: per-chip accelerator configuration.
    """

    slo_classes: tuple = DEFAULT_SLO_CLASSES
    model_classes: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    colocate: bool = False
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    overload: OverloadPolicy = field(default_factory=OverloadPolicy)
    quality: QualityPolicy = field(default_factory=QualityPolicy.disabled)
    autoscaler: AutoscalerPolicy = field(default_factory=AutoscalerPolicy)
    initial_servers: int = 1
    hardware: DuetConfig = field(default_factory=DuetConfig)

    def __post_init__(self):
        if not self.slo_classes:
            raise ValueError("FleetConfig.slo_classes must be non-empty")
        names = [c.name for c in self.slo_classes]
        if len(set(names)) != len(names):
            raise ValueError(
                f"FleetConfig.slo_classes names must be distinct, got {names}"
            )
        known = set(names)
        for model, cls in self.model_classes.items():
            if cls not in known:
                raise ValueError(
                    f"model {model!r} mapped to unknown SLO class {cls!r} "
                    f"(have {sorted(known)})"
                )
        if self.initial_servers < 1:
            raise ValueError(
                f"FleetConfig.initial_servers must be >= 1, got "
                f"{self.initial_servers}"
            )

    def slo_class_for(self, model: str) -> SloClass:
        """The SLO class serving ``model``."""
        by_name = {c.name: c for c in self.slo_classes}
        name = self.model_classes.get(model)
        if name is None:
            return self.slo_classes[-1]
        return by_name[name]


@dataclass
class FleetResult:
    """Everything one fleet run produced.

    Attributes:
        config: the fleet configuration.
        records: one closed record per request, in rid order.
        summary: the fleet-wide SLO account.
        per_class: SLO-class name -> its class-level account (offered,
            completed, goodput counters, latency percentiles, target).
        goodput_rps: completions *within their class target* per
            simulated second.
        scale_events: autoscaler decisions, in decision order; each has
            ``cycle``, ``action`` (``"scale_out"``/``"scale_in"``),
            ``occupancy``, and ``servers`` (active + starting after the
            decision).
        server_stats: per-server account -- ``spawn_cycle``,
            ``active_cycles``, and per-shard ``busy_cycles``.
        shard_utilization: fleet-mean busy fraction of the busiest
            shard of each server that saw traffic.
        peak_servers: most servers ever active or starting at once.
        max_queue_depth: deepest the router queue ever got.
        simulated_cycles: cycle of the last event.
    """

    config: FleetConfig
    records: list[RequestRecord]
    summary: SloSummary
    per_class: dict
    goodput_rps: float
    scale_events: list
    server_stats: list
    shard_utilization: float
    peak_servers: int
    max_queue_depth: int
    simulated_cycles: int


def _class_accounts(config: FleetConfig, records, summary, clock_hz):
    """Per-SLO-class accounts and the fleet's within-target goodput."""
    duration_s = (
        summary.duration_ms / 1e3 if summary.duration_ms > 0 else 0.0
    )
    per_class = {}
    total_good = 0
    for slo in config.slo_classes:
        members = [
            r
            for r in records
            if config.slo_class_for(r.request.model).name == slo.name
        ]
        completed = [r for r in members if r.completed]
        latencies = sorted(
            r.latency_cycles / clock_hz * 1e3 for r in completed
        )
        good = sum(1 for value in latencies if value <= slo.target_ms)
        total_good += good
        per_class[slo.name] = {
            "target_ms": slo.target_ms,
            "priority": slo.priority,
            "sheddable": slo.sheddable,
            "offered": len(members),
            "completed": len(completed),
            "rejected": len(members) - len(completed),
            "good": good,
            "goodput_rps": good / duration_s if duration_s > 0 else 0.0,
            "latency_ms": {
                f"p{q}": percentile(latencies, q) if latencies else None
                for q in (50, 95, 99)
            },
            **exit_account(completed),
        }
    goodput_rps = total_good / duration_s if duration_s > 0 else 0.0
    return per_class, goodput_rps


def _server_accounts(slots):
    """Per-server stats and the mean busiest-shard utilization."""
    stats = []
    utilizations = []
    for slot in slots:
        span = max(slot.retire_cycle - slot.spawn_cycle, 0)
        stats.append(
            {
                "server": slot.sid,
                "spawn_cycle": slot.spawn_cycle,
                "active_cycles": span,
                "shard_busy_cycles": list(slot.shard_busy),
            }
        )
        if span > 0 and slot.shard_busy:
            utilizations.append(max(slot.shard_busy) / span)
    mean_utilization = (
        sum(utilizations) / len(utilizations) if utilizations else 0.0
    )
    return stats, mean_utilization


def simulate_fleet(
    workload: TraceConfig | list[Request] | ClosedLoopConfig,
    config: FleetConfig | None = None,
    executor: ShardedExecutor | None = None,
) -> FleetResult:
    """Replay one workload against one fleet configuration.

    Args:
        workload: an open-loop trace (kept with its rids), the
            configuration to generate one from, or a closed-loop client
            population (whose requests get fresh rids in issue order).
        config: fleet configuration (defaults to ``FleetConfig()``).
        executor: sharded batch executor; built from ``config`` when not
            supplied (plans + optional co-location over
            ``config.hardware``; exit-aware when the quality policy is
            enabled).
    """
    if workload is None:
        raise ValueError(
            "simulate_fleet needs a workload: a trace, a TraceConfig or a "
            "ClosedLoopConfig"
        )
    config = config if config is not None else FleetConfig()
    if executor is None:
        executor_cls = (
            DynamicShardedExecutor if config.quality.enabled else ShardedExecutor
        )
        executor = executor_cls(
            plans=config.plans,
            colocated=tuple(config.model_classes) if config.colocate else (),
            config=config.hardware,
        )
    clock_hz = config.hardware.clock_hz
    autoscaler = config.autoscaler
    batcher = PriorityBatcher(
        config.batch,
        clock_hz=clock_hz,
        priorities={
            model: config.slo_class_for(model).priority
            for model in set(config.model_classes)
        },
    )
    loop = ServingLoop(
        config,
        executor,
        min(
            max(config.initial_servers, autoscaler.min_servers),
            autoscaler.max_servers,
        ),
        batcher=batcher,
        autoscaler=autoscaler,
        sheddable=lambda model: config.slo_class_for(model).sheddable,
    )
    loop.run(workload)

    records = loop.ordered_records()
    summary = summarize(records, clock_hz=clock_hz)
    per_class, goodput_rps = _class_accounts(config, records, summary, clock_hz)
    server_stats, shard_utilization = _server_accounts(loop.spawned)
    return FleetResult(
        config=config,
        records=records,
        summary=summary,
        per_class=per_class,
        goodput_rps=goodput_rps,
        scale_events=loop.scale_events,
        server_stats=server_stats,
        shard_utilization=shard_utilization,
        peak_servers=loop.peak_slots,
        max_queue_depth=loop.batcher.max_depth,
        simulated_cycles=loop.last_cycle,
    )
