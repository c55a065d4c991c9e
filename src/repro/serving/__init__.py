"""Async batched serving front end for the simulated DUET accelerator.

Models million-user inference traffic end to end on the fast-path
simulator: a seeded open-loop load generator feeds an admission
controller (token bucket + bounded queue with 429-style rejects), a
dynamic batcher (max-batch / max-wait microbatching, one FIFO per
model), and a pool of N simulated :class:`~repro.sim.DuetAccelerator`
workers that shed capability down the reliability subsystem's ladder
(``DUET -> IOS -> BOS -> OS``) under queue pressure before anything is
rejected.  Every run closes with a full SLO account -- p50/p95/p99
latency, throughput, reject and degrade rates, per-rung serve counts.

Entry points, all three run by one discrete-event core
(:class:`~repro.serving.server.ServingLoop`):

- :func:`simulate_serving` -- replay a trace.
- :func:`simulate_chaos` -- the same front end over a *faulty* pool
  (crash/hang/straggle) with retries, hedging, circuit breakers, and
  health-checked respawn (:mod:`repro.serving.faulttol`).
- :func:`simulate_fleet` -- the fleet tier: N sharded servers
  (:mod:`repro.sim.sharding`) behind a router with per-model SLO
  classes, priority scheduling, occupancy-driven autoscaling, and
  closed-loop clients (:mod:`repro.serving.fleet`).
- :func:`generate_trace` -- seeded Poisson / bursty arrival traces.
- ``python -m repro serve`` -- one campaign, human-readable SLO report.
- ``python -m repro loadgen`` -- the scenario campaign behind
  ``BENCH_serving.json`` (:mod:`repro.bench.serving`).
- ``python -m repro chaos`` -- the fault-rate x policy campaign behind
  ``BENCH_chaos.json`` (:mod:`repro.bench.chaos`).
- ``python -m repro fleet`` -- the fleet scenario campaign behind
  ``BENCH_fleet.json`` (:mod:`repro.bench.fleet`).

See ``docs/serving.md`` for the queueing model and SLO semantics, and
``docs/fault_tolerance.md`` for the fault model and recovery machinery.
"""

from repro.serving.admission import AdmissionConfig, AdmissionController, TokenBucket
from repro.serving.batcher import BatchPolicy, DynamicBatcher
from repro.serving.faulttol import (
    POLICY_LADDER,
    BreakerPolicy,
    FaultTolerancePolicy,
    HealthPolicy,
    HedgePolicy,
    RetryPolicy,
    policy_named,
)
from repro.serving.fleet import (
    DEFAULT_SLO_CLASSES,
    AutoscalerPolicy,
    FleetConfig,
    PriorityBatcher,
    SloClass,
    initial_fleet_size,
    simulate_fleet,
)
from repro.serving.loadgen import (
    ARRIVAL_PROCESSES,
    ClosedLoopConfig,
    TraceConfig,
    generate_trace,
)
from repro.serving.overload import SERVING_LADDER, OverloadPolicy
from repro.serving.quality import QualityPolicy
from repro.serving.request import (
    COMPLETED,
    REJECT_QUEUE_FULL,
    REJECT_RATE_LIMITED,
    REJECTED,
    Request,
    RequestRecord,
)
from repro.serving.server import ServerConfig, simulate_serving
from repro.sim.sharding import (
    GlbPartition,
    ShardPlan,
    ShardedExecutor,
    glb_partition,
    partition_layers,
    plan_for,
)
from repro.serving.slo import percentile, summarize
from repro.sim.batching import BatchExecutor, BatchResult

__all__ = [
    "ARRIVAL_PROCESSES",
    "AdmissionConfig",
    "AdmissionController",
    "AutoscalerPolicy",
    "BatchExecutor",
    "BatchPolicy",
    "BatchResult",
    "BreakerPolicy",
    "COMPLETED",
    "ClosedLoopConfig",
    "DEFAULT_SLO_CLASSES",
    "DynamicBatcher",
    "FaultTolerancePolicy",
    "FleetConfig",
    "GlbPartition",
    "HealthPolicy",
    "HedgePolicy",
    "OverloadPolicy",
    "POLICY_LADDER",
    "PriorityBatcher",
    "QualityPolicy",
    "REJECTED",
    "REJECT_QUEUE_FULL",
    "REJECT_RATE_LIMITED",
    "Request",
    "RequestRecord",
    "RetryPolicy",
    "SERVING_LADDER",
    "ServerConfig",
    "ShardPlan",
    "ShardedExecutor",
    "SloClass",
    "TokenBucket",
    "TraceConfig",
    "generate_trace",
    "glb_partition",
    "initial_fleet_size",
    "partition_layers",
    "percentile",
    "plan_for",
    "policy_named",
    "simulate_fleet",
    "simulate_serving",
    "summarize",
]
