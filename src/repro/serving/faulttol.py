"""Fault-tolerant serving: retries, hedging, breakers, health-checked pool.

Plain serving (:func:`~repro.serving.server.simulate_serving`) assumes
immortal workers.  :func:`simulate_chaos` runs the same discrete-event
core (:class:`~repro.serving.server.ServingLoop`) with its fault layer
on: workers **crash**, **hang**, and **straggle** (fates drawn per
dispatch from :mod:`repro.reliability.workerfaults` streams), and the
client- and server-side machinery production serving needs to survive
that runs alongside.  This module holds that machinery's policies and
the run's account:

- **timeouts + bounded retries** with seeded exponential backoff jitter
  (:class:`RetryPolicy`): an attempt that outlives its timeout is
  abandoned and the request re-queued, up to ``max_attempts`` dispatches;
- **hedged requests** (:class:`HedgePolicy`): an attempt that outlives
  the observed p99 attempt latency is raced against a second dispatch on
  a different worker, first completion wins, the loser's result is
  suppressed (never delivered twice);
- **per-worker circuit breakers** (:class:`BreakerPolicy`): consecutive
  timeouts open a worker's breaker (closed -> open -> half-open with a
  single probe), steering traffic away from a "lemon" machine;
- **heartbeat health checks** (:class:`HealthPolicy`): dead and hung
  workers miss heartbeats, get evicted after ``miss_threshold`` misses,
  and respawn after a warm (hang) or cold (crash) restart cost;
- **graceful drain**: an evicted worker's in-flight requests are handed
  back to the *front* of their model queue with the burned attempt
  refunded (the failure was the server's, not the client's); a healthy
  worker whose client timed out simply finishes -- its late completion
  is still delivered if the request has no other result yet.

Two conservation properties are structural, counted from the core's
per-request terminal writes, and asserted by the ``duet-chaos/1``
campaign (:mod:`repro.bench.chaos`):

1. **no request is lost** -- every admitted request ends in exactly one
   terminal record (completed, or failed with a terminal reason; a
   per-request deadline backstops even the policy-free configuration);
2. **no request completes twice** -- a request's first completion wins
   and every later one is suppressed (counted as ``redundant``, never
   delivered), so the client-visible duplicate count is zero.

Interaction with admission (``overload.py``): retries and hedges are
*internal* re-dispatches -- they never pass through the admission
controller, so they consume no token-bucket tokens and can never starve
fresh arrivals of admission capacity.  The queue-depth bound therefore
applies to arrivals only; re-queued retries may transiently push the
pending depth past it (recorded in ``max_queue_depth_seen``), and the
overload ladder responds to that pressure exactly as it does to arrivals.

With zero fault rates and the ``none`` policy a chaos run reproduces
plain serving record for record (property-tested in
``tests/serving/test_faulttol.py``): same batches, same stages, same
cycle times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reliability.workerfaults import WorkerFaultModel
from repro.serving.loadgen import TraceConfig
from repro.serving.request import REJECTED, Request, RequestRecord
from repro.serving.server import ServerConfig, ServingLoop
from repro.serving.slo import (
    distribution,
    exit_account,
    reason_counts,
    span_cycles,
    stage_counts,
)
from repro.sim.batching import BatchExecutor

__all__ = [
    "POLICY_LADDER",
    "RetryPolicy",
    "HedgePolicy",
    "BreakerPolicy",
    "HealthPolicy",
    "FaultTolerancePolicy",
    "policy_named",
    "ChaosSummary",
    "ChaosResult",
    "simulate_chaos",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Per-attempt timeout + bounded retries with seeded backoff jitter.

    Attributes:
        max_attempts: dispatches a request may consume (1 = no retries).
            Hedges and server-side hand-backs do not count against it.
        timeout_us: per-attempt timeout; an attempt older than this is
            abandoned and the request re-queued (simulated us).
        backoff_base_us: backoff before retry ``k`` (1-based) is
            ``backoff_base_us * backoff_multiplier**(k-1)``, stretched by
            jitter.
        backoff_multiplier: exponential backoff growth factor.
        jitter_fraction: each backoff is multiplied by ``1 + f*u`` with
            ``u`` uniform in ``[0, 1)`` from the run's seeded policy
            stream -- decorrelates retry herds without wall-clock
            randomness.
    """

    max_attempts: int = 3
    timeout_us: float = 150_000.0
    backoff_base_us: float = 1_000.0
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"RetryPolicy.max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_us <= 0:
            raise ValueError(
                f"RetryPolicy.timeout_us must be positive, got {self.timeout_us}"
            )
        if self.backoff_base_us < 0:
            raise ValueError(
                f"RetryPolicy.backoff_base_us must be >= 0, got "
                f"{self.backoff_base_us}"
            )
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"RetryPolicy.backoff_multiplier must be >= 1, got "
                f"{self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError(
                f"RetryPolicy.jitter_fraction must be in [0, 1], got "
                f"{self.jitter_fraction}"
            )


@dataclass(frozen=True)
class HedgePolicy:
    """Tail-latency hedging: race slow attempts against a second worker.

    Attributes:
        initial_delay_us: hedge delay before enough attempt latencies
            have been observed.
        latency_percentile: once warmed up, hedge after this percentile
            of observed attempt latencies (the classic p99 rule).
        min_samples: observed attempt completions required before the
            percentile replaces ``initial_delay_us``.
    """

    initial_delay_us: float = 50_000.0
    latency_percentile: float = 99.0
    min_samples: int = 20

    def __post_init__(self):
        if self.initial_delay_us <= 0:
            raise ValueError(
                f"HedgePolicy.initial_delay_us must be positive, got "
                f"{self.initial_delay_us}"
            )
        if not 0.0 < self.latency_percentile <= 100.0:
            raise ValueError(
                f"HedgePolicy.latency_percentile must be in (0, 100], got "
                f"{self.latency_percentile}"
            )
        if self.min_samples < 1:
            raise ValueError(
                f"HedgePolicy.min_samples must be >= 1, got {self.min_samples}"
            )


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-worker circuit breaker: closed -> open -> half-open.

    Attributes:
        failure_threshold: consecutive attempt timeouts that open the
            breaker.
        reset_timeout_us: how long an open breaker blocks dispatches
            before transitioning to half-open (one probe allowed; a
            successful probe closes, a failed one re-opens).
    """

    failure_threshold: int = 3
    reset_timeout_us: float = 500_000.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(
                f"BreakerPolicy.failure_threshold must be >= 1, got "
                f"{self.failure_threshold}"
            )
        if self.reset_timeout_us <= 0:
            raise ValueError(
                f"BreakerPolicy.reset_timeout_us must be positive, got "
                f"{self.reset_timeout_us}"
            )


@dataclass(frozen=True)
class HealthPolicy:
    """Heartbeat health checks with evict + warm/cold respawn.

    Attributes:
        heartbeat_us: heartbeat period; dead and hung workers miss beats.
        miss_threshold: consecutive misses before eviction.
        warm_restart_us: respawn cost of an evicted *hung* worker (the
            process is alive; it gets a soft restart).
        cold_restart_us: respawn cost of an evicted *crashed* worker
            (full process start + model/weight reload).
    """

    heartbeat_us: float = 20_000.0
    miss_threshold: int = 3
    warm_restart_us: float = 50_000.0
    cold_restart_us: float = 250_000.0

    def __post_init__(self):
        if self.heartbeat_us <= 0:
            raise ValueError(
                f"HealthPolicy.heartbeat_us must be positive, got "
                f"{self.heartbeat_us}"
            )
        if self.miss_threshold < 1:
            raise ValueError(
                f"HealthPolicy.miss_threshold must be >= 1, got "
                f"{self.miss_threshold}"
            )
        if self.warm_restart_us < 0 or self.cold_restart_us < 0:
            raise ValueError(
                "HealthPolicy restart costs must be >= 0, got "
                f"warm={self.warm_restart_us} cold={self.cold_restart_us}"
            )


@dataclass(frozen=True)
class FaultTolerancePolicy:
    """One named bundle of the four mechanisms (any subset enabled).

    Attributes:
        name: policy name as it appears in the chaos campaign.
        retry / hedge / breaker / health: the enabled mechanisms
            (``None`` disables each).
        deadline_us: hard per-request deadline from admission; a request
            with no completion by then terminally fails
            (:data:`~repro.serving.request.FAIL_DEADLINE`).  This is the
            conservation backstop -- it closes every admitted request
            even under the mechanism-free ``none`` policy.
    """

    name: str
    retry: RetryPolicy | None = None
    hedge: HedgePolicy | None = None
    breaker: BreakerPolicy | None = None
    health: HealthPolicy | None = None
    deadline_us: float = 2_000_000.0

    def __post_init__(self):
        if self.deadline_us <= 0:
            raise ValueError(
                f"FaultTolerancePolicy.deadline_us must be positive, got "
                f"{self.deadline_us}"
            )
        if self.breaker is not None and self.retry is None:
            raise ValueError(
                "FaultTolerancePolicy.breaker requires retry: breaker "
                "failures are attempt timeouts"
            )
        if self.retry is not None and self.deadline_us <= self.retry.timeout_us:
            raise ValueError(
                "FaultTolerancePolicy.deadline_us must exceed the attempt "
                f"timeout, got deadline={self.deadline_us} <= "
                f"timeout={self.retry.timeout_us}"
            )


#: The policy sweep of the chaos campaign, weakest to strongest.
POLICY_LADDER: tuple[str, ...] = (
    "none",
    "retry",
    "retry-hedge",
    "retry-hedge-breaker",
)


def policy_named(name: str, deadline_us: float = 2_000_000.0) -> FaultTolerancePolicy:
    """The default policy bundle of one :data:`POLICY_LADDER` rung.

    ``none`` is mechanism-free (deadline backstop only); each later rung
    adds one mechanism on top of the previous (health checks ride with
    every rung that has retries -- they are server-side and policy
    comparisons above ``none`` assume a self-healing pool).
    """
    if name not in POLICY_LADDER:
        raise ValueError(
            f"unknown fault-tolerance policy {name!r}; choose from "
            f"{POLICY_LADDER}"
        )
    if name == "none":
        return FaultTolerancePolicy(name=name, deadline_us=deadline_us)
    retry = RetryPolicy()
    health = HealthPolicy()
    hedge = HedgePolicy() if "hedge" in name else None
    breaker = BreakerPolicy() if "breaker" in name else None
    return FaultTolerancePolicy(
        name=name,
        retry=retry,
        hedge=hedge,
        breaker=breaker,
        health=health,
        deadline_us=deadline_us,
    )


@dataclass(frozen=True)
class ChaosSummary:
    """The account of one fault-tolerant serving run.

    ``goodput_rps`` is *completed* requests per simulated second --
    rejected and failed requests earn nothing, and the duration window
    runs from the first arrival to the last *terminal* event
    (completion or failure verdict), so a run that strands its clients
    until their deadlines pays for that wall time.  ``duplicates`` counts
    terminal records written beyond the first for a request, and should
    be zero (the first completion wins; later ones are counted in
    ``redundant`` and suppressed).  ``lost`` counts admitted requests
    that reached the end of the run with no terminal record, and should
    likewise be zero (the per-request deadline closes every straggler).
    Both come from :func:`~repro.serving.server.conservation`.
    """

    offered: int
    admitted: int
    completed: int
    rejected: int
    failed: int
    rejects_by_reason: dict
    fails_by_reason: dict
    duration_ms: float
    goodput_rps: float
    success_rate: float
    latency_ms: dict
    dispatches: int
    retries: int
    hedges: int
    hedge_wins: int
    hedges_skipped: int
    timeouts: int
    late_completions: int
    redundant: int
    crashes: int
    hangs: int
    straggles: int
    evictions: int
    respawns_warm: int
    respawns_cold: int
    handed_back: int
    breaker_opens: int
    breaker_probes: int
    duplicates: int
    lost: int
    stage_counts: dict
    early_exits: int = 0
    mean_exit_depth: float = 1.0
    mean_quality_drop: float = 0.0

    def as_dict(self) -> dict:
        """JSON-ready form (insertion-ordered, deterministic)."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "rejects_by_reason": dict(sorted(self.rejects_by_reason.items())),
            "fails_by_reason": dict(sorted(self.fails_by_reason.items())),
            "duration_ms": self.duration_ms,
            "goodput_rps": self.goodput_rps,
            "success_rate": self.success_rate,
            "latency_ms": self.latency_ms,
            "dispatches": self.dispatches,
            "retries": self.retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "hedges_skipped": self.hedges_skipped,
            "timeouts": self.timeouts,
            "late_completions": self.late_completions,
            "redundant": self.redundant,
            "faults": {
                "crashes": self.crashes,
                "hangs": self.hangs,
                "straggles": self.straggles,
            },
            "evictions": self.evictions,
            "respawns_warm": self.respawns_warm,
            "respawns_cold": self.respawns_cold,
            "handed_back": self.handed_back,
            "breaker_opens": self.breaker_opens,
            "breaker_probes": self.breaker_probes,
            "duplicates": self.duplicates,
            "lost": self.lost,
            "stage_counts": dict(self.stage_counts),
            "early_exits": self.early_exits,
            "mean_exit_depth": self.mean_exit_depth,
            "mean_quality_drop": self.mean_quality_drop,
        }


@dataclass
class ChaosResult:
    """Everything one fault-tolerant serving run produced."""

    config: ServerConfig
    faults: WorkerFaultModel
    policy: FaultTolerancePolicy
    seed: int
    records: list[RequestRecord]
    summary: ChaosSummary
    max_queue_depth_seen: int
    simulated_cycles: int


def _summarize(records: list[RequestRecord], loop: ServingLoop) -> ChaosSummary:
    clock_hz = loop.clock_hz
    to_ms = lambda cycles: cycles / clock_hz * 1e3  # noqa: E731
    completed = [r for r in records if r.completed]
    rejected = [r for r in records if r.outcome == REJECTED]
    failed = [r for r in records if r.failed]
    duration_cycles = span_cycles(records)
    duration_s = duration_cycles / clock_hz
    admitted = len(completed) + len(failed)
    return ChaosSummary(
        offered=len(records),
        admitted=admitted,
        completed=len(completed),
        rejected=len(rejected),
        failed=len(failed),
        rejects_by_reason=reason_counts(rejected),
        fails_by_reason=reason_counts(failed),
        duration_ms=to_ms(duration_cycles),
        goodput_rps=len(completed) / duration_s if duration_s > 0 else 0.0,
        success_rate=len(completed) / admitted if admitted else 0.0,
        latency_ms=distribution([to_ms(r.latency_cycles) for r in completed]),
        duplicates=loop.duplicates,
        lost=loop.lost,
        stage_counts=stage_counts(completed),
        **exit_account(completed),
        **loop.counts,
    )


def simulate_chaos(
    trace: TraceConfig | list[Request],
    config: ServerConfig | None = None,
    faults: WorkerFaultModel | None = None,
    policy: FaultTolerancePolicy | None = None,
    seed: int = 0,
    executor: BatchExecutor | None = None,
) -> ChaosResult:
    """Replay one trace against a faulty pool under one policy.

    Args:
        trace: the arrivals, or the configuration to generate them from.
        config: the serving front end (same surface as plain serving).
        faults: the pool's fault model (none by default).
        policy: the fault-tolerance mechanisms to run with (``none`` by
            default).
        seed: root seed of the run's fault + policy-jitter streams
            (:func:`repro.reliability.workerfaults.spawn_worker_streams`).
        executor: optional injected batch executor (stub in tests).
    """
    config = config if config is not None else ServerConfig()
    faults = faults if faults is not None else WorkerFaultModel()
    policy = policy if policy is not None else policy_named("none")
    loop = ServingLoop(
        config, executor, config.workers, faults=faults, policy=policy, seed=seed
    ).run(trace)
    records = loop.ordered_records()
    return ChaosResult(
        config=config,
        faults=faults,
        policy=policy,
        seed=seed,
        records=records,
        summary=_summarize(records, loop),
        max_queue_depth_seen=loop.batcher.max_depth,
        simulated_cycles=loop.last_cycle,
    )
