"""The discrete-event serving core, and plain serving on top of it.

One :class:`ServingLoop` runs every serving tier: plain serving
(:func:`simulate_serving`), serving over a faulty pool
(:func:`~repro.serving.faulttol.simulate_chaos`) and the autoscaled
fleet (:func:`~repro.serving.fleet.simulate_fleet`).  A run is N worker
slots behind one admission controller and one batcher, fed by a trace or
by closed-loop clients, with two optional layers: a worker-fault model
with its recovery policy, and an autoscaler.

The loop runs over integer simulated cycles.  The base events are
**arrival** (admit or reject), **done** (a slot finishes its batch, whose
requests close) and **flush** (a queued request's max-wait deadline
passed); the fault layer adds timeout, hedge, retry, deadline,
heartbeat, respawn, crash and breaker-wake events, the autoscaler adds
evaluation and start-up events.  Each event carries its handler.  After
every event the dispatcher drains: while a slot is free and the batcher
has a dispatchable batch, the executor prices it at the overload
policy's rung (and the quality policy's exit threshold) and its
completion is scheduled; when a slot is free but nothing is dispatchable
yet, a flush is scheduled for the earliest max-wait deadline.  Without a
fault policy the loop pushes no fault events and draws no fates.

Everything is deterministic: same-cycle events run in push order, the
smallest free slot id wins a dispatch, and all times are integers.
Every terminal record is written at one site, which counts writes per
request; :func:`conservation` folds those counts into the chaos tier's
``duplicates`` and ``lost``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.dynamic.executor import DynamicBatchExecutor, DynamicShardedExecutor
from repro.reliability.workerfaults import (
    FATE_CRASH,
    FATE_HANG,
    FATE_STRAGGLE,
    spawn_worker_streams,
)
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.batcher import BatchPolicy, DynamicBatcher
from repro.serving.loadgen import ClosedLoopConfig, TraceConfig, generate_trace
from repro.serving.overload import OverloadPolicy
from repro.serving.quality import QualityPolicy, decision_record_fields
from repro.serving.request import (
    COMPLETED,
    FAIL_ATTEMPTS_EXHAUSTED,
    FAIL_DEADLINE,
    FAILED,
    REJECTED,
    Request,
    RequestRecord,
)
from repro.serving.slo import SloSummary, percentile, summarize
from repro.sim.batching import BatchExecutor
from repro.sim.config import DuetConfig
from repro.sim.sharding import ShardedBatchResult

__all__ = [
    "ServerConfig",
    "ServingLoop",
    "ServingResult",
    "conservation",
    "simulate_serving",
]

_IDLE, _BUSY, _HUNG, _DEAD, _RESTARTING = (
    "idle",
    "busy",
    "hung",
    "dead",
    "restarting",
)

_CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half-open"


@dataclass(frozen=True)
class ServerConfig:
    """Full configuration of the serving front end.

    Attributes:
        workers: simulated accelerator instances behind the queue.
        batch: dynamic-batching policy.
        admission: admission-control knobs.
        overload: occupancy -> degradation-rung policy.
        quality: occupancy -> early-exit-threshold policy (the depth
            axis; disabled by default, which serves every request at
            full static depth).
        hardware: the per-worker accelerator configuration (also fixes
            the simulated clock).
    """

    workers: int = 2
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    overload: OverloadPolicy = field(default_factory=OverloadPolicy)
    quality: QualityPolicy = field(default_factory=QualityPolicy.disabled)
    hardware: DuetConfig = field(default_factory=DuetConfig)

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(
                f"ServerConfig.workers must be >= 1, got {self.workers}"
            )


@dataclass
class ServingResult:
    """Everything one serving run produced.

    Attributes:
        config: the server configuration.
        records: one closed record per request, in arrival (rid) order.
        summary: the run's SLO account.
        max_queue_depth: deepest the pending queue ever got (always
            within ``config.admission.max_queue_depth``).
        simulated_cycles: cycle of the last event (makespan end).
    """

    config: ServerConfig
    records: list[RequestRecord]
    summary: SloSummary
    max_queue_depth: int
    simulated_cycles: int


def conservation(admitted, writes: dict) -> tuple[int, int]:
    """``(duplicates, lost)`` of a run from its terminal-write counts.

    Args:
        admitted: rids the admission controller let in.
        writes: rid -> number of terminal records written for it.

    A rid written more than once is a client-visible duplicate (each
    extra write counts); an admitted rid never written is lost.
    """
    duplicates = sum(count - 1 for count in writes.values() if count > 1)
    lost = sum(1 for rid in admitted if writes.get(rid, 0) == 0)
    return duplicates, lost


@dataclass(eq=False)
class _Slot:
    """One worker slot: lifecycle, the attempt it serves, its breaker
    (the client-side view of the endpoint), and its fleet account."""

    sid: int
    spawn_cycle: int = 0
    state: str = _IDLE
    attempt: _Attempt | None = None
    misses: int = 0  # consecutive missed heartbeats
    breaker: str = _CLOSED
    failures: int = 0  # consecutive attempt timeouts
    open_until: int = 0
    probing: bool = False  # a half-open breaker's probe is in flight
    retire_cycle: int | None = None
    shard_busy: list[int] = field(default_factory=list)

    def add_busy(self, shard_busy: list[int]) -> None:
        if len(self.shard_busy) < len(shard_busy):
            self.shard_busy.extend(
                [0] * (len(shard_busy) - len(self.shard_busy))
            )
        for index, busy in enumerate(shard_busy):
            self.shard_busy[index] += busy


@dataclass(eq=False)
class _Attempt:
    """One dispatched batch: requests, slot, and liveness."""

    requests: list[Request]
    slot: _Slot
    dispatch_cycle: int
    stage: str
    decisions: list | None  # per-request exit decisions; None when static
    is_hedge: bool
    live: bool = True
    abandoned: bool = False


@dataclass(eq=False)
class _Tracker:
    """The fault layer's ledger of one admitted request."""

    request: Request
    tries: int = 0  # dispatches charged against the retry budget
    attempts: int = 0  # all dispatches, hedges included
    outstanding: int = 0  # live attempts currently carrying it
    done: bool = False
    retry_pending: bool = False
    hedged: bool = False
    handed_back: int = 0  # evicted dispatches returned to the queue


class ServingLoop:
    """One discrete-event serving run (see the module docstring).

    Args:
        config: the front end -- any object with ``batch``,
            ``admission``, ``overload``, ``quality`` and ``hardware``
            (a :class:`ServerConfig` or a
            :class:`~repro.serving.fleet.FleetConfig`).
        executor: prices each dispatched batch, and must be exit-aware
            when ``config.quality`` is enabled; None builds a single-chip
            executor for ``config.hardware`` that is.
        n_slots: worker slots at cycle 0.
        batcher: the dispatch queue (a fresh
            :class:`~repro.serving.batcher.DynamicBatcher` by default).
        faults / policy / seed: the fault layer -- a
            :class:`~repro.reliability.workerfaults.WorkerFaultModel`, a
            :class:`~repro.serving.faulttol.FaultTolerancePolicy` (None
            turns the layer off), and the root seed of its fault and
            jitter streams.  The streams cover the initial slots only,
            so the layer does not combine with an autoscaler.
        autoscaler: an :class:`~repro.serving.fleet.AutoscalerPolicy`;
            it evaluates only when it can change the slot count.
        sheddable: model name -> whether the quality policy may serve it
            at early exits (every model by default).

    Raises:
        ValueError: the quality policy is enabled but the executor
            cannot serve early exits.
    """

    def __init__(
        self,
        config,
        executor,
        n_slots: int,
        batcher: DynamicBatcher | None = None,
        faults=None,
        policy=None,
        seed: int = 0,
        autoscaler=None,
        sheddable=None,
    ):
        if executor is None:
            executor_cls = (
                DynamicBatchExecutor if config.quality.enabled else BatchExecutor
            )
            executor = executor_cls(config=config.hardware)
        if config.quality.enabled and not isinstance(
            executor, (DynamicBatchExecutor, DynamicShardedExecutor)
        ):
            raise ValueError(
                f"an enabled quality policy needs an exit-aware executor "
                f"(DynamicBatchExecutor or DynamicShardedExecutor), got "
                f"{type(executor).__name__}"
            )
        self.config = config
        self.executor = executor
        self.clock_hz = config.hardware.clock_hz
        self.batcher = (
            batcher
            if batcher is not None
            else DynamicBatcher(config.batch, clock_hz=self.clock_hz)
        )
        self.admission = AdmissionController(
            config.admission, clock_hz=self.clock_hz
        )
        self.sheddable = sheddable if sheddable is not None else (lambda model: True)
        self.slots: list[_Slot] = []  # live slots, ascending sid
        self.spawned: list[_Slot] = []  # every slot ever started
        for _ in range(n_slots):
            self._spawn(0)
        self.records: dict[int, RequestRecord] = {}
        self.writes: dict[int, int] = {}  # rid -> terminal records written
        self.offered: list[Request] = []
        self.last_cycle = 0
        self._events: list[tuple] = []
        self._seq = 0
        self.counts = dict.fromkeys(
            (
                "dispatches", "retries", "hedges", "hedge_wins",
                "hedges_skipped", "timeouts", "late_completions", "redundant",
                "crashes", "hangs", "straggles", "evictions", "respawns_warm",
                "respawns_cold", "handed_back", "breaker_opens",
                "breaker_probes",
            ),
            0,
        )

        # the fault layer: None throughout when off
        self.faults = faults
        self.trackers: dict[int, _Tracker] | None = None
        self._retry = self._hedge = self._breaker = self._health = None
        if policy is not None:
            self.trackers = {}
            self._streams, self._jitter_rng = spawn_worker_streams(
                seed, n_slots, faults
            )
            self._retry, self._hedge = policy.retry, policy.hedge
            self._breaker, self._health = policy.breaker, policy.health
            # per-arrival and per-dispatch intervals, converted once
            self._deadline_cycles = self._cycles(policy.deadline_us)
            if self._retry is not None:
                self._timeout_cycles = self._cycles(self._retry.timeout_us)
        self._open_requests = 0
        self._arrivals_remaining = 0
        self._latencies: list[int] = []
        self.duplicates = self.lost = 0

        # the autoscaler layer
        self.autoscaler = autoscaler
        self._eval_cycles = 0  # stays 0 unless the slot count can change
        if autoscaler is not None and autoscaler.enabled:
            self._eval_cycles = max(self._cycles(autoscaler.eval_interval_us), 1)
        self._eval_armed = False
        self._eval_index = 0
        self._last_scale_eval: int | None = None
        self._starting = 0
        self.scale_events: list[dict] = []
        self.peak_slots = n_slots

        # closed-loop clients: [generator, remaining budget] per client
        self._population = None
        self._clients: list[list] = []
        self._client_of: dict[int, int] = {}

    def _cycles(self, us: float) -> int:
        """Simulated microseconds -> integer cycles."""
        return int(round(us * 1e-6 * self.clock_hz))

    # -- the run ----------------------------------------------------------

    def run(self, workload: TraceConfig | list[Request] | ClosedLoopConfig):
        """Serve an open-loop trace (records keep its rids; generated
        first when given a ``TraceConfig``) or a closed-loop client
        population (fresh rids in issue order) until every request has
        closed.  Returns self."""
        if isinstance(workload, TraceConfig):
            workload = generate_trace(workload)
        if isinstance(workload, ClosedLoopConfig):
            self._population = workload
            for client in range(workload.clients):
                self._clients.append(
                    [workload.client_rng(client), workload.requests_per_client]
                )
                self._issue(client, after_cycle=0)
        else:
            # the arrivals take push sequence 0..n-1, so one heapify
            # orders them exactly as n pushes would
            self.offered = workload
            self._arrivals_remaining = self._seq = len(workload)
            self._events = [
                (request.arrival_cycle, seq, self._on_arrival, request)
                for seq, request in enumerate(workload)
            ]
            heapq.heapify(self._events)
        if self._health is not None:
            self._push(self._cycles(self._health.heartbeat_us), self._on_beat)
        self._arm_eval(0)

        events = self._events
        while events:
            now, _, handler, payload = heapq.heappop(events)
            self.last_cycle = now
            if handler is not None:  # flushes and breaker wakes only dispatch
                handler(now, payload)
            self._dispatch(now)

        for slot in self.slots:
            slot.retire_cycle = self.last_cycle
        if self.trackers is not None:
            self.duplicates, self.lost = conservation(self.trackers, self.writes)
            for tracker in self.trackers.values():
                if not tracker.done:
                    # structurally unreachable (the deadline closes every
                    # request); counted rather than asserted so the
                    # campaign invariant, not a crash, reports a regression
                    self._fail(self.last_cycle, tracker, FAIL_DEADLINE)
        return self

    def ordered_records(self) -> list[RequestRecord]:
        """One terminal record per offered request, in offer order."""
        return [self.records[request.rid] for request in self.offered]

    def _push(self, cycle: int, handler, payload: object = None) -> None:
        heapq.heappush(self._events, (cycle, self._seq, handler, payload))
        self._seq += 1

    # -- request closure ----------------------------------------------------

    def _write(self, now: int, record: RequestRecord) -> None:
        """The single site every terminal record goes through; it also
        closes the request's tracker, copying its dispatch history onto
        the record, and counts the write."""
        rid = record.request.rid
        tracker = self.trackers.get(rid) if self.trackers is not None else None
        if tracker is not None:
            tracker.done = True
            self._open_requests -= 1
            record.attempts = tracker.attempts
            record.hedged = tracker.hedged
            record.handed_back = tracker.handed_back
        self.records[rid] = record
        self.writes[rid] = self.writes.get(rid, 0) + 1
        if self._population is not None:
            # a closed-loop client thinks, then issues its next request
            self._issue(self._client_of[rid], after_cycle=now)

    def _fail(self, now: int, tracker: _Tracker, reason: str) -> None:
        # completion_cycle: when the client stopped waiting
        self._write(
            now,
            RequestRecord(
                tracker.request, FAILED, reject_reason=reason, completion_cycle=now
            ),
        )

    def _issue(self, client: int, after_cycle: int) -> None:
        """Schedule a closed-loop client's next request, budget allowing."""
        state = self._clients[client]
        rng, remaining = state
        if remaining <= 0:
            return
        state[1] = remaining - 1
        think = self._population.think_cycles(rng)
        model, workload_seed = self._population.draw_request(rng)
        request = Request(
            rid=len(self.offered),
            model=model,
            arrival_cycle=after_cycle + think,
            workload_seed=workload_seed,
        )
        self._client_of[request.rid] = client
        self.offered.append(request)
        self._push(request.arrival_cycle, self._on_arrival, request)

    # -- base events --------------------------------------------------------

    def _on_arrival(self, now: int, request: Request) -> None:
        self._arrivals_remaining -= 1
        reason = self.admission.admit(now, self.batcher.depth)
        if reason is not None:
            self._write(now, RequestRecord(request, REJECTED, reject_reason=reason))
            return
        self.batcher.push(request)
        if self.trackers is not None:
            self.trackers[request.rid] = _Tracker(request)
            self._open_requests += 1
            deadline = now + self._deadline_cycles
            self._push(deadline, self._on_deadline, request.rid)
        if self.autoscaler is not None:
            self._arm_eval(now)

    def _on_done(self, now: int, attempt: _Attempt) -> None:
        slot = attempt.slot
        if slot.attempt is attempt:  # not evicted since the dispatch
            slot.state = _IDLE
            slot.attempt = None
            # A completion the client already timed out on is not a
            # breaker success: the breaker tracks *client-perceived*
            # outcomes, and this one was perceived as a failure.  The
            # slot is still released -- it is alive, just slow.
            if self._breaker is not None and not attempt.abandoned:
                slot.failures = 0
                slot.probing = False
                slot.breaker = _CLOSED
        trackers = self.trackers
        was_live = attempt.live
        attempt.live = False
        if trackers is not None and was_live:
            self._latencies.append(now - attempt.dispatch_cycle)
        for index, request in enumerate(attempt.requests):
            if trackers is not None:
                tracker = trackers[request.rid]
                if was_live:
                    tracker.outstanding -= 1
                if tracker.done:
                    if self.records[request.rid].outcome == COMPLETED:
                        self.counts["redundant"] += 1
                    continue
                if attempt.abandoned:
                    self.counts["late_completions"] += 1
                if attempt.is_hedge:
                    self.counts["hedge_wins"] += 1
            decision = attempt.decisions[index] if attempt.decisions else None
            self._write(
                now,
                RequestRecord(
                    request,
                    COMPLETED,
                    stage=attempt.stage,
                    batch_size=len(attempt.requests),
                    dispatch_cycle=attempt.dispatch_cycle,
                    completion_cycle=now,
                    **decision_record_fields(request.model, decision),
                ),
            )

    # -- dispatch -----------------------------------------------------------

    def _free_slot(self, now: int, exclude: _Slot | None = None) -> _Slot | None:
        for slot in self.slots:  # ascending sid: the smallest free slot wins
            if slot.state != _IDLE or slot is exclude:
                continue
            if self._breaker is None or self._breaker_allows(now, slot):
                return slot
        return None

    def _dispatch(self, now: int) -> None:
        if not self.batcher.depth:
            return
        trackers = self.trackers
        while True:
            slot = self._free_slot(now)
            if slot is None:
                return
            batch = self.batcher.pop_batch(now)
            if batch is None:
                break
            if trackers is not None:
                # drop requests that closed while queued (deadline, hedge win)
                batch = [r for r in batch if not trackers[r.rid].done]
                if not batch:
                    continue
            self._start(now, slot, batch, is_hedge=False)
        if self.batcher.depth:
            flush = self.batcher.next_flush_cycle()
            if flush is not None:
                self._push(max(flush, now + 1), None)

    def _start(
        self, now: int, slot: _Slot, batch: list[Request], is_hedge: bool
    ) -> None:
        cfg = self.config
        bound = cfg.admission.max_queue_depth
        # the rung is decided at the pressure the dispatcher saw, i.e.
        # the depth including the batch it is about to serve
        pressure = self.batcher.depth + len(batch)
        stage = cfg.overload.stage_for(pressure, bound)
        model = batch[0].model
        seeds = [r.workload_seed for r in batch]
        if cfg.quality.enabled and self.sheddable(model):
            result = self.executor.execute(
                model,
                seeds,
                stage=stage,
                threshold=cfg.quality.threshold_for(pressure, bound),
            )
        else:
            result = self.executor.execute(model, seeds, stage=stage)
        if isinstance(result, ShardedBatchResult):
            slot.add_busy(result.shard_busy_cycles)
        attempt = _Attempt(
            batch,
            slot,
            now,
            stage,
            getattr(result, "decisions", None),
            is_hedge,
        )
        slot.attempt = attempt
        self.counts["dispatches"] += 1
        service = result.service_cycles
        if self.trackers is None:
            slot.state = _BUSY
            self._push(now + service, self._on_done, attempt)
            return

        counts = self.counts
        fate = self._streams[slot.sid].draw_fate()
        if fate.kind == FATE_STRAGGLE:
            service = int(service * self.faults.straggle_multiplier)
        if self._breaker is not None and slot.breaker == _HALF_OPEN:
            slot.probing = True
            counts["breaker_probes"] += 1
        for request in batch:
            tracker = self.trackers[request.rid]
            tracker.attempts += 1
            tracker.outstanding += 1
            if is_hedge:
                tracker.hedged = True
            else:
                tracker.tries += 1
        if fate.kind == FATE_CRASH:
            counts["crashes"] += 1
            slot.state = _BUSY
            dead_at = now + max(1, int(fate.crash_fraction * service))
            self._push(dead_at, self._on_crash, attempt)
        elif fate.kind == FATE_HANG:
            counts["hangs"] += 1
            slot.state = _HUNG
        else:
            if fate.kind == FATE_STRAGGLE:
                counts["straggles"] += 1
            slot.state = _BUSY
            self._push(now + service, self._on_done, attempt)
        if self._retry is not None:
            timeout = now + self._timeout_cycles
            self._push(timeout, self._on_timeout, attempt)
        if self._hedge is not None and not is_hedge:
            self._push(now + self._hedge_delay(), self._on_hedge, attempt)

    # -- the fault layer ----------------------------------------------------

    def _pending(self, attempt: _Attempt) -> list[Request]:
        """The attempt's requests that have no terminal record yet."""
        return [r for r in attempt.requests if not self.trackers[r.rid].done]

    def _on_timeout(self, now: int, attempt: _Attempt) -> None:
        if not attempt.live or not self._pending(attempt):
            return
        attempt.live = False
        attempt.abandoned = True
        self.counts["timeouts"] += 1
        self._breaker_failure(now, attempt.slot)
        for request in attempt.requests:
            tracker = self.trackers[request.rid]
            tracker.outstanding -= 1
            if tracker.done or tracker.outstanding > 0 or tracker.retry_pending:
                continue
            if tracker.tries < self._retry.max_attempts:
                tracker.retry_pending = True
                retry_at = now + self._backoff(tracker.tries)
                self._push(retry_at, self._on_retry, request.rid)
            else:
                self._fail(now, tracker, FAIL_ATTEMPTS_EXHAUSTED)

    def _on_hedge(self, now: int, attempt: _Attempt) -> None:
        if not attempt.live:
            return
        pending = self._pending(attempt)
        if not pending:
            return
        slot = self._free_slot(now, exclude=attempt.slot)
        if slot is None:
            self.counts["hedges_skipped"] += 1
            return
        self.counts["hedges"] += 1
        self._start(now, slot, pending, is_hedge=True)

    def _on_retry(self, now: int, rid: int) -> None:
        tracker = self.trackers[rid]
        tracker.retry_pending = False
        if tracker.done:
            return
        self.counts["retries"] += 1
        self.batcher.push(tracker.request)

    def _on_deadline(self, now: int, rid: int) -> None:
        tracker = self.trackers[rid]
        if not tracker.done:
            self._fail(now, tracker, FAIL_DEADLINE)

    def _on_beat(self, now: int, _payload: object) -> None:
        for slot in self.slots:
            if slot.state in (_DEAD, _HUNG):
                slot.misses += 1
                if slot.misses >= self._health.miss_threshold:
                    self._evict(now, slot)
            else:
                slot.misses = 0
        if self._open_requests > 0 or self._arrivals_remaining > 0:
            beat = now + self._cycles(self._health.heartbeat_us)
            self._push(beat, self._on_beat)

    def _on_respawn(self, now: int, slot: _Slot) -> None:
        if slot.state == _RESTARTING:
            slot.state = _IDLE
            slot.attempt = None
            slot.misses = 0

    def _on_crash(self, now: int, attempt: _Attempt) -> None:
        slot = attempt.slot
        if slot.attempt is attempt and slot.state == _BUSY:
            slot.state = _DEAD

    def _breaker_allows(self, now: int, slot: _Slot) -> bool:
        if slot.breaker == _OPEN and now >= slot.open_until:
            slot.breaker = _HALF_OPEN
            slot.probing = False
        if slot.breaker == _CLOSED:
            return True
        if slot.breaker == _HALF_OPEN:
            return not slot.probing
        return False

    def _breaker_failure(self, now: int, slot: _Slot) -> None:
        if self._breaker is None:
            return
        slot.failures += 1
        if slot.breaker == _HALF_OPEN or (
            slot.breaker == _CLOSED
            and slot.failures >= self._breaker.failure_threshold
        ):
            slot.breaker = _OPEN
            slot.open_until = now + self._cycles(self._breaker.reset_timeout_us)
            slot.probing = False
            self.counts["breaker_opens"] += 1
            self._push(slot.open_until, None)  # wakes the dispatcher

    def _backoff(self, tries: int) -> int:
        retry = self._retry
        base = retry.backoff_base_us * retry.backoff_multiplier ** max(
            tries - 1, 0
        )
        jitter = 1.0 + retry.jitter_fraction * float(self._jitter_rng.random())
        return max(1, self._cycles(base * jitter))

    def _hedge_delay(self) -> int:
        hedge = self._hedge
        if len(self._latencies) >= hedge.min_samples:
            return max(
                1,
                int(percentile(sorted(self._latencies), hedge.latency_percentile)),
            )
        return max(1, self._cycles(hedge.initial_delay_us))

    def _evict(self, now: int, slot: _Slot) -> None:
        """Evict a dead/hung slot: hand its work back, schedule respawn."""
        cold = slot.state == _DEAD
        attempt = slot.attempt
        if attempt is not None and attempt.live:
            attempt.live = False
            for request in attempt.requests:
                tracker = self.trackers[request.rid]
                tracker.outstanding -= 1
                if tracker.done:
                    continue
                # graceful drain: hand the request back to the front of
                # its queue and refund the charged attempt -- the loss
                # was the server's fault, not the client's budget
                if not attempt.is_hedge:
                    tracker.tries = max(tracker.tries - 1, 0)
                tracker.handed_back += 1
                self.counts["handed_back"] += 1
                self.batcher.push_front(request)
        slot.attempt = None
        slot.state = _RESTARTING
        slot.misses = 0
        self.counts["evictions"] += 1
        if cold:
            self.counts["respawns_cold"] += 1
            restart = self._cycles(self._health.cold_restart_us)
        else:
            self.counts["respawns_warm"] += 1
            restart = self._cycles(self._health.warm_restart_us)
        respawn_at = now + max(1, restart)
        self._push(respawn_at, self._on_respawn, slot)

    # -- the autoscaler layer -----------------------------------------------

    def _spawn(self, now: int) -> None:
        slot = _Slot(len(self.spawned), spawn_cycle=now)
        self.slots.append(slot)
        self.spawned.append(slot)

    def _arm_eval(self, now: int) -> None:
        if self._eval_cycles and not self._eval_armed:
            self._push(now + self._eval_cycles, self._on_eval)
            self._eval_armed = True

    def _on_up(self, now: int, _payload: object) -> None:
        self._starting -= 1
        self._spawn(now)

    def _on_eval(self, now: int, _payload: object) -> None:
        self._eval_armed = False
        self._eval_index += 1
        policy = self.autoscaler
        occupancy = self.batcher.depth / self.config.admission.max_queue_depth
        active = len(self.slots)
        cooled = (
            self._last_scale_eval is None
            or self._eval_index - self._last_scale_eval > policy.cooldown_evals
        )
        if (
            cooled
            and occupancy > policy.scale_out_occupancy
            and active + self._starting < policy.max_servers
        ):
            self._starting += 1
            self._last_scale_eval = self._eval_index
            self.peak_slots = max(self.peak_slots, active + self._starting)
            self._push(now + self._cycles(policy.startup_us), self._on_up)
            self._scale_event(now, "scale_out", occupancy)
        elif (
            cooled
            and occupancy < policy.scale_in_occupancy
            and active + self._starting > policy.min_servers
        ):
            idle = [slot for slot in self.slots if slot.state == _IDLE]
            if idle:
                # retire the youngest idle slot; low ids stay stable
                victim = idle[-1]
                self.slots.remove(victim)
                victim.retire_cycle = now
                self._last_scale_eval = self._eval_index
                self._scale_event(now, "scale_in", occupancy)
        # keep evaluating while there is anything to react to
        if (
            self.batcher.depth
            or self._starting
            or any(slot.state != _IDLE for slot in self.slots)
        ):
            self._arm_eval(now)

    def _scale_event(self, now: int, action: str, occupancy: float) -> None:
        self.scale_events.append(
            {
                "cycle": now,
                "action": action,
                "occupancy": occupancy,
                "servers": len(self.slots) + self._starting,
            }
        )


def simulate_serving(
    trace: TraceConfig | list[Request],
    config: ServerConfig | None = None,
    executor: BatchExecutor | None = None,
) -> ServingResult:
    """Replay one trace (generated first when given a ``TraceConfig``).

    Args:
        trace: the arrivals, or the configuration to generate them from.
        config: server configuration (defaults to ``ServerConfig()``).
        executor: batch executor; built from ``config.hardware`` when not
            supplied (exit-aware when the quality policy is enabled).
            Injecting a stub executor keeps policy-level tests free of
            accelerator simulation.
    """
    config = config if config is not None else ServerConfig()
    loop = ServingLoop(config, executor, config.workers).run(trace)
    records = loop.ordered_records()
    return ServingResult(
        config=config,
        records=records,
        summary=summarize(records, clock_hz=loop.clock_hz),
        max_queue_depth=loop.batcher.max_depth,
        simulated_cycles=loop.last_cycle,
    )
