"""Serving bench: SLO scenario campaign writing ``BENCH_serving.json``.

``python -m repro loadgen`` drives four scenarios through the serving
front end (:mod:`repro.serving`) and emits a machine-readable
``duet-serve/1`` document:

- ``nominal``: arrival rate well inside capacity -- the steady-state SLO
  baseline (expect zero rejects, minimal queueing).
- ``overload``: ~6x the batched capacity against a bounded queue and a
  token-bucket rate limit -- exercises the full response: dynamic
  batching, ladder shedding (``DUET -> IOS -> BOS -> OS``), and both
  429-style reject reasons.
- ``capacity_batch1`` / ``capacity_batched``: the same saturating trace
  served without batching (``max_batch=1``) and with it, queue opened
  wide and shedding disabled, so each arm's throughput measures raw
  service capacity at full DUET quality on *equal simulated hardware*.
  The headline ``batching.speedup`` is their ratio (regression floor:
  >= 2x, ``tests/serving/test_bench.py``).

Every **simulated** quantity in the document is a pure function of
``(seed, scale, flags)`` -- identical on the fast path and the slow-path
oracle, and for any ``--jobs`` value.  The only non-deterministic parts
are the ``perf`` block (wall clock, worker efficiency) and the
cross-run ``history`` trail, both excluded from the determinism contract
(:func:`repro.bench.document.deterministic_view`) and omitted entirely
under ``--no-perf``, where the file is byte-identical across runs and
worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.campaign import Campaign
from repro.bench.document import history_entry
from repro.parallel import CampaignTask
from repro.reporting import format_percent
from repro.serving.admission import AdmissionConfig
from repro.serving.batcher import BatchPolicy
from repro.serving.loadgen import ARRIVAL_PROCESSES, TraceConfig
from repro.serving.overload import OverloadPolicy
from repro.serving.server import ServerConfig, simulate_serving
from repro.sim.config import DuetConfig

__all__ = ["CAMPAIGN", "SERVE_SCHEMA", "ServeScenario", "serve_scenarios"]

#: schema identifier written into BENCH_serving.json.
SERVE_SCHEMA = "duet-serve/1"

#: traffic mix of every scenario: one compute-bound CNN, one
#: memory-bound RNN (the two regimes of Fig. 11/12).
_MIX = ("alexnet", "lstm")

#: per-worker request rates (requests/s) anchoring the scenarios; the
#: default 2-worker batch=1 capacity on the mix is ~106 req/s/worker.
_NOMINAL_RPS, _OVERLOAD_RPS, _CAPACITY_RPS = 60.0, 600.0, 800.0


@dataclass(frozen=True)
class ServeScenario:
    """One named (trace, server) pairing of the campaign."""

    name: str
    description: str
    trace: TraceConfig
    server: ServerConfig


def _requests(base: int, scale: float) -> int:
    return max(20, int(round(base * scale)))


def serve_scenarios(
    smoke: bool = False,
    seed: int = 0,
    workers: int = 2,
    max_batch: int = 8,
    arrival: str = "poisson",
    scale: float = 1.0,
    fast_path: bool = True,
) -> list[ServeScenario]:
    """Build the campaign's scenario list.

    Args:
        smoke: CI-sized request counts (~2k total) instead of full (~10k).
        seed: campaign seed (each scenario offsets it so traces differ).
        workers: simulated accelerators per scenario.
        max_batch: dynamic-batching cap of the batched arms.
        arrival: arrival process for every trace.
        scale: request-count multiplier (floor of 20 per scenario).
        fast_path: simulate on the vectorized fast path (True) or the
            per-event slow-path oracle (False).
    """
    if arrival not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"arrival must be one of {ARRIVAL_PROCESSES}, got {arrival!r}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    size = scale if smoke else 5.0 * scale
    hardware = DuetConfig(fast_path=fast_path)
    batched = BatchPolicy(max_batch=max_batch)

    def trace(n, rate, seed_offset):
        return TraceConfig(
            n_requests=_requests(n, size),
            rate_rps=rate * workers,
            arrival=arrival,
            models=_MIX,
            seed=seed + seed_offset,
        )

    def open_admission(n):
        # a queue bound at the trace length never sheds or rejects:
        # the capacity arms must drain every request at full quality
        return AdmissionConfig(max_queue_depth=_requests(n, size))

    capacity_trace = trace(400, _CAPACITY_RPS, seed_offset=2)
    return [
        ServeScenario(
            name="nominal",
            description="steady state inside capacity: the SLO baseline",
            trace=trace(600, _NOMINAL_RPS, seed_offset=0),
            server=ServerConfig(
                workers=workers, batch=batched, hardware=hardware
            ),
        ),
        ServeScenario(
            name="overload",
            description=(
                "sustained ~6x overload against a bounded queue and a "
                "token-bucket rate limit: shedding + 429s"
            ),
            trace=trace(700, _OVERLOAD_RPS, seed_offset=1),
            server=ServerConfig(
                workers=workers,
                batch=batched,
                admission=AdmissionConfig(
                    max_queue_depth=64,
                    rate_limit_rps=400.0 * workers,
                    burst=96,
                ),
                hardware=hardware,
            ),
        ),
        ServeScenario(
            name="capacity_batch1",
            description="saturating trace, batching off: the capacity foil",
            trace=capacity_trace,
            server=ServerConfig(
                workers=workers,
                batch=BatchPolicy(max_batch=1),
                admission=open_admission(400),
                overload=OverloadPolicy.disabled(),
                hardware=hardware,
            ),
        ),
        ServeScenario(
            name="capacity_batched",
            description=(
                f"the same saturating trace, dynamic batching up to "
                f"{max_batch}: equal hardware, >= 2x the throughput"
            ),
            trace=capacity_trace,
            server=ServerConfig(
                workers=workers,
                batch=batched,
                admission=open_admission(400),
                overload=OverloadPolicy.disabled(),
                hardware=hardware,
            ),
        ),
    ]


def _server_record(server: ServerConfig) -> dict:
    """The JSON-ready slice of a server configuration."""
    return {
        "workers": server.workers,
        "max_batch": server.batch.max_batch,
        "max_wait_us": server.batch.max_wait_us,
        "max_queue_depth": server.admission.max_queue_depth,
        "rate_limit_rps": server.admission.rate_limit_rps,
        "burst": server.admission.burst,
        "overload_thresholds": list(server.overload.thresholds),
        "fast_path": server.hardware.fast_path,
    }


def _scenario_task(scenario: ServeScenario) -> dict:
    """Simulate one scenario of the campaign (sharded task)."""
    result = simulate_serving(scenario.trace, config=scenario.server)
    return {
        "name": scenario.name,
        "description": scenario.description,
        "requests": scenario.trace.n_requests,
        "rate_rps": scenario.trace.rate_rps,
        "arrival": scenario.trace.arrival,
        "models": list(scenario.trace.models),
        "trace_seed": scenario.trace.seed,
        "server": _server_record(scenario.server),
        "max_queue_depth_seen": result.max_queue_depth,
        "simulated_ms": result.simulated_cycles
        / scenario.server.hardware.clock_hz
        * 1e3,
        "summary": result.summary.as_dict(),
    }


def _tasks(
    smoke: bool = False,
    seed: int = 0,
    workers: int = 2,
    max_batch: int = 8,
    arrival: str = "poisson",
    scale: float = 1.0,
    fast_path: bool = True,
) -> list[CampaignTask]:
    """One task per scenario of :func:`serve_scenarios` (same arguments)."""
    scenarios = serve_scenarios(
        smoke=smoke, seed=seed, workers=workers, max_batch=max_batch,
        arrival=arrival, scale=scale, fast_path=fast_path,
    )
    return [
        CampaignTask(index=i, fn=_scenario_task, kwargs={"scenario": scenario})
        for i, scenario in enumerate(scenarios)
    ]


def _summarize(records: list[dict], params: dict) -> dict:
    by_name = {record["name"]: record for record in records}
    batch1 = by_name["capacity_batch1"]["summary"]["throughput_rps"]
    batched = by_name["capacity_batched"]["summary"]["throughput_rps"]
    return {
        "schema": SERVE_SCHEMA,
        "smoke": params["smoke"],
        "seed": params["seed"],
        "arrival": params["arrival"],
        "workers": params["workers"],
        "max_batch": params["max_batch"],
        "scale": params["scale"],
        "fast_path": params["fast_path"],
        "requests_offered": sum(r["requests"] for r in records),
        "scenarios": records,
        "batching": {
            "batch1_throughput_rps": batch1,
            "batched_throughput_rps": batched,
            "max_batch": params["max_batch"],
            "speedup": batched / batch1 if batch1 else None,
        },
    }


def _history(document: dict) -> dict:
    return {
        **history_entry(document, ("smoke", "requests_offered")),
        "batching_speedup": document["batching"]["speedup"],
    }


def _ms(value) -> str:
    return f"{value:9.3f}" if value is not None else f"{'n/a':>9s}"


def _row(record: dict) -> str:
    summary = record["summary"]
    latency = summary["latency_ms"]
    return (
        f"{record['name']:>18s} {record['requests']:9d} "
        f"{_ms(latency['p50'])} {_ms(latency['p95'])} {_ms(latency['p99'])} "
        f"{summary['throughput_rps']:8.1f} "
        f"{format_percent(summary['reject_rate']):>7s} "
        f"{summary['degraded']:9d}\n"
    )


def _trailer(document: dict, output: str, jobs: int) -> str:
    batching = document["batching"]
    overload = next(
        s["summary"] for s in document["scenarios"] if s["name"] == "overload"
    )
    stages = "  ".join(
        f"{stage}={count}" for stage, count in overload["stage_counts"].items()
    )
    return (
        f"overload stage counts: {stages}\n"
        f"dynamic batching (max {batching['max_batch']}): "
        f"{batching['batched_throughput_rps']:.1f} req/s vs "
        f"{batching['batch1_throughput_rps']:.1f} req/s unbatched = "
        f"{batching['speedup']:.2f}x throughput; results in {output}\n"
    )


def _flags(parser) -> None:
    parser.add_argument(
        "--workers", type=int, default=2, help="simulated accelerator workers"
    )
    parser.add_argument(
        "--max-batch", type=int, default=8,
        help="dynamic-batching cap of the batched arms",
    )
    parser.add_argument(
        "--arrival", default="poisson", choices=ARRIVAL_PROCESSES,
        help="arrival process of every scenario trace",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="request-count multiplier (floor 20 per scenario)",
    )


#: ``python -m repro loadgen``.
CAMPAIGN = Campaign(
    name="loadgen",
    schema=SERVE_SCHEMA,
    output="BENCH_serving.json",
    help="run the serving scenario campaign, write BENCH_serving.json",
    smoke_help="CI-sized campaign (~2k requests instead of ~10k)",
    tasks=_tasks,
    summarize=_summarize,
    history=_history,
    header=(
        f"{'scenario':>18s} {'requests':>9s} {'p50 ms':>9s} {'p95 ms':>9s} "
        f"{'p99 ms':>9s} {'req/s':>8s} {'reject':>7s} {'degraded':>9s}\n"
    ),
    row=_row,
    trailer=_trailer,
    flags=_flags,
)
