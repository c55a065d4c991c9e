"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list-models``           registered benchmark models.
- ``simulate``              run one model on one configuration.
- ``stages``                the OS/BOS/IOS/DUET technique breakdown.
- ``compare``               DUET vs the SOTA comparison accelerators.
- ``area``                  the Table-I area breakdown.
- ``faults``                run one fault campaign (``--model``) and
  print the degradation report, or the whole sharded campaign matrix
  (no ``--model``) and write ``BENCH_faults.json``.
- ``bench``                 time the fast path against the slow-path
  oracle and write ``BENCH_duet.json``.
- ``serve``                 simulate the serving front end on one seeded
  arrival trace and print the SLO report.
- ``loadgen``               run the serving scenario campaign and write
  ``BENCH_serving.json``.
- ``chaos``                 run the fault-tolerant serving sweep (fault
  rate x recovery policy) and write ``BENCH_chaos.json``.
- ``fleet``                 run the fleet-scale sharded-serving campaign
  (sharding, SLO classes, autoscaling, closed loop) and write
  ``BENCH_fleet.json``.
- ``dynamic``               run the selective-execution campaign
  (early-exit Pareto sweep, static parity, quality-vs-ladder overload
  serving) and write ``BENCH_dynamic.json``.
- ``lint``                  run duetlint, the project-specific static
  analysis (exit 0 clean, 1 findings, 2 usage error).

Every command prints a plain-text table; all simulations are seeded and
deterministic.  Usage errors (unknown model, incompatible flags) exit
with status 2 and a one-line message on stderr -- never a traceback.
The six campaign commands (``faults``, ``bench``, ``loadgen``, ``chaos``,
``fleet``, ``dynamic``) are :data:`repro.bench.BENCH_CAMPAIGNS` specs
registered by one helper with the shared ``--smoke``, ``--jobs``,
``--output`` and ``--no-perf`` flags (plus ``--seed`` and
``--slow-path`` where the campaign takes them); they exit 0 when every
verdict holds and 1 when one fails.
"""

from __future__ import annotations

import argparse
import functools
import sys

from repro.analysis.cli import cmd_lint, configure_parser as configure_lint_parser
from repro.baselines import cnvlutin, eyeriss, predict, predict_cnvlutin, snapea
from repro.bench import BENCH_CAMPAIGNS, run_campaign
from repro.models import MODEL_REGISTRY, get_model_spec
from repro.serving import (
    ARRIVAL_PROCESSES,
    AdmissionConfig,
    BatchPolicy,
    ServerConfig,
    TraceConfig,
    simulate_serving,
)
from repro.sim import AreaModel, DuetAccelerator
from repro.sim.config import STAGES
from repro.workloads import SparsityModel, cnn_workloads, rnn_workloads

__all__ = ["main", "build_parser", "CliError"]


class CliError(Exception):
    """A usage error the CLI reports as ``error: <message>`` (exit 2)."""


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DUET dual-module accelerator simulator (MICRO 2020 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="list registered benchmark models")

    p_sim = sub.add_parser("simulate", help="simulate one model")
    p_sim.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    p_sim.add_argument("--stage", default="DUET", choices=STAGES)
    p_sim.add_argument(
        "--include-fc", action="store_true",
        help="include FC classifier layers (CNN models)",
    )
    p_sim.add_argument("--seed", type=int, default=0, help="sparsity seed")

    p_stages = sub.add_parser("stages", help="OS/BOS/IOS/DUET breakdown")
    p_stages.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    p_stages.add_argument("--seed", type=int, default=0)

    p_cmp = sub.add_parser("compare", help="DUET vs SOTA accelerators")
    p_cmp.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    p_cmp.add_argument("--seed", type=int, default=0)

    sub.add_parser("area", help="Table-I area breakdown")

    p_serve = sub.add_parser(
        "serve",
        help="simulate the serving front end on one seeded arrival trace",
    )
    p_serve.add_argument(
        "--model", action="append", choices=sorted(MODEL_REGISTRY), default=None,
        help="traffic-mix model (repeatable; default alexnet + lstm)",
    )
    p_serve.add_argument("--requests", type=int, default=1000, help="trace length")
    p_serve.add_argument(
        "--rate", type=float, default=200.0,
        help="mean arrival rate in requests per simulated second",
    )
    p_serve.add_argument(
        "--arrival", default="poisson", choices=ARRIVAL_PROCESSES,
        help="arrival process",
    )
    p_serve.add_argument("--seed", type=int, default=0, help="trace seed")
    p_serve.add_argument(
        "--workers", type=int, default=2, help="simulated accelerator workers"
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=8, help="dynamic-batching cap (1 = off)"
    )
    p_serve.add_argument(
        "--max-wait-us", type=float, default=200.0,
        help="microbatch deadline in simulated microseconds",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission queue bound (arrivals beyond it are rejected)",
    )
    p_serve.add_argument(
        "--rate-limit", type=float, default=None,
        help="token-bucket sustained admit rate in req/s (default: off)",
    )
    p_serve.add_argument(
        "--variants", type=int, default=4,
        help="distinct workload samples circulating in the traffic",
    )

    for spec in BENCH_CAMPAIGNS.values():
        _register_campaign(sub, spec)

    p_lint = sub.add_parser(
        "lint",
        help="run duetlint, the project-specific static analysis",
    )
    configure_lint_parser(p_lint)
    return parser


def _register_campaign(sub, spec) -> None:
    """Add ``spec``'s subcommand: the shared campaign flags, then its own."""
    parser = sub.add_parser(spec.name, help=spec.help)
    parser.add_argument("--smoke", action="store_true", help=spec.smoke_help)
    if "seed" in spec.params:
        parser.add_argument(
            "--seed", type=int, default=0, help="campaign root seed"
        )
    if "fast_path" in spec.params:
        parser.add_argument(
            "--slow-path", action="store_true",
            help="simulate on the per-event slow-path oracle instead",
        )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (simulated results identical for any N)",
    )
    parser.add_argument(
        "--output", default=spec.output,
        help=f"result path (default {spec.output} at the repo root)",
    )
    parser.add_argument(
        "--no-perf", action="store_true",
        help=(
            "omit the wall-clock perf block and history so documents "
            "compare byte-identical across worker counts"
        ),
    )
    spec.flags(parser)


def _workloads_for(spec, seed: int, include_fc: bool = False):
    sparsity = SparsityModel(seed=seed)
    if spec.domain == "cnn":
        return cnn_workloads(spec, sparsity, include_fc=include_fc)
    return rnn_workloads(spec, sparsity)


def _cmd_list_models(_args, out) -> int:
    for name in sorted(MODEL_REGISTRY):
        spec = get_model_spec(name)
        out.write(
            f"{name:10s} {spec.domain:4s} {len(spec.layers):3d} layers "
            f"{spec.total_macs / 1e9:6.2f} GMACs "
            f"{spec.total_weight_elements / 1e6:7.1f} M weights\n"
        )
    return 0


def _cmd_simulate(args, out) -> int:
    spec = get_model_spec(args.model)
    if args.include_fc and spec.domain != "cnn":
        raise CliError(
            f"--include-fc applies to CNN models; {args.model} is an RNN"
        )
    workloads = _workloads_for(spec, args.seed, args.include_fc)
    report = DuetAccelerator(stage=args.stage).run(spec, workloads=workloads)
    out.write(f"{args.model} on {args.stage}:\n")
    out.write(
        f"{'layer':>18s} {'cycles':>12s} {'exec':>10s} {'spec':>8s} "
        f"{'mem':>10s} {'util':>5s}\n"
    )
    for layer in report.layers:
        out.write(
            f"{layer.name:>18s} {layer.total_cycles:12,} "
            f"{layer.executor_cycles:10,} {layer.speculator_cycles:8,} "
            f"{layer.memory_cycles:10,} {layer.utilization:5.2f}\n"
        )
    out.write(
        f"total: {report.total_cycles:,} cycles = {report.latency_ms:.3f} ms, "
        f"energy {report.energy.total / 1e9:.3f} (norm. units)\n"
    )
    return 0


def _cmd_stages(args, out) -> int:
    spec = get_model_spec(args.model)
    workloads = _workloads_for(spec, args.seed)
    base = None
    out.write(f"{args.model}: technique breakdown (paper Fig. 12a)\n")
    for stage in STAGES:
        report = DuetAccelerator(stage=stage).run(spec, workloads=workloads)
        if stage == "BASE":
            base = report
        out.write(
            f"  {stage:5s} {report.latency_ms:8.3f} ms  "
            f"speedup {report.speedup_over(report) if base is None else base.total_cycles / report.total_cycles:5.2f}x  "
            f"util {report.mean_utilization:5.2f}\n"
        )
    return 0


def _cmd_compare(args, out) -> int:
    spec = get_model_spec(args.model)
    if spec.domain != "cnn":
        raise CliError(
            "compare supports CNN models only (Fig. 11b is CNN-only)"
        )
    workloads = _workloads_for(spec, args.seed)
    duet = DuetAccelerator(stage="DUET").run(spec, workloads=workloads)
    out.write(f"{args.model}: normalised to DUET = 1.0 (paper Fig. 11b)\n")
    out.write(f"{'design':>18s} {'latency':>8s} {'energy':>8s} {'EDP':>8s}\n")
    for name, factory in (
        ("eyeriss", eyeriss),
        ("cnvlutin", cnvlutin),
        ("snapea", snapea),
        ("predict", predict),
        ("predict+cnvlutin", predict_cnvlutin),
    ):
        r = factory().run(spec, workloads)
        out.write(
            f"{name:>18s} {r.total_cycles / duet.total_cycles:7.2f}x "
            f"{r.energy.total / duet.energy.total:7.2f}x "
            f"{r.edp() / duet.edp():7.2f}x\n"
        )
    return 0


def _cmd_area(_args, out) -> int:
    breakdown = AreaModel().breakdown()
    out.write("DUET area breakdown (paper Table I)\n")
    for name, mm2, frac in breakdown.as_rows():
        out.write(f"{name:>30s} {mm2:8.3f} mm^2 {frac:6.1%}\n")
    out.write(
        f"{'Executor total':>30s} {breakdown.executor_total:8.3f} mm^2 "
        f"{breakdown.fraction(breakdown.executor_total):6.1%}\n"
    )
    out.write(
        f"{'Speculator total':>30s} {breakdown.speculator_total:8.3f} mm^2 "
        f"{breakdown.fraction(breakdown.speculator_total):6.1%}\n"
    )
    return 0


def _cmd_serve(args, out) -> int:
    if args.requests < 1:
        raise CliError(f"--requests must be >= 1, got {args.requests}")
    if args.rate <= 0:
        raise CliError(f"--rate must be positive, got {args.rate}")
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    if args.max_batch < 1:
        raise CliError(f"--max-batch must be >= 1, got {args.max_batch}")
    models = tuple(args.model) if args.model else ("alexnet", "lstm")
    trace = TraceConfig(
        n_requests=args.requests,
        rate_rps=args.rate,
        arrival=args.arrival,
        models=models,
        workload_variants=args.variants,
        seed=args.seed,
    )
    server = ServerConfig(
        workers=args.workers,
        batch=BatchPolicy(max_batch=args.max_batch, max_wait_us=args.max_wait_us),
        admission=AdmissionConfig(
            max_queue_depth=args.queue_depth, rate_limit_rps=args.rate_limit
        ),
    )
    result = simulate_serving(trace, config=server)
    out.write(
        f"serving {', '.join(models)} at {args.rate:g} req/s ({args.arrival}, "
        f"seed {args.seed}): {args.workers} worker(s), max batch "
        f"{args.max_batch}, queue bound {args.queue_depth}\n"
    )
    out.write(result.summary.format() + "\n")
    out.write(
        f"  queue peak : {result.max_queue_depth} pending "
        f"(bound {args.queue_depth})\n"
    )
    return 0


def _cmd_campaign(spec, args, out) -> int:
    """Run one campaign; exit 0 when every verdict holds, else 1."""
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    if spec.branch is not None:
        code = spec.branch(args, out)
        if code is not None:
            return code
    params = {
        name: not args.slow_path if name == "fast_path" else getattr(args, name)
        for name in spec.params
    }
    document = run_campaign(
        spec,
        smoke=args.smoke,
        jobs=args.jobs,
        output=args.output,
        with_perf=not args.no_perf,
        progress=out.write,
        **params,
    )
    return 0 if all(spec.verdicts(document).values()) else 1


_COMMANDS = {
    "list-models": _cmd_list_models,
    "simulate": _cmd_simulate,
    "stages": _cmd_stages,
    "compare": _cmd_compare,
    "area": _cmd_area,
    "serve": _cmd_serve,
    "lint": cmd_lint,
    **{
        name: functools.partial(_cmd_campaign, spec)
        for name, spec in BENCH_CAMPAIGNS.items()
    },
}


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    """CLI entry point; returns the process exit code.

    Usage errors -- a :class:`CliError` from a command, or a bad value
    that slipped past argparse (``ValueError``/``KeyError`` from the
    library layer) -- print one ``error: ...`` line on ``err`` and return
    status 2; they never escape as tracebacks.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except CliError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        err.write(f"error: {message}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
