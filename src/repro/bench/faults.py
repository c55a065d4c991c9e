"""Fault-matrix bench: the reliability campaign grid, sharded and timed.

``python -m repro faults`` without ``--model`` runs the whole
``(model x campaign x guards x seed)`` reliability matrix through the
parallel campaign engine (:mod:`repro.parallel`) and writes
``BENCH_faults.json`` (schema ``duet-faults/1``):

- per cell: the degradation outcome (final ladder rung, event count),
  the fault account (per-site injections, DRAM retries/unrecoverable),
  the quality account, and the values-never-corrupted invariant verdict
  from both angles (analytical hazards + functional probe);
- globally: aggregate counts and the headline
  ``all_guarded_invariants_held`` flag -- the correctness contract of
  the whole grid (guarded cells must never corrupt a computed value;
  unguarded cells are the foil and are *expected* to);
- a ``perf`` block (wall clock, worker efficiency) and a cross-run
  ``history`` trail, both excluded from the determinism
  contract -- every simulated quantity in the document is a pure
  function of ``(matrix, root seed)``, so ``--jobs 1`` and ``--jobs N``
  agree byte for byte on the :func:`deterministic view
  <repro.bench.document.deterministic_view>` (and on the whole file
  under ``--no-perf``).
"""

from __future__ import annotations

from repro.bench.campaign import Campaign
from repro.bench.document import history_entry
from repro.models import MODEL_REGISTRY
from repro.parallel import CampaignTask, spawn_task_seeds
from repro.reliability import CAMPAIGNS, GuardSettings, run_fault_campaign
from repro.sim.config import STAGES

__all__ = ["CAMPAIGN", "FAULTS_SCHEMA", "fault_matrix"]

#: schema identifier written into BENCH_faults.json.
FAULTS_SCHEMA = "duet-faults/1"

#: smoke grid: one compute-bound CNN and one memory-bound RNN against
#: the CI campaign and the flaky-channel campaign, guards on.
_SMOKE_MODELS = ("alexnet", "lstm")
_SMOKE_CAMPAIGNS = ("smoke", "dram-flaky")


def fault_matrix(smoke: bool = False) -> list[dict]:
    """Enumerate the campaign grid as a stable, ordered cell list.

    The enumeration order *is* the task index order: cell ``i`` always
    receives child seed ``i`` of the root seed, so the grid's results are
    independent of worker count and scheduling.
    """
    if smoke:
        models: tuple[str, ...] = _SMOKE_MODELS
        campaigns: tuple[str, ...] = _SMOKE_CAMPAIGNS
        guard_modes = (True,)
        seed_indices = (0,)
    else:
        models = tuple(sorted(MODEL_REGISTRY))
        campaigns = tuple(sorted(CAMPAIGNS))
        guard_modes = (True, False)
        seed_indices = (0, 1)
    return [
        {
            "model": model,
            "campaign": campaign,
            "guards": guards,
            "seed_index": seed_index,
        }
        for model in models
        for campaign in campaigns
        for guards in guard_modes
        for seed_index in seed_indices
    ]


def _run_matrix_cell(
    model: str, campaign: str, guards: bool, seed: int, seed_index: int
) -> dict:
    """Execute one grid cell; returns its JSON-ready record.

    Top-level so the engine can pickle it into worker processes; every
    returned value is a plain Python scalar/str so the record crosses
    process boundaries and serialises without coercion.
    """
    report = run_fault_campaign(
        model=model,
        campaign=campaign,
        seed=seed,
        guards=GuardSettings(enabled=guards),
    )
    r = report.reliability
    return {
        "model": model,
        "campaign": campaign,
        "guards": guards,
        "seed_index": seed_index,
        "seed": seed,
        "invariant_held": bool(report.invariant_held),
        "initial_stage": r.initial_stage,
        "final_stage": r.final_stage,
        "degradation_events": len(r.events),
        "injected": {site: int(n) for site, n in sorted(r.total_injected.items())},
        "dram_retries": int(r.total_dram_retries),
        "dram_unrecoverable": int(r.total_dram_unrecoverable),
        "value_hazards": int(r.total_value_hazards),
        "recovery_actions": int(r.total_recovery_actions),
        "misspeculation_rate": float(r.misspeculation_rate),
        "quality_retained": float(r.quality_retained),
        "latency_ms": float(report.latency_ms),
        "probe_positions": int(report.probe.positions_checked),
        "probe_mismatches": int(report.probe.mismatches),
    }


def _tasks(smoke: bool = False, seed: int = 0) -> list[CampaignTask]:
    """One task per grid cell; cell ``i``'s seed is child ``i`` of the
    root ``seed`` (``SeedSequence.spawn``), never a function of ``jobs``."""
    cells = fault_matrix(smoke)
    seeds = spawn_task_seeds(seed, len(cells))
    return [
        CampaignTask(index=i, fn=_run_matrix_cell, kwargs={**cell, "seed": seeds[i]})
        for i, cell in enumerate(cells)
    ]


def _summarize(records: list[dict], params: dict) -> dict:
    guarded = [r for r in records if r["guards"]]
    unguarded = [r for r in records if not r["guards"]]
    return {
        "schema": FAULTS_SCHEMA,
        "smoke": params["smoke"],
        "root_seed": params["seed"],
        "models": sorted({r["model"] for r in records}),
        "campaigns": sorted({r["campaign"] for r in records}),
        "cells": records,
        "aggregates": {
            "tasks": len(records),
            "guarded": len(guarded),
            "unguarded": len(unguarded),
            "guarded_invariant_violations": sum(
                not r["invariant_held"] for r in guarded
            ),
            "unguarded_invariant_violations": sum(
                not r["invariant_held"] for r in unguarded
            ),
            "degradation_events": sum(r["degradation_events"] for r in records),
            "dram_retries": sum(r["dram_retries"] for r in records),
            "dram_unrecoverable": sum(r["dram_unrecoverable"] for r in records),
        },
        "all_guarded_invariants_held": all(r["invariant_held"] for r in guarded),
    }


def _history(document: dict) -> dict:
    return {
        **history_entry(document, ("smoke", "all_guarded_invariants_held")),
        "tasks": document["aggregates"]["tasks"],
    }


def _verdicts(document: dict) -> dict:
    return {"all_guarded_invariants_held": document["all_guarded_invariants_held"]}


def _row(record: dict) -> str:
    return (
        f"{record['model']:>10s} {record['campaign']:>16s} "
        f"{'on' if record['guards'] else 'off':>6s} "
        f"{record['final_stage']:>6s} {record['degradation_events']:6d} "
        f"{record['dram_retries']:8d} "
        f"{'PASS' if record['invariant_held'] else 'VIOLATED':>9s}\n"
    )


def _trailer(document: dict, output: str, jobs: int) -> str:
    agg = document["aggregates"]
    perf = document.get("perf")
    if perf is not None:
        lines = (
            f"{agg['tasks']} cells in {perf['wall_s']:.2f}s wall "
            f"({jobs} job(s), {perf['worker_efficiency']:.0%} worker "
            f"efficiency, ~{perf['speedup_vs_serial_est']:.2f}x vs serial "
            f"est.); results in {output}\n"
        )
    else:
        lines = f"{agg['tasks']} cells; results in {output}\n"
    if not document["all_guarded_invariants_held"]:
        return lines + (
            f"values-never-corrupted invariant: VIOLATED in "
            f"{agg['guarded_invariant_violations']} guarded cell(s)\n"
        )
    return lines + (
        f"values-never-corrupted invariant: PASS across "
        f"{agg['guarded']} guarded cells "
        f"({agg['unguarded_invariant_violations']}/{agg['unguarded']} "
        "unguarded foils corrupted, as expected)\n"
    )


def _flags(parser) -> None:
    parser.add_argument(
        "--model", choices=sorted(MODEL_REGISTRY), default=None,
        help="single-campaign mode: the model to run (omit for the matrix)",
    )
    parser.add_argument(
        "--campaign", default="smoke", choices=sorted(CAMPAIGNS),
        help="built-in fault campaign to apply (single-campaign mode)",
    )
    parser.add_argument(
        "--stage", default="DUET", choices=STAGES,
        help="degradation-ladder rung the run starts at",
    )
    parser.add_argument(
        "--no-guards", action="store_true",
        help="disable the online guards (show the unprotected failure mode)",
    )


def _single_run(args, out) -> int | None:
    """``faults --model``: run one campaign and print its report."""
    if args.model is None:
        if args.no_guards:
            raise ValueError(
                "--no-guards needs --model; the matrix runs guarded and "
                "unguarded arms itself"
            )
        return None
    report = run_fault_campaign(
        model=args.model,
        campaign=args.campaign,
        seed=args.seed,
        guards=GuardSettings(enabled=not args.no_guards),
        initial_stage=args.stage,
    )
    out.write(report.format() + "\n")
    return 0


#: ``python -m repro faults`` (the matrix; ``--model`` runs one campaign).
CAMPAIGN = Campaign(
    name="faults",
    schema=FAULTS_SCHEMA,
    output="BENCH_faults.json",
    help=(
        "run one fault campaign (--model) or the whole sharded "
        "matrix (no --model), writing BENCH_faults.json"
    ),
    smoke_help="matrix mode: CI-sized grid instead of the full matrix",
    tasks=_tasks,
    summarize=_summarize,
    history=_history,
    header=(
        f"{'model':>10s} {'campaign':>16s} {'guards':>6s} {'stage':>6s} "
        f"{'events':>6s} {'retries':>8s} {'invariant':>9s}\n"
    ),
    row=_row,
    trailer=_trailer,
    verdicts=_verdicts,
    flags=_flags,
    branch=_single_run,
)
