"""Bench harness: discovery, timing, equivalence, JSON emission.

The harness times every selected suite twice -- once on the vectorized
fast path (``fast_path=True``, the default configuration) and once on the
per-event reference slow path -- and refuses to call the run equivalent
unless the two produce *equal* fingerprints (every simulated cycle,
energy and utilisation counter identical).  Results land in
``BENCH_duet.json`` (schema ``duet-bench/1``):

- per suite: wall times for both paths (min over ``repeat`` timed runs
  after ``warmup`` untimed ones), total simulated cycles, the
  fast-over-slow wall-clock speedup, and the equivalence verdict;
- globally: the discovered ``benchmarks/bench_*.py`` files (including
  the ones without a registered timing suite), the geometric-mean
  speedup, and an ``all_equivalent`` flag.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

from repro.bench.campaign import Campaign
from repro.bench.document import first_diff, history_entry
from repro.bench.suites import SUITES, BenchSuite, prepare_models
from repro.parallel import CampaignTask
from repro.sim.config import DuetConfig

__all__ = ["BENCH_SCHEMA", "CAMPAIGN", "discover_bench_files", "run_suite"]

#: schema identifier written into BENCH_duet.json.
BENCH_SCHEMA = "duet-bench/1"


def discover_bench_files(bench_dir: str | Path = "benchmarks") -> list[str]:
    """All ``bench_*.py`` files under ``bench_dir``, repo-relative, sorted."""
    root = Path(bench_dir)
    if not root.is_dir():
        return []
    return sorted(f"{root.name}/{p.name}" for p in root.glob("bench_*.py"))


def _time_mode(
    suite: BenchSuite,
    models: tuple[str, ...],
    fast_path: bool,
    warmup: int,
    repeat: int,
):
    """Prepare fresh workloads and time one path; returns (times, fp, cycles).

    Each mode gets its own prepared workloads (sampling is seeded, so the
    contents are identical) so neither path times against caches the
    other warmed.
    """
    prepared = prepare_models(models)
    config = DuetConfig(fast_path=fast_path)
    for _ in range(warmup):
        suite.runner(prepared, config)
    times = []
    fingerprint = cycles = None
    for _ in range(repeat):
        start = time.perf_counter()
        fingerprint, cycles = suite.runner(prepared, config)
        times.append(time.perf_counter() - start)
    return times, fingerprint, cycles


def run_suite(
    suite: BenchSuite, smoke: bool = False, warmup: int = 1, repeat: int = 3
) -> dict:
    """Run one suite on both paths; returns its JSON-ready result record."""
    models = suite.smoke_models if smoke else suite.full_models
    slow_times, slow_fp, slow_cycles = _time_mode(
        suite, models, fast_path=False, warmup=warmup, repeat=repeat
    )
    fast_times, fast_fp, fast_cycles = _time_mode(
        suite, models, fast_path=True, warmup=warmup, repeat=repeat
    )
    diff = first_diff(fast_fp, slow_fp)
    equivalent = diff is None and fast_cycles == slow_cycles
    record = {
        "name": suite.name,
        "bench_file": suite.bench_file,
        "figure": suite.figure,
        "models": list(models),
        "simulated_cycles": fast_cycles,
        "wall_time_s": {"fast": min(fast_times), "slow": min(slow_times)},
        "wall_times_s": {"fast": fast_times, "slow": slow_times},
        "speedup_vs_slow_path": min(slow_times) / min(fast_times),
        "equivalent": equivalent,
        "equivalence": "bit-identical" if equivalent else "MISMATCH",
    }
    if not equivalent:
        record["first_divergence"] = diff if diff is not None else "$cycles"
    return record


def _select_suites(suite_names, smoke: bool) -> list[BenchSuite]:
    if suite_names:
        unknown = sorted(set(suite_names) - set(SUITES))
        if unknown:
            raise ValueError(
                f"unknown suite(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(SUITES))}"
            )
        return [SUITES[name] for name in suite_names]
    if smoke:
        return [s for s in SUITES.values() if s.in_smoke]
    return list(SUITES.values())


def _tasks(
    smoke: bool = False,
    suite_names: list[str] | None = None,
    warmup: int = 1,
    repeat: int = 3,
) -> list[CampaignTask]:
    """One task per selected suite: ``suite_names``, or by default the
    smoke subset when ``smoke`` else every registered suite."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    return [
        CampaignTask(
            index=i,
            fn=run_suite,
            kwargs={
                "suite": suite,
                "smoke": smoke,
                "warmup": warmup,
                "repeat": repeat,
            },
        )
        for i, suite in enumerate(_select_suites(suite_names, smoke))
    ]


def _summarize(records: list[dict], params: dict) -> dict:
    discovered = discover_bench_files()
    timed_files = {s.bench_file for s in SUITES.values()}
    speedups = [r["speedup_vs_slow_path"] for r in records]
    return {
        "schema": BENCH_SCHEMA,
        "smoke": params["smoke"],
        "warmup": params["warmup"],
        "repeat": params["repeat"],
        "suites": records,
        "discovered_bench_files": discovered,
        "untimed_bench_files": [
            f for f in discovered if f not in timed_files
        ],
        "geomean_speedup_vs_slow_path": (
            float(math.exp(sum(math.log(s) for s in speedups) / len(speedups)))
            if speedups
            else None
        ),
        "all_equivalent": all(r["equivalent"] for r in records),
    }


def _history(document: dict) -> dict:
    return history_entry(
        document, ("smoke", "geomean_speedup_vs_slow_path", "all_equivalent")
    )


def _verdicts(document: dict) -> dict:
    return {"all_equivalent": document["all_equivalent"]}


def _row(record: dict) -> str:
    return (
        f"{record['name']:>26s} {record['wall_time_s']['fast']:9.3f} "
        f"{record['wall_time_s']['slow']:9.3f} "
        f"{record['speedup_vs_slow_path']:7.1f}x "
        f"{record['equivalence']:>13s}\n"
    )


def _trailer(document: dict, output: str, jobs: int) -> str:
    geomean = document.get("geomean_speedup_vs_slow_path")
    if geomean is not None:
        lines = (
            f"geomean speedup {geomean:.1f}x over the slow-path oracle; "
            f"results in {output}\n"
        )
    else:
        lines = f"results in {output}\n"
    if not document["all_equivalent"]:
        lines += (
            "fast path diverged from the slow-path oracle "
            "(see the MISMATCH suites above)\n"
        )
    return lines


def _flags(parser) -> None:
    parser.add_argument(
        "--suite", action="append", choices=sorted(SUITES), default=None,
        dest="suite_names", help="run only the named suite (repeatable)",
    )
    parser.add_argument(
        "--warmup", type=int, default=1,
        help="untimed runs per path before timing (default 1)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="timed runs per path; the minimum is reported (default 3)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_suites",
        help="list registered suites and exit",
    )


def _list_suites(args, out) -> int | None:
    """``bench --list``: print the suite registry instead of running it."""
    if not args.list_suites:
        return None
    for name in sorted(SUITES):
        suite = SUITES[name]
        marker = "smoke+full" if suite.in_smoke else "full"
        out.write(
            f"{name:26s} {suite.figure:14s} [{marker}] {suite.description}\n"
        )
    return 0


#: ``python -m repro bench``.
CAMPAIGN = Campaign(
    name="bench",
    schema=BENCH_SCHEMA,
    output="BENCH_duet.json",
    help="time the fast path vs the slow-path oracle, write BENCH_duet.json",
    smoke_help="reduced suite subset and model lists (CI-sized)",
    tasks=_tasks,
    summarize=_summarize,
    history=_history,
    header=(
        f"{'suite':>26s} {'fast s':>9s} {'slow s':>9s} {'speedup':>8s} "
        f"{'equivalence':>13s}\n"
    ),
    row=_row,
    trailer=_trailer,
    verdicts=_verdicts,
    flags=_flags,
    branch=_list_suites,
)
