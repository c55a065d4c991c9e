"""Input-adaptive selective execution -- early exits vs the static path.

Not a paper figure: a systems benchmark over the reproduction's dynamic
tier (early-exit literature: D2NN, arXiv:1701.00299).  Sweeps the exit
confidence threshold per CNN backbone to trace the accuracy-vs-cycles
Pareto front, proves the always-late path degenerates bit-identically to
the static executor, and replays one overload trace with ladder-only vs
quality-aware shedding to check goodput dominance.  Shards across
``DUET_JOBS`` worker processes (results are byte-identical for any
count).
"""

from repro.bench import BENCH_CAMPAIGNS, run_campaign
from repro.bench.dynamic import PARETO_MAX_DROP, PARETO_MIN_REDUCTION
from repro.dynamic import early_exit_variants


def test_dynamic_campaign(benchmark, report, jobs):
    document = benchmark.pedantic(
        lambda: run_campaign(
            BENCH_CAMPAIGNS["dynamic"], smoke=True, seed=0, jobs=jobs, with_perf=False
        ),
        rounds=1,
        iterations=1,
    )

    lines = [
        f"{'model':>10s} {'best tau':>8s} {'speedup':>8s} {'drop':>6s} "
        f"{'subpath':>8s} {'win':>4s}"
    ]
    for record in document["pareto"]:
        best = record["best"]
        lines.append(
            f"{record['model']:>10s} {best['threshold']:8.2f} "
            f"{best['cycle_reduction_vs_full']:7.2f}x "
            f"{best['mean_estimated_drop']:5.1%} "
            f"{record['subpath']['cycle_reduction_vs_full']:7.2f}x "
            f"{'yes' if record['pareto_win'] else 'no':>4s}"
        )
    d = document["dominance"]
    lines.append(
        f"overload goodput: quality {d['quality_goodput_rps']:.1f} vs "
        f"ladder {d['ladder_goodput_rps']:.1f} req/s "
        f"({d['gain']:.2f}x, mean drop {d['quality_mean_drop']:.1%})"
    )
    report("\n".join(lines))

    verdicts = document["verdicts"]
    assert verdicts["pareto_win"]
    assert verdicts["static_parity"]
    assert verdicts["threshold_monotone"]
    assert verdicts["goodput_dominance"]
    assert verdicts["quality_bounded"]
    # every registered early-exit backbone is swept
    assert tuple(r["model"] for r in document["pareto"]) == (
        early_exit_variants()
    )
    # the winning point honours the acceptance bar it claims
    best = document["best_tradeoff"]
    assert best["cycle_reduction_vs_full"] >= PARETO_MIN_REDUCTION
    assert best["mean_estimated_drop"] <= PARETO_MAX_DROP
