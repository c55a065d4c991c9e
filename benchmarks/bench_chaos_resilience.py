"""Fault-tolerant serving -- the chaos policy ladder under worker faults.

Not a paper figure: a systems benchmark over the reproduction's serving
tier.  Replays one seeded trace against a faulty fleet (crash / hang /
straggle, with a 3x-hotter "lemon" worker) under each rung of the
recovery-policy ladder and checks the campaign's contracts: no request
lost, no duplicate completion, and the full recovery stack strictly
beating the mechanism-free baseline on goodput at the highest fault
rate.  Shards across ``DUET_JOBS`` worker processes (results are
byte-identical for any count).
"""

from repro.bench import BENCH_CAMPAIGNS, run_campaign
from repro.serving import POLICY_LADDER


def test_chaos_policy_ladder(benchmark, report, jobs):
    document = benchmark.pedantic(
        lambda: run_campaign(
            BENCH_CAMPAIGNS["chaos"], smoke=True, seed=0, jobs=jobs, with_perf=False
        ),
        rounds=1,
        iterations=1,
    )

    lines = [
        f"{'policy':>22s} {'fault':>6s} {'done':>5s} {'fail':>5s} "
        f"{'req/s':>8s} {'retries':>8s} {'evicts':>7s}"
    ]
    for cell in document["cells"]:
        s = cell["summary"]
        lines.append(
            f"{cell['policy']:>22s} {cell['fault_rate']:6.2f} "
            f"{s['completed']:5d} {s['failed']:5d} {s['goodput_rps']:8.1f} "
            f"{s['retries']:8d} {s['evictions']:7d}"
        )
    d = document["dominance"]
    lines.append(
        f"dominance at fault rate {d['fault_rate']}: "
        f"{d['full_stack_goodput_rps']:.1f} vs "
        f"{d['baseline_goodput_rps']:.1f} req/s"
    )
    report("\n".join(lines))

    verdicts = document["verdicts"]
    assert verdicts["zero_lost"]
    assert verdicts["zero_duplicates"]
    assert verdicts["dominance"]
    # every policy ladder rung appears in the sweep
    assert {c["policy"] for c in document["cells"]} == set(POLICY_LADDER)
    # recovery policies must terminally resolve every admitted request
    for cell in document["cells"]:
        s = cell["summary"]
        assert s["completed"] + s["failed"] + s["rejected"] == s["offered"]
