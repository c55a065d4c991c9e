"""Bench campaigns: the six machine-readable ``BENCH_*.json`` reports.

Every report is a :class:`~repro.bench.campaign.Campaign` run by the one
driver :func:`~repro.bench.campaign.run_campaign`, sharded across worker
processes by :mod:`repro.parallel` (``--jobs N``) with byte-identical
simulated results for any worker count.  :data:`BENCH_CAMPAIGNS` maps each CLI
command to its spec:

- ``bench`` -> ``BENCH_duet.json`` (:mod:`repro.bench.harness`): times
  the simulator's vectorized fast path against the per-event slow path
  (the reference oracle) on the paper's experiment suites
  (:mod:`repro.bench.suites`).
- ``loadgen`` -> ``BENCH_serving.json`` (:mod:`repro.bench.serving`):
  the serving-tier SLO campaign -- nominal / overload /
  batching-capacity scenarios over seeded arrival traces.
- ``faults`` -> ``BENCH_faults.json`` (:mod:`repro.bench.faults`): the
  reliability campaign grid with its invariant verdicts.
- ``chaos`` -> ``BENCH_chaos.json`` (:mod:`repro.bench.chaos`): the
  fault-tolerant serving sweep -- fault rate x recovery policy, with
  conservation and dominance verdicts.
- ``fleet`` -> ``BENCH_fleet.json`` (:mod:`repro.bench.fleet`): sharded
  servers, SLO-class scheduling, autoscaling, and closed-loop clients,
  with goodput-dominance and autoscale verdicts.
- ``dynamic`` -> ``BENCH_dynamic.json`` (:mod:`repro.bench.dynamic`):
  the selective-execution campaign -- the accuracy-vs-cycles Pareto
  sweep over exit thresholds, the static-parity degeneration check, and
  the quality-vs-ladder overload serving comparison.

:mod:`repro.bench.document` holds the shared document plumbing:
determinism views, ``perf`` blocks, cross-run ``history``, atomic
emission.

See ``docs/performance.md`` for how to run the timing harness,
``docs/serving.md`` for the serving campaign, and ``docs/benchmarks.md``
for the paper-figure mapping of every bench file.
"""

from repro.bench import chaos, dynamic, faults, fleet, harness, serving
from repro.bench.campaign import Campaign, run_campaign
from repro.bench.document import deterministic_view
from repro.bench.dynamic import DYNAMIC_SCHEMA, dynamic_scenarios, exit_thresholds
from repro.bench.serving import SERVE_SCHEMA, serve_scenarios

#: every campaign, keyed by its CLI command.
BENCH_CAMPAIGNS: dict[str, Campaign] = {
    module.CAMPAIGN.name: module.CAMPAIGN
    for module in (faults, harness, serving, chaos, fleet, dynamic)
}

__all__ = [
    "BENCH_CAMPAIGNS",
    "DYNAMIC_SCHEMA",
    "SERVE_SCHEMA",
    "deterministic_view",
    "dynamic_scenarios",
    "exit_thresholds",
    "run_campaign",
    "serve_scenarios",
]
