"""Deterministic multiprocess campaign execution (see :mod:`.engine`)."""

from repro.parallel.engine import (
    CampaignTask,
    ShardedRun,
    merge_counters,
    preferred_start_method,
    run_sharded,
    spawn_task_seeds,
)

__all__ = [
    "CampaignTask",
    "ShardedRun",
    "merge_counters",
    "preferred_start_method",
    "run_sharded",
    "spawn_task_seeds",
]
