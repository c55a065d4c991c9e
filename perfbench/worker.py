"""One benchmark process: set up a workload, time its calls, check outputs.

Started by ``run.py``, which gives it a private empty ``DUET_CACHE_DIR``
and pinned thread counts.  Modes:

- ``setup``  -- set up and stop (a set-up time sample);
- ``run``    -- set up, time the rounds that fill ``--seconds`` on the
  reference host, check outputs;
- ``traced`` -- as ``run`` with span wrappers on every layer's public
  callables, reporting per-layer metrics.

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--trace-out", help="where the traced mode writes its spans")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    cache_dir = Path(os.environ["DUET_CACHE_DIR"])
    isolation = []
    if not cache_dir.is_dir() or any(cache_dir.iterdir()):
        isolation.append(f"cache dir {cache_dir} is not a fresh empty directory")

    recorder = None
    if args.mode == "traced":
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
        recorder.begin("setup")

    import harness
    import suite
    from repro.core import cache as core_cache

    workload = suite.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cache_before = core_cache.cache_stats()
    disk_hits = core_cache.DISK_CACHE.hits

    def first_call_isolated():
        if core_cache.DISK_CACHE.hits != disk_hits:
            return "the first timed call read the disk cache"
        return None

    if recorder is not None:
        recorder.begin("timed")
    measured = harness.measure(
        workload, harness.rounds_for(workload, args.seconds),
        after_first_call=first_call_isolated,
    )
    if recorder is not None:
        recorder.begin(None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache_after = core_cache.cache_stats()
    oracle_errors = workload.verify()

    out = {
        "setup_s": setup_s,
        "rounds": measured.rounds,
        "attempted": measured.attempted,
        "failed": measured.failed + len(oracle_errors),
        "units": measured.units,
        "wall_s": measured.wall_s,
        "cpu_s": measured.cpu_s,
        "latencies_s": measured.latencies_s,
        "peak_rss_mb": peak_rss_mb,
        "errors": (measured.errors + oracle_errors)[:20],
        "isolation": isolation,
        "input_digest": measured.input_digest,
        "output_digest": measured.output_digest,
    }
    if recorder is not None:
        out["per_layer"] = spans.layer_metrics(recorder, measured, cache_before, cache_after)
        if args.trace_out:
            recorder.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
