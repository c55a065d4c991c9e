"""Run one benchmark workload cold and print its metrics.

    python3 perfbench/run.py --workload sim-cold --seed 1 --seconds 15 --trace 0

Every measurement is a fresh process (``worker.py``) with its own empty
``DUET_CACHE_DIR``, deleted afterwards, and BLAS/OpenMP pinned to one
thread.  ``--trace 0`` reports the end-to-end metrics: set-up is sampled
in several fresh processes and reported as the median.  ``--trace 1``
runs the workload untraced and then traced, and reports the per-layer
metrics plus the tracing overhead.  ``--workload all`` runs every workload.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 when the program's
sources are missing and 1 when a measurement process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("sim-cold", "exit-sweep", "serve-replay", "dual-tune")

#: set-up samples behind ``setup_s``: set-up-only processes plus the
#: measured one.
SETUP_SAMPLES = 7
#: everything a run starts must end this long after it began.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: end-to-end metric name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "units_per_s": "units/s",
    "cpu_per_unit_ms": "ms",
    "peak_rss_mb": "MiB",
}


def unit_of(metric: str) -> str:
    """The unit of a metric, from its name."""
    if metric in END_TO_END:
        return END_TO_END[metric]
    for suffix, unit in (("_pct", "%"), ("_ratio", "ratio"), ("_mb", "MiB"), ("_mb_written", "MiB"),
                         ("us_per_req", "us"), ("us_per_layer", "us"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


class WorkerFailed(RuntimeError):
    """A measurement process exited abnormally or printed no result."""


def protected_state() -> dict:
    """Fingerprint of what no run may write: committed BENCH_*.json
    documents and the repository's own ``.duet-cache/``."""
    state = {}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        state[path.name] = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
    shared = ROOT / ".duet-cache"
    state[".duet-cache"] = (
        sorted(
            (str(p.relative_to(ROOT)), p.stat().st_size, p.stat().st_mtime_ns)
            for p in shared.rglob("*")
        )
        if shared.exists()
        else None
    )
    return state


def run_worker(workload, seed, seconds, mode, deadline, trace_out=None) -> dict:
    """One fresh worker process with a private, empty cache directory."""
    WORK.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.update(DUET_CACHE_DIR=cache_dir, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.pop("DUET_CACHE_DISK", None)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if trace_out:
        command += ["--trace-out", str(trace_out)]
    try:
        started = time.monotonic()
        proc = subprocess.Popen(command + ["--t0", repr(started)], env=env, cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerFailed(f"{workload} {mode}: out of time") from None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} {mode}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(run: dict, setups: list) -> dict:
    units = run["units"]
    if not units:
        raise WorkerFailed("no timed call succeeded")
    return {
        "setup_s": statistics.median(setups),
        "units_per_s": units / run["wall_s"],
        "cpu_per_unit_ms": run["cpu_s"] / units * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def report(workload, seed, run, metrics) -> None:
    """Human-readable lines for one workload (the JSON line follows)."""
    calls = len(run["latencies_s"])
    print(f"{workload}  seed={seed}  rounds={run['rounds']}  calls={calls}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:14.6g} {unit_of(name)}")
    if calls:
        print(f"  {'call_p50_ms':<28} {statistics.median(run['latencies_s']) * 1e3:14.6g} ms "
              f"({calls} calls)")
    p90 = tail_percentile(run["latencies_s"], 90)
    if p90 is None:
        print(f"  {'call_p90_ms':<28} {'omitted':>14} ({calls} calls, fewer than 10 beyond p90)")
    else:
        print(f"  {'call_p90_ms':<28} {p90 * 1e3:14.6g} ms ({calls} calls)")
    print(f"  {'error_rate':<28} {run['failed'] / run['attempted']:14.6g} "
          f"ratio ({run['failed']}/{run['attempted']})")
    print(f"  inputs {run['input_digest']}  outputs {run['output_digest']}")
    for error in run["errors"] + run["isolation"]:
        print(f"  error: {error}")


def measure_workload(workload, seed, seconds, trace, deadline) -> dict:
    """Run one workload; returns its result object (without printing JSON)."""
    if not trace:
        setups = [
            run_worker(workload, seed, seconds, "setup", deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        run = run_worker(workload, seed, seconds, "run", deadline)
        metrics = end_to_end(run, setups + [run["setup_s"]])
        report(workload, seed, run, metrics)
        runs = [run]
    else:
        base = run_worker(workload, seed, seconds, "run", deadline)
        trace_out = WORK / f"trace-{workload}.json.gz"
        run = run_worker(workload, seed, seconds, "traced", deadline, trace_out)
        metrics = dict(run["per_layer"])
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            (base["units"] / base["wall_s"]) / (run["units"] / run["wall_s"]) - 1.0
        )
        report(workload, seed, run, metrics)
        print(f"  spans written to {trace_out.relative_to(ROOT)}")
        runs = [base, run]
    return {
        "correct": all(r["failed"] == 0 and not r["isolation"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    protected = protected_state()
    try:
        results = {
            name: measure_workload(name, args.seed, args.seconds, args.trace, deadline)
            for name in names
        }
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    untouched = protected_state() == protected
    if not untouched:
        print("error: a committed BENCH_*.json or .duet-cache/ changed", file=sys.stderr)
    metrics = {
        (name if len(names) == 1 else f"{workload}.{name}"): {
            "value": value, "unit": unit_of(name)
        }
        for workload, result in results.items()
        for name, value in result["metrics"].items()
    }
    print(json.dumps({
        "correct": untouched and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
