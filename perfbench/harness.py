"""The timed loop: one caller issuing a workload's calls back to back."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field


@dataclass
class Measurement:
    """What one timed phase produced.

    Wall and CPU time are summed over the calls only; output checks run
    between calls with the clocks stopped.
    """

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    units: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    input_digest: str = ""
    output_digest: str = ""


def rounds_for(workload, seconds: float) -> int:
    """Rounds that fill ``seconds`` at the workload's reference pace.

    The work is fixed before the run starts, so every run of a workload
    does the same calls whatever the host's speed; on the reference host
    they take about ``seconds``.
    """
    return max(1, round(seconds / workload.ROUND_S))


def measure(workload, rounds: int, after_first_call=None) -> Measurement:
    """Run ``rounds`` whole rounds of the workload's calls.

    ``after_first_call()`` runs once, right after the first call returns,
    and may return an error text that counts that call as failed.
    """
    result = Measurement()
    inputs = hashlib.blake2b(digest_size=16)
    outputs = hashlib.blake2b(digest_size=16)
    clock, cpu = time.perf_counter, time.process_time
    for index in range(rounds):
        for call in workload.round(index):
            inputs.update(f"{call.label}|{call.inputs}\n".encode())
            error = None
            c0 = cpu()
            t0 = clock()
            try:
                out = call.run()
            except Exception as exc:  # a failed call is counted, not fatal
                out, error = None, f"{call.label}: {type(exc).__name__}: {exc}"
            wall = clock() - t0
            cpu_used = cpu() - c0
            result.attempted += 1
            if after_first_call is not None:
                error = error or after_first_call()
                after_first_call = None
            if error is None:
                try:
                    outputs.update(call.check(out).encode())
                except Exception as exc:
                    error = f"{call.label}: {type(exc).__name__}: {exc}"
            result.wall_s += wall
            result.cpu_s += cpu_used
            if error is not None:
                result.failed += 1
                result.errors.append(error)
                continue
            result.units += call.units
            if call.units:
                result.latencies_s.append(wall)
        result.rounds += 1
    result.input_digest = inputs.hexdigest()
    result.output_digest = outputs.hexdigest()
    return result
