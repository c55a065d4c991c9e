"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup`, hands the
timed loop one *round* of calls at a time (:meth:`round`), and afterwards
checks a sample of the outputs against an oracle the repository already
has (:meth:`verify`).  Every call returns its output to a ``check``
function that runs outside the timed region: it validates the output,
keeps what the oracle needs, and returns a digest of the output.

A round has a fixed composition and ``ROUND_S`` is its host time on the
reference host (a 2-CPU x86 container); a run of ``--seconds`` does
``seconds / ROUND_S`` rounds, so its work is fixed before it starts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import cache as core_cache
from repro.dynamic import costmodel as dyn_costmodel
from repro.dynamic import executor as dyn_executor
from repro.dynamic.decision import ALWAYS_LATE
from repro.models import dualize, proxies
from repro.models.registry import get_model_spec
from repro.nn.data import GaussianMixtureImages
from repro.reliability.context import ReliabilityContext
from repro.reliability.workerfaults import WorkerFaultModel
from repro.serving import faulttol, fleet, loadgen, server
from repro.serving.admission import AdmissionConfig
from repro.serving.batcher import BatchPolicy
from repro.serving.quality import QualityPolicy
from repro.serving.request import COMPLETED, FAILED, REJECTED
from repro.sim import accelerator, batching, sharding
from repro.sim.config import DuetConfig, stage_config
from repro.workloads.sparsity import SparsityModel


class OracleError(Exception):
    """An output disagreed with the workload's oracle."""


@dataclass
class Call:
    """One timed call.

    Attributes:
        label: what the call does, e.g. ``"vgg16/IOS"``.
        units: units of work the call completes (0 for sweep set-up
            calls, which are timed but not sampled as latencies).
        inputs: the generated inputs, as text; digested to show that a
            seed fixes them.
        run: the call into the program.
        check: validates the output and returns its digest (untimed).
    """

    label: str
    units: int
    inputs: str
    run: Callable[[], object]
    check: Callable[[object], str]


def fresh_seed(*parts: int) -> int:
    """A 32-bit input seed derived from the run seed and a call position."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def report_digest(report) -> str:
    """Digest of every simulated figure of a ModelReport, per layer."""
    return digest(
        report.model_name, [dataclasses.asdict(layer) for layer in report.layers]
    )


class SimCold:
    """Fresh inputs over models x stages, a little RNN and a fault campaign."""

    name = "sim-cold"
    CNN_MODELS = ("alexnet", "resnet18", "vgg16", "resnet50")
    STAGES = ("OS", "BOS", "IOS", "DUET")
    RNN_MODELS = ("lstm", "gru", "gnmt")
    #: (model, built-in campaign) run under a seeded ReliabilityContext.
    FAULT_CASES = (("alexnet", "smoke"), ("resnet18", "smoke"))
    #: calls per round re-run on the slow-path oracle.
    ORACLE_PER_ROUND = 1
    #: host seconds per round on the reference host (2-CPU x86 container).
    ROUND_S = 2.9

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.specs = {
            m: get_model_spec(m) for m in self.CNN_MODELS + self.RNN_MODELS
        }
        self.configs = {stage: stage_config(stage) for stage in self.STAGES}
        self.cases = (
            [(m, s, None) for m in self.CNN_MODELS for s in self.STAGES]
            + [(m, "DUET", None) for m in self.RNN_MODELS]
            + [(m, "DUET", c) for m, c in self.FAULT_CASES]
        )
        self.sampled: list[tuple] = []

    @staticmethod
    def _simulate(spec, cfg, input_seed, campaign):
        context = (
            ReliabilityContext(campaign, seed=input_seed) if campaign else None
        )
        return accelerator.DuetAccelerator(
            config=cfg, sparsity=SparsityModel(seed=input_seed), reliability=context
        ).run(spec)

    def round(self, index: int) -> list[Call]:
        rng = np.random.default_rng([self.seed, index])
        picked = set(
            rng.choice(len(self.cases), self.ORACLE_PER_ROUND, replace=False).tolist()
        )
        calls = []
        for position, (model, stage, campaign) in enumerate(self.cases):
            spec, cfg = self.specs[model], self.configs[stage]
            input_seed = fresh_seed(self.seed, index, position)
            case = (model, stage, input_seed, campaign)

            def check(report, spec=spec, case=case, keep=position in picked):
                expected = len(spec.conv_layers if spec.domain == "cnn" else spec.rnn_layers)
                if len(report.layers) != expected or report.total_cycles <= 0:
                    raise OracleError(f"{case}: malformed report")
                out = report_digest(report)
                if keep:
                    self.sampled.append((case, out))
                return out

            calls.append(
                Call(
                    label=f"{model}/{stage}" + (f"/{campaign}" if campaign else ""),
                    units=1,
                    inputs=repr(case),
                    run=lambda spec=spec, cfg=cfg, s=input_seed, c=campaign: (
                        self._simulate(spec, cfg, s, c)
                    ),
                    check=check,
                )
            )
        return calls

    def verify(self) -> list[str]:
        """The slow-path simulator must reproduce every sampled report."""
        slow = DuetConfig(fast_path=False)
        errors = []
        for (model, stage, input_seed, campaign), fast in self.sampled:
            report = self._simulate(
                self.specs[model], stage_config(stage, base=slow), input_seed, campaign
            )
            if report_digest(report) != fast:
                errors.append(f"{model}/{stage} seed {input_seed}: fast != slow path")
        return errors


class ExitSweep:
    """Distinct inputs priced at many exit thresholds and at every exit."""

    name = "exit-sweep"
    MODELS = ("alexnet", "resnet18", "vgg16")
    THRESHOLDS = (0.5, 0.7, 0.8, 0.9, 0.95, ALWAYS_LATE)
    INPUTS_PER_ROUND = 2
    ROUND_S = 2.5

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.executor = dyn_executor.DynamicBatchExecutor(exit_seed=seed)
        self.costs = dyn_costmodel.ExitCostModel(self.executor)
        self.variants = {m: self.executor.exit_model_for(m) for m in self.MODELS}
        self.depths: dict[tuple, list] = {}
        self.full_cycles: dict[tuple, int] = {}
        self.late: dict[str, tuple] = {}
        self.parity_inputs: list[int] | None = None

    def round(self, index: int) -> list[Call]:
        seeds = [fresh_seed(self.seed, index, k) for k in range(self.INPUTS_PER_ROUND)]
        if index == 0:
            self.parity_inputs = seeds
        calls = []
        for model in self.MODELS:
            # the exit tables simulate every exit of the fresh inputs; the
            # threshold sweep that follows then prices from the memo
            for input_seed in seeds:
                calls.append(
                    Call(
                        label=f"{model}/exit_table",
                        units=1,
                        inputs=repr((model, input_seed)),
                        run=lambda m=model, s=input_seed: self.costs.exit_table(
                            self.variants[m], s
                        ),
                        check=lambda rows, m=model, s=input_seed: (
                            self._check_table(m, s, rows)
                        ),
                    )
                )
            for threshold in self.THRESHOLDS:
                calls.append(
                    Call(
                        label=f"{model}@{threshold}",
                        units=len(seeds),
                        inputs=repr((model, threshold, seeds)),
                        run=lambda m=model, t=threshold: self.executor.execute(
                            m, seeds, threshold=t
                        ),
                        check=lambda result, m=model, t=threshold, i=index: (
                            self._check_batch(m, t, seeds, i, result)
                        ),
                    )
                )
        return calls

    def _check_table(self, model, seed, rows) -> str:
        variant = self.variants[model]
        if [r["exit"] for r in rows] != list(variant.exit_names):
            raise OracleError(f"{model}: exit table rows out of order")
        full = rows[-1]
        if full["depth_fraction"] != 1.0 or full["cycle_reduction_vs_full"] != 1.0:
            raise OracleError(f"{model}: full-depth row is not the baseline")
        self.full_cycles[(model, seed)] = full["total_cycles"]
        return digest(rows)

    def _check_batch(self, model, threshold, seeds, index, result) -> str:
        if len(result.reports) != len(seeds) or len(result.decisions) != len(seeds):
            raise OracleError(f"{model}@{threshold}: wrong batch size")
        for seed, decision in zip(seeds, result.decisions):
            self.depths.setdefault((model, seed), []).append(decision.depth_fraction)
        if threshold == ALWAYS_LATE:
            if any(d.early for d in result.decisions):
                raise OracleError(f"{model}: early exit at ALWAYS_LATE")
            if [r.total_cycles for r in result.reports] != [
                self.full_cycles[(model, seed)] for seed in seeds
            ]:
                raise OracleError(f"{model}: ALWAYS_LATE disagrees with the exit table")
            if index == 0:
                self.late[model] = (
                    result.service_cycles,
                    [report_digest(r) for r in result.reports],
                )
        return digest(
            result.service_cycles,
            [d.exit_name for d in result.decisions],
            [report_digest(r) for r in result.reports],
        )

    def verify(self) -> list[str]:
        """Exit depth is monotone in the threshold, and ALWAYS_LATE prices
        exactly like the static executor."""
        errors = [
            f"{model} seed {seed}: exit depth not monotone in threshold"
            for (model, seed), depths in self.depths.items()
            if any(b < a for a, b in zip(depths, depths[1:]))
        ]
        static = batching.BatchExecutor()
        for model in self.MODELS:
            expected = static.execute(model, self.parity_inputs)
            service, digests = self.late[model]
            if (service, digests) != (
                expected.service_cycles,
                [report_digest(r) for r in expected.reports],
            ):
                errors.append(f"{model}: ALWAYS_LATE != static pricing")
        return errors


class ServeReplay:
    """Generated traces replayed through the three serving entry points."""

    name = "serve-replay"
    MIX = ("alexnet", "lstm")
    #: (arrival process, simulated offered rate in requests/s)
    TRACE_KINDS = (("poisson", 300.0), ("bursty", 300.0),
                   ("poisson", 2000.0), ("bursty", 2000.0))
    TRACE_POOL = 40  # not a multiple of 3: a reused trace meets another entry point
    TRACE_REQUESTS = 300
    WORKLOAD_VARIANTS = 4
    ENTRY_POINTS = ("server", "faulttol", "fleet")
    FAULT_RATE = 0.15
    ROUND_S = 0.037

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.traces = [
            loadgen.generate_trace(
                loadgen.TraceConfig(
                    n_requests=self.TRACE_REQUESTS,
                    rate_rps=rate,
                    arrival=arrival,
                    models=self.MIX,
                    workload_variants=self.WORKLOAD_VARIANTS,
                    seed=fresh_seed(seed, index),
                )
            )
            for index in range(self.TRACE_POOL)
            for arrival, rate in [self.TRACE_KINDS[index % len(self.TRACE_KINDS)]]
        ]
        self.trace_inputs = [
            digest([(r.rid, r.model, r.arrival_cycle, r.workload_seed) for r in trace])
            for trace in self.traces
        ]
        self.server_config = server.ServerConfig(
            workers=3,
            batch=BatchPolicy(max_batch=8),
            admission=AdmissionConfig(max_queue_depth=64),
            quality=QualityPolicy(),
        )
        self.faults = WorkerFaultModel(
            crash_rate=0.4 * self.FAULT_RATE,
            hang_rate=0.2 * self.FAULT_RATE,
            straggle_rate=0.4 * self.FAULT_RATE,
            hot_workers=1,
            hot_multiplier=3.0,
        )
        self.policy = faulttol.policy_named("retry-hedge-breaker")
        probe = batching.BatchExecutor()
        self.fleet_config = fleet.FleetConfig(
            model_classes={"alexnet": "interactive", "lstm": "bulk"},
            plans={m: sharding.plan_for(m, 2, probe) for m in self.MIX},
            batch=BatchPolicy(max_batch=8),
            admission=AdmissionConfig(max_queue_depth=128),
            quality=QualityPolicy(),
            autoscaler=fleet.AutoscalerPolicy(min_servers=1, max_servers=4),
        )
        self.executors = self._executors()
        self.sample_rounds = {0, int(np.random.default_rng(seed).integers(1, 4))}
        self.sampled: list[tuple] = []

    def _executors(self) -> dict:
        return {
            "server": dyn_executor.DynamicBatchExecutor(),
            "faulttol": dyn_executor.DynamicBatchExecutor(),
            "fleet": dyn_executor.DynamicShardedExecutor(plans=self.fleet_config.plans),
        }

    def _replay(self, entry: str, trace_index: int, executors: dict):
        trace = self.traces[trace_index]
        if entry == "server":
            return server.simulate_serving(
                trace, config=self.server_config, executor=executors[entry]
            )
        if entry == "faulttol":
            return faulttol.simulate_chaos(
                trace, config=self.server_config, faults=self.faults,
                policy=self.policy, seed=fresh_seed(self.seed, trace_index),
                executor=executors[entry],
            )
        return fleet.simulate_fleet(
            trace, config=self.fleet_config, executor=executors[entry]
        )

    def round(self, index: int) -> list[Call]:
        calls = []
        for offset, entry in enumerate(self.ENTRY_POINTS):
            trace_index = (len(self.ENTRY_POINTS) * index + offset) % self.TRACE_POOL
            calls.append(
                Call(
                    label=f"{entry}/{self.TRACE_KINDS[trace_index % len(self.TRACE_KINDS)]}",
                    units=len(self.traces[trace_index]),
                    inputs=self.trace_inputs[trace_index],
                    run=lambda e=entry, t=trace_index: self._replay(e, t, self.executors),
                    check=lambda result, e=entry, t=trace_index, keep=index in self.sample_rounds: (
                        self._check(e, t, result, keep)
                    ),
                )
            )
        return calls

    def _check(self, entry, trace_index, result, keep) -> str:
        trace = self.traces[trace_index]
        rids = [record.request.rid for record in result.records]
        if sorted(rids) != [r.rid for r in trace] or len(set(rids)) != len(rids):
            raise OracleError(f"{entry}: requests lost or duplicated")
        if any(record.outcome not in (COMPLETED, REJECTED, FAILED)
               for record in result.records):
            raise OracleError(f"{entry}: a request has no terminal record")
        summary = result.summary.as_dict()
        if entry == "faulttol" and (summary["lost"] or summary["duplicates"]):
            raise OracleError("faulttol: lost or duplicate completions")
        if keep:
            self.sampled.append((entry, trace_index, summary))
        return digest(summary)

    def verify(self) -> list[str]:
        """A repeat replay on fresh executors gives the identical summary."""
        errors = []
        for entry, trace_index, summary in self.sampled:
            again = self._replay(entry, trace_index, self._executors())
            if again.summary.as_dict() != summary:
                errors.append(f"{entry} trace {trace_index}: repeat replay differs")
        return errors


class DualTune:
    """Dual-module threshold-tuning sweeps on fresh calibration batches."""

    name = "dual-tune"
    TRAIN_STEPS = 20
    TRAIN_BATCH = 16
    CALIBRATION_IMAGES = 8
    EVAL_IMAGES = 16
    REDUCTION = 0.12
    ROUND_S = 1.2
    #: candidate operating points of one sweep: uniform fractions, then
    #: per-layer allocations (one fraction per dual conv layer).
    CANDIDATES = (0.0, 0.3, 0.5, 0.7, 0.85, 0.95,
                  (0.3, 0.5, 0.7), (0.5, 0.7, 0.85), (0.7, 0.85, 0.95))

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dataset = GaussianMixtureImages(num_classes=8, noise=0.6, seed=seed)
        rng = np.random.default_rng(seed)
        self.model = proxies.proxy_alexnet(num_classes=8, rng=rng)
        proxies.train_classifier(
            self.model, self.dataset, steps=self.TRAIN_STEPS,
            batch_size=self.TRAIN_BATCH, rng=rng,
        )
        self.dual = None
        self.sweep0: dict = {}

    def _sweep_inputs(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        calibration, _ = self.dataset.sample(self.CALIBRATION_IMAGES, rng)
        images, labels = self.dataset.sample(self.EVAL_IMAGES, rng)
        return calibration, images, labels, fresh_seed(self.seed, index)

    def _build(self, calibration, build_seed):
        return dualize.DualizedCNN.build(
            self.model, calibration, reduction=self.REDUCTION,
            rng=np.random.default_rng(build_seed),
        )

    @staticmethod
    def _candidate(dual, fraction, calibration, images, labels):
        fractions = list(fraction) if isinstance(fraction, tuple) else fraction
        thetas = dual.set_thresholds_by_fraction(fractions, calibration)
        accuracy, savings = dual.evaluate(images, labels)
        return thetas, accuracy, savings

    def round(self, index: int) -> list[Call]:
        calibration, images, labels, build_seed = self._sweep_inputs(index)
        inputs = digest(calibration.tobytes(), images.tobytes(), labels.tobytes(), build_seed)

        def built(dual):
            self.dual = dual
            return digest(len(dual.slots))

        calls = [Call("build", 0, inputs, lambda: self._build(calibration, build_seed), built)]
        for fraction in self.CANDIDATES:
            calls.append(
                Call(
                    label=f"candidate {fraction}",
                    units=1,
                    inputs=repr(fraction),
                    run=lambda f=fraction: self._candidate(
                        self.dual, f, calibration, images, labels
                    ),
                    check=lambda out, f=fraction: self._check(index, f, out),
                )
            )
        return calls

    def _check(self, index, fraction, out) -> str:
        thetas, accuracy, savings = out
        if len(thetas) != len(self.dual.slots) or not all(math.isfinite(t) for t in thetas):
            raise OracleError(f"candidate {fraction}: bad thresholds {thetas}")
        if not 0.0 <= accuracy <= 1.0:
            raise OracleError(f"candidate {fraction}: accuracy {accuracy}")
        result = (thetas, accuracy, dataclasses.asdict(savings))
        if index == 0:
            self.sweep0[fraction] = result
        return digest(result)

    def verify(self) -> list[str]:
        """Sweep 0 re-run with every cache off gives the same thresholds,
        accuracy and savings."""
        calibration, images, labels, build_seed = self._sweep_inputs(0)
        core_cache.set_cache_enabled(False)
        try:
            dual = self._build(calibration, build_seed)
            errors = []
            for fraction, cached in self.sweep0.items():
                thetas, accuracy, savings = self._candidate(
                    dual, fraction, calibration, images, labels
                )
                if (thetas, accuracy, dataclasses.asdict(savings)) != cached:
                    errors.append(f"candidate {fraction}: cached != uncached")
        finally:
            core_cache.set_cache_enabled(True)
        return errors


WORKLOADS = {w.name: w for w in (SimCold, ExitSweep, ServeReplay, DualTune)}
