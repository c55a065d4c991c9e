"""Dataflow pipelines: CNN layer pipeline and RNN gate-level pipeline.

Implements paper Section IV:

- **CNNs** (IV-A): the Executor computes layer L tile by tile while the
  Speculator uses the finished tiles to speculate layer L+1's switching
  maps, so speculation latency is hidden unless the Speculator is the
  slower unit.  DRAM transfers double-buffer against compute.
- **RNNs** (IV-B): execution proceeds element by element, gate by gate.
  Speculation for gate g+1 runs during execution of gate g; only the
  input gate's speculation is exposed each step (its inputs depend on the
  previous step's hidden state).  Sensitive rows of each gate's weight
  matrix stream from DRAM; insensitive rows are never fetched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.models.layer_spec import BYTES_PER_ELEMENT, FCSpec, ModelSpec
from repro.sim.config import DuetConfig
from repro.sim.dram import Dram
from repro.sim.energy import EnergyBreakdown, EnergyModel
from repro.sim.executor import ExecutorModel
from repro.sim.glb import GlobalBuffer
from repro.sim.report import LayerReport, ModelReport
from repro.sim.speculator import SpeculatorModel
from repro.sim.tiling import choose_tiling, choose_tiling_cached
from repro.workloads.sparsity import (
    CnnLayerWorkload,
    FcLayerWorkload,
    RnnLayerWorkload,
)

if TYPE_CHECKING:  # avoid a runtime cycle with repro.reliability
    from repro.reliability.context import ReliabilityContext

__all__ = ["CnnPipeline", "LayerCost", "RnnPipeline"]

#: local-buffer accesses charged per executed MAC (operand read + psum
#: read-modify-write amortised under row-stationary reuse).
_LOCAL_ACCESSES_PER_MAC = 2.0


class _UnitCache:
    """Executor/Speculator models keyed by configuration.

    Degradation switches the operating stage between layers; the stage
    configs of one run are few, so the analytical unit models are built
    once per distinct :class:`DuetConfig` (frozen, hence hashable) and
    reused.
    """

    def __init__(self):
        self._units: dict[DuetConfig, tuple[ExecutorModel, SpeculatorModel]] = {}

    def __call__(self, cfg: DuetConfig) -> tuple[ExecutorModel, SpeculatorModel]:
        units = self._units.get(cfg)
        if units is None:
            units = (ExecutorModel(cfg), SpeculatorModel(cfg))
            self._units[cfg] = units
        return units


@dataclass(frozen=True)
class LayerCost:
    """The speculation-independent cost of one CNN layer.

    Everything a layer costs except the speculation it overlaps: the
    Executor's cycles and MACs, the GLB-constrained DRAM traffic, and the
    energy of all that (speculator terms zero).  It depends only on the
    layer's own workload and configuration, so an early exit and the full
    backbone share it for every layer they have in common
    (:class:`repro.sim.ledger.CostLedger` prices each such layer once).
    :meth:`CnnPipeline.finish_layer` adds the overlapped speculation of the
    next layer to make the :class:`~repro.sim.report.LayerReport`.
    """

    name: str
    executor_cycles: int
    memory_cycles: int
    executed_macs: int
    dense_macs: int
    utilization: float
    energy: EnergyBreakdown
    dram_bytes: int


class CnnPipeline:
    """Layer-pipelined CNN execution (paper Section IV-A).

    Args:
        config: hardware/feature configuration (base stage).
        energy_model: per-event energy costs.
        reduction: Speculator workload-reduction factor.
        reliability: optional :class:`repro.reliability.ReliabilityContext`;
            when given, each layer runs at the context's current degradation
            stage, its workload passes through the fault injector and
            guards, and the finished report carries the reliability account.
    """

    def __init__(
        self,
        config: DuetConfig | None = None,
        energy_model: EnergyModel | None = None,
        reduction: float = 0.125,
        reliability: "ReliabilityContext | None" = None,
    ):
        self.config = config if config is not None else DuetConfig()
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.reduction = reduction
        self.reliability = reliability
        self._units = _UnitCache()
        self.executor, self.speculator = self._units(self.config)

    def _speculation_for(self, spec, cfg: DuetConfig):
        """Speculation cost of producing layer ``spec``'s switching maps."""
        _, speculator = self._units(cfg)
        if isinstance(spec, FCSpec):
            return speculator.fc_layer(spec, self.reduction)
        return speculator.cnn_layer(
            spec, self.reduction, with_reorder=cfg.enable_adaptive_mapping
        )

    def _conv_costs(self, workload: CnnLayerWorkload, cfg: DuetConfig):
        """(exec cycles, executed, dense, util, dram read words, write words).

        Off-chip traffic follows the GLB-constrained tiling of
        :mod:`repro.sim.tiling`: layers whose working set exceeds the GLB
        re-fetch the ifmap per output-channel group and/or spill psums,
        exactly as a real configuration generator would schedule them.
        """
        spec = workload.spec
        executor, _ = self._units(cfg)
        cost = executor.cnn_layer(workload)
        # ~10% of the GLB is reserved for Speculator data (QDR weights,
        # switching maps, mapping configuration -- paper Section III-A)
        usable = int(cfg.glb_bytes * 0.9)
        if cfg.fast_path:
            tiling = choose_tiling_cached(spec, usable)
        else:
            tiling = choose_tiling(spec, usable)
        return (
            cost.cycles,
            cost.executed_macs,
            cost.dense_macs,
            cost.utilization,
            tiling.dram_read_words,
            tiling.dram_write_words,
        )

    def _fc_costs(self, workload: FcLayerWorkload, cfg: DuetConfig):
        """FC layers are weight-row gated like RNN gates (Section VI)."""
        spec = workload.spec
        executor, _ = self._units(cfg)
        if cfg.enable_output_switching:
            sensitive = workload.sensitive_count
        else:
            sensitive = spec.out_features
        nonzeros = None
        if cfg.enable_input_switching and cfg.enable_output_switching:
            nonzeros = int(workload.imap.sum())
        cost = executor.fc_layer(spec, sensitive, input_nonzeros=nonzeros)
        # only the sensitive rows' weights stream from DRAM
        read_words = spec.in_features + cost.weight_words
        write_words = spec.out_features
        capacity = cost.compute_cycles * cfg.num_pes
        util = cost.executed_macs / capacity if capacity else 1.0
        return (
            cost.compute_cycles,
            cost.executed_macs,
            cost.dense_macs,
            util,
            read_words,
            write_words,
        )

    def layer_cost(
        self, workload, cfg: DuetConfig, dram: Dram, glb: GlobalBuffer
    ) -> LayerCost:
        """The speculation-independent cost of one CONV or FC layer.

        Charges the layer's DRAM traffic to ``dram`` and its GLB reads to
        ``glb``; under a fault-free channel both are stateless, so the
        cost is a pure function of ``workload`` and ``cfg``.
        """
        spec = workload.spec
        if isinstance(workload, FcLayerWorkload):
            (
                exec_cycles,
                executed,
                dense,
                utilization,
                read_words,
                write_words,
            ) = self._fc_costs(workload, cfg)
        else:
            (
                exec_cycles,
                executed,
                dense,
                utilization,
                read_words,
                write_words,
            ) = self._conv_costs(workload, cfg)

        dram_words = read_words + write_words
        memory_cycles = dram.read(read_words * BYTES_PER_ELEMENT) + dram.write(
            write_words * BYTES_PER_ELEMENT
        )
        glb_words = dram_words + (
            spec.output_elements // 8 if cfg.enable_output_switching else 0
        )  # switching-map bits
        glb.read(glb_words * BYTES_PER_ELEMENT)

        # every on-chip word moved traverses the Y-bus plus one X-bus
        noc_hops = 2 * glb_words
        energy = EnergyBreakdown(
            executor_compute=executed * self.energy_model.mac_int16,
            executor_local=executed
            * _LOCAL_ACCESSES_PER_MAC
            * self.energy_model.local_access,
            glb=glb_words * self.energy_model.glb_access,
            noc=noc_hops * self.energy_model.noc_hop,
            dram=dram_words * self.energy_model.dram_access,
        )
        return LayerCost(
            name=spec.name,
            executor_cycles=exec_cycles,
            memory_cycles=memory_cycles,
            executed_macs=executed,
            dense_macs=dense,
            utilization=utilization,
            energy=energy,
            dram_bytes=dram_words * BYTES_PER_ELEMENT,
        )

    def finish_layer(self, cost: LayerCost, next_spec, cfg: DuetConfig) -> LayerReport:
        """The layer's report: ``cost`` overlapped with the speculation of
        the next layer.

        While this layer executes, the Speculator produces the switching
        maps of ``next_spec`` (paper Fig. 7); there is nothing to speculate
        after the last layer (``next_spec`` None).  Speculation depends
        only on the next layer's shape, never on its maps.
        """
        spec_cycles = 0
        spec_energy_compute = 0.0
        spec_energy_buffers = 0.0
        if cfg.enable_output_switching and next_spec is not None:
            spec_cost = self._speculation_for(next_spec, cfg)
            spec_cycles = spec_cost.cycles
            spec_energy_compute, spec_energy_buffers = spec_cost.energy(
                self.energy_model
            )
        exec_cycles = cost.executor_cycles
        if cfg.enable_pipeline:
            compute_cycles = max(exec_cycles, spec_cycles)
            exposed = max(0, spec_cycles - exec_cycles)
        else:
            compute_cycles = exec_cycles + spec_cycles
            exposed = spec_cycles
        return LayerReport(
            name=cost.name,
            executor_cycles=exec_cycles,
            speculator_cycles=spec_cycles,
            exposed_speculation_cycles=exposed,
            memory_cycles=cost.memory_cycles,
            compute_cycles=compute_cycles,
            total_cycles=max(compute_cycles, cost.memory_cycles),
            executed_macs=cost.executed_macs,
            dense_macs=cost.dense_macs,
            utilization=cost.utilization,
            energy=replace(
                cost.energy,
                speculator_compute=spec_energy_compute,
                speculator_buffers=spec_energy_buffers,
            ),
            dram_bytes=cost.dram_bytes,
        )

    def run(self, model: ModelSpec, workloads: list) -> ModelReport:
        """Simulate the (CONV and optionally FC) layers of ``model``.

        Each layer is :meth:`layer_cost` then :meth:`finish_layer`.

        Args:
            model: the model spec (used for naming and speculation shapes).
            workloads: one :class:`CnnLayerWorkload` per CONV layer, in
                order, optionally followed by :class:`FcLayerWorkload`
                entries for the classifier (see
                :func:`repro.workloads.sparsity.cnn_workloads`).

        Returns:
            A :class:`ModelReport` with per-layer breakdowns.
        """
        cfg = self.config
        ctx = self.reliability
        dram = ctx.make_dram(cfg.dram_bandwidth) if ctx else Dram(cfg.dram_bandwidth)
        glb = GlobalBuffer(cfg.glb_bytes, cfg.glb_bandwidth)
        report = ModelReport(model.name, cfg)

        for i, workload in enumerate(workloads):
            # under a reliability context the layer runs at the current
            # degradation-ladder rung, and its switching maps go through
            # the fault injector and the guards first
            cfg_now = ctx.effective_config(cfg) if ctx else cfg
            if ctx:
                workload = ctx.process_cnn_workload(i, workload, cfg_now)
            cost = self.layer_cost(workload, cfg_now, dram, glb)
            following = workloads[i + 1].spec if i + 1 < len(workloads) else None
            report.layers.append(self.finish_layer(cost, following, cfg_now))
            if ctx:
                ctx.finalize_layer(workload.spec.name)
        if ctx:
            report.reliability = ctx.summary()
        return report


def _gate_fetch(dram: Dram, byte_counts: np.ndarray) -> np.ndarray:
    """Per-event weight-fetch oracle: one ``dram.read`` per (step, gate).

    The reference semantics of the batched fetch below: walk the
    ``(seq_len, num_gates)`` byte grid in C order (time-step major,
    exactly the nested loop order of the slow path) issuing one transfer
    each, letting the DRAM model apply its per-transfer fault/retry
    machinery.  Kept as the bit-identity oracle for
    :func:`_gate_fetch_fast` (see ``tests/sim/test_fast_path.py``).
    """
    flat = np.asarray(byte_counts).ravel()
    cycles = np.empty(flat.shape, dtype=np.int64)
    for i, num_bytes in enumerate(flat):
        cycles[i] = dram.read(int(num_bytes))
    return cycles.reshape(np.asarray(byte_counts).shape)


def _gate_fetch_fast(dram: Dram, byte_counts: np.ndarray) -> np.ndarray:
    """Batched weight fetch: the whole (step, gate) grid in one call.

    Delegates to :meth:`repro.sim.dram.Dram.read_bulk`, which resolves
    flaky-channel retries vectorized from the same fault-stream draws
    the per-event oracle consumes -- counters and cycles bit-identical
    to :func:`_gate_fetch`.
    """
    return dram.read_bulk(byte_counts)


class RnnPipeline:
    """Gate-level pipelined RNN execution (paper Section IV-B).

    Accepts the same optional ``reliability`` context as
    :class:`CnnPipeline`; faults there target the per-(step, gate)
    sensitive-row counts the weight fetch is gated by.
    """

    def __init__(
        self,
        config: DuetConfig | None = None,
        energy_model: EnergyModel | None = None,
        reduction: float = 0.125,
        reliability: "ReliabilityContext | None" = None,
    ):
        self.config = config if config is not None else DuetConfig()
        self.energy_model = energy_model if energy_model is not None else EnergyModel()
        self.reduction = reduction
        self.reliability = reliability
        self._units = _UnitCache()
        self.executor, self.speculator = self._units(self.config)

    def run(self, model: ModelSpec, workloads: list[RnnLayerWorkload]) -> ModelReport:
        """Simulate the recurrent layers of ``model``.

        Weight matrices of paper-scale RNN layers exceed the GLB, so every
        gate's (sensitive rows of the) weight matrix streams from DRAM at
        every time step; fetch overlaps compute via double buffering.
        """
        cfg = self.config
        ctx = self.reliability
        dram = ctx.make_dram(cfg.dram_bandwidth) if ctx else Dram(cfg.dram_bandwidth)
        glb = GlobalBuffer(cfg.glb_bytes, cfg.glb_bandwidth)
        report = ModelReport(model.name, cfg)

        for i, workload in enumerate(workloads):
            cfg_now = ctx.effective_config(cfg) if ctx else cfg
            if ctx:
                workload = ctx.process_rnn_workload(i, workload, cfg_now)
            switching = cfg_now.enable_output_switching
            executor, speculator = self._units(cfg_now)
            spec = workload.spec
            gate_weights_bytes = (
                spec.hidden_size
                * (spec.input_size + spec.hidden_size)
                * BYTES_PER_ELEMENT
            )
            weights_resident = glb.fits(gate_weights_bytes * spec.num_gates)

            layer_exec_cycles = 0
            layer_spec_cycles = 0
            layer_exposed = 0
            layer_memory_cycles = 0
            layer_compute_cycles = 0
            layer_total = 0
            layer_executed = 0
            layer_dense = 0
            layer_dram_words = 0
            spec_compute_e = 0.0
            spec_buffer_e = 0.0

            if switching:
                gate_spec_cost = speculator.rnn_gate(spec, self.reduction)

            if cfg_now.fast_path:
                # -- fast path: batch the whole (time step, gate) grid ----
                # Every per-gate quantity in the reference loop is an
                # integer and every accumulator adds integers, so the
                # batched int64 reductions below reproduce the loop bit
                # for bit.  Under a reliability context the DRAM channel
                # is stream-backed, so the batched fetch resolves every
                # transfer's fault/retry outcome from the same draws the
                # per-event path would consume.
                rows = cfg_now.executor_rows
                row_len = spec.input_size + spec.hidden_size
                wave_cycles = math.ceil(
                    row_len / cfg_now.executor_cols
                ) + math.ceil(math.log2(max(2, cfg_now.executor_cols)))
                if switching:
                    counts = workload.sensitive_counts.astype(np.int64)
                else:
                    counts = np.full(
                        (spec.seq_len, spec.num_gates),
                        spec.hidden_size,
                        dtype=np.int64,
                    )
                waves = -(-counts // rows)
                compute = waves * wave_cycles
                executed = counts * row_len
                fetch_words = executed.copy()
                if weights_resident:
                    fetch_words[1:, :] = 0
                fetch_cycles = _gate_fetch_fast(
                    dram, fetch_words * BYTES_PER_ELEMENT
                )
                glb.write(int(fetch_words.sum()) * BYTES_PER_ELEMENT)
                glb.read(int(executed.sum()) * BYTES_PER_ELEMENT)
                compute_cycles = compute.copy()
                if switching:
                    gate_cycles = gate_spec_cost.cycles
                    layer_spec_cycles = (
                        spec.seq_len * spec.num_gates * gate_cycles
                    )
                    # only the input gate's speculation is exposed
                    layer_exposed = spec.seq_len * gate_cycles
                    compute_cycles[:, 0] += gate_cycles
                    compute_e, buffer_e = gate_spec_cost.energy(
                        self.energy_model
                    )
                    # replicate the reference's repeated float additions
                    # exactly (a single multiply would round differently)
                    for _ in range(spec.seq_len * spec.num_gates):
                        spec_compute_e += compute_e
                        spec_buffer_e += buffer_e
                layer_exec_cycles = int(compute.sum())
                layer_memory_cycles = int(fetch_cycles.sum())
                layer_compute_cycles = int(compute_cycles.sum())
                layer_total = int(
                    np.maximum(compute_cycles, fetch_cycles).sum()
                )
                layer_executed = int(executed.sum())
                layer_dense = (
                    spec.seq_len * spec.num_gates * spec.hidden_size * row_len
                )
                layer_dram_words = int(fetch_words.sum())
                steps = ()
            else:
                steps = range(spec.seq_len)

            for t in steps:
                for g in range(spec.num_gates):
                    sensitive = (
                        int(workload.sensitive_counts[t, g])
                        if switching
                        else spec.hidden_size
                    )
                    gate_cost = executor.rnn_gate(spec, sensitive)
                    # weight fetch: only sensitive rows come from DRAM
                    # (plus once-per-layer residency if the GLB could hold
                    # them, which paper-scale layers never satisfy)
                    if weights_resident and t > 0:
                        fetch_words = 0
                    else:
                        fetch_words = gate_cost.weight_words
                    fetch_cycles = dram.read(fetch_words * BYTES_PER_ELEMENT)
                    glb.write(fetch_words * BYTES_PER_ELEMENT)
                    glb.read(gate_cost.weight_words * BYTES_PER_ELEMENT)

                    exposed = 0
                    if switching:
                        layer_spec_cycles += gate_spec_cost.cycles
                        # only the input gate's speculation is exposed
                        if g == 0:
                            exposed = gate_spec_cost.cycles
                        compute_e, buffer_e = gate_spec_cost.energy(self.energy_model)
                        spec_compute_e += compute_e
                        spec_buffer_e += buffer_e

                    compute_cycles = gate_cost.compute_cycles + exposed
                    gate_total = max(compute_cycles, fetch_cycles)
                    layer_exec_cycles += gate_cost.compute_cycles
                    layer_exposed += exposed
                    layer_memory_cycles += fetch_cycles
                    layer_compute_cycles += compute_cycles
                    layer_total += gate_total
                    layer_executed += gate_cost.executed_macs
                    layer_dense += gate_cost.dense_macs
                    layer_dram_words += fetch_words

            glb_words = (
                layer_dram_words + layer_executed // max(1, cfg.executor_cols)
            )
            energy = EnergyBreakdown(
                executor_compute=layer_executed * self.energy_model.mac_int16,
                executor_local=layer_executed
                * _LOCAL_ACCESSES_PER_MAC
                * self.energy_model.local_access,
                speculator_compute=spec_compute_e,
                speculator_buffers=spec_buffer_e,
                glb=glb_words * self.energy_model.glb_access,
                noc=2 * glb_words * self.energy_model.noc_hop,
                dram=layer_dram_words * self.energy_model.dram_access,
            )
            report.layers.append(
                LayerReport(
                    name=spec.name,
                    executor_cycles=layer_exec_cycles,
                    speculator_cycles=layer_spec_cycles,
                    exposed_speculation_cycles=layer_exposed,
                    memory_cycles=layer_memory_cycles,
                    compute_cycles=layer_compute_cycles,
                    total_cycles=layer_total,
                    executed_macs=layer_executed,
                    dense_macs=layer_dense,
                    utilization=0.0,
                    energy=energy,
                    dram_bytes=layer_dram_words * BYTES_PER_ELEMENT,
                )
            )
            if ctx:
                ctx.finalize_layer(spec.name)
        if ctx:
            report.reliability = ctx.summary()
        return report
