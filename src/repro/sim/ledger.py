"""Per-layer cost ledger: each CNN layer of a sample is priced once.

An early exit is a *prefix* of one backbone computation (D²NN,
arXiv:1701.00299): the exit ``alexnet@ee1`` runs alexnet's first three
conv layers on exactly the maps the full model runs them on, because
:class:`~repro.workloads.sparsity.SparsityModel` seeds every layer's maps
from ``(workload_seed, layer_index)``.  The ledger prices by that
identity.  A layer's :class:`~repro.sim.pipeline.LayerCost` -- everything
but the speculation it overlaps -- is keyed on

    ``(layer spec, conv index, workload seed, pricing context)``

where the pricing context is the resolved :class:`DuetConfig` plus the
pricing constants of the executor (energy model, Speculator reduction,
sparsity template).  A whole-model report is then each layer's cost
finished by :meth:`CnnPipeline.finish_layer` with the speculation of the
layer after it; only an exit's attach layer differs from the full model's
(nothing follows it), and that step is analytic.

Maps are generated lazily, on a layer miss only: an exit priced before
its full model simulates just its prefix, and the full model then reuses
it.  Finished reports are memoized too, keyed on small integers, so a
repeated ``(spec, pricing, seed)`` is one dict lookup: spec objects are
interned by identity (weakly, so short-lived specs do not accumulate),
and equal specs share one structural token.  Specs are treated as
immutable once priced.

RNN models are not split: their layers have no speculation overlap to
separate, and no registered exit truncates them, so a miss runs the whole
model on :class:`~repro.sim.accelerator.DuetAccelerator` and the report
is memoized as above.

Keys carry every input that shapes a cost, so any executors may share a
ledger (the sharding plan search does, see
:func:`repro.sim.sharding.plan_for`); fast-path and slow-path
configurations never share an entry.
"""

from __future__ import annotations

import weakref
from dataclasses import astuple, replace

from repro.models.layer_spec import ModelSpec
from repro.sim.accelerator import DuetAccelerator
from repro.sim.config import DuetConfig
from repro.sim.dram import Dram
from repro.sim.energy import EnergyModel
from repro.sim.glb import GlobalBuffer
from repro.sim.pipeline import CnnPipeline, LayerCost
from repro.sim.report import ModelReport
from repro.workloads.sparsity import SparsityModel

__all__ = ["CostLedger"]


class CostLedger:
    """Memo of per-layer CNN costs and finished per-sample reports."""

    def __init__(self):
        self._pricings: dict[tuple, int] = {}
        self._contexts: list[tuple[CnnPipeline, SparsityModel]] = []
        self._spec_ids: dict[int, tuple[weakref.ref, int]] = {}
        self._spec_tokens: dict[tuple, int] = {}
        self._reports: dict[tuple[int, int, int], ModelReport] = {}
        self._layers: dict[tuple, LayerCost] = {}

    @property
    def layer_count(self) -> int:
        """Distinct CNN layer costs held."""
        return len(self._layers)

    @property
    def report_count(self) -> int:
        """Finished per-sample reports held."""
        return len(self._reports)

    def pricing(
        self,
        config: DuetConfig,
        energy_model: EnergyModel | None,
        reduction: float,
        sparsity: SparsityModel,
    ) -> int:
        """Token of a pricing context; equal contexts share one token.

        The context is everything besides the layer and the workload seed
        that shapes a cost: the resolved config, the energy model, the
        Speculator reduction and the sparsity template (seed aside).
        """
        energy_model = energy_model if energy_model is not None else EnergyModel()
        template = replace(sparsity, seed=0)
        key = (config, energy_model, reduction, type(template), astuple(template))
        token = self._pricings.get(key)
        if token is None:
            token = self._pricings[key] = len(self._contexts)
            pipeline = CnnPipeline(config, energy_model, reduction)
            self._contexts.append((pipeline, template))
        return token

    def _spec_token(self, spec: ModelSpec) -> int:
        entry = self._spec_ids.get(id(spec))
        if entry is not None and entry[0]() is spec:
            return entry[1]
        token = self._spec_tokens.setdefault(
            (spec.name, spec.domain, tuple(spec.layers)), len(self._spec_tokens)
        )
        ids, key = self._spec_ids, id(spec)
        self._spec_ids[key] = (weakref.ref(spec, lambda _: ids.pop(key, None)), token)
        return token

    def report(self, spec: ModelSpec, pricing: int, workload_seed: int) -> ModelReport:
        """The report of one sample of ``spec`` under a pricing token.

        The returned report is shared between callers; treat it as
        immutable.
        """
        key = (self._spec_token(spec), pricing, workload_seed)
        report = self._reports.get(key)
        if report is None:
            report = self._reports[key] = self._price(spec, pricing, workload_seed)
        return report

    def _price(self, spec: ModelSpec, token: int, workload_seed: int) -> ModelReport:
        pipeline, template = self._contexts[token]
        cfg = pipeline.config
        sparsity = replace(template, seed=workload_seed)
        if spec.domain != "cnn":
            return DuetAccelerator(
                config=cfg,
                energy_model=pipeline.energy_model,
                reduction=pipeline.reduction,
                sparsity=sparsity,
            ).run(spec)
        layers = spec.conv_layers
        costs = []
        for index, layer in enumerate(layers):
            key = (layer, index, workload_seed, token)
            cost = self._layers.get(key)
            if cost is None:
                cost = self._layers[key] = pipeline.layer_cost(
                    sparsity.cnn_layer(layer, index),
                    cfg,
                    Dram(cfg.dram_bandwidth),
                    GlobalBuffer(cfg.glb_bytes, cfg.glb_bandwidth),
                )
            costs.append(cost)
        following = layers[1:] + [None]
        return ModelReport(
            spec.name,
            cfg,
            [
                pipeline.finish_layer(cost, after, cfg)
                for cost, after in zip(costs, following)
            ],
        )
