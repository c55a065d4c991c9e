"""Cost-ledger parity: pricing each CNN layer once changes no figure.

The executor prices through a per-layer ledger keyed on (layer spec, conv
index, workload seed, resolved config).  Whatever order exits and full
models are requested in, every priced report must equal a fresh
``DuetAccelerator`` run of the same truncated spec, layer report for
layer report.  The registered backbones (alexnet, resnet18, vgg16) are
covered by name.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import early_exit_model, reduced_width_spec, truncated_spec
from repro.dynamic.costmodel import ExitCostModel
from repro.models import ModelSpec, get_model_spec
from repro.reliability import ReliabilityContext
from repro.sim import DuetAccelerator
from repro.sim.batching import BatchExecutor
from repro.sim.config import DuetConfig, stage_config
from repro.sim.sharding import ShardedExecutor, plan_for
from repro.workloads import SparsityModel

BACKBONES = ("alexnet", "resnet18", "vgg16")
STAGES = ("OS", "BOS", "IOS", "DUET")
ORDERS = ("exit-first", "full-first", "interleaved")


@lru_cache(maxsize=None)
def _reference(model: str, exit_name: str, stage: str, seed: int):
    """A fresh, unmemoized simulation of one exit's truncated spec."""
    spec = truncated_spec(early_exit_model(model), exit_name)
    return DuetAccelerator(
        config=stage_config(stage), sparsity=SparsityModel(seed=seed)
    ).run(spec)


def _requests(exits, seeds, order):
    """(exit, seed) pricing requests in one of the three orders."""
    if order == "exit-first":
        return [(e, s) for s in seeds for e in exits]
    if order == "full-first":
        return [(e, s) for s in seeds for e in reversed(exits)]
    # interleaved: alternate seeds, middle exit first, full before ee1
    shuffled = [exits[1], exits[-1], exits[0]] + list(exits[2:-1])
    return [(e, s) for e in shuffled for s in seeds]


def _assert_same_report(got, want):
    assert got.model_name == want.model_name
    assert got.config == want.config
    assert len(got.layers) == len(want.layers)
    for got_layer, want_layer in zip(got.layers, want.layers):
        assert got_layer == want_layer


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("model", BACKBONES)
class TestLedgerParity:
    @settings(deadline=None, max_examples=3)
    @given(seed=st.integers(0, 2), order=st.sampled_from(ORDERS))
    def test_every_order_prices_like_a_fresh_run(self, model, stage, seed, order):
        variant = early_exit_model(model)
        executor = BatchExecutor()
        seeds = (seed, seed + 1)
        for exit_name, s in _requests(variant.exit_names, seeds, order):
            report = executor.sample_report(
                truncated_spec(variant, exit_name), s, stage
            )
            _assert_same_report(report, _reference(model, exit_name, stage, s))
        # every conv layer of each seed was priced exactly once
        per_seed = len(variant.spec.conv_layers)
        assert executor.ledger.layer_count == per_seed * len(seeds)


class TestLedgerKeys:
    def test_same_name_different_layers_is_not_stale(self):
        alexnet = get_model_spec("alexnet")
        short = ModelSpec("alexnet", "cnn", alexnet.layers[:3])
        executor = BatchExecutor()
        assert len(executor.sample_report(alexnet, 7).layers) == 5
        assert len(executor.sample_report(short, 7).layers) == 3

    def test_default_and_named_stage_share_one_simulation(self):
        executor = BatchExecutor()
        default = executor.sample_report("alexnet", 7)
        named = executor.sample_report("alexnet", 7, "DUET")
        assert named is default
        assert executor.ledger.report_count == 1
        assert executor.ledger.layer_count == 5

    def test_repeated_request_returns_the_memoized_report(self):
        variant = early_exit_model("resnet18")
        executor = BatchExecutor()
        first = executor.sample_report(truncated_spec(variant, "ee1"), 3)
        layers = executor.ledger.layer_count
        again = executor.sample_report(truncated_spec(variant, "ee1"), 3)
        assert again is first
        assert executor.ledger.layer_count == layers

    def test_truncated_spec_is_built_once_per_exit(self):
        variant = early_exit_model("vgg16")
        assert truncated_spec(variant, "ee2") is truncated_spec(variant, "ee2")

    def test_exit_before_full_simulates_only_the_prefix(self):
        variant = early_exit_model("vgg16")
        executor = BatchExecutor()
        ee1 = truncated_spec(variant, "ee1")
        executor.sample_report(ee1, 5)
        assert executor.ledger.layer_count == len(ee1.conv_layers)
        executor.sample_report(variant.spec, 5)
        assert executor.ledger.layer_count == len(variant.spec.conv_layers)

    def test_reduced_width_variants_never_share_entries(self):
        spec = get_model_spec("alexnet")
        narrow = reduced_width_spec(spec, 0.5)
        executor = BatchExecutor()
        full = executor.sample_report(spec, 4)
        reduced = executor.sample_report(narrow, 4)
        assert executor.ledger.layer_count == 2 * len(spec.conv_layers)
        _assert_same_report(
            reduced,
            DuetAccelerator(sparsity=SparsityModel(seed=4)).run(narrow),
        )
        assert reduced.total_cycles < full.total_cycles

    def test_slow_path_entries_never_mix_with_fast_ones(self):
        fast = BatchExecutor()
        slow = BatchExecutor(config=DuetConfig(fast_path=False), ledger=fast.ledger)
        fast_report = fast.sample_report("alexnet", 2)
        slow_report = slow.sample_report("alexnet", 2)
        assert fast.ledger.layer_count == 2 * len(fast_report.layers)
        assert slow_report is not fast_report
        assert slow_report.config.fast_path is False
        _assert_same_report(
            slow_report,
            DuetAccelerator(
                config=DuetConfig(fast_path=False), sparsity=SparsityModel(seed=2)
            ).run(get_model_spec("alexnet")),
        )

    def test_pricing_constants_are_part_of_the_key(self):
        shared = BatchExecutor()
        other = BatchExecutor(reduction=0.25, ledger=shared.ledger)
        base = shared.sample_report("alexnet", 1)
        wider = other.sample_report("alexnet", 1)
        assert wider is not base
        assert wider.speculator_cycles != base.speculator_cycles

    def test_rnn_models_price_through_the_accelerator(self):
        executor = BatchExecutor()
        report = executor.sample_report("lstm", 3)
        _assert_same_report(
            report,
            DuetAccelerator(sparsity=SparsityModel(seed=3)).run(
                get_model_spec("lstm")
            ),
        )
        assert executor.ledger.layer_count == 0
        assert executor.sample_report("lstm", 3) is report

    def test_reliability_runs_bypass_the_ledger(self):
        spec = get_model_spec("alexnet")
        executor = BatchExecutor(
            reliability=ReliabilityContext(campaign="smoke", seed=9)
        )
        guarded = executor.sample_report(spec, 6)
        expected = DuetAccelerator(
            sparsity=SparsityModel(seed=6),
            reliability=ReliabilityContext(campaign="smoke", seed=9),
        ).run(spec)
        _assert_same_report(guarded, expected)
        assert guarded.reliability == expected.reliability
        assert executor.ledger.layer_count == 0
        assert executor.ledger.report_count == 0


class TestSharedLedger:
    def test_plan_search_probes_share_the_parent_ledger(self):
        executor = BatchExecutor()
        executor.sample_report("alexnet", 0)
        before = executor.ledger.layer_count
        plan_for("alexnet", 2, executor, reference_batch=2)
        # the probes priced seeds 0 and 1; seed 0 came from the ledger
        assert executor.ledger.layer_count == 2 * before

    def test_shared_ledger_prices_like_a_private_one(self):
        parent = ShardedExecutor()
        probe = ShardedExecutor(ledger=parent.ledger)
        private = ShardedExecutor()
        parent.execute("resnet18", [0, 1])
        shared = probe.execute("resnet18", [0, 1])
        alone = private.execute("resnet18", [0, 1])
        assert shared.service_cycles == alone.service_cycles
        for got, want in zip(shared.reports, alone.reports):
            _assert_same_report(got, want)


def test_exit_table_prices_each_layer_once():
    variant = early_exit_model("alexnet")
    costs = ExitCostModel()
    rows = costs.exit_table(variant, 11)
    assert [row["exit"] for row in rows] == list(variant.exit_names)
    assert costs.executor.ledger.layer_count == len(variant.spec.conv_layers)
