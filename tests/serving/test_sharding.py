"""Tests for multi-chip model sharding (`repro.sim.sharding`).

Pure-function tests cover the plan/partition algebra; pricing tests run
the real executor on small reference batches (per-sample reports are
memoized on one shared executor, so the suite prices each (model, seed)
at most once).
"""

import pytest

from repro.serving import (
    GlbPartition,
    ShardPlan,
    ShardedExecutor,
    BatchExecutor,
    glb_partition,
    partition_layers,
    plan_for,
)
from repro.sim.sharding import boundary_elements


@pytest.fixture(scope="module")
def executor():
    return ShardedExecutor()


class TestShardPlan:
    def test_default_is_single_chip(self):
        plan = ShardPlan()
        assert plan.kind == "none"
        assert plan.shards == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="mesh", shards=2),
            dict(kind="none", shards=2),
            dict(kind="pipeline", shards=1),
            dict(kind="tensor", shards=0),
            dict(kind="tensor", shards=2, link_bandwidth=0),
        ],
    )
    def test_rejects_bad_plans(self, kwargs):
        with pytest.raises(ValueError):
            ShardPlan(**kwargs)


class TestPartitionLayers:
    def test_covers_all_layers_contiguously(self):
        costs = [5, 1, 1, 1, 5, 1, 1, 1]
        bounds = partition_layers(costs, 3)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(costs)
        for (_, prev_end), (start, _) in zip(bounds, bounds[1:]):
            assert start == prev_end
        assert all(end > start for start, end in bounds)

    def test_equal_costs_split_evenly(self):
        assert partition_layers([1, 1, 1, 1], 2) == [(0, 2), (2, 4)]

    def test_heavy_head_gets_short_stage(self):
        bounds = partition_layers([100, 1, 1, 1], 2)
        assert bounds[0] == (0, 1)

    def test_one_stage_takes_everything(self):
        assert partition_layers([3, 2, 1], 1) == [(0, 3)]

    @pytest.mark.parametrize("shards", [0, 4])
    def test_rejects_bad_stage_counts(self, shards):
        with pytest.raises(ValueError):
            partition_layers([1, 1, 1], shards)

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            partition_layers([1, -1], 2)


class TestGlbPartition:
    def test_inflation_is_two_minus_fraction(self):
        partition = GlbPartition(fractions={"a": 0.75, "b": 0.25})
        assert partition.memory_inflation("a") == pytest.approx(1.25)
        assert partition.memory_inflation("b") == pytest.approx(1.75)

    def test_absent_model_pays_nothing(self):
        partition = GlbPartition(fractions={"a": 1.0})
        assert partition.memory_inflation("other") == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "fractions", [{}, {"a": 0.0}, {"a": 1.5}, {"a": 0.7, "b": 0.7}]
    )
    def test_rejects_bad_fractions(self, fractions):
        with pytest.raises(ValueError):
            GlbPartition(fractions=fractions)

    def test_shares_proportional_to_weight_footprint(self, executor):
        partition = glb_partition(("alexnet", "lstm"), executor._resolve)
        assert sum(partition.fractions.values()) == pytest.approx(1.0)
        # alexnet's weights dwarf the LM's: it must keep the larger slice
        assert partition.fractions["alexnet"] > partition.fractions["lstm"]


class TestBoundaryElements:
    def test_rejects_unsupported_specs(self):
        with pytest.raises(TypeError):
            boundary_elements(object())


class TestShardedPricing:
    SEEDS = [0, 1]

    def test_unsplit_plan_matches_batch_executor(self, executor):
        plain = BatchExecutor(ledger=executor.ledger)
        sharded = executor.execute("lstm", self.SEEDS)
        assert sharded.service_cycles == plain.execute(
            "lstm", self.SEEDS
        ).service_cycles
        assert len(sharded.shard_busy_cycles) == 1

    def test_pricing_is_deterministic(self, executor):
        probe = ShardedExecutor(
            plans={"lstm": ShardPlan(kind="tensor", shards=2)},
            ledger=executor.ledger,
        )
        first = probe.execute("lstm", self.SEEDS)
        second = probe.execute("lstm", self.SEEDS)
        assert first.service_cycles == second.service_cycles
        assert first.shard_busy_cycles == second.shard_busy_cycles

    def test_tensor_split_is_symmetric(self, executor):
        probe = ShardedExecutor(
            plans={"lstm": ShardPlan(kind="tensor", shards=4)},
            ledger=executor.ledger,
        )
        result = probe.execute("lstm", self.SEEDS)
        assert len(result.shard_busy_cycles) == 4
        assert len(set(result.shard_busy_cycles)) == 1

    def test_surplus_pipeline_chips_idle(self, executor):
        # the LM has two layers; a 4-way pipeline clamps to one stage
        # per layer and the surplus chips record zero busy cycles
        probe = ShardedExecutor(
            plans={"lstm": ShardPlan(kind="pipeline", shards=4)},
            ledger=executor.ledger,
        )
        result = probe.execute("lstm", self.SEEDS)
        assert len(result.shard_busy_cycles) == 4
        assert result.shard_busy_cycles[2:] == [0, 0]
        assert all(busy > 0 for busy in result.shard_busy_cycles[:2])

    def test_link_contention_never_helps(self, executor):
        cheap = ShardedExecutor(
            plans={"lstm": ShardPlan(kind="tensor", shards=2,
                                     link_bandwidth=64)},
            ledger=executor.ledger,
        )
        dear = ShardedExecutor(
            plans={"lstm": ShardPlan(kind="tensor", shards=2,
                                     link_bandwidth=1)},
            ledger=executor.ledger,
        )
        assert (
            cheap.execute("lstm", self.SEEDS).service_cycles
            <= dear.execute("lstm", self.SEEDS).service_cycles
        )

    def test_colocation_costs_memory(self, executor):
        together = ShardedExecutor(
            colocated=("alexnet", "lstm"), ledger=executor.ledger
        )
        alone = executor.execute("lstm", self.SEEDS).service_cycles
        shared = together.execute("lstm", self.SEEDS).service_cycles
        assert shared > alone

    def test_empty_batch_rejected(self, executor):
        with pytest.raises(ValueError):
            executor.execute("lstm", [])


class TestPlanSearch:
    def test_single_chip_search_returns_none_plan(self, executor):
        assert plan_for("lstm", 1, executor) == ShardPlan()

    def test_search_returns_cheapest_candidate(self, executor):
        seeds = [0, 1]
        best = plan_for("lstm", 2, executor, reference_batch=len(seeds))
        probe = ShardedExecutor(plans={"lstm": best}, ledger=executor.ledger)
        chosen = probe.execute("lstm", seeds).service_cycles
        unsplit = executor.execute("lstm", seeds).service_cycles
        assert chosen <= unsplit

    @pytest.mark.parametrize("kwargs", [dict(shards=0), dict(shards=2, reference_batch=0)])
    def test_rejects_bad_search_arguments(self, executor, kwargs):
        with pytest.raises(ValueError):
            plan_for("lstm", **{"executor": executor, **kwargs})
