"""Tests for the dynamic bench campaign (``BENCH_dynamic.json``).

The module-scoped campaign shrinks the grid (3 thresholds, 4 inputs,
60-request traces) via monkeypatched module constants -- the shape and
verdict logic are identical to the committed smoke document, just fast.
"""

import json

import pytest

from repro.analysis.schema import validate_schema
from repro.bench import (
    BENCH_CAMPAIGNS,
    DYNAMIC_SCHEMA,
    deterministic_view,
    dynamic_scenarios,
    exit_thresholds,
    run_campaign,
)
from repro.bench import dynamic as bench_dynamic


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    patch.setattr(bench_dynamic, "_THRESHOLDS", (0.0, 0.6, 1.0))
    patch.setattr(bench_dynamic, "_N_INPUTS_SMOKE", 4)
    patch.setattr(bench_dynamic, "_N_REQUESTS_SMOKE", 60)
    output = tmp_path_factory.mktemp("dynamic") / "BENCH_dynamic.json"
    try:
        document = run_campaign(
            BENCH_CAMPAIGNS["dynamic"], smoke=True, output=output
        )
        yield document, output
    finally:
        patch.undo()


class TestGrid:
    def test_thresholds_ascend_to_always_late(self):
        thresholds = exit_thresholds()
        assert list(thresholds) == sorted(thresholds)
        assert thresholds[-1] == 1.0

    def test_overload_scenarios_differ_only_in_quality(self):
        by_name = {s["name"]: s for s in dynamic_scenarios(smoke=True)}
        ladder = dict(by_name["overload_ladder"])
        quality = dict(by_name["overload_quality"])
        assert ladder.pop("quality") is False
        assert quality.pop("quality") is True
        ladder.pop("name")
        quality.pop("name")
        assert ladder == quality


class TestDocument:
    def test_schema_and_shape(self, document):
        doc, output = document
        validate_schema(doc, DYNAMIC_SCHEMA)
        on_disk = json.loads(output.read_text())
        assert deterministic_view(on_disk) == deterministic_view(doc)
        assert set(doc) >= {
            "smoke", "root_seed", "fast_path", "thresholds", "pareto",
            "parity", "scenarios", "aggregates", "best_tradeoff",
            "dominance", "verdicts",
        }
        assert set(doc["verdicts"]) == {
            "pareto_win", "threshold_monotone", "static_parity",
            "goodput_dominance", "quality_bounded",
        }

    def test_pareto_records(self, document):
        doc, _ = document
        assert [r["model"] for r in doc["pareto"]] == [
            "alexnet", "resnet18", "vgg16",
        ]
        for record in doc["pareto"]:
            assert len(record["points"]) == 3
            full_point = record["points"][-1]
            assert full_point["threshold"] == 1.0
            assert full_point["cycle_reduction_vs_full"] == 1.0
            assert full_point["mean_estimated_drop"] == 0.0
            assert full_point["mean_exit_depth"] == 1.0
            assert record["threshold_monotone"]
            assert record["subpath"]["cycle_reduction_vs_full"] > 1.0
            table_exits = [row["exit"] for row in record["exit_table"]]
            assert table_exits[-1] == "full"

    def test_structural_verdicts_hold(self, document):
        doc, _ = document
        assert doc["verdicts"]["static_parity"] is True
        assert doc["verdicts"]["threshold_monotone"] is True
        assert doc["parity"]["static_parity"] is True
        assert {m["model"] for m in doc["parity"]["models"]} == {
            "alexnet", "resnet18", "vgg16", "lstm",
        }

    def test_dominance_block_is_consistent(self, document):
        doc, _ = document
        by_name = {s["name"]: s for s in doc["scenarios"]}
        dominance = doc["dominance"]
        assert dominance["ladder_goodput_rps"] == (
            by_name["overload_ladder"]["goodput_rps"]
        )
        assert dominance["quality_goodput_rps"] == (
            by_name["overload_quality"]["goodput_rps"]
        )
        assert doc["verdicts"]["goodput_dominance"] == (
            dominance["quality_goodput_rps"] > dominance["ladder_goodput_rps"]
        )
        assert by_name["overload_ladder"]["early_exits"] == 0
