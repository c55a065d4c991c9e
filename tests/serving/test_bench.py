"""Tests for the serving bench campaign (``BENCH_serving.json``).

Campaigns run at ``scale=0.02`` (20-request floor per scenario) so the
whole file stays fast while still exercising every scenario arm.
"""

import json

import pytest

from repro.bench import (
    BENCH_CAMPAIGNS,
    SERVE_SCHEMA,
    deterministic_view,
    run_campaign,
    serve_scenarios,
)

SMALL = dict(smoke=True, seed=0, scale=0.02, output=None)


def _run(**kwargs):
    return run_campaign(BENCH_CAMPAIGNS["loadgen"], **kwargs)


@pytest.fixture(scope="module")
def document():
    return _run(**SMALL)


class TestScenarios:
    def test_campaign_shape(self):
        scenarios = serve_scenarios(smoke=True, scale=0.02)
        assert [s.name for s in scenarios] == [
            "nominal", "overload", "capacity_batch1", "capacity_batched",
        ]
        by_name = {s.name: s for s in scenarios}
        # the capacity arms replay the *same* trace on equal hardware;
        # only the batching policy differs
        assert (
            by_name["capacity_batch1"].trace
            == by_name["capacity_batched"].trace
        )
        assert by_name["capacity_batch1"].server.batch.max_batch == 1
        assert by_name["capacity_batched"].server.batch.max_batch == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival": "uniform"},
            {"max_batch": 0},
            {"scale": 0.0},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            serve_scenarios(**kwargs)


class TestDocument:
    def test_schema_and_keys(self, document):
        assert document["schema"] == SERVE_SCHEMA
        assert set(document) >= {
            "smoke", "seed", "arrival", "workers", "max_batch",
            "requests_offered", "scenarios", "batching",
        }
        assert document["requests_offered"] == sum(
            r["requests"] for r in document["scenarios"]
        )
        for record in document["scenarios"]:
            assert set(record) >= {
                "name", "server", "summary", "max_queue_depth_seen",
                "simulated_ms",
            }
            summary = record["summary"]
            assert summary["offered"] == record["requests"]
            assert (
                record["max_queue_depth_seen"]
                <= record["server"]["max_queue_depth"]
            )

    def test_capacity_arms_drain_everything(self, document):
        for name in ("capacity_batch1", "capacity_batched"):
            record = next(
                r for r in document["scenarios"] if r["name"] == name
            )
            assert record["summary"]["rejected"] == 0
            assert record["summary"]["degraded"] == 0

    def test_batching_speedup_floor(self, document):
        """The acceptance-criteria regression: dynamic batching at
        max_batch=8 delivers >= 2x the throughput of batch=1 on the same
        trace and hardware."""
        batching = document["batching"]
        assert batching["max_batch"] == 8
        assert batching["speedup"] == pytest.approx(
            batching["batched_throughput_rps"]
            / batching["batch1_throughput_rps"]
        )
        assert batching["speedup"] >= 2.0


class TestDeterminism:
    def test_same_seed_byte_identical(self, document, tmp_path):
        """Simulated quantities are byte-deterministic; only the ``perf``
        block and ``history`` trail (wall clocks) may differ between
        reruns, which is exactly what ``deterministic_view`` strips."""
        path = tmp_path / "BENCH_serving.json"
        rerun = _run(**{**SMALL, "output": path})
        assert json.dumps(
            deterministic_view(rerun), sort_keys=True
        ) == json.dumps(deterministic_view(document), sort_keys=True)
        # the written file is exactly the returned document
        assert json.loads(path.read_text()) == rerun

    def test_no_perf_documents_fully_byte_identical(self, tmp_path):
        """Under ``with_perf=False`` nothing non-deterministic remains:
        two runs (any worker count) write byte-identical files."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _run(**{**SMALL, "output": a, "with_perf": False})
        _run(
            **{**SMALL, "output": b, "with_perf": False, "jobs": 2}
        )
        assert a.read_bytes() == b.read_bytes()

    def test_fast_path_matches_slow_path(self):
        """duet-serve/1 metrics agree between the vectorized fast path
        and the per-event slow-path oracle (memory-bound mix keeps the
        slow arm cheap)."""
        fast = _run(**SMALL, fast_path=True)
        slow = _run(**SMALL, fast_path=False)
        for f, s in zip(fast["scenarios"], slow["scenarios"]):
            assert f["summary"] == s["summary"], f["name"]
            assert f["max_queue_depth_seen"] == s["max_queue_depth_seen"]

    def test_seed_changes_trace(self, document):
        other = _run(**{**SMALL, "seed": 1})
        assert (
            other["scenarios"][0]["summary"]
            != document["scenarios"][0]["summary"]
        )
