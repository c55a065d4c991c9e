"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

import json
import time

import pytest

import harness
import run
import spans
import stats
import suite


class TestSelfTime:
    def test_nested_spans(self):
        # 0 (10s) has children 1 (6s) and 3 (3s); 1 has child 2 (2s)
        parents = [spans.NO_PARENT, 0, 1, 0]
        durations = [10.0, 6.0, 2.0, 3.0]
        assert spans.self_times(parents, durations) == [1.0, 4.0, 2.0, 3.0]
        assert sum(spans.self_times(parents, durations)) == durations[0]

    def test_recorded_spans(self):
        recorder = spans.SpanRecorder()
        leaf = recorder.wrap("leaf", lambda: time.sleep(0.01))

        def middle():
            leaf()
            leaf()

        outer = recorder.wrap("outer", lambda: (recorder.wrap("middle", middle)(), leaf()))
        outer()  # no phase: nothing recorded
        assert len(recorder.parent) == 0
        recorder.begin("timed")
        outer()
        recorder.begin(None)
        totals = recorder.totals("timed")
        assert totals.count("leaf") == 3 and totals.count("outer") == 1
        assert totals.children_named("middle", "leaf") == 2
        whole = totals.inclusive_s("outer")
        assert totals.top_level_s() == whole
        assert sum(totals.selfs) == pytest.approx(whole)
        assert totals.inclusive_s("leaf", "middle") < whole
        # leaves inside "middle" only
        assert totals.inclusive_s("leaf", within=("middle",)) == pytest.approx(
            totals.inclusive_s("middle") - totals.self_s("middle")
        )


class TestPercentiles:
    def test_p90_needs_ten_samples_beyond_it(self):
        assert stats.tail_percentile(list(range(99)), 90) is None
        assert stats.tail_percentile(list(range(101)), 90) == pytest.approx(90.0)
        assert stats.tail_percentile(list(range(100)), 90) == pytest.approx(89.1)

    def test_interpolates_between_ranks(self):
        values = list(range(0, 1000, 10))  # 100 samples, 0 .. 990
        assert stats.tail_percentile(values, 90) == pytest.approx(891.0)


class TestCacheDelta:
    def test_counters_differ_gauges_read_at_end(self):
        before = {"im2col": {"entries": 32, "capacity": 32, "hits": 5, "misses": 40,
                             "evictions": 8}}
        after = {"im2col": {"entries": 32, "capacity": 32, "hits": 9, "misses": 52,
                            "evictions": 20},
                 "disk": {"entries": 3, "bytes": 900, "hits": 0, "misses": 4,
                          "evictions": 1}}
        delta = stats.cache_delta(before, after)
        assert delta["im2col"] == {"entries": 32, "capacity": 32, "hits": 4,
                                   "misses": 12, "evictions": 12}
        assert delta["disk"]["bytes"] == 900 and delta["disk"]["misses"] == 4
        assert stats.hit_ratio(delta["im2col"]) == 0.25
        assert stats.hit_ratio({"hits": 0, "misses": 0}) == 0.0

    def test_unknown_field_is_refused(self):
        with pytest.raises(KeyError):
            stats.cache_delta({}, {"x": {"size": 1}})


#: each workload cut down to a round that runs in seconds
SMALL = {
    "sim-cold": dict(CNN_MODELS=("alexnet",), STAGES=("OS", "DUET"),
                     RNN_MODELS=("lstm",), FAULT_CASES=(("alexnet", "smoke"),)),
    "exit-sweep": dict(MODELS=("alexnet",), THRESHOLDS=(0.5, 0.9, 1.0)),
    "serve-replay": dict(TRACE_POOL=4, TRACE_REQUESTS=40),
    "dual-tune": dict(TRAIN_STEPS=2, CANDIDATES=(0.0, 0.5, (0.3, 0.5, 0.7))),
}


def one_round(name, seed):
    workload = type("Small", (suite.WORKLOADS[name],), SMALL[name])()
    workload.setup(seed)
    measured = harness.measure(workload, rounds=1)
    assert measured.failed == 0, measured.errors
    assert workload.verify() == []
    return measured


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seed_fixes_inputs_and_outputs(name, tmp_path, monkeypatch):
    monkeypatch.setenv("DUET_CACHE_DIR", str(tmp_path))
    first, again, other = one_round(name, 1), one_round(name, 1), one_round(name, 2)
    assert first.attempted == again.attempted > 0
    assert (first.input_digest, first.output_digest) == (
        again.input_digest, again.output_digest)
    assert other.input_digest != first.input_digest


def test_failed_call_is_counted_not_fatal():
    class Broken:
        def round(self, index):
            return [suite.Call("ok", 1, "", lambda: 1, str),
                    suite.Call("bad", 1, "", lambda: 1 / 0, str)]

    measured = harness.measure(Broken(), rounds=2)
    assert (measured.attempted, measured.failed, measured.units) == (4, 2, 2)
    assert len(measured.latencies_s) == 2


def test_metrics_match_benchmark_declaration():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    from repro.core.cache import cache_stats

    recorder = spans.SpanRecorder()
    recorder.begin("setup")
    recorder.begin("timed")
    recorder.begin(None)
    names = list(spans.layer_metrics(recorder, harness.Measurement(), cache_stats(),
                                     cache_stats()))
    names.append("bench.trace_overhead_pct")
    per_layer = declared["per_layer"]
    assert [m["name"] for m in per_layer] == names
    for metric in declared["end_to_end"] + per_layer:
        assert metric["unit"] == run.unit_of(metric["name"]), metric["name"]
