"""Fast-path equivalence: the vectorized kernels against the oracle.

The ``fast_path`` configuration flag swaps the simulator's per-event
Python loops for batched numpy kernels; the slow path is kept as the
reference oracle.  These tests pin the contract: for *any* workload and
configuration the two paths produce identical cycle, energy, MAC and
switch-fraction accounting -- equality, not approximation.

Also includes the bench-harness regression: ``repro bench --smoke`` must
emit a valid ``BENCH_duet.json`` whose equivalence checks pass.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.models import ConvSpec, get_model_spec
from repro.sim import DuetAccelerator
from repro.sim.config import STAGES, DuetConfig, stage_config
from repro.sim.executor import ExecutorModel
from repro.sim.pe import (
    PE,
    generate_tile_instructions,
    tag_instructions,
    tag_instructions_reference,
)
from repro.reliability.faults import DramFaultStream
from repro.sim.dram import Dram, TransferRetryPolicy
from repro.sim.pipeline import RnnPipeline, _gate_fetch, _gate_fetch_fast
from repro.workloads import SparsityModel, cnn_workloads, rnn_workloads
from repro.workloads.sparsity import CnnLayerWorkload

conv_shapes = st.tuples(
    st.integers(1, 6),  # C_in
    st.integers(1, 24),  # C_out
    st.sampled_from([1, 3]),  # kernel
    st.integers(4, 10),  # H = W
)

hw_knobs = st.tuples(
    st.sampled_from([4, 8, 16]),  # executor rows
    st.sampled_from([4, 16]),  # executor cols
    st.sampled_from([2, 4]),  # reorder buckets
    st.sampled_from([1, 2]),  # reorder window tiles
)


def _workload(shape, sensitive_p, density_p, seed):
    c_in, c_out, k, hw = shape
    spec = ConvSpec("c", c_in, c_out, k, 1, k // 2, hw, hw)
    rng = np.random.default_rng(seed)
    omap = (rng.random((c_out, spec.out_h, spec.out_w)) < sensitive_p).astype(
        np.uint8
    )
    imap = (rng.random((c_in, hw, hw)) < density_p).astype(np.uint8)
    return CnnLayerWorkload(spec, omap, imap)


def _configs(stage, rows, cols, buckets, window):
    """Matching (fast, slow) configs for one randomized design point."""
    base = DuetConfig(
        executor_rows=rows,
        executor_cols=cols,
        reorder_buckets=buckets,
        reorder_window_tiles=window,
    )
    cfg = stage_config(stage, base)
    import dataclasses

    return (
        dataclasses.replace(cfg, fast_path=True),
        dataclasses.replace(cfg, fast_path=False),
    )


class TestExecutorFastPath:
    """Vectorized CNN executor model vs the per-channel reference."""

    @settings(deadline=None, max_examples=60)
    @given(
        conv_shapes,
        st.sampled_from(STAGES),
        hw_knobs,
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.integers(0, 10_000),
    )
    def test_cnn_cost_identical(
        self, shape, stage, knobs, sensitive_p, density_p, seed
    ):
        workload = _workload(shape, sensitive_p, density_p, seed)
        fast_cfg, slow_cfg = _configs(stage, *knobs)
        fast = ExecutorModel(fast_cfg).cnn_layer(workload)
        slow = ExecutorModel(slow_cfg).cnn_layer(workload)
        assert fast.cycles == slow.cycles
        assert fast.executed_macs == slow.executed_macs
        assert fast.dense_macs == slow.dense_macs
        assert fast.utilization == slow.utilization
        assert fast.schedule == slow.schedule

    @settings(deadline=None, max_examples=20)
    @given(
        conv_shapes,
        st.floats(0.05, 0.95),
        st.integers(0, 10_000),
    )
    def test_memoized_cost_stable_across_calls(self, shape, p, seed):
        """A second fast call returns the same account (memo correctness)."""
        workload = _workload(shape, p, 0.5, seed)
        model = ExecutorModel(stage_config("DUET"))
        first = model.cnn_layer(workload)
        second = model.cnn_layer(workload)
        assert first.cycles == second.cycles
        assert first.executed_macs == second.executed_macs


def _zoo_conv_shapes():
    """Every distinct conv shape of the registered CNNs."""
    from repro.models.registry import MODEL_REGISTRY

    shapes = {}
    for name in sorted(MODEL_REGISTRY):
        spec = get_model_spec(name)
        if spec.domain != "cnn":
            continue
        for layer in spec.conv_layers:
            key = (layer.in_channels, layer.kernel, layer.stride,
                   layer.padding, layer.in_h, layer.in_w)
            shapes.setdefault(key, layer)
    return list(shapes.values())


def _imap_workload(spec, imap, seed=0):
    rng = np.random.default_rng(seed)
    omap = (rng.random((spec.out_channels, spec.out_h, spec.out_w)) < 0.4).astype(
        np.uint8
    )
    return CnnLayerWorkload(spec, omap, imap)


def _assert_windows_identical(workload, cols=(16,)):
    """Integer window counts (fast) vs the float32 im2col oracle."""
    reference = CnnLayerWorkload(workload.spec, workload.omap, workload.imap)
    for cols_per_row in cols:
        fast = workload.position_cycles_fast(cols_per_row, use_imap=True)
        slow = reference.position_cycles(cols_per_row, use_imap=True)
        assert fast.dtype == slow.dtype == np.int64
        assert np.array_equal(fast, slow)
    costs = workload.position_costs_fast()
    assert costs.dtype == np.int64
    assert np.array_equal(costs, reference.position_costs().astype(np.int64))


#: edge shapes: 1x1 kernels, AlexNet-style 11x11/stride 4/padding 2, and
#: receptive fields that are not a multiple of the PE-row width.
EDGE_SHAPES = [
    ConvSpec("k1", 5, 4, 1, 1, 0, 7, 7),
    ConvSpec("k1_s2", 9, 4, 1, 2, 0, 9, 9),
    ConvSpec("k11_s4_p2", 3, 4, 11, 4, 2, 35, 35),
    ConvSpec("r27", 3, 4, 3, 1, 1, 8, 8),
    ConvSpec("r45_s2", 5, 4, 3, 2, 1, 11, 11),
    ConvSpec("r175_p0", 7, 4, 5, 1, 0, 9, 12),
]


class TestWindowCountsFastPath:
    """``position_cycles_fast`` / ``position_costs_fast`` (integral-image
    window counts) against the float32 im2col oracle ``position_cycles`` /
    ``position_costs``."""

    @pytest.mark.parametrize(
        "spec", _zoo_conv_shapes(), ids=lambda s: f"{s.name}-{s.in_channels}x{s.in_h}"
    )
    def test_every_zoo_conv_shape(self, spec):
        rng = np.random.default_rng(spec.in_channels + spec.in_h)
        imap = (rng.random((spec.in_channels, spec.in_h, spec.in_w)) < 0.35).astype(
            np.uint8
        )
        _assert_windows_identical(_imap_workload(spec, imap), cols=(16, 7))

    @pytest.mark.parametrize("spec", EDGE_SHAPES, ids=lambda s: s.name)
    @pytest.mark.parametrize("fill", ["random", "zeros", "ones"])
    def test_edge_shapes(self, spec, fill):
        shape = (spec.in_channels, spec.in_h, spec.in_w)
        if fill == "zeros":
            imap = np.zeros(shape, dtype=np.uint8)
        elif fill == "ones":
            imap = np.ones(shape, dtype=np.uint8)
        else:
            imap = (np.random.default_rng(5).random(shape) < 0.5).astype(np.uint8)
        _assert_windows_identical(_imap_workload(spec, imap), cols=(1, 4, 16, 64))

    @pytest.mark.parametrize("model", ["alexnet", "vgg16", "resnet18", "resnet50"])
    def test_dense_first_layer(self, model):
        spec = get_model_spec(model).conv_layers[0]
        workload = SparsityModel(seed=1).cnn_layer(spec, 0)
        assert workload.imap.all()
        _assert_windows_identical(workload, cols=(16, 5))

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 9),  # C_in
        st.sampled_from([1, 2, 3, 5, 7]),  # kernel
        st.integers(1, 4),  # stride
        st.integers(0, 3),  # padding
        st.integers(7, 15),  # H
        st.integers(7, 15),  # W
        st.floats(0.0, 1.0),
        st.sampled_from([1, 3, 4, 16]),  # PE columns
        st.integers(0, 10_000),
    )
    def test_random_shapes(self, c_in, k, stride, pad, h, w, density, cols, seed):
        assume(k <= min(h, w) + 2 * pad)
        spec = ConvSpec("c", c_in, 3, k, stride, pad, h, w)
        rng = np.random.default_rng(seed)
        imap = (rng.random((c_in, h, w)) < density).astype(np.uint8)
        _assert_windows_identical(_imap_workload(spec, imap, seed), cols=(cols,))

    @settings(deadline=None, max_examples=30)
    @given(
        conv_shapes,
        st.booleans(),
        st.booleans(),
        st.sampled_from([1, 3, 8]),
        st.integers(0, 10_000),
    )
    def test_tile_aggregates_identical(self, shape, out_sw, in_sw, tile, seed):
        """``channel_tile_cycles_fast`` / ``channel_tile_switch_counts_fast``
        against ``channel_tile_cycles`` / ``channel_tile_switch_counts``."""
        fast = _workload(shape, 0.4, 0.4, seed)
        slow = CnnLayerWorkload(fast.spec, fast.omap, fast.imap)
        assert np.array_equal(
            fast.channel_tile_cycles_fast(16, out_sw, in_sw, tile),
            slow.channel_tile_cycles(16, out_sw, in_sw, tile),
        )
        assert np.array_equal(
            fast.channel_tile_switch_counts_fast(tile),
            slow.channel_tile_switch_counts(tile),
        )
        assert fast.executed_macs_total(out_sw, in_sw) == int(
            slow.channel_macs(out_sw, in_sw).sum()
        )


class TestPeFastPath:
    """Vectorized PE instruction stream vs the event-at-a-time oracle."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(1, 4),  # kernel
        st.integers(1, 6),  # out_w
        st.floats(0.0, 1.0),  # omap density
        st.booleans(),  # with imap
        st.integers(0, 10_000),
    )
    def test_run_matches_reference(self, kernel, out_w, p, with_imap, seed):
        rng = np.random.default_rng(seed)
        tile_h, tile_w = kernel, kernel + out_w - 1
        instructions = generate_tile_instructions(tile_h, tile_w, kernel, out_w)
        omap = (rng.random(out_w) < p).astype(np.uint8)
        imap = (
            (rng.random(tile_h * tile_w) < 0.7).astype(np.uint8)
            if with_imap
            else None
        )
        tags = tag_instructions(instructions, omap, imap)
        ref_tags = tag_instructions_reference(instructions, omap, imap)
        np.testing.assert_array_equal(tags, ref_tags)

        inputs = rng.normal(size=tile_h * tile_w)
        weights = rng.normal(size=kernel * kernel)
        fast_pe, ref_pe = PE(), PE()
        fast_pe.load_tile(inputs, weights, out_w)
        ref_pe.load_tile(inputs, weights, out_w)
        fast = fast_pe.run(instructions, tags)
        ref = ref_pe.run_reference(instructions, ref_tags)
        np.testing.assert_array_equal(fast, ref)
        assert fast_pe.cycles == ref_pe.cycles
        assert fast_pe.macs_executed == ref_pe.macs_executed
        assert fast_pe.macs_skipped == ref_pe.macs_skipped


class TestModelReports:
    """Whole-model reports: every per-layer counter identical."""

    @pytest.mark.parametrize("model", ["alexnet", "lstm"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_fast_slow_reports_identical(self, model, stage):
        spec = get_model_spec(model)
        sparsity = SparsityModel(seed=3)
        if spec.domain == "cnn":
            wl = cnn_workloads(spec, sparsity)
        else:
            wl = rnn_workloads(spec, sparsity)
        import dataclasses

        cfg = stage_config(stage)
        fast = DuetAccelerator(
            config=dataclasses.replace(cfg, fast_path=True)
        ).run(spec, workloads=wl)
        slow = DuetAccelerator(
            config=dataclasses.replace(cfg, fast_path=False)
        ).run(spec, workloads=wl)
        # LayerReport is a plain dataclass of scalars: == is exact equality
        # of every cycle/energy/MAC/utilisation field, layer by layer.
        assert fast.layers == slow.layers

    def test_switch_fraction_identical(self):
        """The Fig. 2-style sensitive fraction agrees across paths."""
        spec = get_model_spec("resnet18")
        sparsity = SparsityModel(seed=7)
        wl = cnn_workloads(spec, sparsity)
        import dataclasses

        cfg = stage_config("DUET")
        reports = {
            flag: DuetAccelerator(
                config=dataclasses.replace(cfg, fast_path=flag)
            ).run(spec, workloads=wl)
            for flag in (True, False)
        }
        for fast_layer, slow_layer in zip(
            reports[True].layers, reports[False].layers
        ):
            assert fast_layer.executed_macs == slow_layer.executed_macs
            assert fast_layer.dense_macs == slow_layer.dense_macs


class TestRnnPipelineFastPath:
    """The vectorized RNN gate pipeline vs the per-timestep loop."""

    @pytest.mark.parametrize("model", ["lstm", "gru", "gnmt"])
    def test_rnn_layers_identical(self, model):
        spec = get_model_spec(model)
        wl = rnn_workloads(spec, SparsityModel(seed=11))
        import dataclasses

        for stage in ("BASE", "DUET"):
            cfg = stage_config(stage)
            fast = RnnPipeline(
                dataclasses.replace(cfg, fast_path=True)
            ).run(spec, wl)
            slow = RnnPipeline(
                dataclasses.replace(cfg, fast_path=False)
            ).run(spec, wl)
            assert fast.layers == slow.layers


class TestGateFetchFastPath:
    """``_gate_fetch_fast`` (``Dram.read_bulk``) vs the per-event
    ``_gate_fetch`` oracle (PAR001 coverage), including a flaky channel
    where both paths must consume the identical fault-draw sequence."""

    @staticmethod
    def _dram(seed, rate):
        stream = DramFaultStream(np.random.default_rng(seed), rate=rate)
        return Dram(
            bandwidth=64,
            fault_stream=stream,
            retry_policy=TransferRetryPolicy(max_retries=3, backoff_cycles=8),
        )

    @given(
        counts=st.lists(st.integers(0, 4096), min_size=1, max_size=64),
        rate=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_flaky_channel_bit_identical(self, counts, rate, seed):
        byte_counts = np.array(counts, dtype=np.int64)
        fast_dram = self._dram(seed, rate)
        slow_dram = self._dram(seed, rate)
        fast = _gate_fetch_fast(fast_dram, byte_counts)
        slow = _gate_fetch(slow_dram, byte_counts)
        assert np.array_equal(fast, slow)
        for counter in (
            "bytes_read", "retries", "failed_transfers",
            "unrecoverable_transfers", "retry_cycles",
        ):
            assert getattr(fast_dram, counter) == getattr(slow_dram, counter)

    def test_fault_free_channel_identical(self):
        byte_counts = np.arange(12, dtype=np.int64).reshape(3, 4) * 7
        fast_dram, slow_dram = Dram(bandwidth=64), Dram(bandwidth=64)
        fast = _gate_fetch_fast(fast_dram, byte_counts)
        slow = _gate_fetch(slow_dram, byte_counts)
        assert np.array_equal(fast, slow)
        assert fast.shape == byte_counts.shape
        assert fast_dram.bytes_read == slow_dram.bytes_read


class TestBenchHarness:
    """``repro bench --smoke`` writes a valid BENCH_duet.json."""

    def test_smoke_bench_writes_valid_json(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_duet.json"
        code = cli.main(
            [
                "bench",
                "--smoke",
                "--warmup",
                "0",
                "--repeat",
                "1",
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        document = json.loads(out_file.read_text())
        assert document["schema"] == "duet-bench/1"
        assert document["smoke"] is True
        assert document["all_equivalent"] is True
        assert document["suites"], "smoke run must time at least one suite"
        for suite in document["suites"]:
            assert suite["equivalence"] == "bit-identical"
            assert suite["simulated_cycles"] > 0
            assert suite["wall_time_s"]["fast"] > 0
            assert suite["wall_time_s"]["slow"] > 0
            assert suite["speedup_vs_slow_path"] > 0
            assert suite["bench_file"].startswith("benchmarks/bench_")
        assert document["geomean_speedup_vs_slow_path"] > 0

    def test_explicit_suite_selection(self, tmp_path):
        out_file = tmp_path / "b.json"
        code = cli.main(
            ["bench", "--suite", "fig12d_rnn_memory", "--smoke",
             "--warmup", "0", "--repeat", "1", "--output", str(out_file)]
        )
        assert code == 0
        document = json.loads(out_file.read_text())
        assert [s["name"] for s in document["suites"]] == ["fig12d_rnn_memory"]

    def test_list_flag_prints_registry(self, capsys):
        assert cli.main(["bench", "--list"]) == 0
        listing = capsys.readouterr().out
        assert "fig11a_overall" in listing


class TestFunctionalFastPath:
    """Batched ``run_conv`` vs its per-event slow path (PAR001 coverage)."""

    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(1, 3),  # C_in
        st.integers(1, 8),  # C_out
        st.sampled_from([1, 3]),  # kernel
        st.floats(0.1, 0.9),  # omap density
        st.booleans(),  # with imap
        st.integers(0, 10_000),
    )
    def test_run_conv_matches_slow_path(
        self, c_in, c_out, kernel, p, with_imap, seed
    ):
        from repro.sim.functional import FunctionalExecutorArray

        rng = np.random.default_rng(seed)
        hw = 6
        x = rng.standard_normal((c_in, hw, hw))
        weight = rng.standard_normal((c_out, c_in, kernel, kernel))
        omap = (rng.random((c_out, hw, hw)) < p).astype(np.uint8)
        imap = (
            (rng.random((c_in, hw, hw)) < 0.7).astype(np.uint8)
            if with_imap
            else None
        )
        kwargs = dict(imap=imap, stride=1, padding=kernel // 2)
        fast = FunctionalExecutorArray(
            DuetConfig(executor_rows=4, executor_cols=4, fast_path=True)
        ).run_conv(x, weight, omap, **kwargs)
        slow = FunctionalExecutorArray(
            DuetConfig(executor_rows=4, executor_cols=4, fast_path=False)
        ).run_conv(x, weight, omap, **kwargs)
        assert fast.total_cycles == slow.total_cycles
        assert fast.macs_executed == slow.macs_executed
        assert fast.macs_skipped == slow.macs_skipped
        np.testing.assert_array_equal(fast.row_cycles, slow.row_cycles)
        np.testing.assert_allclose(fast.output, slow.output, atol=1e-9)


class TestTilingFastPath:
    """``choose_tiling_cached`` (the fast-path entry used by the CNN
    pipeline's ``_conv_costs``) vs the uncached search."""

    @settings(deadline=None, max_examples=30)
    @given(conv_shapes, st.sampled_from([1 << 14, 1 << 17, 1 << 20]))
    def test_cached_tiling_identical(self, shape, glb_bytes):
        from repro.sim.tiling import choose_tiling, choose_tiling_cached

        c_in, c_out, k, hw = shape
        spec = ConvSpec("c", c_in, c_out, k, 1, k // 2, hw, hw)
        assert choose_tiling_cached(spec, glb_bytes) == choose_tiling(
            spec, glb_bytes
        )
        # a second cached call must return the same (shared) choice
        assert choose_tiling_cached(spec, glb_bytes) == choose_tiling(
            spec, glb_bytes
        )
