"""Tests for the shared campaign runner and the one CLI path of every campaign."""

import io
import json
from pathlib import Path

import pytest

from repro.bench import BENCH_CAMPAIGNS, run_campaign
from repro.bench import chaos, dynamic, faults, fleet, harness
from repro.bench.campaign import _PERF_HISTORY
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _set(path, value):
    """A record mutation: set the dotted ``path`` to ``value``."""

    def mutate(record):
        *parents, leaf = path.split(".")
        for key in parents:
            record = record[key]
        record[leaf] = value

    return mutate


def _shrink_dynamic(monkeypatch):
    monkeypatch.setattr(dynamic, "_THRESHOLDS", (0.0, 0.6, 1.0))
    monkeypatch.setattr(dynamic, "_N_INPUTS_SMOKE", 4)
    monkeypatch.setattr(dynamic, "_N_REQUESTS_SMOKE", 60)


#: per campaign: argv, the cell function to break, the mutation that
#: fails its verdict, and the verdict line the CLI must print.
FAILING_CELLS = {
    "faults": (
        ("faults", "--smoke"),
        faults, "_run_matrix_cell", _set("invariant_held", False),
        "values-never-corrupted invariant: VIOLATED in 4 guarded cell(s)",
    ),
    "bench": (
        ("bench", "--suite", "fig12d_rnn_memory", "--smoke",
         "--warmup", "0", "--repeat", "1"),
        harness, "run_suite",
        lambda record: record.update(equivalent=False, equivalence="MISMATCH"),
        "fast path diverged from the slow-path oracle",
    ),
    "chaos": (
        ("chaos", "--smoke"),
        chaos, "_chaos_cell", _set("summary.lost", 1),
        "conservation: zero_lost=False zero_duplicates=True",
    ),
    "fleet": (
        ("fleet", "--smoke"),
        fleet, "_fleet_scenario", _set("scale_outs", 0),
        "autoscale out observed: False",
    ),
    "dynamic": (
        ("dynamic", "--smoke"),
        dynamic, "_parity_check", _set("static_parity", False),
        "static parity: False",
    ),
}


class TestFailedVerdictExitsOne:
    @pytest.mark.parametrize("name", sorted(FAILING_CELLS))
    def test_broken_cell_exits_one_with_the_verdict_on_stdout(
        self, name, monkeypatch, tmp_path
    ):
        argv, module, cell, mutate, verdict_line = FAILING_CELLS[name]
        real = getattr(module, cell)

        def broken(**kwargs):
            record = real(**kwargs)
            mutate(record)
            return record

        monkeypatch.setattr(module, cell, broken)
        if name == "dynamic":
            _shrink_dynamic(monkeypatch)
        code, out, err = run_cli(
            *argv, "--no-perf", "--output", str(tmp_path / "doc.json")
        )
        assert code == 1
        assert verdict_line in out
        assert err == ""


class TestSharedFlags:
    @pytest.mark.parametrize("name", sorted(BENCH_CAMPAIGNS))
    def test_every_campaign_takes_the_shared_flags(self, name):
        args = build_parser().parse_args(
            [name, "--smoke", "--jobs", "2", "--output", "x.json", "--no-perf"]
        )
        assert (args.smoke, args.jobs, args.output, args.no_perf) == (
            True, 2, "x.json", True
        )
        defaults = build_parser().parse_args([name])
        assert defaults.output == BENCH_CAMPAIGNS[name].output

    @pytest.mark.parametrize("name", sorted(BENCH_CAMPAIGNS))
    def test_each_parameter_is_a_flag(self, name):
        spec = BENCH_CAMPAIGNS[name]
        args = vars(build_parser().parse_args([name]))
        for param in spec.params:
            assert ("slow_path" if param == "fast_path" else param) in args

    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "--list", "--jobs", "0"),
            ("bench", "--smoke", "--repeat", "0"),
            ("bench", "--smoke", "--warmup", "-1"),
            ("faults", "--no-guards"),
        ],
    )
    def test_usage_errors_exit_2_before_any_output(self, argv, tmp_path):
        code, out, err = run_cli(*argv, "--output", str(tmp_path / "d.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestRunCampaign:
    @pytest.mark.parametrize("name", sorted(BENCH_CAMPAIGNS))
    def test_history_keys_match_the_committed_document(self, name):
        """A history entry keeps the keys of the committed trail."""
        spec = BENCH_CAMPAIGNS[name]
        committed = json.loads((REPO_ROOT / spec.output).read_text())
        entry = {**spec.history(committed), **dict.fromkeys(_PERF_HISTORY)}
        assert ["run", *entry] == list(committed["history"][-1])

    def test_progress_streams_header_rows_and_trailer(self):
        lines = []
        document = run_campaign(
            BENCH_CAMPAIGNS["chaos"], smoke=True, with_perf=False,
            progress=lines.append,
        )
        spec = BENCH_CAMPAIGNS["chaos"]
        assert lines[0] == spec.header
        assert lines[1:-1] == [spec.row(cell) for cell in document["cells"]]
        assert lines[-1] == spec.trailer(document, None, 1)

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(TypeError):
            run_campaign(BENCH_CAMPAIGNS["faults"], workers=3)
