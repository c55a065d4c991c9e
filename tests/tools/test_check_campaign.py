"""Tests for ``tools/check_campaign.py`` -- the CI campaign contracts."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

COMMITTED = {
    "duet-serve/1": "BENCH_serving.json",
    "duet-chaos/1": "BENCH_chaos.json",
    "duet-fleet/1": "BENCH_fleet.json",
    "duet-dynamic/1": "BENCH_dynamic.json",
}


@pytest.fixture(scope="module")
def check_campaign():
    spec = importlib.util.spec_from_file_location(
        "check_campaign", REPO_ROOT / "tools" / "check_campaign.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_campaign", module)
    spec.loader.exec_module(module)
    return module


def test_every_smoke_tested_schema_has_contracts(check_campaign):
    assert set(check_campaign.CONTRACTS) == set(COMMITTED)


@pytest.mark.parametrize("schema", sorted(COMMITTED))
def test_committed_documents_hold(check_campaign, schema):
    path = str(REPO_ROOT / COMMITTED[schema])
    assert check_campaign.main([schema, path]) == 0


def test_broken_verdict_fails(check_campaign, tmp_path, capsys):
    document = json.loads((REPO_ROOT / "BENCH_chaos.json").read_text())
    broken = copy.deepcopy(document)
    broken["aggregates"]["lost"] = 1
    broken["verdicts"]["zero_lost"] = False
    path = tmp_path / "chaos.json"
    path.write_text(json.dumps(broken))
    assert check_campaign.main(["duet-chaos/1", str(path)]) == 1
    out = capsys.readouterr().out
    assert "contract failed: aggregates.lost == 0" in out
    assert "contract failed: verdicts.zero_lost" in out


def test_usage_and_schema_errors_exit_2(check_campaign, tmp_path):
    chaos = str(REPO_ROOT / "BENCH_chaos.json")
    assert check_campaign.main(["duet-nope/1", chaos]) == 2
    assert check_campaign.main(["duet-fleet/1", chaos]) == 2
    assert check_campaign.main(["duet-chaos/1", str(tmp_path / "no.json")]) == 2
    assert check_campaign.main([chaos]) == 2
