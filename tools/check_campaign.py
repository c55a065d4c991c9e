#!/usr/bin/env python
"""Check a campaign document against its schema and its contracts.

``python tools/check_campaign.py SCHEMA DOCUMENT.json`` validates the
document against ``SCHEMA`` and then asserts every contract registered
for that schema in :data:`CONTRACTS` -- the conservation and verdict
checks CI runs on each campaign it smoke-tests.

Exit convention: 0 every contract holds, 1 a contract fails, 2 usage or
I/O error (unreadable document, schema mismatch, unknown schema).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.analysis.schema import SchemaError, validate_schema  # noqa: E402
from repro.bench.chaos import CHAOS_SCHEMA  # noqa: E402
from repro.bench.dynamic import DYNAMIC_SCHEMA  # noqa: E402
from repro.bench.fleet import FLEET_SCHEMA  # noqa: E402
from repro.bench.serving import SERVE_SCHEMA  # noqa: E402

#: schema -> (description, predicate) contracts of one document.
CONTRACTS = {
    SERVE_SCHEMA: (),
    CHAOS_SCHEMA: (
        ("aggregates.lost == 0", lambda d: d["aggregates"]["lost"] == 0),
        (
            "aggregates.duplicates == 0",
            lambda d: d["aggregates"]["duplicates"] == 0,
        ),
        ("verdicts.zero_lost", lambda d: d["verdicts"]["zero_lost"]),
        ("verdicts.zero_duplicates", lambda d: d["verdicts"]["zero_duplicates"]),
        ("verdicts.dominance", lambda d: d["verdicts"]["dominance"]),
    ),
    FLEET_SCHEMA: (
        ("verdicts.goodput_dominance", lambda d: d["verdicts"]["goodput_dominance"]),
        (
            "verdicts.autoscale_out_observed",
            lambda d: d["verdicts"]["autoscale_out_observed"],
        ),
        (
            "verdicts.closed_loop_conserved",
            lambda d: d["verdicts"]["closed_loop_conserved"],
        ),
        ("dominance.speedup >= 1.0", lambda d: d["dominance"]["speedup"] >= 1.0),
    ),
    DYNAMIC_SCHEMA: (
        ("verdicts.pareto_win", lambda d: d["verdicts"]["pareto_win"]),
        ("verdicts.static_parity", lambda d: d["verdicts"]["static_parity"]),
        (
            "verdicts.threshold_monotone",
            lambda d: d["verdicts"]["threshold_monotone"],
        ),
        ("verdicts.goodput_dominance", lambda d: d["verdicts"]["goodput_dominance"]),
        ("verdicts.quality_bounded", lambda d: d["verdicts"]["quality_bounded"]),
        ("dominance.gain > 1.0", lambda d: d["dominance"]["gain"] > 1.0),
    ),
}


def failed_contracts(schema: str, document: dict) -> list[str]:
    """Descriptions of the ``schema`` contracts ``document`` breaks."""
    return [text for text, holds in CONTRACTS[schema] if not holds(document)]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2 or argv[0] not in CONTRACTS:
        print(
            "usage: python tools/check_campaign.py SCHEMA DOCUMENT.json "
            f"(SCHEMA one of {', '.join(sorted(CONTRACTS))})",
            file=sys.stderr,
        )
        return 2
    schema, path = argv
    try:
        document = json.loads(Path(path).read_text())
        validate_schema(document, schema)
    except (OSError, ValueError, SchemaError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2
    failed = failed_contracts(schema, document)
    for text in failed:
        print(f"{path}: contract failed: {text}")
    if failed:
        return 1
    print(f"{path}: {schema} contracts held: {document.get('verdicts', {})}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
