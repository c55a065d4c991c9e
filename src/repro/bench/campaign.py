"""One campaign spec and one runner behind every ``BENCH_*.json`` writer.

Each bench command (``bench``, ``loadgen``, ``chaos``, ``fleet``,
``dynamic``, ``faults``) is a :class:`Campaign`: plain data plus the
campaign's own functions.  :func:`run_campaign` is the one driver they
share: build the work-list, shard it (:func:`repro.parallel.run_sharded`),
print the progress table, summarize the records into the document,
attach ``perf`` and ``history`` (or keep only the
:func:`~repro.bench.document.deterministic_view` under ``--no-perf``),
and write the file.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.bench.document import (
    append_history,
    deterministic_view,
    perf_block,
    write_document,
)
from repro.parallel import run_sharded

__all__ = ["Campaign", "run_campaign", "verdict_history"]

#: ``perf`` fields every history entry ends with.
_PERF_HISTORY = ("jobs", "wall_s", "worker_efficiency", "speedup_vs_serial_est")


def _no_flags(parser) -> None:
    """Default flag hook: the campaign has no flags of its own."""


def _no_verdicts(document: dict) -> dict:
    """Default verdicts: nothing gates the exit code."""
    return {}


def verdict_history(document: dict) -> dict:
    """History head of a campaign with a ``verdicts`` block."""
    return {"smoke": document["smoke"], **document["verdicts"]}


@dataclass(frozen=True)
class Campaign:
    """One bench campaign: what it runs, what it writes, how it prints.

    Attributes:
        name: CLI subcommand.
        schema: schema identifier of the written document.
        output: default document path of the CLI.
        help / smoke_help: CLI help of the subcommand and its ``--smoke``.
        tasks: ``tasks(smoke=..., **params) -> list[CampaignTask]``; raises
            ``ValueError`` on a bad parameter.  Its signature declares the
            campaign parameters and their defaults.  Each one is the CLI
            flag of the same name, except ``fast_path``, the inverse of
            ``--slow-path``.
        summarize: ``summarize(records, params) -> dict``, the document
            from the task records in task order; ``params`` holds every
            parameter of ``tasks``, defaults filled in.
        history: the campaign's own keys of a ``history`` entry (the perf
            numbers are appended).
        header / row / trailer: the progress table's header line, the line
            of one record, and the closing lines
            (``trailer(document, output, jobs)``).
        verdicts: ``verdicts(document) -> {name: bool}``; the CLI exits 1
            unless every one holds.
        flags: adds the campaign's own flags to its CLI parser.
        branch: optional ``branch(args, out) -> int | None``, a CLI mode
            that runs instead of the campaign and returns its exit code
            (``None`` runs the campaign).
    """

    name: str
    schema: str
    output: str
    help: str
    smoke_help: str
    tasks: Callable[..., list]
    summarize: Callable[[list, dict], dict]
    history: Callable[[dict], dict]
    header: str
    row: Callable[[dict], str]
    trailer: Callable[[dict, str, int], str]
    verdicts: Callable[[dict], dict] = _no_verdicts
    flags: Callable = _no_flags
    branch: Callable | None = None

    @property
    def params(self) -> tuple[str, ...]:
        """The campaign parameters ``tasks`` declares, ``smoke`` aside."""
        return tuple(
            name for name in inspect.signature(self.tasks).parameters
            if name != "smoke"
        )


def run_campaign(
    spec: Campaign,
    *,
    smoke: bool = False,
    jobs: int = 1,
    output: str | Path | None = None,
    with_perf: bool = True,
    progress: Callable[[str], object] | None = None,
    **params,
) -> dict:
    """Run ``spec`` and return its document (also written to ``output``).

    Args:
        spec: the campaign.
        smoke: CI-sized grid instead of the full campaign.
        jobs: worker processes; the simulated results are identical for
            any value.
        output: JSON path, or None to skip writing.  An existing file of
            the same schema donates its ``history`` trail.
        with_perf: record the ``perf`` block and ``history`` trail;
            ``False`` writes the deterministic view, byte-identical for
            any ``jobs``.
        progress: receives the progress table line by line: the header
            once the work-list is built, one row per record in task order
            once the shard completes, then the trailer.
        **params: campaign parameters (``seed``, ``fast_path``, ...), as
            declared by ``spec.tasks``.
    """
    bound = inspect.signature(spec.tasks).bind(smoke=smoke, **params)
    bound.apply_defaults()
    params = dict(bound.arguments)
    tasks = spec.tasks(**params)
    if progress is not None:
        progress(spec.header)
    run = run_sharded(tasks, jobs=jobs, clock=time.perf_counter)
    if progress is not None:
        for record in run.results:
            progress(spec.row(record))
    document = spec.summarize(run.results, params)
    if with_perf:
        perf = perf_block(run)
        document["perf"] = perf
        entry = {**spec.history(document), **{k: perf[k] for k in _PERF_HISTORY}}
        append_history(document, output, spec.schema, entry)
    else:
        document = deterministic_view(document)
    if output is not None:
        write_document(document, output, spec.schema)
    if progress is not None:
        progress(spec.trailer(document, output, jobs))
    return document
