"""PAR001: every fast-path kernel has a slow-path oracle and a test.

PR 3 established the contract that ``fast_path=True`` is *exact*: every
vectorized kernel dispatched under a ``config.fast_path`` check must
keep its per-event reference implementation as the oracle, and the
equivalence suite ``tests/sim/test_fast_path.py`` must exercise the
pair.  This rule keeps that contract from rotting: a new ``*_fast`` /
``*_cached`` kernel without a resolvable slow counterpart, or one whose
dispatcher never shows up in the equivalence suite, is a finding.

Workload kernels (:data:`_KERNEL_FILES`) are reached from the simulator's
own fast kernels rather than from a ``fast_path`` dispatch, so there the
rule checks definitions: every ``*_fast`` / ``*_cached`` function needs a
slow counterpart defined in the same module and a mention in the suite.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.engine import ParsedModule, Project
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, dotted_name, register

#: the simulator modules whose fast-path dispatches are checked.
_SIM_FILES = {
    "src/repro/sim/executor.py",
    "src/repro/sim/speculator.py",
    "src/repro/sim/pe.py",
    "src/repro/sim/pipeline.py",
    "src/repro/sim/functional.py",
}

#: workload modules whose fast kernels are checked where they are defined.
_KERNEL_FILES = {"src/repro/workloads/sparsity.py"}

#: the equivalence suite every dispatched kernel must be referenced by.
_TEST_FILE = "tests/sim/test_fast_path.py"

_FAST_SUFFIXES = ("_fast", "_cached")


def _mentions_fast_path(test: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "fast_path"
        for node in ast.walk(test)
    )


def _fast_callees(nodes: list[ast.stmt]) -> list[tuple[ast.Call, str]]:
    """(call node, callee name) for ``*_fast``/``*_cached`` calls."""
    out = []
    for stmt in nodes:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            last = name.rsplit(".", 1)[-1]
            if last.endswith(_FAST_SUFFIXES):
                out.append((node, last))
    return out


def _counterpart_candidates(fast_name: str) -> set[str]:
    base = fast_name
    for suffix in _FAST_SUFFIXES:
        if base.endswith(suffix):
            base = base[: -len(suffix)]
            break
    bare = base.lstrip("_")
    return {
        base,
        bare,
        f"_{bare}",
        f"{base}_reference",
        f"{bare}_reference",
        f"_{bare}_reference",
        f"{base}_slow",
        f"{bare}_slow",
    } - {""}


def _word_in(text: str, word: str) -> bool:
    return re.search(rf"\b{re.escape(word)}\b", text) is not None


class _DispatchCollector(ast.NodeVisitor):
    """Collect ``if ...fast_path...`` dispatches with their enclosing def."""

    def __init__(self):
        self.stack: list[str] = []
        self.dispatches: list[tuple[ast.If, str | None]] = []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_If(self, node: ast.If):
        if _mentions_fast_path(node.test):
            self.dispatches.append((node, self.stack[-1] if self.stack else None))
        self.generic_visit(node)


@register
class FastSlowParityRule(Rule):
    """PAR001: fast kernels need a slow counterpart and test coverage."""

    code = "PAR001"
    context_files = (_TEST_FILE,)
    title = "fast-path kernels keep a slow-path oracle and an equivalence test"

    def applies_to(self, relpath: str) -> bool:
        return relpath in _SIM_FILES or relpath in _KERNEL_FILES

    def check(self, module: ParsedModule, project: Project) -> Iterator[Finding]:
        defined = {
            node.name
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        imported = set(module.imports.imported_names)
        resolvable = defined | imported
        test_text = project.read_text(_TEST_FILE)
        if module.relpath in _KERNEL_FILES:
            yield from self._check_definitions(module, defined, test_text)

        collector = _DispatchCollector()
        collector.visit(module.tree)
        for if_node, enclosing in collector.dispatches:
            kernels = _fast_callees(if_node.body)
            if not kernels:
                continue  # memo guard or inline fast path: nothing dispatched
            for call, fast_name in kernels:
                candidates = _counterpart_candidates(fast_name)
                counterparts = (candidates - {fast_name}) & resolvable
                if not counterparts:
                    yield self.finding(
                        module,
                        call,
                        f"fast-path kernel '{fast_name}' has no slow-path "
                        "counterpart in this module (expected one of "
                        f"{', '.join(sorted(candidates - {fast_name}))}): the "
                        "reference implementation is the oracle and must be "
                        "kept",
                    )
                if test_text is None:
                    yield self.finding(
                        module,
                        call,
                        f"fast-path kernel '{fast_name}' cannot be "
                        f"equivalence-checked: {_TEST_FILE} does not exist",
                    )
                    continue
                searched = {fast_name, *candidates}
                if enclosing:
                    searched.add(enclosing)
                if not any(_word_in(test_text, name) for name in searched):
                    anchor = enclosing or fast_name
                    yield self.finding(
                        module,
                        call,
                        f"fast-path dispatch in '{anchor}' is not referenced "
                        f"by {_TEST_FILE}: add an equivalence test comparing "
                        f"'{fast_name}' against its slow-path oracle",
                    )

    def _check_definitions(
        self, module: ParsedModule, defined: set[str], test_text: str | None
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.endswith(_FAST_SUFFIXES):
                continue
            candidates = _counterpart_candidates(node.name) - {node.name}
            if not candidates & defined:
                yield self.finding(
                    module,
                    node,
                    f"fast kernel '{node.name}' has no slow-path counterpart "
                    f"in this module (expected one of "
                    f"{', '.join(sorted(candidates))}): the reference "
                    "implementation is the oracle and must be kept",
                )
            if test_text is None or not _word_in(test_text, node.name):
                yield self.finding(
                    module,
                    node,
                    f"fast kernel '{node.name}' is not referenced by "
                    f"{_TEST_FILE}: add an equivalence test against its "
                    "slow-path oracle",
                )
