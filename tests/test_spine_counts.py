"""Events, messages and CPU jobs per run are pinned, not only the digests.

A result digest covers what a run *measured*; it does not contain how many
kernel events fired, how many envelopes the fabric carried or how many jobs
the CPU model completed.  ``tests/golden/spine_counts.json`` records those
for the ledger's five workloads at smoke scale plus one ``bpr`` and one
``cure`` golden-scenario run, and was written at the commit *before* the
event kernel, fabric and CPU model were rebuilt around ``(fn, args)``
events — so a kernel/network/CPU change that claims "nothing simulated
moved" is held to the exact counts here.  Regenerate (only after an
intentional change to what is simulated) with

    PYTHONPATH=src python -m repro.protocols.golden --counts --update
"""

from __future__ import annotations

import pytest

from repro.protocols.golden import COUNTS_PATH, load_goldens, spine_count_names, spine_counts

COUNTS = load_goldens(COUNTS_PATH)


@pytest.mark.parametrize("name", spine_count_names())
def test_counts_match_the_recorded_run(name):
    assert name in COUNTS, (
        f"no committed counts for {name!r}; run "
        f"'python -m repro.protocols.golden --counts --update' and commit {COUNTS_PATH}"
    )
    assert spine_counts(name) == COUNTS[name]


def test_counts_file_has_no_orphans():
    assert set(COUNTS) == set(spine_count_names())


def test_sharded_run_matches_its_sequential_twin():
    """``sharded2`` is ``read_heavy`` on two kernels: same messages, same digest."""
    sequential = COUNTS["read_heavy"]
    assert COUNTS["sharded2"] == {
        "messages": sequential["messages"],
        "digest": sequential["digest"],
    }
