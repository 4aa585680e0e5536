"""The checker reproduces its recorded verdicts, run for run.

``tests/golden/checker_verdicts.json`` was written by the in-memory checker
this repository carried beside ``StreamingChecker`` (and committed before
that twin was deleted), so it is a recorded reference, not a second
implementation to keep in lockstep.
Every registered protocol x three workload profiles x two seeds is checked
at the level the protocol claims *and* at level ``tcc`` — where the twelve
``cops``/``eventual`` runs carry 3,367 violations between them — so the
file pins the violation-rich paths, not only ``[] == []``.  Regenerate
(after an intentional change to what the checker reports) with

    PYTHONPATH=src python -m repro.protocols.golden --verdicts --update
"""

from __future__ import annotations

import functools
import itertools

import pytest

from repro.consistency.events import CommitEvent
from repro.protocols import get_protocol, protocol_names
from repro.protocols.golden import (
    VERDICT_PROFILES,
    VERDICT_SEEDS,
    VERDICTS_PATH,
    check_history,
    level_verdict,
    load_goldens,
    triple_digest,
    verdict_history,
)

VERDICTS = load_goldens(VERDICTS_PATH)
RUNS = list(itertools.product(sorted(protocol_names()), VERDICT_PROFILES, VERDICT_SEEDS))


@functools.lru_cache(maxsize=1)
def history(protocol, profile, seed):
    """One live run, shared by the two levels it is judged at."""
    return verdict_history(protocol, profile, seed)


def first_difference(expected, triples):
    """Name the first triple on which a verdict departs from the golden."""
    golden = expected["triples"].split()
    for index, triple in enumerate(triples):
        if index >= len(golden) or triple_digest(triple) != golden[index]:
            wanted = golden[index] if index < len(golden) else "nothing"
            return (
                f"triple {index} of {len(triples)} (golden has {len(golden)}): "
                f"got {triple}, golden digest there is {wanted}"
            )
    return f"all {len(triples)} triples match, but the golden has {len(golden)}"


@pytest.mark.parametrize("at", ["claimed", "tcc"])
@pytest.mark.parametrize("protocol,profile,seed", RUNS)
def test_checker_reproduces_recorded_verdict(protocol, profile, seed, at):
    key = f"{protocol}/{profile}/{seed}"
    assert key in VERDICTS, (
        f"no recorded verdict for {key}; run 'python -m repro.protocols.golden "
        f"--verdicts --update' and commit {VERDICTS_PATH}"
    )
    expected = VERDICTS[key]
    events = history(protocol, profile, seed)
    commits = sum(isinstance(event, CommitEvent) for event in events)
    assert (commits, len(events) - commits) == (expected["commits"], expected["reads"])
    claimed = get_protocol(protocol).consistency
    assert expected["level"] == claimed
    triples = check_history(events, claimed if at == "claimed" else "tcc")
    assert level_verdict(triples) == expected[at], first_difference(
        expected[at], triples
    )


def test_first_difference_names_the_triple():
    """A digest mismatch must point at a triple, not just at two hashes."""
    triples = [("causal-snapshot", "c1", "a"), ("monotonic-reads", "c2", "b")]
    golden = level_verdict(triples)
    changed = [triples[0], ("monotonic-reads", "c2", "B")]
    message = first_difference(golden, changed)
    assert message.startswith("triple 1 of 2") and "'B'" in message
    assert "golden has 2" in first_difference(golden, triples[:1])


def test_verdict_file_pins_violation_rich_runs():
    """The goldens are only a gate if they are not all ``[] == []``."""
    rich = [key for key, entry in VERDICTS.items() if entry["tcc"]["violations"]]
    assert len(rich) == 12
    assert sum(VERDICTS[key]["tcc"]["violations"] for key in rich) == 3367
    assert all(entry["claimed"]["violations"] == 0 for entry in VERDICTS.values())


def test_verdict_file_has_no_orphans():
    assert set(VERDICTS) == {f"{p}/{w}/{s}" for p, w, s in RUNS}
