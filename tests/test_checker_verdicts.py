"""The checker reproduces its recorded verdicts, run for run.

``tests/golden/checker_verdicts.json`` was written by the in-memory
``ConsistencyChecker`` this repository carried beside the streaming one.
Every registered protocol x three workload profiles x two seeds is checked
at the level the protocol claims *and* at level ``tcc`` — where the twelve
``cops``/``eventual`` runs carry 3,367 violations between them — so the
file pins the violation-rich paths, not only ``[] == []``.  Regenerate
(after an intentional change to what the checker reports) with

    PYTHONPATH=src python -m repro.protocols.golden --verdicts --update
"""

from __future__ import annotations

import functools

import pytest

from repro.consistency.streaming import StreamingChecker, oracle_events
from repro.protocols import get_protocol
from repro.protocols.golden import (
    VERDICTS_PATH,
    first_difference,
    history_size,
    level_verdict,
    load_verdicts,
    verdict_history,
    verdict_key,
    verdict_runs,
)

VERDICTS = load_verdicts()


@functools.lru_cache(maxsize=1)
def history(protocol, profile, seed):
    """One live run, shared by the two levels it is judged at."""
    return verdict_history(protocol, profile, seed)


def streaming_triples(oracle, level):
    """The streaming checker's sorted verdict on an in-memory history."""
    violations = StreamingChecker(window=None, level=level).run(oracle_events(oracle))
    return sorted((v.kind, v.client, v.detail) for v in violations)


@pytest.mark.parametrize("at", ["claimed", "tcc"])
@pytest.mark.parametrize("protocol,profile,seed", verdict_runs())
def test_checker_reproduces_recorded_verdict(protocol, profile, seed, at):
    key = verdict_key(protocol, profile, seed)
    assert key in VERDICTS, (
        f"no recorded verdict for {key}; run 'python -m repro.protocols.golden "
        f"--verdicts --update' and commit {VERDICTS_PATH}"
    )
    expected = VERDICTS[key]
    recorded = history(protocol, profile, seed)
    assert history_size(recorded) == (expected["commits"], expected["reads"])
    claimed = get_protocol(protocol).consistency
    assert expected["level"] == claimed
    triples = streaming_triples(recorded, claimed if at == "claimed" else "tcc")
    assert level_verdict(triples) == expected[at], first_difference(
        expected[at], triples
    )


def test_verdict_file_pins_violation_rich_runs():
    """The goldens are only a gate if they are not all ``[] == []``."""
    rich = [key for key, entry in VERDICTS.items() if entry["tcc"]["violations"]]
    assert len(rich) == 12
    assert sum(VERDICTS[key]["tcc"]["violations"] for key in rich) == 3367
    assert all(entry["claimed"]["violations"] == 0 for entry in VERDICTS.values())


def test_verdict_file_has_no_orphans():
    assert set(VERDICTS) == {verdict_key(*run) for run in verdict_runs()}
