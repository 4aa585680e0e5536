"""The checker over persisted traces and finite windows.

What ``window=None`` reports on live histories is pinned run-for-run by the
recorded verdicts (``tests/test_checker_verdicts.py``).  These tests cover
the rest of the streaming tier's claims (docs/scaling.md): the JSONL trace
round trip (encode -> file -> decode) changes nothing, and a finite window
retires state without inventing verdicts.
"""

from __future__ import annotations

import pytest

from repro import run_experiment, small_test_config
from repro.consistency.streaming import StreamingChecker, check_trace
from repro.sim.trace import TraceWriter
from tests.conftest import recording_oracle


def run_recorded(protocol: str, profile: str = "default", seed: int = 7, trace=None):
    """One tiny live run; returns the oracle's :class:`EventLog`.

    With ``trace`` the same events are spilled to that JSONL file too.
    """
    config = small_test_config(
        n_dcs=3,
        machines_per_dc=2,
        keys_per_partition=10,
        threads_per_client=1,
        seed=seed,
        profile=profile,
    ).with_(warmup=0.3, duration=0.4)
    if trace is None:
        oracle = recording_oracle()
        run_experiment(config, protocol=protocol, oracle=oracle)
    else:
        with TraceWriter(trace) as sink:
            oracle = recording_oracle(sink)
            run_experiment(config, protocol=protocol, oracle=oracle)
    return oracle.checker


def violation_triples(violations):
    """The order-insensitive fingerprint of a violation list."""
    return sorted((v.kind, v.client, v.detail) for v in violations)


class TestTraceRoundTrip:
    def test_trace_file_round_trip_identical(self, tmp_path):
        """encode -> JSONL file -> decode -> check == checking the live events.

        The eventual protocol is checked at the *tcc* level it does not
        claim, precisely because that yields a violation-rich history: the
        round trip must preserve every one of them byte-for-byte.
        """
        path = tmp_path / "trace.jsonl"
        log = run_recorded("eventual", trace=path)
        expected = log.check("tcc")
        assert expected, "expected the eventual protocol to violate causality"
        checker = check_trace(path, window=None, level="tcc")
        assert checker.commits_checked + checker.reads_checked == len(log.events)
        assert violation_triples(checker.violations) == violation_triples(expected)

    def test_tcc_trace_round_trip_clean(self, tmp_path):
        """A clean paris run stays clean through the file round trip."""
        path = tmp_path / "trace.jsonl"
        assert run_recorded("paris", trace=path).check() == []
        assert check_trace(path, window=None, level="tcc").violations == []


class TestWindowedStreaming:
    """Finite windows: still clean on clean runs, still catch real breakage."""

    @pytest.mark.parametrize("protocol", ["paris", "bpr", "cure", "occult"])
    def test_clean_protocols_stay_clean_windowed(self, protocol):
        """Retirement must never invent violations on a valid history."""
        assert run_recorded(protocol).check(window=0.2) == []

    def test_windowed_violations_subset_of_unbounded(self):
        """A finite window may skip retired state but never adds verdicts.

        Checked on the eventual protocol at the tcc level it does not claim
        (a violation-rich history).  At the session level the verdicts are
        in fact *identical*, not merely a subset: per-client frontiers are
        never retired.
        """
        log = run_recorded("eventual")
        unbounded = log.check("tcc")
        assert unbounded, "expected tcc violations from eventual"
        windowed = log.check("tcc", window=0.2)
        assert set(violation_triples(windowed)) <= set(violation_triples(unbounded))
        assert violation_triples(log.check("session", window=0.2)) == violation_triples(
            log.check("session")
        )

    def test_retirement_bounds_state(self):
        """The windowed checker actually retires: state stays below total."""
        checker = StreamingChecker(window=0.1, level="tcc")
        checker.run(run_recorded("paris").events)
        assert checker.versions_retired > 0
        assert checker.state_size < checker.commits_checked
