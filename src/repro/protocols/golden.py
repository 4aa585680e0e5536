"""Golden-run digests: refactor-equivalence fingerprints per protocol.

A golden digest is the SHA-256 of one short, fixed, seeded simulation's
full observable behaviour: the protocol-level trace (commit / apply /
replicate / ust / block records) plus the run's ``ExperimentResult``.  The
committed digests (``tests/golden/protocol_digests.json``) for ``paris``
and ``bpr`` were captured against the pre-split monolithic server, so the
test suite can assert the layered engine is *byte-identical* to it — not
merely "still passes the checker".  Every newly registered protocol gets a
digest too, which pins its trajectory against accidental behavioural
drift.

Regenerate after an intentional behaviour change::

    PYTHONPATH=src python -m repro.protocols.golden --update

and commit the diff with an explanation of why trajectories moved.

A second golden file, ``tests/golden/checker_verdicts.json``, pins the
consistency checker itself: for every registered protocol x three workload
profiles x two seeds it records the history size and the checker's verdict
(violation count, SHA-256 of the sorted ``(kind, client, detail)`` triples,
and a short digest per triple) at the level the protocol claims *and* at
level ``tcc``.  The file was first written by the in-memory checker this
repository used to carry beside the streaming one, so it is the recorded
reference any change to the checker's algorithms must reproduce::

    PYTHONPATH=src python -m repro.protocols.golden --verdicts           # compare
    PYTHONPATH=src python -m repro.protocols.golden --verdicts --update  # rewrite
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import SimulationConfig, small_test_config
from ..sim.trace import GLOBAL_TRACER

#: Trace categories digested by the golden runs (``net`` excluded: huge and
#: redundant with the protocol-level records).
GOLDEN_CATEGORIES = ("commit", "apply", "replicate", "ust", "block")

#: Default location of the committed digest file, relative to the repo root.
GOLDEN_PATH = pathlib.Path(__file__).resolve().parents[3] / "tests" / "golden" / "protocol_digests.json"


def golden_config() -> SimulationConfig:
    """The fixed laptop-scale configuration every golden digest runs."""
    return small_test_config(
        n_dcs=3,
        machines_per_dc=2,
        replication_factor=2,
        seed=7,
        threads_per_client=1,
        keys_per_partition=20,
    ).with_(warmup=0.3, duration=0.4, visibility_sample_rate=1.0)


def golden_digest(protocol: str) -> str:
    """Run the golden scenario under ``protocol`` and digest its behaviour."""
    from ..bench.harness import run_experiment  # local import: avoids a cycle

    tracer = GLOBAL_TRACER
    tracer.clear()
    with tracer.capture(*GOLDEN_CATEGORIES):
        result = run_experiment(golden_config(), protocol=protocol)
        records = [
            [r.at, r.category, r.source, [[k, v] for k, v in r.details]]
            for r in tracer.records
        ]
    tracer.clear()
    blob = json.dumps(
        {"result": result.to_dict(), "trace": records},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_goldens(path: Optional[pathlib.Path] = None) -> Dict[str, str]:
    """The committed protocol -> digest map ({} when the file is absent)."""
    target = path or GOLDEN_PATH
    try:
        return json.loads(target.read_text(encoding="utf-8"))
    except OSError:
        return {}


def update_goldens(
    names: Optional[Sequence[str]] = None, path: Optional[pathlib.Path] = None
) -> Dict[str, str]:
    """Recompute digests for ``names`` (default: every registered protocol)."""
    from .registry import protocol_names

    target = path or GOLDEN_PATH
    digests = load_goldens(target)
    for name in names or protocol_names():
        digests[name] = golden_digest(name)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return digests


# ----------------------------------------------------------------------
# Checker verdict goldens
# ----------------------------------------------------------------------
#: The committed checker verdicts, beside the protocol digests.
VERDICTS_PATH = GOLDEN_PATH.with_name("checker_verdicts.json")

#: Workload shapes of the verdict runs: the paper's zipfian read-heavy mix,
#: the write-heavy YCSB-A mix, and YCSB-D's latest-biased distribution.
VERDICT_PROFILES = ("default", "ycsb_a", "ycsb_d")
VERDICT_SEEDS = (7, 23)

#: One sorted violation fingerprint.
Triple = Tuple[str, str, str]


def verdict_runs() -> List[Tuple[str, str, int]]:
    """Every (protocol, profile, seed) the verdict file covers."""
    from .registry import protocol_names

    return [
        (protocol, profile, seed)
        for protocol in sorted(protocol_names())
        for profile in VERDICT_PROFILES
        for seed in VERDICT_SEEDS
    ]


def verdict_key(protocol: str, profile: str, seed: int) -> str:
    """The verdict file's key for one run."""
    return f"{protocol}/{profile}/{seed}"


def verdict_history(protocol: str, profile: str, seed: int):
    """One tiny seeded live run, recorded through the consistency oracle."""
    from ..bench.harness import run_experiment  # local import: avoids a cycle
    from ..consistency.oracle import ConsistencyOracle

    config = small_test_config(
        n_dcs=3,
        machines_per_dc=2,
        keys_per_partition=10,
        threads_per_client=1,
        seed=seed,
        profile=profile,
    ).with_(warmup=0.3, duration=0.4)
    oracle = ConsistencyOracle()
    run_experiment(config, protocol=protocol, oracle=oracle)
    return oracle


def history_size(history) -> Tuple[int, int]:
    """(commits, reads) of a recorded history."""
    return len(history.commits), len(history.reads)


def check_history(history, level: str) -> List[Triple]:
    """The checker's verdict on a history: sorted (kind, client, detail)."""
    from ..consistency.checker import ConsistencyChecker

    violations = ConsistencyChecker(history).check_level(level)
    return sorted((v.kind, v.client, v.detail) for v in violations)


def _triple_digest(triple: Triple) -> str:
    return hashlib.sha256(json.dumps(triple).encode("utf-8")).hexdigest()[:8]


def level_verdict(triples: List[Triple]) -> Dict[str, Any]:
    """What the verdict file stores for one run at one level."""
    blob = json.dumps(triples, separators=(",", ":"))
    return {
        "violations": len(triples),
        "sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        "triples": " ".join(_triple_digest(triple) for triple in triples),
    }


def first_difference(expected: Dict[str, Any], triples: List[Triple]) -> str:
    """Name the first triple on which a verdict departs from the golden."""
    golden = expected["triples"].split()
    for index, triple in enumerate(triples):
        if index >= len(golden) or _triple_digest(triple) != golden[index]:
            wanted = golden[index] if index < len(golden) else "nothing"
            return (
                f"triple {index} of {len(triples)} (golden has {len(golden)}): "
                f"got {triple}, golden digest there is {wanted}"
            )
    return (
        f"all {len(triples)} triples match the golden's first {len(triples)}; "
        f"the golden has {len(golden)}"
    )


def checker_verdict(protocol: str, profile: str, seed: int) -> Dict[str, Any]:
    """Run one verdict scenario and reduce it to its verdict-file entry."""
    from .registry import get_protocol

    history = verdict_history(protocol, profile, seed)
    commits, reads = history_size(history)
    level = get_protocol(protocol).consistency
    return {
        "commits": commits,
        "reads": reads,
        "level": level,
        "claimed": level_verdict(check_history(history, level)),
        "tcc": level_verdict(check_history(history, "tcc")),
    }


def load_verdicts(path: Optional[pathlib.Path] = None) -> Dict[str, Dict[str, Any]]:
    """The committed run -> verdict map ({} when the file is absent)."""
    return load_goldens(path or VERDICTS_PATH)


def _main_verdicts(update: bool, names: Sequence[str]) -> int:
    """``--verdicts``: compare against (or, with ``--update``, rewrite) the file."""
    committed = load_verdicts()
    status = 0
    for protocol, profile, seed in verdict_runs():
        if names and protocol not in names:
            continue
        key = verdict_key(protocol, profile, seed)
        entry = checker_verdict(protocol, profile, seed)
        match = committed.get(key) == entry
        print(
            f"{key:<24} {entry['commits']:>4} commits {entry['reads']:>5} reads  "
            f"{entry['level']}: {entry['claimed']['violations']:>3}  "
            f"tcc: {entry['tcc']['violations']:>3}  {'ok' if match else 'DIFFERS'}"
        )
        status |= 0 if match else 1
        committed[key] = entry
    if not update:
        if status:
            print(f"verdicts differ from {VERDICTS_PATH}; pass --update to overwrite it")
        return status
    VERDICTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    VERDICTS_PATH.write_text(
        json.dumps(committed, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {VERDICTS_PATH}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.protocols.golden``: print or refresh the digests."""
    import argparse

    from .registry import protocol_names

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the committed golden file"
    )
    parser.add_argument(
        "--verdicts",
        action="store_true",
        help="work on the checker verdict goldens instead of the protocol digests",
    )
    parser.add_argument(
        "names", nargs="*", help="protocols to digest (default: all registered)"
    )
    args = parser.parse_args(argv)
    if args.verdicts:
        return _main_verdicts(args.update, args.names)
    names = args.names or list(protocol_names())
    if args.update:
        digests = update_goldens(names)
        for name in names:
            print(f"{name:<12} {digests[name]}")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    committed = load_goldens()
    status = 0
    for name in names:
        digest = golden_digest(name)
        match = committed.get(name) == digest
        print(f"{name:<12} {digest}  {'ok' if match else 'DIFFERS'}")
        status |= 0 if match else 1
    return status


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
