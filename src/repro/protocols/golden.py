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

``tests/golden/checker_verdicts.json`` pins the consistency checker itself:
per protocol x workload profile x seed, the history size and the verdict
(violation count, SHA-256 of the sorted ``(kind, client, detail)`` triples,
a short digest per triple) at the level the protocol claims *and* at level
``tcc``.  It was first written by the in-memory checker this repository
used to carry beside :class:`StreamingChecker`, so it is the recorded
reference any change to the checker's algorithms must reproduce::

    PYTHONPATH=src python -m repro.protocols.golden --verdicts           # compare
    PYTHONPATH=src python -m repro.protocols.golden --verdicts --update  # rewrite

``tests/golden/spine_counts.json`` pins what the result digests do not
contain: per run, how many kernel events fired, how many messages were sent
and how many CPU jobs completed (``--counts``, same compare/``--update``
convention).  A change to the event kernel, the fabric or the CPU model that
claims to leave the simulation alone must reproduce all three exactly —
"fewer events" would otherwise pass every digest while changing what the
benchmark's ``run_us_per_op`` divides by.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SimulationConfig, small_test_config
from ..consistency.events import CommitEvent, TraceEvent
from ..consistency.streaming import StreamingChecker, StreamingOracle
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


#: The committed checker verdicts, beside the protocol digests.
VERDICTS_PATH = GOLDEN_PATH.with_name("checker_verdicts.json")

#: Workload profiles x seeds of the verdict runs (x every registered
#: protocol): the paper's zipfian read-heavy mix, the write-heavy YCSB-A
#: mix, and YCSB-D's latest-biased distribution.
VERDICT_PROFILES = ("default", "ycsb_a", "ycsb_d")
VERDICT_SEEDS = (7, 23)


def verdict_history(protocol: str, profile: str, seed: int) -> List[TraceEvent]:
    """One tiny seeded live run's consistency events, in recording order."""
    from ..bench.harness import run_experiment  # local import: avoids a cycle

    config = small_test_config(
        n_dcs=3,
        machines_per_dc=2,
        keys_per_partition=10,
        threads_per_client=1,
        seed=seed,
        profile=profile,
    ).with_(warmup=0.3, duration=0.4)
    events: List[TraceEvent] = []
    recorder = SimpleNamespace(feed=events.append)
    run_experiment(config, protocol=protocol, oracle=StreamingOracle(checker=recorder))
    return events


def check_history(events: List[TraceEvent], level: str) -> List[Tuple[str, str, str]]:
    """The checker's verdict on a history: sorted (kind, client, detail)."""
    violations = StreamingChecker(window=None, level=level).run(events)
    return sorted((v.kind, v.client, v.detail) for v in violations)


def triple_digest(triple: Tuple[str, str, str]) -> str:
    """The short per-triple digest that lets a mismatch name its first triple."""
    return hashlib.sha256(json.dumps(triple).encode("utf-8")).hexdigest()[:8]


def level_verdict(triples: List[Tuple[str, str, str]]) -> Dict[str, Any]:
    """What the verdict file stores for one run at one level."""
    blob = json.dumps(triples, separators=(",", ":"))
    return {
        "violations": len(triples),
        "sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        "triples": " ".join(triple_digest(triple) for triple in triples),
    }


def checker_verdicts(names: Sequence[str] = ()) -> Dict[str, Dict[str, Any]]:
    """Run the verdict scenarios (of ``names``; default: every protocol)."""
    from .registry import get_protocol, protocol_names

    verdicts = {}
    for protocol in sorted(names or protocol_names()):
        level = get_protocol(protocol).consistency
        for profile in VERDICT_PROFILES:
            for seed in VERDICT_SEEDS:
                events = verdict_history(protocol, profile, seed)
                commits = sum(isinstance(event, CommitEvent) for event in events)
                verdicts[f"{protocol}/{profile}/{seed}"] = {
                    "commits": commits,
                    "reads": len(events) - commits,
                    "level": level,
                    "claimed": level_verdict(check_history(events, level)),
                    "tcc": level_verdict(check_history(events, "tcc")),
                }
    return verdicts


#: The committed event/message/job counts, beside the protocol digests.
COUNTS_PATH = GOLDEN_PATH.with_name("spine_counts.json")

#: Scale of the ledger workloads the counts are pinned at.
COUNTS_SCALE = "smoke"

#: Golden-scenario runs pinned beside the ledger's (all ``paris``) workloads:
#: ``bpr`` parks and wakes reads through ``Cpu.submit``, ``cure`` carries
#: vector snapshots through the same spine.
COUNTS_PROTOCOLS = ("bpr", "cure")


def _ledger_workloads() -> Any:
    """``benchmarks/ledger/workloads.py``, loaded by path (it is not a package)."""
    name = "repro_ledger_workloads"
    module = sys.modules.get(name)
    if module is None:
        path = GOLDEN_PATH.parents[2] / "benchmarks" / "ledger" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


def spine_count_names() -> List[str]:
    """Every pinned run: the ledger's workloads, then ``golden/<protocol>``."""
    workloads = list(_ledger_workloads().WORKLOADS)
    return workloads + [f"golden/{protocol}" for protocol in COUNTS_PROTOCOLS]


def spine_counts(name: str) -> Dict[str, Any]:
    """Run ``name`` and count what its result digest does not contain.

    A sharded workload reports only what the merged result carries
    (messages and digest): its kernels and CPUs live in the workers.
    """
    from ..bench.harness import run_cluster
    from ..bench.results import result_digest
    from ..sim.sharded import run_sharded_experiment

    oracle = None
    shards = 0
    if name.startswith("golden/"):
        config, protocol = golden_config(), name.split("/", 1)[1]
    else:
        ledger = _ledger_workloads()
        workload = ledger.WORKLOADS[name]
        config, protocol, shards = workload.config(7, COUNTS_SCALE), "paris", workload.shards
        if workload.checked:
            checker = StreamingChecker(window=ledger.CHECK_WINDOW, level=ledger.CHECK_LEVEL)
            oracle = StreamingOracle(checker=checker)
    if shards:
        result = run_sharded_experiment(config, shards, protocol=protocol)
        return {
            "messages": result.messages_total,
            "digest": result_digest(result.to_dict()),
        }
    cluster, result = run_cluster(config, protocol=protocol, oracle=oracle)
    return {
        "events": cluster.sim.events_executed,
        "messages": result.messages_total,
        "cpu_jobs": sum(server.cpu.jobs_done for server in cluster.all_servers()),
        "digest": result_digest(result.to_dict()),
    }


def _compare(
    path: pathlib.Path,
    fresh: Dict[str, Any],
    update: bool,
    line: Callable[[str, Any], str],
    indent: int = 1,
) -> int:
    """Print ``line`` and ok/DIFFERS per fresh entry; exit 1 on a difference.

    With ``update`` the fresh entries are written into ``path`` instead
    (sorted keys, ``indent`` as each golden file has always been written).
    """
    committed = load_goldens(path)
    for key, entry in fresh.items():
        print(f"{line(key, entry)}  {'ok' if committed.get(key) == entry else 'DIFFERS'}")
    if not update:
        return int(any(committed.get(key) != entry for key, entry in fresh.items()))
    committed.update(fresh)
    path.write_text(
        json.dumps(committed, indent=indent, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}")
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
        "--counts",
        action="store_true",
        help="work on the event/message/job count goldens (names are run names)",
    )
    parser.add_argument(
        "names", nargs="*", help="protocols to digest (default: all registered)"
    )
    args = parser.parse_args(argv)
    if args.counts:
        fresh = {name: spine_counts(name) for name in args.names or spine_count_names()}
        return _compare(
            COUNTS_PATH,
            fresh,
            args.update,
            lambda name, entry: (
                f"{name:<14} {entry.get('events', '-'):>8} events "
                f"{entry['messages']:>7} messages {entry.get('cpu_jobs', '-'):>7} cpu jobs  "
                f"{entry['digest'][:12]}"
            ),
        )
    if args.verdicts:
        return _compare(
            VERDICTS_PATH,
            checker_verdicts(args.names),
            args.update,
            lambda key, entry: (
                f"{key:<24} {entry['commits']:>4} commits {entry['reads']:>5} reads  "
                f"{entry['level']}: {entry['claimed']['violations']:>3}  "
                f"tcc: {entry['tcc']['violations']:>3}"
            ),
        )
    return _compare(
        GOLDEN_PATH,
        {name: golden_digest(name) for name in args.names or protocol_names()},
        args.update,
        lambda name, digest: f"{name:<12} {digest}",
        indent=2,
    )


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
