"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       Run one simulated experiment and print its summary
              (``--faults plan.json`` applies a fault schedule; ``--big``
              judges the run's consistency events inline with the
              streaming checker at the level the protocol claims, exit 1
              on violations, with ``--window`` bounding its memory and
              ``--trace-out`` spilling the events as a JSONL trace;
              ``--shards N`` partitions the DCs across N worker processes
              with byte-identical results; ``--profile STATS`` dumps a
              cProfile of the hot loop — see docs/scaling.md).
``compare``   Run PaRiS and BPR on the same configuration, side by side.
``check``     Re-check a persisted JSONL trace (``--trace-in``) and report
              violations (exit status 1 if any are found).
``chaos``     Generate a seeded random fault plan for a deployment and
              write it to ``--plan-out``; ``run --big --faults`` applies it.
``sweep``     Execute a declarative experiment grid (JSON spec) across worker
              processes; every run lands in the run repository, which is
              also the cache a re-invocation resumes from.
``runs``      Query the run repository: persisted runs by protocol,
              workload, preset or source (docs/serving.md).
``replay``    Re-execute a persisted run from its stored config/seed and
              assert digest equality against the stored summary (and trace,
              when one was stored); exits non-zero on divergence.
``serve``     Long-running HTTP front door: launch/inspect/list/replay runs
              and submit sweeps over HTTP, executed on a bounded worker
              pool and persisted to the run repository (docs/serving.md).
``trace``     Trace-file utilities; ``trace merge`` k-way-merges per-shard
              JSONL traces (from ``run --big --shards N --trace-out``) into
              one commit-time-ordered trace, byte-identical to the trace a
              single-shard run writes (docs/scaling.md).
``profiles``  List the registered workload profiles (``--workload`` values
              and the ``workload`` sweep axis; see docs/workloads.md).
``protocols`` List the registered protocols (``--protocol`` values and the
              ``protocol`` sweep axis; see docs/protocol.md).
``topology``  Describe a deployment's placement and capacity.
``figure``    Regenerate one entry of the figure catalogue
              (:mod:`repro.bench.figures`) and check its shape against the
              paper's (exit status 1 if the shape is off).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import pathlib
import sys
import time
from typing import Iterator, Optional, Sequence, TextIO

from .bench import experiments as exp
from .bench import figures, report, results, sweep
from .bench.harness import ExperimentResult, run_experiment, run_recorded
from .cluster.topology import ClusterSpec
from .config import DEFAULT_REPO_DIR, SimulationConfig
from .consistency.streaming import StreamingChecker, Violation, check_trace
from .faults import FaultPlan, random_plan
from .protocols import get_protocol, is_registered, protocol_names
from .sim.trace import TraceError


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PaRiS reproduction: simulated TCC with partial replication",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="run one experiment")
    _add_run_params(run_cmd)
    run_cmd.add_argument(
        "--json", action="store_true", help="emit the result as JSON instead of text"
    )
    run_cmd.add_argument(
        "--big",
        action="store_true",
        help="judge the run's consistency events inline with the streaming "
        "checker, at the level the protocol claims; exits 1 on violations "
        "(docs/scaling.md)",
    )
    _add_window_arg(run_cmd)
    run_cmd.add_argument(
        "--trace-out",
        metavar="TRACE_JSONL",
        default=None,
        help="also spill the consistency event stream to this JSONL file "
        "(re-checkable with 'repro check --trace-in'; only with --big)",
    )
    run_cmd.add_argument(
        "--save",
        action="store_true",
        help="persist the completed run into the run repository so it can "
        "be queried ('repro runs') and replayed ('repro replay'); with "
        "--big --trace-out the trace is stored too (docs/serving.md)",
    )
    run_cmd.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="partition the DCs across N worker processes advancing in "
        "lockstep latency windows; summaries and traces are byte-identical "
        "to --shards 1 (requires N <= --dcs; docs/scaling.md)",
    )
    run_cmd.add_argument(
        "--profile",
        metavar="STATS",
        default=None,
        help="dump a cProfile of the simulation hot loop to this file "
        "(pstats format; one file per shard, STATS.shard<i>, with --shards)",
    )
    _add_repo_arg(run_cmd)

    compare_cmd = commands.add_parser(
        "compare", help="run several protocols on one config, side by side"
    )
    _add_run_params(compare_cmd, skip=("protocol", "faults"))
    compare_cmd.add_argument(
        "--protocol",
        dest="protocols",
        metavar="NAME",
        type=_protocol_name,
        nargs="+",
        default=["paris", "bpr"],
        help="registered protocols to compare (default: paris bpr)",
    )

    check_cmd = commands.add_parser(
        "check", help="re-check a persisted trace for consistency violations"
    )
    check_cmd.add_argument(
        "--trace-in",
        metavar="TRACE_JSONL",
        required=True,
        help="the persisted trace to re-check (written by 'repro run --big "
        "--trace-out')",
    )
    _add_window_arg(check_cmd)
    check_cmd.add_argument(
        "--protocol",
        metavar="NAME",
        type=_protocol_name,
        default=sweep.PARAM_DEFAULTS["protocol"],
        help="judge at the consistency level this registered protocol claims",
    )

    chaos_cmd = commands.add_parser(
        "chaos", help="write a seeded random fault plan for a deployment"
    )
    # chaos reads the deployment, horizon and seed: no flag it would ignore.
    _add_run_params(
        chaos_cmd, skip=("protocol", "faults", "partitions_per_tx", "visibility_sample_rate")
    )
    chaos_cmd.add_argument(
        "--episodes", type=_positive_int, default=6, help="fault episodes to generate"
    )
    chaos_cmd.add_argument(
        "--plan-out",
        metavar="OUT_JSON",
        required=True,
        help="write the plan to this file; 'repro run --big --faults OUT_JSON' "
        "with the same flags applies it (--seed seeds the plan)",
    )

    sweep_cmd = commands.add_parser(
        "sweep",
        help="run a declarative experiment grid in parallel; its runs live "
        "in the run repository, which a re-run resumes from",
    )
    sweep_cmd.add_argument("spec", help="sweep spec JSON (see docs/experiments.md)")
    sweep_cmd.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes (results are identical at any worker count)",
    )
    sweep_cmd.add_argument(
        "--force", action="store_true",
        help="re-execute runs even when the repository holds them",
    )
    sweep_cmd.add_argument(
        "--list", action="store_true", dest="list_runs",
        help="print the expanded run list and exit without executing",
    )
    _add_repo_arg(sweep_cmd)

    runs_cmd = commands.add_parser(
        "runs", help="query the run repository (persisted runs)"
    )
    _add_repo_arg(runs_cmd)
    runs_cmd.add_argument(
        "--protocol", metavar="NAME", default=None,
        help="only runs of this protocol",
    )
    runs_cmd.add_argument(
        "--workload", metavar="PROFILE", default=None,
        help="only runs of this workload profile",
    )
    runs_cmd.add_argument(
        "--preset", metavar="NAME", default=None,
        help="only runs pinned to this topology preset",
    )
    runs_cmd.add_argument(
        "--source", metavar="SRC", default=None,
        help="only runs from this source (cli, serve, sweep:<name>)",
    )
    runs_cmd.add_argument(
        "--limit", type=int, default=20,
        help="newest N entries (default: 20; 0 = all)",
    )

    replay_cmd = commands.add_parser(
        "replay",
        help="re-execute a persisted run and assert digest equality",
    )
    replay_cmd.add_argument(
        "run_id",
        metavar="RUN_ID",
        help="full run id or a unique prefix (>= 8 hex chars; see 'repro runs')",
    )
    _add_repo_arg(replay_cmd)
    replay_cmd.add_argument(
        "--trace-out",
        metavar="TRACE_JSONL",
        default=None,
        help="keep the replayed trace at this path (for diffing a divergence)",
    )

    serve_cmd = commands.add_parser(
        "serve", help="HTTP API: launch/inspect/list/replay runs and sweeps"
    )
    _add_repo_arg(serve_cmd)
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8008,
        help="TCP port (default: 8008; 0 picks a free port)",
    )
    serve_cmd.add_argument(
        "--workers", type=_positive_int, default=2,
        help="max concurrently executing jobs (default: 2); extra "
        "submissions queue FIFO so clients can't oversubscribe the machine",
    )
    serve_cmd.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )

    trace_cmd = commands.add_parser(
        "trace", help="trace-file utilities (merge per-shard traces)"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    merge_cmd = trace_sub.add_parser(
        "merge",
        help="k-way merge shard traces into one commit-time-ordered trace",
    )
    merge_cmd.add_argument(
        "inputs",
        nargs="+",
        metavar="TRACE_JSONL",
        help="per-shard input traces, each sorted by commit time (the "
        "<path>.shard<i> files a sharded run leaves beside its merged trace)",
    )
    merge_cmd.add_argument(
        "--out",
        "-o",
        required=True,
        metavar="OUT_JSONL",
        help="merged output trace (re-checkable with 'repro check --trace-in')",
    )

    profiles_cmd = commands.add_parser(
        "profiles", help="list registered workload profiles"
    )
    profiles_cmd.add_argument(
        "--names",
        action="store_true",
        help="print bare profile names, one per line (for scripting/CI)",
    )

    protocols_cmd = commands.add_parser(
        "protocols", help="list registered protocols"
    )
    protocols_cmd.add_argument(
        "--names",
        action="store_true",
        help="print bare protocol names, one per line (for scripting/CI)",
    )
    protocols_cmd.add_argument(
        "--consistency",
        metavar="LEVEL",
        default=None,
        help="only list protocols claiming this consistency level "
        "(e.g. 'tcc'; drives CI's reconfig matrix)",
    )

    topology_cmd = commands.add_parser("topology", help="describe a deployment")
    topology_cmd.add_argument("--dcs", type=int, default=5)
    topology_cmd.add_argument("--machines", type=int, default=18)
    topology_cmd.add_argument("--rf", type=int, default=2)

    figure_cmd = commands.add_parser("figure", help="regenerate a paper artifact")
    figure_cmd.add_argument("name", choices=list(figures.FIGURES))
    figure_cmd.add_argument(
        "--scale", choices=sorted(exp.SCALES), default="small",
        help="deployment scale (default: small)",
    )
    return parser


def _protocol_name(name: str) -> str:
    """Argparse type for ``--protocol``: unknown names list the registry."""
    if not is_registered(name):
        raise argparse.ArgumentTypeError(
            f"unknown protocol {name!r}; registered: {', '.join(protocol_names())} "
            "(see 'repro protocols')"
        )
    return name


def _positive_int(text: str) -> int:
    """Argparse type for a count that must be at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1: {text!r}")
    return value


def _window_seconds(text: str) -> float:
    """Argparse type for ``--window``: finite, positive simulated seconds."""
    seconds = float(text)
    if not (math.isfinite(seconds) and seconds > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0: {text!r}"
        )
    return seconds


def _window_text(window: Optional[float]) -> str:
    """How a status line names the checker's window."""
    return "unbounded" if window is None else f"{window:g}s"


def _add_window_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window",
        type=_window_seconds,
        default=None,
        metavar="SECONDS",
        help="bound the streaming checker's memory to this many simulated "
        "seconds of commit time (default: unbounded; with run, only with --big)",
    )


def _add_repo_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--repo",
        metavar="DIR",
        default=DEFAULT_REPO_DIR,
        help=f"run repository root (default: {DEFAULT_REPO_DIR}/; "
        "layout in docs/serving.md)",
    )


#: Text to the JSON type of a flag's run parameter; strings pass through.
_FROM_TEXT = {"integer": int, "number": float}


def _add_run_params(parser: argparse.ArgumentParser, skip: Sequence[str] = ()) -> None:
    """One flag per run parameter (:data:`repro.bench.sweep.PARAMS`).

    Every parameter, flag or not, defaults to the table's value.  The flags
    only turn text into the parameter's JSON type; ranges and names are
    refused where the configuration is built (exit 2).  ``--protocol``
    also lists the registry at the parser, as ``compare`` and ``check`` do.
    """
    parser.set_defaults(**sweep.PARAM_DEFAULTS)
    for param in sweep.PARAMS.values():
        if param.name in skip:
            continue
        convert = next((_FROM_TEXT[t] for t in param.types if t in _FROM_TEXT), None)
        parser.add_argument(
            f"--{param.name.replace('_', '-')}",
            type=_protocol_name if param.name == "protocol" else convert,
            metavar=param.metavar,
            help=param.help,
        )


def params_from_args(
    args: argparse.Namespace, *, inline_faults: bool = False
) -> dict:
    """The resolved flat run-parameter mapping equivalent to the CLI flags.

    With ``inline_faults`` a ``--faults`` plan file is loaded and inlined as
    a mapping, making the parameters self-contained — the form the run
    repository persists, so a saved record replays identically wherever the
    original plan file ends up.
    """
    params = {name: getattr(args, name) for name in sweep.PARAMS}
    params["faults"] = params["faults"] or None
    if inline_faults and params["faults"] is not None:
        params["faults"] = FaultPlan.load(params["faults"]).to_dict()
    return sweep.resolve_params(params)


class _FlagError(Exception):
    """Flag values no deployment or run can be configured from."""


@contextlib.contextmanager
def _configuring() -> Iterator[None]:
    """Turning flags into a config: a ``ValueError`` here is a bad flag.

    :func:`main` prints a :class:`_FlagError` as one stderr line and exits
    2, so exit 1 keeps meaning "violations found".  Only this step is
    wrapped: a ``ValueError`` raised inside a run is a bug and stays a
    traceback.  ``SweepSpecError`` and ``FaultPlanError`` subclass
    ``ValueError``.
    """
    try:
        yield
    except ValueError as exc:
        raise _FlagError(exc) from None


def config_from_args(args: argparse.Namespace) -> SimulationConfig:
    """Translate CLI arguments into a simulation configuration.

    Delegates to :func:`repro.bench.sweep.config_from_params` so the CLI and
    sweep specs share one flat-parameter-to-config translation.
    """
    config, _ = sweep.config_from_params(params_from_args(args))
    return config


def format_result(result: ExperimentResult) -> str:
    """One experiment's summary block."""
    lines = [
        f"protocol            {result.protocol}",
        f"sessions            {result.sessions} ({result.threads_per_client} threads/client)",
        f"throughput          {result.throughput:,.0f} tx/s",
        f"latency mean/p95    {result.latency_mean_ms:.2f} / {result.latency_p95 * 1000:.2f} ms",
        f"latency p99         {result.latency_p99 * 1000:.2f} ms",
        f"multi-DC fraction   {result.multi_dc_fraction:.3f}",
        f"cpu utilization     {result.mean_cpu_utilization:.2f}",
        f"UST staleness       {result.ust_staleness * 1000:.1f} ms",
        f"messages (inter-DC) {result.messages_total:,} ({result.messages_inter_dc:,})",
        f"metadata bytes      {result.metadata_bytes_total:,}",
    ]
    if result.read_retries_total > 0:
        lines.append(f"stale-read retries  {result.read_retries_total:,}")
    if result.blocking_mean > 0:
        lines.append(
            f"read blocking       {result.blocking_mean * 1000:.1f} ms mean, "
            f"{result.blocked_fraction:.2f} of slices"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one experiment, text or JSON summary.

    With ``--big`` the run records its consistency events through the
    streaming oracle: a :class:`StreamingChecker` judges them inline at the
    level the protocol claims in the registry — full TCC for
    ``paris``/``bpr``/``gst_local``/``cure``/``occult``, session guarantees
    for ``eventual`` and ``cops`` (docs/protocol.md) — and violations exit 1.
    ``--window`` bounds the checker's memory (default: unbounded) and
    ``--trace-out`` spills the events to a JSONL file for ``repro check
    --trace-in``; either without ``--big`` exits 2 before anything runs.

    With ``--shards N`` the DCs are partitioned across N worker processes
    advancing in conservative latency windows (:mod:`repro.sim.sharded`);
    summaries and traces are byte-identical to the single-kernel run, so
    sharding composes with ``--big``, ``--save``, and ``repro replay``
    (which re-executes sequentially and still matches).  Unshardable
    inputs — more shards than DCs, membership fault plans — exit 2 with a
    named error.

    With ``--json`` stdout carries the JSON document alone; every status
    line goes to stderr.
    """
    from .sim.sharded import ShardingError

    if not args.big:
        for flag, value in (("--window", args.window), ("--trace-out", args.trace_out)):
            if value is not None:
                print(f"repro run: error: {flag} needs --big", file=sys.stderr)
                return 2
    with _configuring():
        config = config_from_args(args)
    checker: Optional[StreamingChecker] = None
    if args.big:
        checker = StreamingChecker(
            window=args.window, level=get_protocol(args.protocol).consistency
        )
    trace_path = args.trace_out or None
    try:
        if args.shards < 1:
            raise ShardingError(f"--shards must be >= 1: {args.shards}")
        result = run_recorded(
            config,
            args.protocol,
            trace_out=trace_path,
            checker=checker,
            shards=args.shards,
            profile=args.profile,
        )
    except ShardingError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2

    status_out = sys.stderr if args.json else None
    print(result.to_json() if args.json else format_result(result))
    if checker is not None:
        print(
            f"streaming check ({_window_text(args.window)} window, level '{checker.level}'): "
            f"{checker.commits_checked} commits / {checker.reads_checked} reads, "
            f"{checker.versions_retired} versions retired, "
            f"{checker.state_size} in window, {len(checker.violations)} violations",
            file=status_out,
        )
        if trace_path is not None:
            # Every line of the trace is one event the checker consumed.
            trace_events = checker.commits_checked + checker.reads_checked
            print(f"trace: {trace_events} events -> {trace_path}", file=status_out)
    if args.profile:
        paths = [args.profile]
        if args.shards > 1:
            paths = [f"{args.profile}.shard{i}" for i in range(args.shards)]
        print(f"profile: {', '.join(paths)}", file=status_out)
    status = 0
    if checker is not None:
        status = _report_violations(checker.violations, status_out)
    if args.save:
        # The run completed either way; a violating run is still worth
        # persisting (and replaying while debugging it).
        _save_to_repository(args, result, trace_path=trace_path, out=status_out)
    return status


def _report_violations(
    violations: Sequence[Violation], out: Optional[TextIO] = None
) -> int:
    """Print the first violations; the exit status of a checking command."""
    for violation in violations[:20]:
        print(f"  {violation}", file=out)
    return 1 if violations else 0


def _save_to_repository(
    args: argparse.Namespace,
    result: ExperimentResult,
    *,
    trace_path: Optional[str] = None,
    out: Optional[TextIO] = None,
) -> None:
    """Persist a just-completed ``repro run`` into the run repository."""
    from .serve.repository import RunRepository

    repository = RunRepository(args.repo)
    record = repository.save_run(
        params_from_args(args, inline_faults=True),
        result.to_dict(),
        source="cli",
        trace_path=trace_path,
    )
    run_id = record["run_id"]
    stored = "record + trace" if record["trace_digest"] else "record"
    print(
        f"saved {stored} {run_id[:12]} -> {repository.root} "
        f"(replay: 'repro replay {run_id[:12]}')",
        file=out,
    )


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: several protocols on one configuration."""
    with _configuring():
        config = config_from_args(args)
    protocols = list(dict.fromkeys(args.protocols))
    results = {p: run_experiment(config, protocol=p) for p in protocols}
    rows = [
        (
            p,
            f"{r.throughput:,.0f}",
            f"{r.latency_mean_ms:.2f}",
            f"{r.latency_p99 * 1000:.2f}",
            f"{r.blocking_mean * 1000:.1f}",
        )
        for p, r in results.items()
    ]
    print(
        report.format_table(
            ["protocol", "tx/s", "avg lat (ms)", "p99 (ms)", "block (ms)"], rows
        )
    )
    if "paris" in results and "bpr" in results:
        paris, bpr = results["paris"], results["bpr"]
        if bpr.throughput > 0 and paris.latency_mean > 0:
            print(
                f"\nPaRiS vs BPR: {paris.throughput / bpr.throughput:.2f}x throughput, "
                f"{bpr.latency_mean / paris.latency_mean:.2f}x lower latency"
            )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: re-check a persisted trace; exit 1 on violations.

    The trace is judged at the consistency level ``--protocol`` claims in
    the registry, with ``--window`` bounding the checker's memory (default:
    unbounded).  A trace that is missing, truncated or corrupt is one
    stderr line naming ``file:line`` and exit 2, never a verdict.  Live
    checked runs are ``repro run --big``.
    """
    level = get_protocol(args.protocol).consistency
    try:
        checker = check_trace(args.trace_in, window=args.window, level=level)
    except TraceError as exc:
        print(f"repro check: bad trace {exc}", file=sys.stderr)
        return 2
    print(
        f"re-checked {args.trace_in}: {checker.commits_checked} commits / "
        f"{checker.reads_checked} reads ({_window_text(args.window)} window, "
        f"level '{level}'): {len(checker.violations)} violations"
    )
    return _report_violations(checker.violations)


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: write a seeded random fault plan; simulates nothing.

    The plan is drawn by :func:`repro.faults.random_plan` from ``--seed``
    for the deployment and horizon the cluster flags describe, so ``repro
    run --big`` with the same flags and ``--faults OUT_JSON`` applies it
    and judges the run.
    """
    with _configuring():
        config = config_from_args(args)
    plan = random_plan(
        config.cluster,
        seed=args.seed,
        horizon=config.warmup + config.duration,
        episodes=args.episodes,
    )
    print(f"fault plan '{plan.name or 'unnamed'}' ({len(plan)} events):")
    for event in plan:
        target = event.to_dict()
        target.pop("at")
        target.pop("action")
        detail = " ".join(f"{k}={v}" for k, v in target.items())
        print(f"  t={event.at:7.3f}s  {event.action:<9} {detail}")
    plan.dump(args.plan_out)
    print(f"plan written to {args.plan_out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: execute a declarative experiment grid, then aggregate.

    Every run is stored in the run repository (``--repo``) under its content
    address, and a stored run is reused on re-invocation, so an interrupted
    sweep resumes where it stopped.  The summary, written to
    ``<repo>/sweeps/<name>/summary.json``, is byte-identical at any worker
    count.
    """
    from .serve.repository import RunRepository

    with _configuring():
        spec = sweep.SweepSpec.load(args.spec)
        runs = sweep.expand(spec)
    print(
        f"sweep '{spec.name}': {len(runs)} runs over "
        + " x ".join(sweep.iter_axes_summary(spec))
    )
    if args.list_runs:
        for run in runs:
            print(f"  [{run.index + 1:3d}/{len(runs)}] {run.key[:12]}  {run.label()}")
        return 0

    started = time.monotonic()

    def progress(status: str, run: sweep.RunSpec) -> None:
        """Print one run's cache/execution status as it is known."""
        print(f"  {status:<8} {run.key[:12]}  {run.label()}", flush=True)

    repository = RunRepository(args.repo)
    report_ = sweep.execute_sweep(
        spec, repository, workers=args.workers, force=args.force, progress=progress
    )
    summary, out = results.write_sweep_summary(report_, repository.root)
    elapsed = time.monotonic() - started
    print(
        f"{report_.total} runs: {len(report_.cached)} cached, "
        f"{len(report_.executed)} executed "
        f"({args.workers} worker{'s' if args.workers != 1 else ''}, {elapsed:.1f}s)"
    )
    print(f"summary ({len(summary['groups'])} groups): {out}")
    print(
        f"run repository: {len(repository)} runs in {repository.root} "
        "(query with 'repro runs', replay with 'repro replay')"
    )
    print()
    print(results.render_summary_table(summary))
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """``repro runs``: list/query the run repository (docs/serving.md)."""
    from .serve.repository import RunRepository

    repository = RunRepository(args.repo)
    with _configuring():
        entries = repository.list(
            protocol=args.protocol,
            workload=args.workload,
            preset=args.preset,
            source=args.source,
            limit=args.limit,
        )
    if not entries:
        if len(repository) == 0:
            print(
                f"no persisted runs in {repository.root} "
                "(save one with 'repro run --save' or 'repro sweep SPEC')"
            )
        else:
            print(
                f"no runs in {repository.root} match "
                f"(repository holds {len(repository)}; loosen the filters)"
            )
        return 0
    rows = [
        (
            entry["run_id"][:12],
            entry["protocol"],
            entry["workload"] or "-",
            entry["preset"] or "-",
            str(entry["seed"]),
            f"{entry['throughput']:,.0f}" if entry["throughput"] is not None else "-",
            "yes" if entry["has_trace"] else "-",
            entry["source"],
            entry["created_at"],
        )
        for entry in entries
    ]
    print(
        report.format_table(
            [
                "run",
                "protocol",
                "workload",
                "preset",
                "seed",
                "tx/s",
                "trace",
                "source",
                "created (UTC)",
            ],
            rows,
        )
    )
    print(
        f"\n{len(entries)} shown of {len(repository)} persisted "
        f"({repository.root}); 'repro replay RUN' re-executes one and "
        "asserts digest equality"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """``repro replay``: re-execute a persisted run, assert digest equality.

    Exit status: 0 when every stored digest reproduced, 1 when the
    re-execution diverged (the output names both digests), 2 when the
    record could not even be loaded intact (unknown id, corrupt entry,
    missing trace file).
    """
    from .serve.replay import replay_run
    from .serve.repository import RepositoryError, RunRepository

    repository = RunRepository(args.repo)
    try:
        replay_report = replay_run(
            repository,
            args.run_id,
            trace_out=pathlib.Path(args.trace_out) if args.trace_out else None,
        )
    except RepositoryError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2
    for line in replay_report.lines():
        print(line)
    return 0 if replay_report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the HTTP front door (runs until interrupted)."""
    from .config import ServeConfig
    from .serve.app import serve_forever
    from .serve.service import ServeService

    with _configuring():
        config = ServeConfig(
            results_dir=args.repo, host=args.host, port=args.port, workers=args.workers
        )
    service = ServeService(config)
    serve_forever(service, quiet=args.quiet)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: trace-file utilities (currently: ``merge``).

    ``merge`` k-way-merges per-shard JSONL traces (each sorted by commit
    time, as written by a sharded ``repro run --big --trace-out``) into one
    commit-time-ordered trace whose bytes match what a single-shard run
    would have written.  A truncated or corrupt shard file is a named
    error (exit 2), never a silently shorter merge.
    """
    from .consistency.streaming import merge_traces

    if args.trace_command == "merge":
        try:
            count = merge_traces(args.inputs, args.out)
        except (TraceError, OSError) as exc:
            print(f"trace merge failed: {exc}", file=sys.stderr)
            return 2
        print(
            f"merged {len(args.inputs)} trace(s), {count} events -> {args.out} "
            "(re-check with 'repro check --trace-in')"
        )
        return 0
    raise ValueError(args.trace_command)  # pragma: no cover - argparse enforces


def cmd_profiles(args: argparse.Namespace) -> int:
    """``repro profiles``: the registered workload-profile catalogue."""
    from .workload.profiles import all_profiles

    profiles = all_profiles()
    if args.names:
        for profile in profiles:
            print(profile.name)
        return 0
    rows = [
        (
            profile.name,
            profile.mix,
            profile.key_dist + ("+rmw" if profile.rmw else ""),
            profile.arrival.kind,
            profile.description,
        )
        for profile in profiles
    ]
    print(
        report.format_table(
            ["profile", "mix", "keys", "arrival", "description"], rows
        )
    )
    print(
        f"\n{len(profiles)} profiles; use 'repro run --workload NAME' or a "
        'sweep axis "workload": [...] (docs/workloads.md)'
    )
    return 0


def cmd_protocols(args: argparse.Namespace) -> int:
    """``repro protocols``: the registered protocol catalogue."""
    from .protocols import all_protocols

    # Sorted by name: registration order is an implementation detail of the
    # import sequence, and scripted consumers (CI's protocol matrix) want a
    # stable listing.
    protocols = sorted(all_protocols(), key=lambda spec: spec.name)
    if args.consistency is not None:
        protocols = [
            spec for spec in protocols if spec.consistency == args.consistency
        ]
    if args.names:
        for spec in protocols:
            print(spec.name)
        return 0
    rows = [
        (
            spec.name,
            spec.snapshot,
            spec.visibility,
            "blocking" if spec.blocking_reads else "non-blocking",
            spec.consistency,
            spec.description,
        )
        for spec in protocols
    ]
    print(
        report.format_table(
            ["protocol", "snapshot", "visibility", "reads", "claims", "description"],
            rows,
        )
    )
    print(
        f"\n{len(protocols)} protocols; use 'repro run --protocol NAME' or a "
        'sweep axis "protocol": [...] (docs/protocol.md)'
    )
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    """``repro topology``: placement and storage footprint of a deployment."""
    with _configuring():
        spec = ClusterSpec.from_machines(
            n_dcs=args.dcs, machines_per_dc=args.machines, replication_factor=args.rf
        )
    print(
        f"{spec.n_dcs} DCs, {spec.n_partitions} partitions, RF {spec.replication_factor} "
        f"-> {spec.machines_per_dc:.0f} machines/DC, {spec.total_servers} servers total"
    )
    print(
        f"storage per DC: {spec.storage_fraction_per_dc():.2f} of dataset "
        f"({spec.capacity_vs_full_replication():.2f}x capacity vs full replication)"
    )
    rows = [
        (dc, len(spec.dc_partitions(dc)), " ".join(map(str, spec.dc_partitions(dc)[:12])))
        for dc in range(spec.n_dcs)
    ]
    print(report.format_table(["DC", "partitions", "hosted (first 12)"], rows))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """``repro figure``: regenerate one artifact; exit 1 if its shape is off."""
    entry = figures.FIGURES[args.name]
    scale = exp.SCALES[args.scale]
    rows = entry.run(scale)
    print(entry.render(rows))
    failure = entry.failure(rows, scale)
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "check": cmd_check,
    "chaos": cmd_chaos,
    "sweep": cmd_sweep,
    "runs": cmd_runs,
    "replay": cmd_replay,
    "serve": cmd_serve,
    "trace": cmd_trace,
    "profiles": cmd_profiles,
    "protocols": cmd_protocols,
    "topology": cmd_topology,
    "figure": cmd_figure,
}

#: Width the committed ``repro --help`` text is rendered at (README's
#: command reference); pinned so the text is identical on any terminal.
HELP_WIDTH = 80


def render_help() -> str:
    """``repro --help`` rendered at :data:`HELP_WIDTH` columns.

    The README embeds this text between drift markers and a tier-1 test
    regenerates and diffs it, so the committed command reference can never
    silently fall behind the parser.
    """
    import os

    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(HELP_WIDTH)
    try:
        return build_parser().format_help()
    finally:
        if previous is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = previous


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _FlagError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
