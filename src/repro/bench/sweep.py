"""Declarative experiment sweeps: grids of runs, executed in parallel, cached.

A :class:`SweepSpec` is the experiment surface as data (JSON, validated like
:class:`repro.faults.plan.FaultPlan`): a ``base`` set of run parameters plus
``axes`` — lists of values whose cartesian product the engine expands into
concrete runs.  The engine then

* derives every run's seed deterministically from the spec's root seed and
  the run's own parameters (:func:`derive_seed`), so the run set — and every
  result — is identical at any worker count and in any execution order;
* executes pending runs across ``--workers`` processes (each run is one
  independent deterministic simulation, so process parallelism is free);
* caches each completed run under a content-addressed file name
  (:func:`run_key`, the SHA-256 of the run's fully resolved parameters), so
  an interrupted sweep resumes where it stopped instead of restarting;
* hands the cached records to :mod:`repro.bench.results` for aggregation
  into mean/median/CI summaries.

The JSON schema, the seed-derivation and resume semantics, and the committed
example specs are documented in docs/experiments.md; run one with
``python -m repro sweep examples/sweeps/locality.json --workers 4``.

Run parameters mirror the flags of ``repro run`` (``dcs``, ``machines``,
``rf``, ``threads``, ``mix``, ``workload``, ``locality``, ``keys``,
``warmup``, ``duration``, ``protocol``, ``faults``, ...);
:func:`config_from_params` is
the single translation point from flat parameters to a
:class:`repro.config.SimulationConfig`, shared with the CLI.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pathlib
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import workers as workers_mod
from ..cluster.topology import ClusterSpec
from ..config import SimulationConfig, mix_workload
from ..faults.plan import FaultPlan, FaultPlanError
from ..protocols import is_registered as protocol_is_registered
from ..protocols import protocol_names
from ..workload.profiles import get_profile
from . import runner
from .harness import run_experiment

#: Bumped whenever run semantics change incompatibly: a new version makes
#: every previously cached result a miss instead of silently reusing it.
#: v2: the ``workload`` profile parameter joined the run-parameter namespace.
#: v3: ``protocol`` values resolve through the protocol registry (the server
#: monolith was decomposed into the repro.protocols engine).
#: v4: results gained metadata-bytes and read-retry totals, and versions
#: carry dependency summaries (cure/occult/cops joined the registry).
#: v5: the ``preset`` geo-topology parameter joined the namespace (named
#: cloud-region RTT matrices replacing the synthetic latency model), and the
#: membership plane changed server wiring (dict version vectors, reconfig).
#: v6: network jitter/loss streams split per source DC and sessions gained a
#: deterministic sub-microsecond start stagger (shard-determinism groundwork
#: for repro.sim.sharded); trajectories moved for every configuration.
CACHE_VERSION = 6

#: Run parameters and their defaults (``repro run``'s flags take theirs here).
#: ``partitions_per_tx=None`` means "min(4, machines)", the CLI's behaviour.
#: ``workload=None`` means "no profile": the mix alone shapes the workload;
#: a profile name (see repro.workload.profiles) overrides the mix/skew and
#: selects key/value distributions and the arrival schedule.
PARAM_DEFAULTS: Dict[str, Any] = {
    "protocol": "paris",
    "dcs": 3,
    "machines": 2,
    "rf": 2,
    "threads": 4,
    "mix": "95:5",
    "workload": None,
    "locality": 0.95,
    "keys": 100,
    "partitions_per_tx": None,
    "warmup": 1.0,
    "duration": 1.5,
    "visibility_sample_rate": 0.0,
    "faults": None,
    "preset": None,
}

#: The seed of a run that names none (``repro run``, ``POST /runs``).
DEFAULT_SEED = 1

#: Parameters a spec may set in ``base``.
BASE_PARAMS = frozenset(PARAM_DEFAULTS)

#: Parameters a spec may sweep over.  ``seed`` is special: listing it as an
#: axis replaces the derived-seed repeats with explicit seeds.
AXIS_PARAMS = BASE_PARAMS | {"seed"}

_SPEC_KEYS = frozenset({"name", "description", "base", "axes", "repeats", "seed"})


class SweepSpecError(ValueError):
    """Raised for malformed sweep specifications."""


def canonical_json(data: Any) -> str:
    """The canonical (sorted-key, compact) JSON encoding used for hashing."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Parameters -> configuration
# ----------------------------------------------------------------------
def resolve_fault_plan(
    value: Any, base_dir: Optional[pathlib.Path] = None
) -> Optional[FaultPlan]:
    """Turn a spec's ``faults`` value into a :class:`FaultPlan`.

    Accepts ``None`` (healthy run), an inline plan mapping, an already built
    plan, or a path to a plan JSON file — resolved relative to ``base_dir``
    (the spec file's directory) so committed specs can reference committed
    plans portably.
    """
    if value is None or isinstance(value, FaultPlan):
        return value
    if isinstance(value, Mapping):
        return FaultPlan.from_dict(dict(value))
    if isinstance(value, str):
        path = pathlib.Path(value)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        try:
            return FaultPlan.load(str(path))
        except OSError as exc:
            raise SweepSpecError(f"cannot read fault plan {str(path)!r}: {exc}") from exc
    raise SweepSpecError(
        f"'faults' must be null, a plan mapping, or a path string: {value!r}"
    )


def resolve_params(
    params: Mapping[str, Any], *, require_seed: bool = True
) -> Dict[str, Any]:
    """Fully resolve flat run parameters: defaults filled, policies applied.

    This is the canonical form the content-addressing scheme hashes
    (:func:`run_key`): unknown names are rejected, unset parameters take
    :data:`PARAM_DEFAULTS`, and the ``partitions_per_tx=None`` placeholder
    resolves to the CLI's ``min(4, machines)`` policy.  Both the sweep
    expansion and the run repository (:mod:`repro.serve.repository`) resolve
    through here, so a CLI run, a served run, and a sweep cache entry with
    the same effective parameters share one identity.
    """
    unknown = set(params) - BASE_PARAMS - {"seed"}
    if unknown:
        raise SweepSpecError(f"unknown run parameter(s): {sorted(unknown)}")
    if require_seed and "seed" not in params:
        raise SweepSpecError("run parameters must include 'seed'")
    merged = dict(PARAM_DEFAULTS)
    merged.update(params)
    if merged["partitions_per_tx"] is None:
        merged["partitions_per_tx"] = min(4, merged["machines"])
    return merged


def config_from_params(params: Mapping[str, Any]) -> Tuple[SimulationConfig, str]:
    """Build a simulation configuration from flat run parameters.

    This is the one translation point between the flat parameter namespace
    (sweep specs, ``repro run`` flags, served launch requests) and
    :class:`SimulationConfig`; it returns the configuration together with
    the protocol name.  Unset parameters take :data:`PARAM_DEFAULTS`;
    ``seed`` is required.
    """
    merged = resolve_params(params)
    protocol = merged["protocol"]
    if not protocol_is_registered(protocol):
        raise SweepSpecError(
            f"unknown protocol {protocol!r}; registered: {protocol_names()}"
        )
    cluster = ClusterSpec.from_machines(
        n_dcs=merged["dcs"],
        machines_per_dc=merged["machines"],
        replication_factor=merged["rf"],
    )
    workload = replace(
        mix_workload(merged["mix"]),
        locality=merged["locality"],
        keys_per_partition=merged["keys"],
        threads_per_client=merged["threads"],
        partitions_per_tx=merged["partitions_per_tx"],
    )
    profile_name = merged["workload"]
    if profile_name is not None:
        workload = _resolve_profile(profile_name).apply(workload)
    regions = None
    if merged["preset"] is not None:
        from ..sim.latency import preset_regions

        try:
            regions = preset_regions(merged["preset"])
        except KeyError as exc:
            raise SweepSpecError(str(exc.args[0])) from exc
        if len(regions) != merged["dcs"]:
            raise SweepSpecError(
                f"preset {merged['preset']!r} names {len(regions)} regions "
                f"but the deployment has {merged['dcs']} DCs"
            )
    config = SimulationConfig(
        cluster=cluster,
        workload=workload,
        seed=merged["seed"],
        warmup=merged["warmup"],
        duration=merged["duration"],
        visibility_sample_rate=merged["visibility_sample_rate"],
        faults=resolve_fault_plan(merged["faults"]),
        regions=regions,
        protocol_name=protocol,
    )
    return config, protocol


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """A validated, declarative description of one experiment grid."""

    name: str
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, Tuple[Any, ...]] = field(default_factory=dict)
    repeats: int = 1
    #: Root seed all per-run seeds are derived from (see :func:`derive_seed`).
    seed: int = 42
    description: str = ""

    def __post_init__(self) -> None:
        # The name becomes a directory under --results-dir: require a leading
        # alphanumeric so "." / ".." / hidden-file names cannot traverse or
        # collapse the results tree.
        if (
            not self.name
            or not self.name[0].isalnum()
            or not all(c.isalnum() or c in "._-" for c in self.name)
        ):
            raise SweepSpecError(
                f"spec name must start alphanumeric and use only [A-Za-z0-9._-]: "
                f"{self.name!r}"
            )
        unknown_base = set(self.base) - BASE_PARAMS
        if unknown_base:
            hint = (
                " ('seed' belongs at the top level: it is the derivation root)"
                if "seed" in unknown_base
                else ""
            )
            raise SweepSpecError(f"unknown base parameter(s): {sorted(unknown_base)}{hint}")
        for name, values in self.axes.items():
            # A string would silently iterate per character; a scalar would
            # raise a bare TypeError — neither is an axis value list.
            if not isinstance(values, (list, tuple)):
                raise SweepSpecError(
                    f"axis {name!r} must be a list of values, got {values!r}"
                )
        axes = {name: tuple(values) for name, values in self.axes.items()}
        object.__setattr__(self, "axes", axes)
        if not axes:
            raise SweepSpecError("a sweep needs at least one axis")
        unknown_axes = set(axes) - AXIS_PARAMS
        if unknown_axes:
            raise SweepSpecError(f"unknown axis parameter(s): {sorted(unknown_axes)}")
        overlap = set(axes) & set(self.base)
        if overlap:
            raise SweepSpecError(
                f"parameter(s) {sorted(overlap)} appear in both 'base' and 'axes'"
            )
        for name, values in axes.items():
            if not values:
                raise SweepSpecError(f"axis {name!r} has no values")
            seen: List[Any] = []
            for value in values:
                if value in seen:
                    raise SweepSpecError(f"axis {name!r} repeats value {value!r}")
                seen.append(value)
        if not isinstance(self.repeats, int) or self.repeats < 1:
            raise SweepSpecError(f"repeats must be a positive integer: {self.repeats!r}")
        if "seed" in axes and self.repeats != 1:
            raise SweepSpecError(
                "an explicit 'seed' axis replaces derived repeats; drop 'repeats'"
            )
        if not isinstance(self.seed, int):
            raise SweepSpecError(f"seed must be an integer: {self.seed!r}")

    # ------------------------------------------------------------------
    # Serialisation (mirrors FaultPlan's from_dict/from_json/load)
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], base_dir: Optional[pathlib.Path] = None
    ) -> "SweepSpec":
        """Parse a spec mapping, rejecting unknown keys.

        ``base_dir`` anchors relative ``faults`` paths (normally the spec
        file's directory); the referenced plan is inlined at parse time so
        run keys depend on the plan's *content*, not its location.
        """
        if not isinstance(data, Mapping):
            raise SweepSpecError(f"sweep spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise SweepSpecError(f"unknown sweep spec keys: {sorted(unknown)}")
        if "name" not in data:
            raise SweepSpecError("sweep spec is missing 'name'")
        if not isinstance(data.get("base", {}), Mapping):
            raise SweepSpecError("'base' must be a mapping of parameter -> value")
        base = dict(data.get("base", {}))
        if not isinstance(data.get("axes", {}), Mapping):
            raise SweepSpecError("'axes' must be a mapping of parameter -> values")
        for name, values in data.get("axes", {}).items():
            if not isinstance(values, (list, tuple)):
                raise SweepSpecError(
                    f"axis {name!r} must be a list of values, got {values!r}"
                )
        axes = {name: tuple(values) for name, values in data.get("axes", {}).items()}
        # Inline fault plans up front: validates them early and makes the
        # cache content-addressed (editing the plan file invalidates runs).
        for container in (base, axes):
            if "faults" in container:
                value = container["faults"]
                if container is base:
                    plan = resolve_fault_plan(value, base_dir)
                    base["faults"] = plan.to_dict() if plan is not None else None
                else:
                    container["faults"] = tuple(
                        resolve_fault_plan(v, base_dir).to_dict() if v is not None else None
                        for v in value
                    )
        return cls(
            name=data["name"],
            base=base,
            axes=axes,
            repeats=data.get("repeats", 1),
            seed=data.get("seed", 42),
            description=data.get("description", ""),
        )

    @classmethod
    def from_json(
        cls, text: str, base_dir: Optional[pathlib.Path] = None
    ) -> "SweepSpec":
        """Parse a spec from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepSpecError(f"sweep spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data, base_dir=base_dir)

    @classmethod
    def load(cls, path: runner.PathLike) -> "SweepSpec":
        """Load a spec from a JSON file (``faults`` paths resolve next to it)."""
        spec_path = pathlib.Path(path)
        try:
            text = spec_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SweepSpecError(f"cannot read sweep spec {path!r}: {exc}") from exc
        try:
            return cls.from_json(text, base_dir=spec_path.parent)
        except FaultPlanError as exc:
            raise SweepSpecError(f"bad fault plan in sweep spec {path!r}: {exc}") from exc


# ----------------------------------------------------------------------
# Expansion: spec -> concrete runs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One concrete run of a sweep: resolved parameters and its cache key."""

    #: Fully resolved parameters (defaults filled in, seed included).
    params: Dict[str, Any]
    #: Content hash of :attr:`params` — the cache file name.
    key: str
    #: Position in the sweep's deterministic run order (display only).
    index: int
    #: The spec's swept parameter names (always shown in :meth:`label`).
    axis_names: Tuple[str, ...] = ()

    def label(self) -> str:
        """A compact human-readable ``param=value`` summary of this run.

        Swept axis values are always shown (even when they equal a default);
        base parameters appear only when they differ from their defaults.
        """
        parts = []
        for name, value in self.params.items():
            if name == "seed":
                continue
            default = PARAM_DEFAULTS.get(name)
            if name == "partitions_per_tx" and default is None:
                # The resolved stand-in for the CLI's min(4, machines) policy.
                default = min(4, self.params["machines"])
            if name in self.axis_names or value != default:
                parts.append(f"{name}={short_value(value)}")
        parts.append(f"seed={self.params['seed']}")
        return " ".join(parts)


def short_value(value: Any) -> str:
    """Render one parameter value for display (plans become their name)."""
    if isinstance(value, Mapping):
        return str(value.get("name") or "plan")
    return str(value)


def derive_seed(root: int, params: Mapping[str, Any], repeat: int) -> int:
    """The deterministic seed of one run.

    Hashes the spec's root seed together with the run's own (seedless)
    parameters and the repeat index.  Because the derivation depends only on
    *what* the run is — never on worker count, scheduling order, or which
    runs were already cached — a sweep produces bit-identical results however
    it is executed or resumed.
    """
    seedless = {name: value for name, value in params.items() if name != "seed"}
    blob = canonical_json({"root": root, "params": seedless, "repeat": repeat})
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


def _resolve_profile(name: str):
    """Look up a workload profile, mapping unknown names to SweepSpecError."""
    try:
        return get_profile(name)
    except KeyError as exc:
        raise SweepSpecError(exc.args[0]) from None


def run_key(params: Mapping[str, Any]) -> str:
    """The content-addressed cache key of one fully resolved run.

    The effective ``workload`` profile contributes its full resolved
    *definition*, not just its name — the same policy as inlined fault
    plans — so editing a registered profile's parameters invalidates every
    cached run that used it instead of silently reusing stale results.
    Profile-less runs (``workload=None``) still resolve behaviour from the
    registered ``default`` profile, so they hash that definition.
    """
    from dataclasses import asdict

    blob_data: Dict[str, Any] = {"v": CACHE_VERSION, "params": dict(params)}
    effective_profile = params.get("workload") or "default"
    blob_data["workload_def"] = asdict(_resolve_profile(effective_profile))
    blob = canonical_json(blob_data)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def expand(spec: SweepSpec) -> List[RunSpec]:
    """Expand a spec into its full, deterministically ordered run list."""
    axis_names = list(spec.axes)
    combos: List[Dict[str, Any]] = [{}]
    for name in axis_names:
        combos = [
            {**combo, name: value} for combo in combos for value in spec.axes[name]
        ]
    runs: List[RunSpec] = []
    for combo in combos:
        params = resolve_params({**spec.base, **combo}, require_seed=False)
        if "seed" in spec.axes:
            seeds = [params["seed"]]
        else:
            seeds = [
                derive_seed(spec.seed, params, repeat) for repeat in range(spec.repeats)
            ]
        for seed in seeds:
            resolved = dict(params)
            resolved["seed"] = seed
            runs.append(
                RunSpec(
                    params=resolved,
                    key=run_key(resolved),
                    index=len(runs),
                    axis_names=tuple(axis_names),
                )
            )
    return runs


# ----------------------------------------------------------------------
# Execution: cache + worker pool
# ----------------------------------------------------------------------
def execute_run(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one simulation from flat parameters and return its cache record."""
    config, protocol = config_from_params(params)
    result = run_experiment(config, protocol=protocol)
    return {
        "key": run_key(params),
        "params": dict(params),
        "result": result.to_dict(),
    }


def _execute_and_cache(task: Tuple[Dict[str, Any], str]) -> str:
    """Worker entry point: execute one run and persist it atomically.

    The worker (not the parent) writes the cache file, so every completed run
    survives even if the coordinating process is killed mid-sweep.
    """
    params, path = task
    record = execute_run(params)
    runner.write_json(path, record)
    return record["key"]


def run_path(runs_dir: runner.PathLike, run: RunSpec) -> pathlib.Path:
    """The cache file of one run."""
    return pathlib.Path(runs_dir) / f"{run.key}.json"


def load_record(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    """Load one cached run record; ``None`` if absent or unreadable.

    A corrupt file (e.g. from a pre-atomic-write tool) is treated as a cache
    miss rather than an error: the run simply re-executes.
    """
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict) or "result" not in record or "params" not in record:
        return None
    return record


@dataclass
class SweepReport:
    """What one :func:`execute_sweep` invocation did."""

    spec: SweepSpec
    runs: List[RunSpec]
    #: Keys served from the results cache (in run order).
    cached: List[str] = field(default_factory=list)
    #: Keys actually executed by this invocation (in completion order).
    executed: List[str] = field(default_factory=list)
    #: Cache records of every run, in deterministic run order.
    records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of runs in the sweep."""
        return len(self.runs)


ProgressFn = Callable[[str, RunSpec], None]


def sweep_dir(results_dir: runner.PathLike, spec: SweepSpec) -> pathlib.Path:
    """The per-spec directory holding cached runs and the summary."""
    return pathlib.Path(results_dir) / spec.name


def execute_sweep(
    spec: SweepSpec,
    results_dir: runner.PathLike,
    *,
    workers: int = 1,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
    repository: Optional[Any] = None,
) -> SweepReport:
    """Execute (or resume) a sweep and return its report.

    Completed runs found under ``results_dir/<name>/runs/`` are reused
    (unless ``force``); the rest are executed across ``workers`` processes.
    The report's records are always in the sweep's deterministic run order,
    independent of worker count and completion order.

    ``repository`` (a :class:`repro.serve.repository.RunRepository`) hooks
    the cache writes: every completed record — cached or freshly executed —
    is also ingested into the run repository under the *same* content
    address as the sweep cache file, so sweep results become queryable and
    replayable like any other persisted run (docs/serving.md).  Ingestion
    is idempotent; re-running a cached sweep does not duplicate entries.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    runs = expand(spec)
    runs_dir = sweep_dir(results_dir, spec) / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    report = SweepReport(spec=spec, runs=runs)
    pending: List[RunSpec] = []
    records_by_key: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        record = None if force else load_record(run_path(runs_dir, run))
        if record is not None:
            records_by_key[run.key] = record
            report.cached.append(run.key)
            if progress:
                progress("cached", run)
        else:
            pending.append(run)

    tasks = [(run.params, str(run_path(runs_dir, run))) for run in pending]
    by_key = {run.key: run for run in pending}
    if len(tasks) <= 1 or workers == 1:
        for task in tasks:
            key = _execute_and_cache(task)
            report.executed.append(key)
            if progress:
                progress("executed", by_key[key])
    else:
        with multiprocessing.Pool(min(workers, len(tasks))) as pool:
            for key in pool.imap_unordered(_execute_and_cache, tasks):
                report.executed.append(key)
                if progress:
                    progress("executed", by_key[key])

    for run in runs:
        record = records_by_key.get(run.key)
        if record is None:  # executed this invocation: read what the worker wrote
            record = load_record(run_path(runs_dir, run))
        if record is None:  # pragma: no cover - worker failures raise above
            raise RuntimeError(f"run {run.key} produced no cache record")
        report.records.append(record)
    if repository is not None:
        for record in report.records:
            repository.ingest(record, source=f"sweep:{spec.name}")
    return report


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int = 1,
    progress: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Order-preserving map over worker processes (inline when ``workers<=1``).

    ``fn`` must be a module-level callable (enforced with a named
    :class:`repro.workers.WorkerCallableError` when parallelism engages —
    see :mod:`repro.workers` for the pickling constraints) and ``items``
    picklable; used by drivers like ``benchmarks/run_all.py`` to fan
    independent experiment sections out across cores.  ``progress(index,
    item)`` fires as each item's result arrives (streamed in order via
    ``imap``, not after a whole-pool barrier).
    """
    return workers_mod.pool_map(fn, items, workers=workers, progress=progress)


def iter_axes_summary(spec: SweepSpec) -> Iterable[str]:
    """Human-readable ``axis (n values)`` fragments for progress output."""
    for name, values in spec.axes.items():
        yield f"{name} ({len(values)} values)"
    if spec.repeats > 1:
        yield f"repeats ({spec.repeats} seeds)"
