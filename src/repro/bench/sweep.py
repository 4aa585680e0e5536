"""Declarative experiment sweeps: grids of runs, executed in parallel, cached.

A :class:`SweepSpec` is the experiment surface as data (JSON, validated like
:class:`repro.faults.plan.FaultPlan`): a ``base`` set of run parameters plus
``axes`` — lists of values whose cartesian product the engine expands into
concrete runs.  The engine then

* derives every run's seed deterministically from the spec's root seed and
  the run's own parameters (:func:`derive_seed`), so the run set — and every
  result — is identical at any worker count and in any execution order;
* looks every run up in the run repository
  (:class:`repro.serve.repository.RunRepository`) under its content address
  (:func:`run_key`, the SHA-256 of the run's fully resolved parameters), so
  an interrupted sweep resumes where it stopped instead of restarting, and a
  run saved or served with the same parameters is reused;
* executes the misses across ``--workers`` processes (each run is one
  independent deterministic simulation, so process parallelism is free),
  each worker writing its run's repository record itself;
* hands the stored records to :mod:`repro.bench.results` for aggregation
  into mean/median/CI summaries.

The JSON schema, the seed-derivation and resume semantics, and the committed
example specs are documented in docs/experiments.md; run one with
``python -m repro sweep examples/sweeps/locality.json --workers 4``.

Run parameters are the rows of :data:`PARAMS`, which ``repro run``'s flags
are generated from; :func:`config_from_params` is the single translation
point from flat parameters to a :class:`repro.config.SimulationConfig`.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
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

if TYPE_CHECKING:  # the repository module imports this one
    from ..serve.repository import RunRepository

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
#: v7: float reductions (result means, visibility CDF, Zipf normaliser) use
#: math.fsum, so a result no longer depends on the Python version.
CACHE_VERSION = 7

#: The Python values each JSON type of a run parameter admits.  ``bool`` is
#: an ``int`` to Python but never a number here; an ``object`` may also be a
#: :class:`FaultPlan` already parsed from one.
JSON_TYPES: Dict[str, Tuple[type, ...]] = {
    "integer": (int,),
    "number": (int, float),
    "string": (str,),
    "object": (Mapping, FaultPlan),
    "null": (type(None),),
}


@dataclass(frozen=True)
class Param:
    """One run parameter: default, JSON types, and its ``--flag``'s help text.

    Ranges and registry names are checked where the configuration is built.
    """

    name: str
    default: Any
    types: Tuple[str, ...]
    help: str
    metavar: Optional[str] = None

    def check(self, value: Any) -> None:
        """Refuse ``value`` unless it has one of this parameter's JSON types."""
        accepted = tuple(t for kind in self.types for t in JSON_TYPES[kind])
        if isinstance(value, bool) or not isinstance(value, accepted):
            expected = " or ".join(
                kind if kind == "null" else f"{'an' if kind[0] in 'aeiou' else 'a'} {kind}"
                for kind in self.types
            )
            raise SweepSpecError(f"run parameter {self.name!r} must be {expected}: {value!r}")


#: Every run parameter, in canonical order: ``repro run``'s flags, sweep
#: ``base``/``axes`` names and ``POST /runs`` params are these.
PARAMS: Dict[str, Param] = {param.name: param for param in (
    Param("protocol", "paris", ("string",), "registered protocol to run (see 'repro protocols')",
          "NAME"),
    Param("dcs", 3, ("integer",), "number of DCs"),
    Param("machines", 2, ("integer",), "machines (partition replicas) per DC"),
    Param("rf", 2, ("integer",), "replication factor"),
    Param("threads", 4, ("integer",), "closed-loop threads per client process"),
    Param("mix", "95:5", ("string",), "read:write mix: 95:5 or 50:50", "R:W"),
    Param("workload", None, ("string", "null"),
          "named workload profile overriding --mix (see 'repro profiles')", "PROFILE"),
    Param("locality", 0.95, ("number",), "fraction of single-DC transactions"),
    Param("keys", 100, ("integer",), "keys per partition"),
    Param("partitions_per_tx", None, ("integer", "null"),
          "partitions per transaction (default: min(4, machines))"),
    Param("warmup", 1.0, ("number",), "simulated seconds before the measurement window"),
    Param("duration", 1.5, ("number",), "simulated seconds of the measurement window"),
    Param("visibility_sample_rate", 0.0, ("number",),
          "fraction of commits probed for visibility latency"),
    Param("faults", None, ("object", "string", "null"), "fault plan (JSON, see docs/faults.md; "
          "'repro chaos' writes one) applied during the run", "PLAN_JSON"),
    Param("preset", None, ("string", "null"), "geo-real topology preset naming one cloud "
          "region per DC (see docs/topologies.md); must match --dcs", "NAME"),
    Param("seed", 1, ("integer",), "simulation seed"),
)}

#: Each run parameter's default, in the table's order.
PARAM_DEFAULTS: Dict[str, Any] = {name: param.default for name, param in PARAMS.items()}

#: Parameters a spec may sweep over.  ``seed`` is special: listing it as an
#: axis replaces the derived-seed repeats with explicit seeds.
AXIS_PARAMS = frozenset(PARAMS)

#: Parameters a spec may set in ``base`` (its ``seed`` is the derivation root).
BASE_PARAMS = AXIS_PARAMS - {"seed"}

_SPEC_KEYS = frozenset({"name", "description", "base", "axes", "repeats", "seed"})


class SweepSpecError(ValueError):
    """Raised for malformed sweep specifications."""


def canonical_json(data: Any) -> str:
    """The canonical (sorted-key, compact) JSON encoding used for hashing."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Parameters -> configuration
# ----------------------------------------------------------------------
def resolve_fault_plan(value: Any, base_dir: Optional[pathlib.Path] = None) -> Any:
    """Turn a spec's ``faults`` value into a :class:`FaultPlan`.

    Parses an inline plan mapping, or loads a path to a plan JSON file —
    resolved relative to ``base_dir`` (the spec file's directory) so
    committed specs can reference committed plans portably.  Anything else
    (``None`` for a healthy run, an already built plan) is returned as is;
    :func:`resolve_params` has refused every other type.
    """
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
    return value


def resolve_params(
    params: Mapping[str, Any], *, require_seed: bool = True
) -> Dict[str, Any]:
    """Fully resolve flat run parameters: defaults filled, policies applied.

    This is the canonical form the content-addressing scheme hashes
    (:func:`run_key`): unknown names and values of the wrong JSON type
    (:data:`PARAMS`) are rejected, unset parameters take their defaults
    (``seed`` only when not ``require_seed``), and the
    ``partitions_per_tx=None`` placeholder resolves to the
    ``min(4, machines)`` policy.  The CLI, the sweep expansion and the run
    repository (:mod:`repro.serve.repository`) all resolve through here, so
    a CLI run, a served run, and a sweep cell with the same effective
    parameters share one identity.
    """
    unknown = set(params) - AXIS_PARAMS
    if unknown:
        raise SweepSpecError(f"unknown run parameter(s): {sorted(unknown)}")
    if require_seed and "seed" not in params:
        raise SweepSpecError("run parameters must include 'seed'")
    merged = {**PARAM_DEFAULTS, **params}
    for name, value in merged.items():
        PARAMS[name].check(value)
    if merged["partitions_per_tx"] is None:
        merged["partitions_per_tx"] = min(4, merged["machines"])
    return merged


def config_from_params(params: Mapping[str, Any]) -> Tuple[SimulationConfig, str]:
    """Build a simulation configuration from flat run parameters.

    This is the one translation point between the flat parameter namespace
    (sweep specs, ``repro run`` flags, served launch requests) and
    :class:`SimulationConfig`; it returns the configuration together with
    the protocol name.  Unset parameters take their defaults
    (:data:`PARAMS`); ``seed`` is required.
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
        # The name becomes a directory under <repo>/sweeps/: require a leading
        # alphanumeric so "." / ".." / hidden-file names cannot traverse or
        # collapse the repository tree.
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
            for index, value in enumerate(values):
                if value in values[:index]:
                    raise SweepSpecError(f"axis {name!r} repeats value {value!r}")
        if isinstance(self.repeats, bool) or not isinstance(self.repeats, int) or self.repeats < 1:
            raise SweepSpecError(f"repeats must be a positive integer: {self.repeats!r}")
        if "seed" in axes and self.repeats != 1:
            raise SweepSpecError(
                "an explicit 'seed' axis replaces derived repeats; drop 'repeats'"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
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
        axes = dict(data.get("axes", {}))

        def inline(value: Any) -> Any:
            # Inline fault plans up front: validates them early and makes the
            # cache content-addressed (editing the plan file invalidates runs).
            plan = resolve_fault_plan(value, base_dir)
            return plan.to_dict() if isinstance(plan, FaultPlan) else plan

        if "faults" in base:
            base["faults"] = inline(base["faults"])
        if isinstance(axes.get("faults"), (list, tuple)):
            axes["faults"] = [inline(value) for value in axes["faults"]]
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
    #: Content hash of :attr:`params` — the run's repository id.
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
            # The value this run would have had without setting ``name``.
            unset = resolve_params({n: v for n, v in self.params.items() if n != name})
            if name in self.axis_names or value != unset[name]:
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
    """Expand a spec into its full, deterministically ordered run list.

    Every cell is configured once here, so a spec with a cell no run can be
    built from (``duration`` of ``Infinity``, say) is a ``ValueError``
    before anything executes.
    """
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
            config_from_params(resolved)  # a cell that cannot configure refuses the spec
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
# Execution: the run repository is the cache
# ----------------------------------------------------------------------
def _execute_and_record(task: Tuple[Dict[str, Any], str, str]) -> None:
    """Worker entry point: execute one run and write its repository record.

    The worker (not the parent) writes ``runs/<id>.json``, atomically, so
    every completed run is in the repository even if the coordinating
    process is killed mid-sweep.
    """
    from ..serve.repository import execute_and_record  # serve imports this module

    params, root, source = task
    execute_and_record(root, params, source=source)


@dataclass
class SweepReport:
    """What one :func:`execute_sweep` invocation did."""

    spec: SweepSpec
    runs: List[RunSpec]
    #: Keys already in the repository (in run order).
    cached: List[str] = field(default_factory=list)
    #: Keys executed by this invocation (in run order).
    executed: List[str] = field(default_factory=list)
    #: Stored repository records of every run, in deterministic run order.
    records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of runs in the sweep."""
        return len(self.runs)


ProgressFn = Callable[[str, RunSpec], None]


def execute_sweep(
    spec: SweepSpec,
    repository: RunRepository,
    *,
    workers: int = 1,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
) -> SweepReport:
    """Execute (or resume) a sweep against a run repository; return its report.

    A run whose intact record (:meth:`RunRepository.lookup`) the repository
    already holds is a hit and is left untouched (unless ``force``); the
    misses are executed across ``workers`` processes and stored with source
    ``sweep:<name>``.  The report's records are read back from the
    repository in the sweep's deterministic run order, so they are
    independent of worker count and of which runs were hits.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    runs = expand(spec)
    report = SweepReport(spec=spec, runs=runs)
    pending: List[RunSpec] = []
    for run in runs:
        if force or repository.lookup(run.key) is None:
            pending.append(run)
            continue
        report.cached.append(run.key)
        if progress:
            progress("cached", run)

    def on_executed(index: int, task: Any) -> None:
        """Record (and report) one executed run as its result arrives."""
        report.executed.append(pending[index].key)
        if progress:
            progress("executed", pending[index])

    source = f"sweep:{spec.name}"
    tasks = [(run.params, str(repository.root), source) for run in pending]
    workers_mod.pool_map(
        _execute_and_record, tasks, workers=workers, progress=on_executed
    )
    for run in runs:
        record = repository.lookup(run.key)
        if record is None:  # pragma: no cover - worker failures raise above
            raise RuntimeError(f"run {run.key} left no intact repository record")
        report.records.append(record)
    return report


def iter_axes_summary(spec: SweepSpec) -> Iterable[str]:
    """Human-readable ``axis (n values)`` fragments for progress output."""
    for name, values in spec.axes.items():
        yield f"{name} ({len(values)} values)"
    if spec.repeats > 1:
        yield f"repeats ({spec.repeats} seeds)"
