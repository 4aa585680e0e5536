"""Sweep specs: validation, expansion, seed derivation, cache keys."""

from __future__ import annotations

import json
import re

import pytest

from repro.bench import sweep
from repro.bench.sweep import (
    PARAM_DEFAULTS,
    RunSpec,
    SweepSpec,
    SweepSpecError,
    config_from_params,
    derive_seed,
    expand,
    run_key,
)

BASE = {"dcs": 3, "machines": 2, "threads": 1, "keys": 20, "warmup": 0.3, "duration": 0.4}


def make_spec(**overrides) -> SweepSpec:
    data = {
        "name": "t",
        "base": dict(BASE),
        "axes": {"locality": [1.0, 0.5]},
        "repeats": 2,
        "seed": 42,
    }
    data.update(overrides)
    return SweepSpec.from_dict(data)


class TestSpecValidation:
    def test_minimal_spec_parses(self):
        spec = make_spec()
        assert spec.name == "t"
        assert spec.axes["locality"] == (1.0, 0.5)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"name": "t", "axes": {"locality": [1.0]}, "grid": {}})

    def test_missing_name_rejected(self):
        with pytest.raises(SweepSpecError, match="missing 'name'"):
            SweepSpec.from_dict({"axes": {"locality": [1.0]}})

    @pytest.mark.parametrize("name", ["a/b", ".", "..", ".hidden", "-dash", ""])
    def test_unsafe_name_rejected(self, name):
        with pytest.raises(SweepSpecError, match="alphanumeric"):
            make_spec(name=name)

    def test_non_mapping_base_rejected(self):
        with pytest.raises(SweepSpecError, match="'base' must be a mapping"):
            SweepSpec.from_dict(
                {"name": "t", "base": ["dcs", 3], "axes": {"locality": [1.0]}}
            )

    def test_unknown_base_param_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown base parameter"):
            make_spec(base={**BASE, "frobs": 3})

    def test_seed_in_base_points_at_top_level(self):
        with pytest.raises(SweepSpecError, match="derivation root"):
            make_spec(base={**BASE, "seed": 9})

    def test_unknown_axis_param_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown axis parameter"):
            make_spec(axes={"spin": [1, 2]})

    def test_axes_required(self):
        with pytest.raises(SweepSpecError, match="at least one axis"):
            make_spec(axes={})

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepSpecError, match="has no values"):
            make_spec(axes={"locality": []})

    @pytest.mark.parametrize("values", ["95:5", 4, {"a": 1}])
    def test_non_list_axis_rejected(self, values):
        with pytest.raises(SweepSpecError, match="must be a list"):
            make_spec(axes={"mix": values})

    def test_missing_fault_plan_path_raises_spec_error(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "t",
                    "base": {**BASE, "faults": "no_such_plan.json"},
                    "axes": {"locality": [1.0]},
                }
            )
        )
        with pytest.raises(SweepSpecError, match="cannot read fault plan"):
            SweepSpec.load(spec_path)

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(SweepSpecError, match="repeats value"):
            make_spec(axes={"locality": [1.0, 1.0]})

    def test_base_axis_overlap_rejected(self):
        with pytest.raises(SweepSpecError, match="both 'base' and 'axes'"):
            make_spec(axes={"locality": [1.0], "threads": [1, 2]})

    def test_bad_repeats_rejected(self):
        with pytest.raises(SweepSpecError, match="repeats"):
            make_spec(repeats=0)

    @pytest.mark.parametrize("field", ["repeats", "seed"])
    def test_boolean_repeats_or_seed_rejected(self, field):
        with pytest.raises(SweepSpecError, match=f"{field} must be"):
            make_spec(**{field: True})

    def test_seed_axis_excludes_repeats(self):
        with pytest.raises(SweepSpecError, match="drop 'repeats'"):
            make_spec(axes={"seed": [1, 2, 3]}, repeats=2)

    def test_invalid_json_rejected(self):
        with pytest.raises(SweepSpecError, match="not valid JSON"):
            SweepSpec.from_json("{nope")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SweepSpecError, match="cannot read"):
            SweepSpec.load(tmp_path / "absent.json")


class TestExpansion:
    def test_grid_size_is_axes_times_repeats(self):
        runs = expand(make_spec())
        assert len(runs) == 2 * 2  # 2 locality values x 2 repeats
        assert [run.index for run in runs] == [0, 1, 2, 3]

    def test_params_fully_resolved(self):
        run = expand(make_spec())[0]
        assert set(run.params) == set(PARAM_DEFAULTS) | {"seed"}
        # The CLI's partitions_per_tx policy is materialised into the params.
        assert run.params["partitions_per_tx"] == 2

    def test_expansion_is_deterministic(self):
        first = expand(make_spec())
        second = expand(make_spec())
        assert [r.params for r in first] == [r.params for r in second]
        assert [r.key for r in first] == [r.key for r in second]

    def test_multi_axis_product(self):
        spec = make_spec(
            base={k: v for k, v in BASE.items() if k != "threads"},
            axes={"locality": [1.0, 0.5], "threads": [1, 2, 4]},
            repeats=1,
        )
        runs = expand(spec)
        assert len(runs) == 6
        combos = {(r.params["locality"], r.params["threads"]) for r in runs}
        assert len(combos) == 6

    def test_explicit_seed_axis(self):
        spec = make_spec(axes={"seed": [5, 6, 7]}, repeats=1)
        runs = expand(spec)
        assert [run.params["seed"] for run in runs] == [5, 6, 7]

    def test_run_labels_mention_axes(self):
        run = expand(make_spec())[0]
        assert "locality=1.0" in run.label()
        assert "seed=" in run.label()

    def test_axis_value_shown_even_when_it_equals_the_default(self):
        spec = make_spec(axes={"locality": [0.95]})  # 0.95 is the default
        label = expand(spec)[0].label()
        assert "locality=0.95" in label
        # The derived partitions_per_tx default is noise, not a choice.
        assert "partitions_per_tx" not in label


class TestSeedDerivation:
    def test_stable(self):
        params = dict(BASE, locality=1.0)
        assert derive_seed(42, params, 0) == derive_seed(42, params, 0)

    def test_varies_with_root_params_and_repeat(self):
        params = dict(BASE, locality=1.0)
        seeds = {
            derive_seed(42, params, 0),
            derive_seed(42, params, 1),
            derive_seed(43, params, 0),
            derive_seed(42, dict(params, locality=0.5), 0),
        }
        assert len(seeds) == 4

    def test_independent_of_dict_ordering(self):
        params = dict(BASE)
        reordered = dict(reversed(list(params.items())))
        assert derive_seed(42, params, 0) == derive_seed(42, reordered, 0)

    def test_repeats_of_same_config_get_distinct_seeds(self):
        runs = expand(make_spec())
        by_group = {}
        for run in runs:
            by_group.setdefault(run.params["locality"], []).append(run.params["seed"])
        for seeds in by_group.values():
            assert len(set(seeds)) == len(seeds)


class TestRunKeys:
    def test_key_is_content_addressed(self):
        params = dict(BASE, seed=1)
        assert run_key(params) == run_key(dict(reversed(list(params.items()))))
        assert run_key(params) != run_key(dict(params, seed=2))

    def test_keys_unique_across_runs(self):
        runs = expand(make_spec())
        assert len({run.key for run in runs}) == len(runs)

    def test_fault_plan_path_and_inline_hash_identically(self, tmp_path):
        plan = {"name": "p", "events": [{"at": 0.5, "action": "partition", "dc": 2}]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        spec_inline = SweepSpec.from_dict(
            {"name": "t", "base": {**BASE, "faults": plan}, "axes": {"locality": [1.0]}}
        )
        spec_by_path = SweepSpec.from_dict(
            {
                "name": "t",
                "base": {**BASE, "faults": "plan.json"},
                "axes": {"locality": [1.0]},
            },
            base_dir=tmp_path,
        )
        assert [r.key for r in expand(spec_inline)] == [r.key for r in expand(spec_by_path)]

    def test_editing_the_plan_changes_the_key(self):
        plan_a = {"name": "p", "events": [{"at": 0.5, "action": "partition", "dc": 2}]}
        plan_b = {"name": "p", "events": [{"at": 0.7, "action": "partition", "dc": 2}]}
        def key(plan):
            spec = SweepSpec.from_dict(
                {"name": "t", "base": {**BASE, "faults": plan}, "axes": {"locality": [1.0]}}
            )
            return expand(spec)[0].key

        assert key(plan_a) != key(plan_b)


class TestConfigFromParams:
    def test_builds_config_and_protocol(self):
        config, protocol = config_from_params(dict(BASE, seed=3, protocol="bpr"))
        assert protocol == "bpr"
        assert config.seed == 3
        assert config.cluster.n_dcs == 3
        assert config.workload.threads_per_client == 1
        assert config.workload.partitions_per_tx == 2

    def test_requires_seed(self):
        with pytest.raises(SweepSpecError, match="'seed'"):
            config_from_params(dict(BASE))

    def test_rejects_unknown_params(self):
        with pytest.raises(SweepSpecError, match="unknown run parameter"):
            config_from_params(dict(BASE, seed=1, flux=9))

    @pytest.mark.parametrize(
        "name, value, expected",
        [
            ("dcs", "3", "an integer"),
            ("dcs", None, "an integer"),
            ("dcs", True, "an integer"),
            ("threads", "x", "an integer"),
            ("seed", "7", "an integer"),
            ("seed", 7.0, "an integer"),
            ("partitions_per_tx", "2", "an integer or null"),
            ("locality", "a", "a number"),
            ("duration", "1", "a number"),
            ("warmup", False, "a number"),
            ("protocol", 3, "a string"),
            ("mix", None, "a string"),
            ("workload", 1, "a string or null"),
        ],
    )
    def test_rejects_mistyped_values(self, name, value, expected):
        """One resolution point checks every value's type; nothing is coerced."""
        message = f"run parameter {name!r} must be {expected}: {value!r}"
        with pytest.raises(SweepSpecError, match=re.escape(message)):
            sweep.resolve_params({**BASE, "seed": 1, name: value})

    def test_accepts_ints_as_numbers_and_nulls_where_allowed(self):
        params = dict(BASE, seed=1, locality=1, partitions_per_tx=None, workload=None)
        resolved = sweep.resolve_params(params)
        assert resolved["locality"] == 1
        assert resolved["partitions_per_tx"] == 2

    def test_mistyped_axis_value_fails_expansion(self):
        spec = make_spec(axes={"rf": [2, "3"]}, repeats=1)
        with pytest.raises(SweepSpecError, match="run parameter 'rf' must be an integer"):
            expand(spec)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SweepSpecError, match="unknown protocol"):
            config_from_params(dict(BASE, seed=1, protocol="3pc"))

    def test_every_registered_protocol_is_a_valid_value(self):
        from repro.protocols import protocol_names

        for name in protocol_names():
            config, protocol = config_from_params(dict(BASE, seed=1, protocol=name))
            assert protocol == name
            assert config.protocol_name == name

    def test_inline_fault_plan_resolves(self):
        plan = {"name": "p", "events": [{"at": 0.5, "action": "partition", "dc": 2}]}
        config, _ = config_from_params(dict(BASE, seed=1, faults=plan))
        assert config.faults is not None
        assert len(config.faults) == 1

    def test_committed_specs_expand_and_build(self):
        # Every committed example spec must parse, expand, and yield valid
        # configurations (this is what CI's sweep smoke ultimately runs).
        import pathlib

        spec_dir = pathlib.Path(__file__).resolve().parent.parent / "examples" / "sweeps"
        specs = sorted(spec_dir.glob("*.json"))
        assert len(specs) >= 3
        for path in specs:
            spec = SweepSpec.load(path)
            runs = expand(spec)
            assert runs, path
            for run in runs:
                config_from_params(run.params)


def test_iter_axes_summary_mentions_repeats():
    fragments = list(sweep.iter_axes_summary(make_spec()))
    assert fragments == ["locality (2 values)", "repeats (2 seeds)"]


def test_runspec_is_frozen():
    run = expand(make_spec())[0]
    assert isinstance(run, RunSpec)
    with pytest.raises(AttributeError):
        run.key = "nope"
