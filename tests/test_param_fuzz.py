"""Arbitrary JSON values for every run parameter, at every boundary taking one.

Each boundary either accepts a value or refuses it in its own terms: a
``ValueError`` from ``config_from_params``, a 400 from serve, exit 2 from
the CLI.  Never a crash (a 500, a traceback).  Serve's job submission is
replaced by a recorder, so the fuzz stops at configuration and no
simulation runs.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.bench.sweep import PARAMS, config_from_params
from repro.config import ServeConfig
from repro.serve.service import ServeService

#: A small valid deployment the fuzzed parameter is dropped into.
BASE = {"dcs": 3, "machines": 2, "threads": 1, "keys": 20, "warmup": 0.2, "duration": 0.2}

#: Plausible values reach past the type check into the range checks.
PLAUSIBLE = (
    st.integers(-3, 12)
    | st.floats(-2.0, 3.0)
    | st.sampled_from(["paris", "cure", "95:5", "50:50", "ycsb_a", "aws3", ""])
)
JSON_VALUES = PLAUSIBLE | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

every_row = pytest.mark.parametrize("name", list(PARAMS))


def params_with(name, value):
    return {**BASE, "seed": 1, name: value}


@every_row
@FUZZ
@given(value=JSON_VALUES)
def test_config_from_params_returns_or_raises_value_error(name, value):
    try:
        config_from_params(params_with(name, value))
    except ValueError:
        pass


@pytest.fixture
def service(tmp_path):
    svc = ServeService(ServeConfig(results_dir=str(tmp_path / "results")))
    yield svc
    svc.close()


@every_row
@FUZZ
@given(value=JSON_VALUES)
def test_serve_answers_2xx_or_400(monkeypatch, service, name, value):
    submitted = []
    monkeypatch.setattr(
        service.jobs, "submit", lambda kind, detail, fn: submitted.append(kind) or _Job()
    )
    statuses = [service.handle("POST", "/runs", body={"params": params_with(name, value)})[0]]
    for in_base in (True, False):
        base, axes = dict(BASE), {"seed": [1], name: [value]}
        if in_base and name != "seed":
            base[name] = axes.pop(name)[0]
        spec = {"name": "fuzz", "base": base, "axes": axes}
        statuses.append(service.handle("POST", "/sweeps", body={"spec": spec})[0])
    assert set(statuses) <= {202, 400}
    assert len(submitted) == statuses.count(202)  # a 400 queues nothing


class _Job:
    def to_dict(self):
        return {"job_id": "j000000", "status": "pending"}


def as_flag_text(value):
    """What a user would type for ``value``: strings as-is, the rest as JSON."""
    if isinstance(value, str):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return json.dumps(value)


@every_row
@FUZZ
@given(value=JSON_VALUES)
def test_run_flags_configure_or_exit_2(name, value):
    flag = f"--{name.replace('_', '-')}={as_flag_text(value)}"
    argv = ["run", *(f"--{n}={v}" for n, v in BASE.items() if n != name), flag]
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    try:
        with cli._configuring():
            cli.config_from_args(args)
    except cli._FlagError:
        pass
