"""Tests for the serve layer: service core, job pool, and real-HTTP loop."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.config import ServeConfig
from repro.serve.app import make_server, wsgi_app
from repro.serve.service import ServeService

#: Tiny-but-real launch parameters (same scale as tests/test_cli.py's FAST).
FAST_PARAMS = {
    "dcs": 3,
    "machines": 2,
    "threads": 1,
    "keys": 20,
    "warmup": 0.4,
    "duration": 0.4,
    "seed": 1,
}


@pytest.fixture
def service(tmp_path):
    svc = ServeService(ServeConfig(results_dir=str(tmp_path / "results")))
    yield svc
    svc.close()


def wait_job(service, job_id, timeout=60.0):
    """Poll one job to completion through the public endpoint."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = service.handle("GET", f"/jobs/{job_id}")
        assert status == 200
        job = payload["job"]
        if job["status"] in ("done", "failed"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestDispatch:
    def test_index_lists_endpoints(self, service):
        status, payload = service.handle("GET", "/")
        assert status == 200
        assert "GET /runs" in payload["endpoints"]
        assert "POST /sweeps" in payload["endpoints"]

    def test_health(self, service):
        status, payload = service.handle("GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["runs"] == 0

    def test_unknown_endpoint_404(self, service):
        status, payload = service.handle("GET", "/nope")
        assert status == 404

    def test_method_not_allowed_405(self, service):
        assert service.handle("POST", "/health")[0] == 405
        assert service.handle("POST", "/jobs")[0] == 405


class TestValidation:
    def test_launch_without_body_400(self, service):
        status, payload = service.handle("POST", "/runs")
        assert status == 400
        assert "JSON object" in payload["error"]

    def test_launch_with_bad_params_400_before_queuing(self, service):
        status, payload = service.handle(
            "POST", "/runs", body={"params": {"bogus": 1}}
        )
        assert status == 400
        assert "bogus" in payload["error"]
        # Nothing was queued for the invalid request.
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize("bad", [{"rf": 0}, {"dcs": 0}])
    def test_launch_with_unbuildable_deployment_400(self, service, bad):
        status, payload = service.handle(
            "POST", "/runs", body={"params": {**FAST_PARAMS, **bad}}
        )
        assert status == 400
        assert "error" in payload
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    def test_launch_with_unknown_protocol_400(self, service):
        status, payload = service.handle(
            "POST", "/runs", body={"params": {**FAST_PARAMS, "protocol": "nope"}}
        )
        assert status == 400
        assert "unknown protocol" in payload["error"]

    def test_unknown_query_param_400(self, service):
        status, payload = service.handle("GET", "/runs", query={"color": "red"})
        assert status == 400
        assert "color" in payload["error"]

    def test_non_numeric_since_400(self, service):
        assert service.handle("GET", "/runs", query={"since": "soon"})[0] == 400

    @pytest.mark.parametrize("field", ["since", "until"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_time_bound_400(self, service, field, value):
        """``nan`` compares false with every time, so it would list nothing."""
        service.repository.save_run(FAST_PARAMS, {"throughput": 1.0})
        status, payload = service.handle("GET", "/runs", query={field: value})
        assert status == 400
        assert f"{field!r} must be a finite number" in payload["error"]

    def test_finite_since_still_filters(self, service):
        service.repository.save_run(FAST_PARAMS, {"throughput": 1.0})
        assert service.handle("GET", "/runs", query={"since": "0"})[1]["total"] == 1
        later = str(time.time() + 3600)
        assert service.handle("GET", "/runs", query={"since": later})[1]["total"] == 0

    @pytest.mark.parametrize(
        "bad",
        [{"dcs": "3"}, {"dcs": None}, {"threads": "x"}, {"locality": "a"},
         {"duration": "1"}, {"seed": "7"}, {"dcs": True}],
    )
    def test_launch_with_mistyped_param_400(self, service, bad):
        """A value of the wrong JSON type is refused, never coerced or raised."""
        [(name, _)] = bad.items()
        status, payload = service.handle(
            "POST", "/runs", body={"params": {**FAST_PARAMS, **bad}}
        )
        assert status == 400
        assert f"run parameter {name!r} must be" in payload["error"]
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize(
        "event",
        [{"at": "0.5", "action": "heal"}, {"at": float("nan"), "action": "heal"},
         {"at": 0.5, "action": "partition", "dcs": 5}],
    )
    def test_launch_with_mistyped_inline_faults_400(self, service, event):
        """A mistyped inline fault plan is refused before queuing, never a 500."""
        status, payload = service.handle(
            "POST", "/runs", body={"params": {**FAST_PARAMS, "faults": {"events": [event]}}}
        )
        assert status == 400
        assert "must be" in payload["error"]
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize("trace", ["no", 1, None])
    def test_non_boolean_trace_400(self, service, trace):
        status, payload = service.handle(
            "POST", "/runs", body={"params": FAST_PARAMS, "trace": trace}
        )
        assert status == 400
        assert "'trace' must be a JSON boolean" in payload["error"]
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize("limit", ["nan", "inf", "2.5", "many"])
    def test_non_integer_limit_400(self, service, limit):
        status, payload = service.handle("GET", "/runs", query={"limit": limit})
        assert status == 400
        assert "'limit' must be an integer" in payload["error"]

    def test_integer_limit_truncates_the_listing(self, service):
        for seed in (1, 2, 3):
            service.repository.save_run({**FAST_PARAMS, "seed": seed}, {"throughput": 1.0})
        status, payload = service.handle("GET", "/runs", query={"limit": "2"})
        assert status == 200
        assert payload["total"] == 2

    def test_zero_limit_lists_all_and_negative_is_400(self, service):
        service.repository.save_run(FAST_PARAMS, {"throughput": 1.0})
        assert service.handle("GET", "/runs", query={"limit": "0"})[1]["total"] == 1
        status, payload = service.handle("GET", "/runs", query={"limit": "-1"})
        assert status == 400
        assert "limit must be >= 0" in payload["error"]

    @pytest.mark.parametrize(
        "params, words",
        [
            ({"dcs": 8, "machines": 64, "threads": 9}, "4608 sessions"),
            ({"keys": 10**12}, "1000000000000 keys per partition exceed"),
        ],
    )
    def test_oversized_run_400_before_queuing(self, service, params, words):
        status, payload = service.handle("POST", "/runs", body={"params": params})
        assert status == 400
        assert words in payload["error"]
        spec = {**TestSweepEndpoint.SPEC, "axes": {"seed": [1, 2]}, "base": params}
        status, payload = service.handle("POST", "/sweeps", body={"spec": spec})
        assert status == 400
        assert words in payload["error"]
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    def test_committed_sweeps_are_admitted(self):
        import pathlib

        from repro.bench.sweep import SweepSpec, expand
        from repro.serve.service import MAX_SWEEP_RUNS, _admit

        specs = sorted(pathlib.Path(__file__).parent.parent.glob("examples/sweeps/*.json"))
        assert specs
        for path in specs:
            runs = expand(SweepSpec.load(path))
            assert len(runs) <= MAX_SWEEP_RUNS
            for run in runs:
                _admit(run.params)

    @pytest.mark.parametrize(
        "axes, repeats, count",
        [
            (
                {
                    "seed": list(range(100)),
                    "keys": list(range(1, 101)),
                    "locality": [i / 100 for i in range(100)],
                },
                1,
                1_000_000,
            ),
            ({"locality": [1.0, 0.5]}, 501, 1_002),
        ],
    )
    def test_oversized_sweep_400_before_expanding(
        self, service, monkeypatch, axes, repeats, count
    ):
        monkeypatch.setattr(
            service.jobs, "submit", lambda *args: pytest.fail("an oversized sweep was queued")
        )
        spec = {"name": "huge", "axes": axes, "repeats": repeats}
        started = time.monotonic()
        status, payload = service.handle("POST", "/sweeps", body={"spec": spec})
        assert time.monotonic() - started < 0.5
        assert status == 400
        assert f"{count} runs exceed the served sweep bound of 1000" in payload["error"]

    @pytest.mark.parametrize("field", ["repeats", "seed"])
    def test_boolean_repeats_or_seed_400(self, service, field):
        spec = {**TestSweepEndpoint.SPEC, field: True}
        status, payload = service.handle("POST", "/sweeps", body={"spec": spec})
        assert status == 400
        assert f"{field} must be" in payload["error"]
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize("workers", ["abc", None, 2.5, True, 0])
    def test_bad_sweep_workers_400(self, service, workers):
        status, payload = service.handle(
            "POST", "/sweeps", body={"spec": TestSweepEndpoint.SPEC, "workers": workers}
        )
        assert status == 400
        assert "'workers' must be a JSON integer >= 1" in payload["error"]
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    def test_sweep_with_mistyped_param_400_before_queuing(self, service):
        spec = {**TestSweepEndpoint.SPEC, "base": {"dcs": "3"}}
        status, payload = service.handle("POST", "/sweeps", body={"spec": spec})
        assert status == 400
        assert "run parameter 'dcs' must be an integer" in payload["error"]
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize("field", ["warmup", "duration"])
    def test_non_finite_run_length_400(self, service, field):
        """``1e999`` parses as inf: it would hold a serve worker forever."""
        status, payload = service.handle(
            "POST", "/runs", body={"params": {**FAST_PARAMS, field: float("inf")}}
        )
        assert status == 400
        assert "must be finite" in payload["error"]
        spec = {**TestSweepEndpoint.SPEC, "base": {field: float("nan")}}
        status, payload = service.handle("POST", "/sweeps", body={"spec": spec})
        assert status == 400
        assert "must be finite" in payload["error"]
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    def test_replay_of_unknown_run_404_at_submission(self, service):
        status, payload = service.handle("POST", "/runs/0123456789abcdef/replay")
        assert status == 404
        assert service.handle("GET", "/jobs")[1]["jobs"] == []

    def test_sweep_without_spec_400(self, service):
        assert service.handle("POST", "/sweeps", body={"workers": 2})[0] == 400

    @pytest.mark.parametrize("pattern", ["????????", "********"])
    def test_glob_pattern_run_id_404(self, service, pattern):
        """The prefix becomes a glob pattern over ``runs/``: it must be hex."""
        from repro.serve.repository import write_record

        write_record(service.repository.root, FAST_PARAMS, {"throughput": 1.0}, source="cli")
        status, payload = service.handle("GET", f"/runs/{pattern}")
        assert status == 404
        assert "hex" in payload["error"]


class TestLaunchAndReplay:
    def test_launch_poll_persist_replay(self, service):
        status, payload = service.handle(
            "POST", "/runs", body={"params": FAST_PARAMS}
        )
        assert status == 202
        job = wait_job(service, payload["job"]["job_id"])
        assert job["status"] == "done", job["error"]
        run_id = job["result"]["run_id"]
        assert job["result"]["trace_digest"] is None

        status, listing = service.handle("GET", "/runs")
        assert status == 200
        assert listing["total"] == 1
        assert listing["runs"][0]["run_id"] == run_id
        assert listing["runs"][0]["source"] == "serve"

        status, record = service.handle("GET", f"/runs/{run_id[:12]}")
        assert status == 200
        assert record["run"]["summary_digest"] == job["result"]["summary_digest"]

        status, payload = service.handle("POST", f"/runs/{run_id[:12]}/replay")
        assert status == 202
        replay = wait_job(service, payload["job"]["job_id"])
        assert replay["status"] == "done", replay["error"]
        assert replay["result"]["ok"] is True
        assert (
            replay["result"]["replayed_summary_digest"]
            == job["result"]["summary_digest"]
        )

    def test_launch_with_trace_records_and_replays(self, service):
        status, payload = service.handle(
            "POST", "/runs", body={"params": FAST_PARAMS, "trace": True}
        )
        assert status == 202
        job = wait_job(service, payload["job"]["job_id"])
        assert job["status"] == "done", job["error"]
        assert job["result"]["trace_digest"] is not None
        run_id = job["result"]["run_id"]

        status, record = service.handle("GET", f"/runs/{run_id}")
        assert record["run"]["trace_path"] is not None

        status, payload = service.handle("POST", f"/runs/{run_id}/replay")
        replay = wait_job(service, payload["job"]["job_id"])
        assert replay["result"]["trace_ok"] is True

    def test_runs_saved_by_another_handle_are_served(self, service):
        """A CLI ``--save`` into the served root, beside a served run."""
        from repro.serve.repository import RunRepository

        service.repository.save_run(FAST_PARAMS, {"throughput": 1.0}, source="serve")
        RunRepository(service.repository.root).save_run(
            {**FAST_PARAMS, "seed": 2}, {"throughput": 2.0}
        )
        assert service.handle("GET", "/runs")[1]["total"] == 2
        assert service.handle("GET", "/health")[1]["runs"] == 2

    def test_list_filters_by_protocol(self, service):
        for protocol in ("paris", "cure"):
            _, payload = service.handle(
                "POST",
                "/runs",
                body={"params": {**FAST_PARAMS, "protocol": protocol}},
            )
            job = wait_job(service, payload["job"]["job_id"])
            assert job["status"] == "done", job["error"]
        _, listing = service.handle("GET", "/runs", query={"protocol": "cure"})
        assert listing["total"] == 1
        assert listing["runs"][0]["protocol"] == "cure"


class TestSweepEndpoint:
    SPEC = {
        "name": "served-sweep",
        "seed": 42,
        "repeats": 1,
        "base": {
            "dcs": 3,
            "machines": 2,
            "threads": 1,
            "keys": 20,
            "warmup": 0.2,
            "duration": 0.3,
        },
        "axes": {"locality": [1.0, 0.5]},
    }

    def test_sweep_runs_ingest_into_repository(self, service):
        status, payload = service.handle(
            "POST", "/sweeps", body={"spec": self.SPEC, "workers": 64}
        )
        assert status == 202
        # Requested process-parallelism is clamped to the pool bound.
        assert "workers=2" in payload["job"]["detail"]
        job = wait_job(service, payload["job"]["job_id"], timeout=120.0)
        assert job["status"] == "done", job["error"]
        assert job["result"]["total"] == 2
        assert len(job["result"]["run_ids"]) == 2
        _, listing = service.handle("GET", "/runs")
        assert listing["total"] == 2
        assert all(
            e["source"] == "sweep:served-sweep" for e in listing["runs"]
        )
        summary_path = service.repository.root / "sweeps" / "served-sweep" / "summary.json"
        assert job["result"]["summary_path"] == str(summary_path)
        assert summary_path.exists()
        # Every served sweep run is individually replayable.
        run_id = job["result"]["run_ids"][0]
        _, payload = service.handle("POST", f"/runs/{run_id}/replay")
        replay = wait_job(service, payload["job"]["job_id"])
        assert replay["result"]["ok"] is True

    def test_malformed_spec_400(self, service):
        status, payload = service.handle(
            "POST", "/sweeps", body={"spec": {"name": "x", "axes": {"volume": [1]}}}
        )
        assert status == 400
        assert "unknown axis" in payload["error"]


class HttpClient:
    """Minimal urllib JSON client against the test server."""

    def __init__(self, base):
        self.base = base

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as exc:
            return exc.code, json.load(exc)

    def post(self, path, body=None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base + path,
            data=data,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as exc:
            return exc.code, json.load(exc)


@pytest.fixture
def http(tmp_path):
    """A live stdlib server on an ephemeral port, torn down after the test."""
    service = ServeService(ServeConfig(results_dir=str(tmp_path / "results")))
    httpd = make_server(service, "127.0.0.1", 0, quiet=True)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield HttpClient(f"http://127.0.0.1:{httpd.server_port}")
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.close()


class TestOverRealSockets:
    """The serve-smoke loop, in-tree: launch over HTTP, poll, replay."""

    def poll(self, http, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, payload = http.get(f"/jobs/{job_id}")
            assert status == 200
            if payload["job"]["status"] in ("done", "failed"):
                return payload["job"]
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish within {timeout}s")

    def test_full_loop_over_http(self, http):
        status, payload = http.get("/health")
        assert status == 200 and payload["status"] == "ok"

        status, payload = http.post(
            "/runs", {"params": FAST_PARAMS, "trace": True}
        )
        assert status == 202
        job = self.poll(http, payload["job"]["job_id"])
        assert job["status"] == "done", job["error"]
        run_id = job["result"]["run_id"]

        status, payload = http.post(f"/runs/{run_id[:12]}/replay")
        assert status == 202
        replay = self.poll(http, payload["job"]["job_id"])
        assert replay["status"] == "done", replay["error"]
        assert replay["result"]["ok"] is True
        assert replay["result"]["trace_ok"] is True

    def test_error_statuses_over_http(self, http):
        assert http.post("/runs", {"params": {"bogus": 1}})[0] == 400
        assert http.post("/runs/0123456789abcdef/replay")[0] == 404
        assert http.post("/health")[0] == 405
        assert http.get("/nope")[0] == 404

    def test_invalid_json_body_is_400(self, http):
        request = urllib.request.Request(
            http.base + "/runs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


class TestWsgiAppDirect:
    """The WSGI adapter itself, without sockets."""

    def call(self, service, method, path, body=None, query=""):
        captured = {}

        def start_response(status, headers):
            captured["status"] = int(status.split()[0])
            captured["headers"] = dict(headers)

        raw = b"" if body is None else json.dumps(body).encode("utf-8")
        import io

        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        chunks = wsgi_app(service)(environ, start_response)
        return captured["status"], json.loads(b"".join(chunks))

    def test_json_content_type_and_length(self, service):
        app_status, payload = self.call(service, "GET", "/health")
        assert app_status == 200
        assert payload["status"] == "ok"

    @pytest.mark.parametrize("query", ["limit=nan", "limit=inf"])
    def test_non_integer_limit_400_through_the_app(self, service, query):
        status, payload = self.call(service, "GET", "/runs", query=query)
        assert status == 400
        assert "'limit' must be an integer" in payload["error"]

    def test_mistyped_inline_faults_400_through_the_app(self, service):
        body = {"params": {"faults": {"events": [{"at": "0.5", "action": "heal"}]}}}
        status, payload = self.call(service, "POST", "/runs", body=body)
        assert status == 400
        assert "'at' must be a finite number" in payload["error"]

    def test_garbage_body_400(self, service):
        import io

        captured = {}

        def start_response(status, headers):
            captured["status"] = int(status.split()[0])

        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/runs",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": "9",
            "wsgi.input": io.BytesIO(b"{not json"),
        }
        list(wsgi_app(service)(environ, start_response))
        assert captured["status"] == 400
