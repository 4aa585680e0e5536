"""The figure catalogue's two drivers: ``repro figure`` and ``run_all.py``."""

from __future__ import annotations

import importlib.util
import multiprocessing
import pathlib

import pytest

from repro import cli
from repro.bench import experiments as exp
from repro.bench import figures

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _stub(name: str, check=None) -> figures.Figure:
    return figures.Figure(
        name=name,
        title=f"Stub {name}",
        paper="**Paper:** a claim.",
        run=lambda scale: [name, scale.name],
        render=" / ".join,
        measured=lambda rows, scale: f"**Measured:** {rows[0]} at {scale.name}.",
        check=check,
    )


def _too_flat(rows, scale) -> None:
    raise figures.ShapeError("too flat")


@pytest.fixture
def stubbed(monkeypatch):
    """Three instant entries in place of the catalogue; ``beta`` is off-shape."""
    entries = {
        entry.name: entry
        for entry in (_stub("alpha"), _stub("beta", check=_too_flat), _stub("gamma"))
    }
    monkeypatch.setattr(figures, "FIGURES", entries)
    return entries


def _load_run_all():
    spec = importlib.util.spec_from_file_location(
        "run_all", ROOT / "benchmarks" / "run_all.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReproFigure:
    def test_exit_status_is_the_shape_check(self, stubbed, capsys):
        assert cli.main(["figure", "alpha"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "alpha / small\n"
        assert captured.err == ""
        assert cli.main(["figure", "beta", "--scale", "medium"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "beta / medium\n"
        assert captured.err == "figure beta: shape check failed: too flat\n"

    def test_a_doctored_table_1_fails_its_check(self):
        entry = figures.FIGURES["table1"]
        scale = exp.SCALES["small"]
        rows = entry.run(scale)
        assert entry.failure(rows, scale) is None
        without_paris = [row for row in rows if not row.name.startswith("PaRiS")]
        assert entry.failure(without_paris, scale) == (
            "figure table1: shape check failed: Table I must single out PaRiS"
        )


class TestRunAll:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker processes see the stubbed catalogue only when forked",
    )
    def test_document_is_sections_only_and_identical_at_any_worker_count(
        self, stubbed, tmp_path, capsys
    ):
        run_all = _load_run_all()
        documents = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}.md"
            status = run_all.main(["--out", str(out), "--workers", str(workers)])
            assert status == 1, "beta's failed shape check must fail the run"
            documents.append(out.read_bytes())
        assert documents[0] == documents[1]
        # Header plus one section per entry, in table order — and nothing
        # else, so no wall-clock text can make two runs differ.
        scale = exp.SCALES["small"]
        sections = [figures.section((name, scale))[0] for name in stubbed]
        assert documents[0].decode("utf-8") == (
            run_all.header(scale) + "\n" + "\n".join(sections)
        )
        assert sections[1] == (
            "## Stub beta\n\n```\nbeta / small\n```\n\n"
            "**Paper:** a claim.  **Measured:** beta at small.\n"
        )
        assert capsys.readouterr().err.count("figure beta: shape check failed: too flat") == 2
