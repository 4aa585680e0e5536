"""Doc-drift checks: the committed docs must match the living code."""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DOCS = ROOT / "docs"

CI = ROOT / ".github" / "workflows" / "ci.yml"
VERIFY_SKILL = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"

#: A repository path as prose and shell lines write it (no globs, not the
#: tail of a longer path such as /tmp/x/tests/y.py).
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:benchmarks|examples|tests|docs)/[\w/]+\.(?:py|json|md))\b"
)
ROOT_JSON = re.compile(r"(?<![\w./-])(\w+\.json)\b")

#: Names of the second benchmark system (deleted); nothing may point at it.
LEGACY_BENCH = re.compile(
    "perfgate|bench_kernel_micro|bench_macro|bench_substrate"
    "|BENCH_kernel|BENCH_macro|pytest-benchmark"
)

HELP_BLOCK = re.compile(
    r"<!-- repro-help:begin -->\n```text\n(.*?)```\n<!-- repro-help:end -->",
    re.DOTALL,
)


class TestReadmeCommandReference:
    def test_help_block_matches_live_parser(self):
        """The embedded `repro --help` text equals the parser's, verbatim."""
        match = HELP_BLOCK.search(README.read_text(encoding="utf-8"))
        assert match, "README.md lost its <!-- repro-help --> markers"
        committed = match.group(1)
        live = cli.render_help()
        assert committed == live, (
            "README command reference has drifted from the parser; "
            "regenerate the block from repro.cli.render_help()"
        )

    def test_every_command_registered_and_documented(self):
        """_COMMANDS, the parser, and the module docstring agree."""
        parser_commands = set()
        for action in cli.build_parser()._subparsers._group_actions:
            parser_commands = set(action.choices)
        assert parser_commands == set(cli._COMMANDS)
        docstring = cli.__doc__
        for name in cli._COMMANDS:
            assert f"``{name}``" in docstring, (
                f"command {name!r} missing from the cli module docstring"
            )


class TestDocsTableOfContents:
    def test_readme_toc_lists_every_docs_page(self):
        readme = README.read_text(encoding="utf-8")
        pages = sorted(p.name for p in DOCS.glob("*.md"))
        assert pages, "docs/ directory is empty?"
        for page in pages:
            assert f"docs/{page}" in readme, (
                f"docs/{page} is not linked from README.md"
            )

    def test_readme_links_no_phantom_docs_pages(self):
        readme = README.read_text(encoding="utf-8")
        for target in set(re.findall(r"docs/([a-z_]+\.md)", readme)):
            assert (DOCS / target).is_file(), (
                f"README.md references docs/{target}, which does not exist"
            )


class TestCrossReferences:
    @pytest.mark.parametrize(
        "page", [*sorted(DOCS.glob("*.md")), CI, VERIFY_SKILL], ids=lambda p: p.name
    )
    def test_docs_page_references_resolve(self, page):
        """Every repository path a docs page, the CI workflow or the verify
        skill names points at a real file."""
        text = page.read_text(encoding="utf-8")
        for target in set(REPO_PATH.findall(text)):
            assert (ROOT / target).is_file(), (
                f"{page.name} references {target}, which does not exist"
            )
        if page.parent == DOCS:
            for target in set(re.findall(r"\]\(([a-z_]+\.md)\)", text)):
                assert (DOCS / target).is_file(), (
                    f"docs/{page.name} links ({target}), which does not exist"
                )
        else:
            # Shell lines name root-level files bare (BENCHMARK.json); docs
            # prose also names outputs that way (summary.json), so not there.
            for target in set(ROOT_JSON.findall(text)):
                assert (ROOT / target).is_file(), (
                    f"{page.name} references {target}, which does not exist"
                )

    def test_docs_referenced_tests_exist(self):
        """Test files cited as evidence in docs must still exist."""
        for page in DOCS.glob("*.md"):
            text = page.read_text(encoding="utf-8")
            for target in set(re.findall(r"tests/(test_[a-z_]+\.py)", text)):
                assert (ROOT / "tests" / target).is_file(), (
                    f"{page.name} cites tests/{target}, which does not exist"
                )


    def test_the_ledger_is_the_only_benchmark(self):
        """No live file points at the deleted suites; benchmarks/ holds no third thing."""
        bench = ROOT / "benchmarks"
        files = [
            *(ROOT / "src").rglob("*.py"),
            *(p for p in bench.rglob("*.py") if bench / "ledger" not in p.parents),
            *DOCS.glob("*.md"),
            README,
            CI,
            ROOT / "pyproject.toml",
            VERIFY_SKILL,
        ]
        for path in files:
            match = LEGACY_BENCH.search(path.read_text(encoding="utf-8"))
            assert match is None, f"{path.relative_to(ROOT)} mentions {match.group()}"
        held = {p.name for p in bench.iterdir() if p.name != "__pycache__"}
        assert held == {"run_all.py", "ledger"}


def _section(text: str, heading: str) -> str:
    """The body of one markdown section, up to the next heading of its level."""
    level = len(heading) - len(heading.lstrip("#"))
    match = re.search(
        rf"^{re.escape(heading)}\n(.*?)(?=^#{{1,{level}}} |\Z)",
        text,
        re.DOTALL | re.MULTILINE,
    )
    assert match, f"section {heading!r} not found"
    return match.group(1)


class TestFigureCatalogue:
    """``repro.bench.figures.FIGURES`` is the one list of artifacts."""

    def test_cli_choices_are_the_catalogue(self):
        from repro.bench.figures import FIGURES

        subcommands = cli.build_parser()._subparsers._group_actions[0].choices
        (name_arg,) = [a for a in subcommands["figure"]._actions if a.dest == "name"]
        assert list(name_arg.choices) == list(FIGURES)

    def test_every_experiment_is_in_the_catalogue(self):
        """An experiment nothing in the table names is dead or lost."""
        import inspect

        from repro.bench import experiments, figures

        source = inspect.getsource(figures)
        experiment_names = [
            name
            for name, value in vars(experiments).items()
            if inspect.isfunction(value)
            and value.__module__ == experiments.__name__
            and (
                name.startswith(("figure_", "ablation_"))
                or name
                in ("blocking_time", "capacity_comparison", "propagation_cost", "partition_stall")
            )
        ]
        assert len(experiment_names) >= 12
        for name in experiment_names:
            assert f"exp.{name}" in source, f"experiments.{name} is not in FIGURES"

    def test_tables_are_column_lists_in_the_catalogue(self):
        """``report`` has one renderer, ``table``; no figure has a renderer of its own there."""
        from repro.bench import report

        assert [name for name in vars(report) if name.startswith("render_")] == []

    def test_a_run_row_is_a_run(self):
        """No row type in ``experiments`` wraps an ``ExperimentResult``: a run's row is ``Run``."""
        import dataclasses
        import typing

        from repro.bench import experiments
        from repro.bench.harness import ExperimentResult

        row_types = [
            value
            for value in vars(experiments).values()
            if isinstance(value, type)
            and dataclasses.is_dataclass(value)
            and value.__module__ == experiments.__name__
        ]
        assert len(row_types) >= 6
        for row_type in row_types:
            hints = typing.get_type_hints(row_type)
            assert ExperimentResult not in hints.values(), (
                f"{row_type.__name__} carries an ExperimentResult; return experiments.Run"
            )

    def test_readme_figure_map_lists_the_catalogue(self):
        from repro.bench.figures import FIGURES

        table = _section(README.read_text(encoding="utf-8"), "## Figure-to-paper map")
        names = re.findall(r"^\| `(\w+)`", table, re.MULTILINE)
        assert names == list(FIGURES)

    def test_docs_figure_map_lists_the_catalogue(self):
        from repro.bench.figures import FIGURES

        page = (DOCS / "experiments.md").read_text(encoding="utf-8")
        table = _section(page, "## Figure-by-figure map")
        names = re.findall(r"^\|[^|]*\| `repro figure (\w+)` \|", table, re.MULTILINE)
        assert names == list(FIGURES)

    def test_every_run_parameter_is_documented(self):
        """Name, default and JSON type of every row match the table in code."""
        from repro.bench.sweep import PARAMS

        page = (DOCS / "experiments.md").read_text(encoding="utf-8")
        table = _section(page, "### Run parameters")
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|", table, re.MULTILINE)
        assert [name for name, _, _ in rows] == list(PARAMS)
        for name, default, types in rows:
            documented = json.loads(default.strip("`"))
            assert (documented, type(documented)) == (
                PARAMS[name].default, type(PARAMS[name].default)
            ), name
            assert types == " or ".join(PARAMS[name].types), name
