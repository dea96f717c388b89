"""Docs-consistency checks (tier 1, no network).

Documentation that drifts from the code is worse than none, so these
assert the structural invariants: every package is in the architecture
doc, every relative link in README/docs resolves to a real file, every
documented ``repro`` command line parses, and the generated checker
catalogue matches the registry byte-for-byte.
"""

import contextlib
import importlib.util
import io
import os
import re
import shlex

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DOCS = os.path.join(REPO_ROOT, "docs")

# [text](target) — excluding images and in-page anchors.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)#\s]+)[^)]*\)")


def _read(*parts: str) -> str:
    with open(os.path.join(REPO_ROOT, *parts), "r", encoding="utf-8") as fh:
        return fh.read()


def _packages() -> list:
    src = os.path.join(REPO_ROOT, "src", "repro")
    return sorted(
        entry
        for entry in os.listdir(src)
        if os.path.isfile(os.path.join(src, entry, "__init__.py"))
    )


class TestArchitectureDoc:
    def test_every_package_documented(self):
        text = _read("docs", "architecture.md")
        missing = [pkg for pkg in _packages() if f"`{pkg}/`" not in text]
        assert not missing, (
            f"packages absent from docs/architecture.md: {missing} "
            "(each needs a '### `<pkg>/`' contract section)"
        )

    def test_top_level_modules_documented(self):
        text = _read("docs", "architecture.md")
        for mod in ("cli.py", "diagnostics.py", "faults.py"):
            assert mod in text


def _doc_pages() -> list:
    return sorted(
        f"docs/{name}" for name in os.listdir(DOCS) if name.endswith(".md")
    )


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"] + _doc_pages())
class TestLinksResolve:
    def test_relative_links_point_at_real_files(self, doc):
        base = os.path.dirname(os.path.join(REPO_ROOT, doc))
        text = _read(*doc.split("/"))
        broken = []
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue  # no network in tier 1
            if not os.path.exists(os.path.normpath(os.path.join(base, target))):
                broken.append(target)
        assert not broken, f"broken links in {doc}: {broken}"


class TestDocsCoverage:
    def test_every_subpackage_mentioned_by_some_docs_page(self):
        corpus = "\n".join(_read(*page.split("/")) for page in _doc_pages())
        missing = [pkg for pkg in _packages() if f"`{pkg}/`" not in corpus]
        assert not missing, (
            f"src/repro subpackages no docs page mentions: {missing}"
        )

    def test_every_bench_json_has_a_benchmarks_md_section(self):
        bench_files = sorted(
            name
            for name in os.listdir(REPO_ROOT)
            if name.startswith("BENCH_") and name.endswith(".json")
        )
        assert bench_files, "no BENCH_*.json files at the repository root?"
        text = _read("docs", "benchmarks.md")
        missing = [
            name for name in bench_files if f"## `{name}`" not in text
        ]
        assert not missing, (
            f"BENCH files without a '## `<file>`' section in "
            f"docs/benchmarks.md: {missing}"
        )

    def test_index_lists_every_docs_page(self):
        text = _read("docs", "index.md")
        missing = [
            page
            for page in _doc_pages()
            if page != "docs/index.md"
            and f"({os.path.basename(page)})" not in text
        ]
        assert not missing, f"docs pages absent from docs/index.md: {missing}"


class TestGeneratedCheckerDocs:
    def test_checkers_md_in_sync_with_registry(self):
        spec = importlib.util.spec_from_file_location(
            "gen_checker_docs",
            os.path.join(REPO_ROOT, "tools", "gen_checker_docs.py"),
        )
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        expected = gen.render()
        current = _read("docs", "checkers.md")
        assert current == expected, (
            "docs/checkers.md is stale; regenerate with "
            "PYTHONPATH=src python tools/gen_checker_docs.py"
        )

    def test_every_registered_checker_listed(self):
        from repro.staticcheck import all_checkers

        text = _read("docs", "checkers.md")
        for info in all_checkers():
            assert f"`{info.name}`" in text


class TestSpanCatalogue:
    """Every span a traced run emits is documented in observability.md."""

    def _catalogue(self) -> set:
        text = _read("docs", "observability.md")
        section = text.split("### Span catalogue", 1)[1].split("\n### ", 1)[0]
        return set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))

    def test_every_emitted_span_is_catalogued(self):
        from tests.obs.traced_runs import faulted_pass, gated_pass, optimistic_run

        emitted = {
            sp.name
            for run in (gated_pass, faulted_pass, optimistic_run)
            for sp in run()[1]
        }
        missing = sorted(emitted - self._catalogue())
        assert not missing, f"spans absent from the docs/observability.md catalogue: {missing}"


class TestMarkdownLint:
    def _load(self):
        spec = importlib.util.spec_from_file_location(
            "lint_docs", os.path.join(REPO_ROOT, "tools", "lint_docs.py")
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_repository_markdown_is_clean(self):
        problems = self._load().run_checks()
        assert not problems, "tools/lint_docs.py found:\n" + "\n".join(problems)

    def test_lint_catches_changes_format_drift(self, tmp_path, monkeypatch):
        lint = self._load()
        (tmp_path / "CHANGES.md").write_text("- PR 1: bulleted drift\n")
        (tmp_path / "ROADMAP.md").write_text("## Open items\n\n## Recent\n")
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        problems = lint.run_checks()
        assert any("PR <n>" in p for p in problems)

    def test_lint_catches_dead_links(self, tmp_path, monkeypatch):
        lint = self._load()
        (tmp_path / "CHANGES.md").write_text("PR 1: fine\n")
        (tmp_path / "ROADMAP.md").write_text("## Open items\n\n## Recent\n")
        (tmp_path / "page.md").write_text("see [gone](missing.md)\n")
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        problems = lint.run_checks()
        assert any("dead relative link" in p for p in problems)

    def test_lint_catches_dead_code_paths(self, tmp_path, monkeypatch):
        lint = self._load()
        (tmp_path / "CHANGES.md").write_text("PR 1: `search/gone.py` is history\n")
        (tmp_path / "ROADMAP.md").write_text("## Open items\n\n## Recent\n")
        (tmp_path / "src" / "repro" / "search").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "search" / "lsh.py").write_text("")
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "lint_docs.py").write_text("")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "page.md").write_text(
            "`search/lsh.py:12`, `src/repro/search/lsh.py`, `tools/lint_docs.py`\n"
        )
        (tmp_path / "README.md").write_text("see `search/gone.py`\n")
        monkeypatch.setattr(lint, "REPO_ROOT", str(tmp_path))
        problems = lint.run_checks()
        assert problems == ["README.md: code path `search/gone.py` names no file"]


class TestReadmePointers:
    def test_readme_links_all_docs(self):
        text = _read("README.md")
        for doc in (
            "docs/index.md",
            "docs/architecture.md",
            "docs/merging.md",
            "docs/observability.md",
            "docs/benchmarks.md",
            "docs/checkers.md",
        ):
            assert doc in text, f"README.md must link {doc}"

    def test_bench_field_detail_lives_in_docs_not_readme(self):
        # The per-field JSON walkthroughs were moved to docs/benchmarks.md;
        # the README keeps pointers only.
        readme = _read("README.md")
        assert "Reading the JSON:" not in readme
        bench_doc = _read("docs", "benchmarks.md")
        for field in ("speedup_vs_hyfm", "cache_remerge", "bound_unsound_rejections"):
            assert field in bench_doc


# A fenced code block, and a ``repro`` command line inside one (optionally
# behind ``VAR=value`` environment assignments).
_FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
_COMMAND_RE = re.compile(
    r"^(?:[A-Za-z_][A-Za-z0-9_]*=\S*\s+)*(?:python3? -m repro(?:\.cli)?|repro)\s+(.*)$"
)


def _documented_commands() -> list:
    """``(doc, argv)`` for every ``repro`` command in a fenced block of
    README.md and docs/*.md, backslash continuations joined."""
    commands = []
    for doc in ["README.md"] + _doc_pages():
        for block in _FENCE_RE.findall(_read(*doc.split("/"))):
            for line in block.replace("\\\n", " ").splitlines():
                match = _COMMAND_RE.match(line.strip())
                if match:
                    argv = shlex.split(match.group(1), comments=True)
                    if argv and argv[-1] == "&":
                        argv.pop()
                    commands.append((doc, argv))
    return commands


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        from repro.cli import build_parser

        commands = _documented_commands()
        assert len(commands) >= 30, "command extraction found too few lines"
        broken = []
        for doc, argv in commands:
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    build_parser().parse_args(argv)
            except SystemExit as exc:
                if exc.code:
                    broken.append(f"{doc}: repro {shlex.join(argv)}: {err.getvalue().strip()}")
        assert not broken, "documented commands that no longer parse:\n" + "\n".join(broken)
