#!/usr/bin/env python
"""Lint the repository's Markdown for formatting drift and dead links.

Four checks, all cheap enough for tier 1 (``tests/test_docs.py`` runs
``run_checks`` directly):

1. **CHANGES.md format** — one line per PR, each matching ``PR <n>: ...``
   with strictly increasing numbers starting at 1.  The file is the
   inter-session ledger, so a stray bullet or renumbering breaks the
   next session's ability to diff it against git history.
2. **ROADMAP.md format** — the sections the builder and the
   feature-requester both key off (``## Open items``, ``## Recent``)
   exist exactly once and in that order, and every open item is a
   sequentially numbered ``N. **...`` entry.
3. **Dead relative links** — every ``[text](target)`` in every tracked
   Markdown file resolves to a real file (http/mailto and in-page
   anchors excluded; tier 1 has no network).
4. **Dead code paths** — every backticked ``dir/file.py`` path in
   ``README.md``, ``DESIGN.md`` and ``docs/`` resolves from the repository
   root, ``src/`` or ``src/repro/`` (the ledgers, such as ``CHANGES.md``
   and ``ROADMAP.md``, record history and are not checked).

Usage (from the repository root)::

    python tools/lint_docs.py          # exit 1 and list problems if any
"""

from __future__ import annotations

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHANGES_RE = re.compile(r"^PR (\d+): \S")
_OPEN_ITEM_RE = re.compile(r"^(\d+)\. \*\*")
# [text](target) — excluding images and pure in-page anchors.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)#\s]+)[^)]*\)")
# `dir/file.py`, optionally followed by `:line` or `::test`.
_CODE_PATH_RE = re.compile(r"`((?:[\w.-]+/)+[\w.-]+\.py)(?::[^`]*)?`")
_CODE_PATH_ROOTS = ("", "src", os.path.join("src", "repro"))


def _markdown_files() -> list:
    """Every .md file in the repo, skipping VCS/venv/cache directories."""
    skip = {".git", ".venv", "__pycache__", "node_modules", ".pytest_cache"}
    found = []
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for name in sorted(filenames):
            if name.endswith(".md"):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def check_changes(problems: list) -> None:
    path = os.path.join(REPO_ROOT, "CHANGES.md")
    if not os.path.exists(path):
        problems.append("CHANGES.md: missing")
        return
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    expected = 1
    for num, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        match = _CHANGES_RE.match(line)
        if not match:
            problems.append(
                f"CHANGES.md:{num}: line must start 'PR <n>: ' "
                f"(got {line[:40]!r})"
            )
            continue
        got = int(match.group(1))
        if got != expected:
            problems.append(
                f"CHANGES.md:{num}: expected PR {expected}, got PR {got} "
                "(entries must be sequential from 1)"
            )
            expected = got
        expected += 1


def check_roadmap(problems: list) -> None:
    path = os.path.join(REPO_ROOT, "ROADMAP.md")
    if not os.path.exists(path):
        problems.append("ROADMAP.md: missing")
        return
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    headings = [ln for ln in lines if ln.startswith("## ")]
    for required in ("## Open items", "## Recent"):
        if headings.count(required) != 1:
            problems.append(
                f"ROADMAP.md: expected exactly one '{required}' section "
                f"(found {headings.count(required)})"
            )
    if "## Open items" in headings and "## Recent" in headings:
        if headings.index("## Open items") > headings.index("## Recent"):
            problems.append(
                "ROADMAP.md: '## Open items' must precede '## Recent'"
            )
    # Open items are 'N. **Title.**' entries numbered 1, 2, 3, ...
    try:
        start = lines.index("## Open items") + 1
    except ValueError:
        return
    end = next(
        (i for i in range(start, len(lines)) if lines[i].startswith("## ")),
        len(lines),
    )
    expected = 1
    for num in range(start, end):
        match = _OPEN_ITEM_RE.match(lines[num])
        if not match:
            continue
        got = int(match.group(1))
        if got != expected:
            problems.append(
                f"ROADMAP.md:{num + 1}: open item numbered {got}, "
                f"expected {expected}"
            )
            expected = got
        expected += 1


def check_links(problems: list) -> None:
    for path in _markdown_files():
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        base = os.path.dirname(path)
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if not os.path.exists(os.path.normpath(os.path.join(base, target))):
                problems.append(f"{rel}: dead relative link ({target})")


def check_code_paths(problems: list) -> None:
    docs = os.path.join(REPO_ROOT, "docs")
    pages = [os.path.join(REPO_ROOT, name) for name in ("README.md", "DESIGN.md")]
    if os.path.isdir(docs):
        pages += [
            os.path.join(docs, name)
            for name in sorted(os.listdir(docs))
            if name.endswith(".md")
        ]
    for path in pages:
        if not os.path.exists(path):
            continue
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        for target in _CODE_PATH_RE.findall(text):
            if not any(
                os.path.isfile(os.path.join(REPO_ROOT, root, target))
                for root in _CODE_PATH_ROOTS
            ):
                problems.append(f"{rel}: code path `{target}` names no file")


def run_checks() -> list:
    problems = []
    check_changes(problems)
    check_roadmap(problems)
    check_links(problems)
    check_code_paths(problems)
    return problems


def main(argv=None) -> int:
    problems = run_checks()
    for problem in problems:
        sys.stderr.write(problem + "\n")
    if problems:
        sys.stderr.write(f"{len(problems)} problem(s) found\n")
        return 1
    print(f"lint_docs: {len(_markdown_files())} Markdown files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
