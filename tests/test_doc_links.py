"""Every relative cross-link in the documentation set must resolve.

Walks ``README.md`` and ``docs/*.md`` for inline markdown links,
skipping fenced code blocks and external URLs.  File targets must exist;
fragment targets (``FILE.md#anchor``) must match a heading in the target
file under GitHub's anchor-slug rules.  Section references in the
``§N``/``§N.M`` style — intra-page, following a link to another doc, or
cited from source/test files as ``RUNTIME.md §N`` — must name a
numbered heading that actually exists.  This is the acceptance check
that the documentation set cannot silently rot.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^(```|~~~)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")


def _doc_files():
    return [REPO_ROOT / "README.md"] + sorted(
        (REPO_ROOT / "docs").glob("*.md")
    )


def _links(path):
    """(lineno, target) for every inline link outside fenced code."""
    links = []
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(line):
            links.append((lineno, match.group(1)))
    return links


def _github_slug(heading):
    """GitHub's markdown anchor: lowercase, strip punctuation, spaces
    become hyphens (inline code markers are dropped with the rest)."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path):
    anchors = set()
    in_fence = False
    counts = {}
    for line in path.read_text().splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if not match:
            continue
        slug = _github_slug(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


@pytest.mark.parametrize(
    "doc", _doc_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_all_relative_links_resolve(doc):
    problems = []
    for lineno, target in _links(doc):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, fragment = target.partition("#")
        resolved = (
            doc if not file_part else (doc.parent / file_part).resolve()
        )
        if not resolved.exists():
            problems.append(f"{doc.name}:{lineno}: broken link {target!r}")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in _anchors(resolved):
                problems.append(
                    f"{doc.name}:{lineno}: no anchor #{fragment} "
                    f"in {resolved.name}"
                )
    assert not problems, "\n".join(problems)


def test_docs_index_lists_every_doc_file():
    index = (REPO_ROOT / "docs" / "README.md").read_text()
    for path in sorted((REPO_ROOT / "docs").glob("*.md")):
        if path.name == "README.md":
            continue
        assert f"({path.name})" in index, (
            f"docs/README.md does not link {path.name}"
        )


_NUMBERED_HEADING = re.compile(r"^#{1,6}\s+(\d+(?:\.\d+)*)[.\s]")
# A `§N` (or `§N.M`, or a `§N–§M` range) reference, optionally preceded
# by a markdown link to the doc it refers to: `[RUNTIME.md](RUNTIME.md)
# §4` binds to RUNTIME.md; a bare `§3.3` binds to the page it is on.
_SECTION_REF = re.compile(
    r"(?:\]\(([^)#\s]+\.md)\)\s*)?"
    r"§(\d+(?:\.\d+)?)(?:\s*[–-]\s*§(\d+(?:\.\d+)?))?"
)


def _numbered_sections(path):
    """Section numbers ("3", "3.3", ...) of a doc's numbered headings."""
    sections = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _NUMBERED_HEADING.match(line)
        if match:
            number = match.group(1)
            sections.add(number)
            # §3.3 implies §3 is referenceable too.
            sections.add(number.split(".")[0])
    return sections


_LINK_WITH_TEXT = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
_BARE_SECTION = re.compile(r"§(\d+(?:\.\d+)?)")


def _section_refs(path):
    """(lineno, target-doc-path, section-number) triples for a doc."""
    refs = []
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue

        # `[RUNTIME.md §1](RUNTIME.md#...)` — a § inside link text binds
        # to the link's target doc.  Consume these first so the generic
        # scan below does not misread them as intra-page references.
        def _bind_link_text(match):
            text, target = match.group(1), match.group(2)
            file_part = target.partition("#")[0]
            if file_part.endswith(".md"):
                resolved = (path.parent / file_part).resolve()
                for sec in _BARE_SECTION.finditer(text):
                    refs.append((lineno, resolved, sec.group(1)))
                return ""
            return match.group(0)

        line = _LINK_WITH_TEXT.sub(_bind_link_text, line)
        for match in _SECTION_REF.finditer(line):
            target = (
                (path.parent / match.group(1)).resolve()
                if match.group(1)
                else path
            )
            for number in (match.group(2), match.group(3)):
                if number is not None:
                    refs.append((lineno, target, number))
    return refs


@pytest.mark.parametrize(
    "doc", _doc_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_section_references_name_real_sections(doc):
    problems = []
    for lineno, target, number in _section_refs(doc):
        if not target.exists():
            # the broken-file case is already reported by the link test
            continue
        if number not in _numbered_sections(target):
            problems.append(
                f"{doc.name}:{lineno}: §{number} does not match any "
                f"numbered heading in {target.name}"
            )
    assert not problems, "\n".join(problems)


_CODE_CITATION = re.compile(r"docs/([A-Z_]+\.md)\s+§(\d+(?:\.\d+)?)")


def test_code_section_citations_name_real_sections():
    """Spec citations in source and tests (``docs/RUNTIME.md §4``)
    must point at numbered headings that exist — the code<->spec
    cross-references are load-bearing, not decorative."""
    problems = []
    for root in ("src", "tests", "benchmarks"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            for lineno, line in enumerate(
                path.read_text().splitlines(), 1
            ):
                for match in _CODE_CITATION.finditer(line):
                    target = REPO_ROOT / "docs" / match.group(1)
                    rel = path.relative_to(REPO_ROOT)
                    if not target.exists():
                        problems.append(
                            f"{rel}:{lineno}: cites missing doc "
                            f"{match.group(1)}"
                        )
                    elif (
                        match.group(2)
                        not in _numbered_sections(target)
                    ):
                        problems.append(
                            f"{rel}:{lineno}: §{match.group(2)} does "
                            f"not match any numbered heading in "
                            f"{match.group(1)}"
                        )
    assert not problems, "\n".join(problems)
