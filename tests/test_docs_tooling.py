"""The docs toolchain: link checker, generated CLI reference, doc presence.

Covers scripts/check_doc_links.py (the repo's own docs must be clean;
broken paths and anchors are caught; GitHub slug rules), the generated
docs/CLI.md staying in sync with the argparse tree, the extended
docstring-check scope, and the cross-links the failure taxonomy promises.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


check_doc_links = _load("check_doc_links")
generate_cli_md = _load("generate_cli_md")


class TestLinkChecker:
    def test_repo_docs_are_clean(self):
        assert check_doc_links.main([]) == 0

    def test_scope_covers_readme_and_docs(self):
        names = {path.name for path in check_doc_links.default_scope()}
        assert "README.md" in names
        assert {"FAILURES.md", "SCENARIOS.md", "CLI.md", "ARCHITECTURE.md"} <= names

    def test_broken_path_and_anchor_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "# Title\n\n"
            "ok: [self](#title), [other](other.md), [deep](other.md#a-heading)\n"
            "bad: [gone](missing.md) and [noanchor](other.md#nope) "
            "and [selfbad](#absent)\n"
        )
        (tmp_path / "other.md").write_text("# A heading\n")
        violations = check_doc_links.check_file(doc)
        assert len(violations) == 3
        assert any("missing.md" in line for line in violations)
        assert any("#nope" in line for line in violations)
        assert any("#absent" in line for line in violations)

    def test_external_schemes_and_code_fences_skipped(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[web](https://example.com/x)\n"
            "```\n[not a link](nowhere.md)\n```\n"
        )
        assert check_doc_links.check_file(doc) == []

    def test_github_slug_rules(self):
        seen: dict[str, int] = {}
        assert check_doc_links.github_slug("The `analyze` Command!", seen) == (
            "the-analyze-command"
        )
        assert check_doc_links.github_slug("Dup", {}) == "dup"
        seen2: dict[str, int] = {}
        assert check_doc_links.github_slug("Dup", seen2) == "dup"
        assert check_doc_links.github_slug("Dup", seen2) == "dup-1"

    def test_missing_input_file_errors(self, tmp_path):
        assert check_doc_links.main([str(tmp_path / "absent.md")]) == 2

    def test_main_reports_violations(self, tmp_path, capsys):
        doc = tmp_path / "doc.md"
        doc.write_text("[gone](missing.md)\n")
        assert check_doc_links.main([str(doc)]) == 1
        assert "missing.md" in capsys.readouterr().out


class TestCliReference:
    def test_cli_md_matches_the_argparse_tree(self):
        """docs/CLI.md is generated; drift fails here (the fix: regenerate).

        Regenerate with `PYTHONPATH=src python scripts/generate_cli_md.py`.
        """
        committed = (REPO_ROOT / "docs" / "CLI.md").read_text()
        assert committed == generate_cli_md.generate_text()

    def test_reference_documents_every_subcommand_and_new_flags(self):
        text = generate_cli_md.generate_text()
        for command in ("analyze", "export", "demo", "suite", "scenario"):
            assert f"## {command}" in text
        assert "--cached EXP_ID" in text
        assert "--mitigation" in text
        assert "--retry ATTEMPTS" in text

    def test_check_mode(self):
        assert generate_cli_md.main(["--check"]) == 0


class TestDocCrossLinks:
    def test_failure_taxonomy_is_cross_linked(self):
        """docs/FAILURES.md exists and is referenced where promised."""
        failures = REPO_ROOT / "docs" / "FAILURES.md"
        assert failures.is_file()
        for referrer in ("README.md", "docs/ARCHITECTURE.md", "EXPERIMENTS.md"):
            text = (REPO_ROOT / referrer).read_text()
            assert "FAILURES.md" in text, f"{referrer} should link the taxonomy"

    def test_scenario_guide_exists_and_readme_points_at_it(self):
        assert (REPO_ROOT / "docs" / "SCENARIOS.md").is_file()
        assert "SCENARIOS.md" in (REPO_ROOT / "README.md").read_text()

    def test_docstring_scope_covers_analysis_and_fabric(self):
        check_docstrings = _load("check_docstrings")
        fabric = check_docstrings.package_modules(
            REPO_ROOT / "src" / "repro" / "fabric"
        )
        analysis = check_docstrings.package_modules(
            REPO_ROOT / "src" / "repro" / "analysis"
        )
        assert any(path.name == "retry.py" for path in fabric)
        assert any(path.name == "forensics.py" for path in analysis)

    def test_architecture_quotes_the_kernel_lanes_and_golden_count(self):
        """The lane numbers and golden-file count ARCHITECTURE.md quotes
        match the kernel's ``*_PRIORITY`` constants and ``tests/golden/``."""
        import re

        from repro.sim.kernel import (
            ARRIVAL_PRIORITY,
            CONTROL_PRIORITY,
            INTERVENTION_PRIORITY,
        )

        text = " ".join((REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text().split())
        lanes = re.findall(r"the (\w+) lane \(`priority=(-?\d+)`\)", text)
        assert sorted(lanes) == sorted(
            [
                ("intervention", str(INTERVENTION_PRIORITY)),
                ("control", str(CONTROL_PRIORITY)),
                ("arrival", str(ARRIVAL_PRIORITY)),
            ]
        )
        goldens = len(list((REPO_ROOT / "tests" / "golden").glob("*.json")))
        quoted = re.findall(r"`tests/golden/` — (\d+) golden files", text)
        assert quoted == [str(goldens)]

    def test_docs_quote_the_registry_size_and_every_subcommand(self):
        """README and ARCHITECTURE.md quote the registry's experiment count,
        and the ``repro.cli`` docstring lists every subcommand."""
        import argparse
        import re

        import repro.cli
        from repro.bench.registry import all_specs

        for doc in ("README.md", "docs/ARCHITECTURE.md"):
            text = " ".join((REPO_ROOT / doc).read_text().split())
            quoted = re.findall(r"`repro\.bench\.registry`, (\d+) experiments", text)
            assert quoted == [str(len(all_specs()))], doc
        (subcommands,) = [
            action
            for action in repro.cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        unlisted = [
            name for name in subcommands.choices if f"* ``{name}" not in repro.cli.__doc__
        ]
        assert unlisted == []
