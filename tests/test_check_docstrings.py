"""Tests for the CI docstring checker (scripts/check_docstrings.py)."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_docstrings", REPO_ROOT / "scripts" / "check_docstrings.py"
)
check_docstrings = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_docstrings", check_docstrings)
_SPEC.loader.exec_module(check_docstrings)


def test_default_scope_is_clean():
    """The repo's own scoped modules must stay fully documented."""
    assert check_docstrings.main([]) == 0


def test_scope_covers_all_package_inits_and_named_modules():
    inits = check_docstrings.package_inits()
    assert any(path.match("*/repro/__init__.py") for path in inits)
    assert any(path.match("*/bench/__init__.py") for path in inits)
    names = {path.name for path in check_docstrings.DEFAULT_SCOPE}
    assert {"kernel.py", "executor.py", "engine.py"} <= names


def test_violations_are_reported_with_codes(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def public():\n    pass\n\n"
        "class Thing:\n"
        '    """Documented."""\n'
        "    def method(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
    )
    violations = check_docstrings.check_file(bad)
    codes = [line.split(": ")[1].split()[0] for line in violations]
    assert codes == ["D100", "D103", "D102"]  # module, function, method


def test_clean_file_passes(tmp_path):
    good = tmp_path / "good.py"
    good.write_text(
        '"""Module."""\n\n'
        "def public():\n"
        '    """Doc."""\n\n'
        "def _private():\n    pass\n"
    )
    assert check_docstrings.check_file(good) == []


def test_defs_guarded_by_compound_statements_are_checked(tmp_path):
    guarded = tmp_path / "guarded.py"
    guarded.write_text(
        '"""Module."""\n'
        "try:\n"
        "    def fallback():\n"
        "        pass\n"
        "except Exception:\n"
        "    pass\n"
        "if True:\n"
        "    class Late:\n"
        "        pass\n"
    )
    violations = check_docstrings.check_file(guarded)
    codes = [line.split(": ")[1].split()[0] for line in violations]
    assert codes == ["D103", "D101"]


def test_main_with_explicit_files_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1\n")
    assert check_docstrings.main([str(bad)]) == 1
    assert "D100" in capsys.readouterr().out
    assert check_docstrings.main([str(tmp_path / "absent.py")]) == 2
