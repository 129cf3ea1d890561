#!/usr/bin/env python
"""Docstring presence check (pydocstyle D1-style), dependency-free.

The container has no ``pydocstyle``/``ruff``, so this small AST walker
enforces the documentation contract CI cares about: every scoped module
has a module docstring, and every *public* class, function and method in
the scoped files carries one.  Public means the name does not start with
an underscore; nested (function-local) definitions are skipped, as are
dunders other than ``__init__``-free classes (dunders document themselves
through the data model).

Scope: all ``repro.*`` package ``__init__.py`` files plus the public-API
modules the documentation contract names — the genChain contract, and
every public module of the ``repro.fabric``, ``repro.logs``,
``repro.sim``, ``repro.analysis``, ``repro.control``, ``repro.bench``
and ``repro.scenario`` packages.

Usage::

    python scripts/check_docstrings.py            # check the default scope
    python scripts/check_docstrings.py FILE ...   # check specific files

Exit status 0 when clean, 1 with one ``path:line: code symbol`` line per
violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: Modules whose full public API must be documented, besides the
#: :data:`SCOPED_PACKAGES`.
DEFAULT_SCOPE = [SRC / "contracts" / "genchain.py"]
#: Packages scoped wholesale (every non-dunder module), so new modules
#: join the contract automatically.
SCOPED_PACKAGES = ("fabric", "logs", "sim", "analysis", "control", "bench", "scenario")


def package_modules(package: Path) -> list[Path]:
    """Every public module of ``package`` (``__init__`` is covered by
    :func:`package_inits`)."""
    return sorted(
        path for path in package.glob("*.py") if path.name != "__init__.py"
    )


def package_inits() -> list[Path]:
    """Every ``__init__.py`` under ``src/repro`` (package docstring scope)."""
    return sorted(SRC.rglob("__init__.py"))


def default_scope() -> list[Path]:
    """Every file checked when no file is named."""
    modules = [path for name in SCOPED_PACKAGES for path in package_modules(SRC / name)]
    return package_inits() + DEFAULT_SCOPE + modules


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def check_file(path: Path) -> list[str]:
    """All violations in ``path`` as ``path:line: code symbol`` strings."""
    rel = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
    tree = ast.parse(path.read_text(), filename=str(path))
    violations: list[str] = []
    if ast.get_docstring(tree) is None:
        violations.append(f"{rel}:1: D100 missing module docstring")

    def walk(node: ast.AST, inside_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_public(child.name) and ast.get_docstring(child) is None:
                    violations.append(
                        f"{rel}:{child.lineno}: D101 missing docstring on class "
                        f"{child.name}"
                    )
                walk(child, inside_class=True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public(child.name) and ast.get_docstring(child) is None:
                    kind = "method" if inside_class else "function"
                    code = "D102" if inside_class else "D103"
                    violations.append(
                        f"{rel}:{child.lineno}: {code} missing docstring on "
                        f"{kind} {child.name}"
                    )
                # Function-local definitions are implementation detail.
            else:
                # Recurse through compound statements (if/try/with/for) so
                # defs guarded by e.g. ``if TYPE_CHECKING:`` or a fallback
                # import are still checked, as pydocstyle would.
                walk(child, inside_class=inside_class)

    walk(tree, inside_class=False)
    return violations


def main(argv: list[str]) -> int:
    """Check the given files (or the default scope); print violations."""
    paths = [Path(arg) for arg in argv] if argv else default_scope()
    missing = [path for path in paths if not path.is_file()]
    if missing:
        for path in missing:
            print(f"error: no such file {path}", file=sys.stderr)
        return 2
    violations: list[str] = []
    for path in paths:
        violations.extend(check_file(path))
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} docstring violation(s)", file=sys.stderr)
        return 1
    print(f"docstrings ok across {len(paths)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
