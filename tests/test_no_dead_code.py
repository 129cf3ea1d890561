"""No dead code: every public definition under ``src/repro`` has a user.

Rule: every public function, class and method defined under
``src/repro`` (a name with no leading underscore, at module level or in
a class body) must be used in some module of ``src/``, ``examples/``,
``scripts/`` or ``perfbench/``.  ``tests/`` do not count, and neither
does a package ``__init__``'s re-export (its imports and its
``__all__``).  A definition that only tests call is dead code: it goes,
or it gains a caller.

A use is any of:

* a name (``foo``) or an attribute (``x.foo``);
* an imported name (``from m import foo``);
* a string constant that is, as a whole, an identifier or a dotted path
  (``"run"``, ``"Kernel.run"``), because perfbench names its span
  boundaries and consumer registrations that way and contracts dispatch
  activities by name.  A word inside a longer string (a message, a
  format string) does not count, and neither does a string that stands
  alone as a statement (a docstring).

A method (a ``def`` in a class body) is only ever reached through an
attribute, so a bare name does not count as its use: a ``scaled`` method
does not pass because a module-level ``scaled`` function is called.  A
use inside a definition of the same name does not count either: a method
that calls ``.exponential`` on a generator is not a use of itself, and a
recursive function does not keep itself alive.

Limit: uses are matched by name only, so a method that shares its name
with a used attribute passes: a ``render`` method no caller reaches
passes while another ``render`` is called.  Methods with common names,
such as ``edges``, ``measure``, ``render``, ``choice``, ``pending``,
``to_dict`` or ``from_dict``, are checked by hand.

``KEEP`` lists the names kept without a caller, each with its reason.  A
kept name that gains a caller, or is no longer defined, fails too, like a
strict xfail, so no entry outlives its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE = REPO_ROOT / "src" / "repro"
USER_DIRS = ("src", "examples", "scripts", "perfbench")

KEEP = {
    "verify_chain": (
        "Ledger.verify_chain: the hash-chain integrity oracle the tests hold "
        "the simulator to; safety code, not dead code"
    ),
    "verify_serializability": (
        "repro.fabric.verify: the serial replay of committed writes the tests "
        "hold the validator to; safety code, not dead code"
    ),
    "derive_case_attribute": (
        "the per-record CaseID derivation that test_streaming holds the "
        "column-table derivation to"
    ),
    "service_multiplier": (
        "Server's read side of the validated set_service_multiplier; the "
        "scenario tests check restores through it"
    ),
}

_DOTTED_PATH = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _definitions(path: Path) -> list[tuple[str, str, bool]]:
    """``(name, qualified name, is a method)`` of each public definition in ``path``."""
    module = ".".join(path.relative_to(SOURCE.parent).with_suffix("").parts)
    found: list[tuple[str, str, bool]] = []

    def walk(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                method = bool(prefix) and not isinstance(node, ast.ClassDef)
                found.append((node.name, f"{module}.{prefix}{node.name}", method))
            if isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")

    walk(ast.parse(path.read_text(), filename=str(path)).body, "")
    return found


def _uses(path: Path) -> tuple[set[str], set[str]]:
    """The names ``path`` uses, by the module docstring's rule: those used
    as bare names, and those used as attributes, imports or in strings,
    each outside every definition of that name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    skipped: set[int] = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    if path.name == "__init__.py":
        for statement in tree.body:
            exports = isinstance(statement, (ast.Import, ast.ImportFrom)) or (
                isinstance(statement, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in statement.targets)
            )
            if exports:
                skipped.update(id(node) for node in ast.walk(statement))
    bare: set[str] = set()
    names: set[str] = set()

    def walk(node: ast.AST, inside: frozenset[str]) -> None:
        """Collect the uses under ``node``, within the definitions ``inside``."""
        if id(node) in skipped:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name):
            bare.update({node.id} - inside)
        elif isinstance(node, ast.Attribute):
            names.update({node.attr} - inside)
        elif isinstance(node, ast.alias):
            names.update(set(node.name.split(".")) - inside)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED_PATH.fullmatch(node.value):
                names.update(set(node.value.split(".")) - inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return bare, names


@pytest.fixture(scope="module")
def unused() -> dict[str, list[str]]:
    """Each public name defined under ``src/repro`` that nothing uses."""
    bare: set[str] = set()
    used: set[str] = set()
    for directory in USER_DIRS:
        for path in (REPO_ROOT / directory).rglob("*.py"):
            path_bare, path_used = _uses(path)
            bare |= path_bare
            used |= path_used
    found: dict[str, list[str]] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for name, qualname, method in _definitions(path):
            if name not in used and (method or name not in bare):
                found.setdefault(name, []).append(qualname)
    return found


def test_every_public_definition_has_a_user(unused):
    dead = sorted(
        qualname
        for name, qualnames in unused.items()
        if name not in KEEP
        for qualname in qualnames
    )
    assert not dead, (
        f"{len(dead)} definitions under src/repro are used nowhere outside "
        "tests/; give each a caller or delete it:\n  " + "\n  ".join(dead)
    )


def test_kept_names_are_still_unused(unused):
    stale = sorted(set(KEEP) - set(unused))
    assert not stale, (
        "kept names now used or no longer defined; drop them from KEEP: "
        + ", ".join(stale)
    )
