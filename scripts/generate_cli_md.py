#!/usr/bin/env python
"""Regenerate docs/CLI.md from the live argparse tree.

The reference is derived from :func:`repro.cli.build_parser` itself —
subcommand list, per-subcommand description, and every argument's flags,
metavar, choices, default and help string — so the document cannot drift
from the implementation: ``tests/test_docs_tooling.py::TestCliReference``
regenerates the text in memory and asserts it matches the committed file
byte for byte.

Usage::

    PYTHONPATH=src python scripts/generate_cli_md.py          # rewrite docs/CLI.md
    PYTHONPATH=src python scripts/generate_cli_md.py --check  # verify, exit 1 on drift
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT = REPO_ROOT / "docs" / "CLI.md"

HEADER = """# CLI reference — `python -m repro`

Generated by `scripts/generate_cli_md.py` from the argparse tree in
`src/repro/cli.py` — **do not edit by hand**; regenerate with:

```sh
PYTHONPATH=src python scripts/generate_cli_md.py
```

`tests/test_docs_tooling.py::TestCliReference` fails when this file is
out of date.  Every command is also described by
`python -m repro <command> --help`.
"""


def _argument_signature(action: argparse.Action) -> str:
    """``--flag METAVAR`` / ``positional`` form for one argument."""
    if not action.option_strings:
        return action.metavar or action.dest
    flags = ", ".join(action.option_strings)
    if action.nargs == 0:
        return flags
    metavar = action.metavar or action.dest.upper()
    return f"{flags} {metavar}"


def _argument_notes(action: argparse.Action) -> str:
    """Help text plus choices/default annotations."""
    parts = [action.help or ""]
    if action.choices is not None:
        rendered = ", ".join(str(choice) for choice in action.choices)
        parts.append(f"(choices: {rendered})")
    if (
        action.default is not None
        and action.default is not argparse.SUPPRESS
        and action.default is not False
        and action.nargs != 0
    ):
        parts.append(f"(default: {action.default})")
    return " ".join(part for part in parts if part)


def _escape(cell: str) -> str:
    return cell.replace("|", "\\|")


def generate_text() -> str:
    """The full docs/CLI.md content, derived from the live parser."""
    from repro.cli import build_parser

    parser = build_parser()
    subparsers_action = next(
        action
        for action in parser._actions  # noqa: SLF001 - argparse has no public walk API
        if isinstance(action, argparse._SubParsersAction)
    )
    lines = [HEADER]
    lines.append(f"Top-level usage: `{parser.prog} <command> [options]`.")
    lines.append("")
    lines.append(f"{parser.description}")
    lines.append("")
    lines.append("| command | summary |")
    lines.append("|---|---|")
    helps = {
        choice.dest: choice.help or "" for choice in subparsers_action._choices_actions
    }
    for name in subparsers_action.choices:
        lines.append(f"| [`{name}`](#{name}) | {_escape(helps.get(name, ''))} |")

    for name, sub in subparsers_action.choices.items():
        lines.append("")
        lines.append(f"## {name}")
        lines.append("")
        description = sub.description or helps.get(name, "")
        if description:
            lines.append(description)
            lines.append("")
        lines.append("| argument | description |")
        lines.append("|---|---|")
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            lines.append(
                f"| `{_escape(_argument_signature(action))}` "
                f"| {_escape(_argument_notes(action))} |"
            )
    lines.append("")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    """Write docs/CLI.md, or verify it with ``--check``."""
    text = generate_text()
    if "--check" in argv:
        current = OUTPUT.read_text() if OUTPUT.is_file() else ""
        if current != text:
            print(
                f"{OUTPUT} is out of date; regenerate with "
                f"`PYTHONPATH=src python {Path(__file__).relative_to(REPO_ROOT)}`",
                file=sys.stderr,
            )
            return 1
        print(f"{OUTPUT} is up to date")
        return 0
    OUTPUT.write_text(text)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
