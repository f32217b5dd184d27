"""The CLI's option surface, pinned against a committed snapshot.

``cli_surface.json`` was generated from the parser as it stood before the
flags were derived from the config declarations (PR 16's parent commit),
less the sixteen ``--workers`` / ``--min-shard-edges`` options deleted with
the shard pool; the derived parser must reproduce it exactly: per subcommand, every
option's strings, default, ``choices``, ``required``, value type and
``nargs``/action kind, plus the mutually exclusive groups.  Help texts and
metavars are presentation and deliberately not pinned.

Regenerate after an *intentional* surface change with::

    PYTHONPATH=src python tests/api/test_cli_surface.py > tests/api/cli_surface.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.api.cli import _build_parser

SNAPSHOT = Path(__file__).with_name("cli_surface.json")


def _describe(action: argparse.Action) -> dict:
    return {
        "strings": list(action.option_strings),
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "type": None if action.type is None else action.type.__name__,
        "nargs": action.nargs,
        "action": type(action).__name__,
    }


def cli_surface() -> dict:
    """``{subcommand: {"options": {flag: description}, "exclusive": [...]}}``."""
    parser = _build_parser()
    (subparsers,) = (
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    surface = {}
    for name, sub in sorted(subparsers.choices.items()):
        options = {
            action.option_strings[0]: _describe(action)
            for action in sub._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        }
        exclusive = [
            {
                "required": group.required,
                "options": sorted(a.option_strings[0] for a in group._group_actions),
            }
            for group in sub._mutually_exclusive_groups
        ]
        surface[name] = {"options": dict(sorted(options.items())), "exclusive": exclusive}
    return surface


def test_twelve_subcommands_61_distinct_flags_160_expanded():
    surface = cli_surface()
    assert len(surface) == 12
    expanded = [flag for sub in surface.values() for flag in sub["options"]]
    assert len(expanded) == 160
    assert len(set(expanded)) == 61
    # 63 / 176 before the shard pool went: two flags on eight commands.
    assert not {"--workers", "--min-shard-edges"} & set(expanded)


def test_cli_surface_matches_the_committed_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    surface = json.loads(json.dumps(cli_surface()))  # tuples -> lists, like the file
    assert sorted(surface) == sorted(expected)
    for name in expected:
        assert surface[name]["exclusive"] == expected[name]["exclusive"], name
        assert sorted(surface[name]["options"]) == sorted(expected[name]["options"]), name
        for flag, described in expected[name]["options"].items():
            assert surface[name]["options"][flag] == described, (name, flag)


if __name__ == "__main__":  # one option per line keeps regenerated diffs readable
    blocks = []
    for name, sub in cli_surface().items():
        options = ",\n".join(
            f"   {json.dumps(flag)}: {json.dumps(described, sort_keys=True)}"
            for flag, described in sub["options"].items()
        )
        exclusive = json.dumps(sub["exclusive"], sort_keys=True)
        blocks.append(
            f' {json.dumps(name)}: {{\n  "exclusive": {exclusive},\n'
            f'  "options": {{\n{options}\n  }}\n }}'
        )
    print("{\n" + ",\n".join(blocks) + "\n}")
