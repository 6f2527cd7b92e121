"""The ``python -m repro`` argument surface, pinned.

Every subcommand's actions — option strings, dest, default, choices,
nargs and required — are compared against ``tests/golden/
cli_surface.json``.  Help text is left out on purpose: its wrapping
depends on the Python version, while these fields do not.  A change
that adds, drops or renames a flag fails here; re-record the golden
only for an intended CLI change::

    PYTHONPATH=src python -c "import json; \
from tests.test_cli_surface import surface; \
from repro.__main__ import build_parser; \
print(json.dumps(surface(build_parser()), indent=1, sort_keys=True))" \
        > tests/golden/cli_surface.json
"""

import argparse
import json
from pathlib import Path

from repro.__main__ import build_parser

GOLDEN = Path(__file__).parent / "golden" / "cli_surface.json"


def _plain(value):
    """A JSON-stable spelling of an action attribute."""
    if isinstance(value, (list, tuple, range)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _actions(parser: argparse.ArgumentParser) -> list[dict]:
    out = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            choices = sorted(action.choices)
        else:
            choices = _plain(action.choices)
        out.append({
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": _plain(action.default),
            "choices": choices,
            "nargs": _plain(action.nargs),
            "required": bool(action.required),
        })
    return out


def surface(parser: argparse.ArgumentParser) -> dict:
    """``{"": top-level actions, "<command>": its actions, ...}``."""
    out = {"": _actions(parser)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out[name] = _actions(sub)
    return out


def test_cli_surface_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    got = surface(build_parser())
    assert sorted(got) == sorted(expected), "subcommands changed"
    for command in expected:
        assert got[command] == expected[command], (
            f"`repro {command}` arguments changed"
        )
