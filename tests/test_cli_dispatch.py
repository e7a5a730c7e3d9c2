"""Every CLI verb has one definition of its flags.

``repro lint``, ``repro analyze`` and ``repro worker`` belong to modules
that parse their own argv (CI runs ``python -m repro.analysis.lint`` and
the coordinator spawns ``python -m repro.net.worker``), so the CLI hands
such a verb the rest of its argv and declares none of its flags itself.
Every other verb is parsed by ``repro.cli`` alone.
"""

import argparse
import importlib

import pytest

from repro.cli import _COMMANDS, _MODULE_VERBS, _build_parser, main


def _verb_parsers() -> dict:
    (subparsers,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return dict(subparsers.choices)


def test_the_command_table_is_every_listed_verb_once():
    assert set(_COMMANDS).isdisjoint(_MODULE_VERBS)
    assert set(_verb_parsers()) == set(_COMMANDS) | set(_MODULE_VERBS)


@pytest.mark.parametrize("verb", sorted(_verb_parsers()))
def test_every_verb_answers_help(verb, capsys):
    with pytest.raises(SystemExit) as info:
        main([verb, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {verb}")


@pytest.mark.parametrize("verb", sorted(_MODULE_VERBS))
def test_a_dispatched_verb_prints_its_modules_help(verb, capsys):
    module = importlib.import_module(_MODULE_VERBS[verb])
    with pytest.raises(SystemExit):
        module.main(["--help"])
    owned = capsys.readouterr().out
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    assert capsys.readouterr().out == owned


@pytest.mark.parametrize("verb", sorted(_MODULE_VERBS))
def test_the_cli_declares_no_flag_of_a_dispatched_verb(verb):
    declared = [
        action.dest for action in _verb_parsers()[verb]._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert declared == [], f"cli.py re-declares {verb} flags {declared}"


def test_a_dispatched_verb_gets_its_argv_untouched(monkeypatch):
    seen = []
    module = importlib.import_module(_MODULE_VERBS["lint"])
    monkeypatch.setattr(module, "main", lambda argv: seen.append(argv) or 7)
    assert main(["lint", "a.py", "--json", "--", "-b"]) == 7
    assert seen == [["a.py", "--json", "--", "-b"]]
