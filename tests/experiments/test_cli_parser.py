"""Pin the shape of the ``lopc-repro`` argument parser.

Every option of every subcommand is pinned by its dest, default, type,
choices, nargs, ``required`` and action class, so a refactor of how the
flags are declared cannot change what the command line accepts.  Help
text and metavars are free to change.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import main


class _Built(Exception):
    """Raised in place of parsing, carrying the parser main() built."""


def _built_parser(monkeypatch) -> argparse.ArgumentParser:
    def capture(self, *args, **kwargs):
        raise _Built(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Built) as built:
        main(["list"])
    return built.value.args[0]


def _shape(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """``{subcommand: {option: (action, dest, default, type, choices,
    nargs, required)}}`` for the whole parser tree."""
    table: dict[str, dict[str, tuple]] = {}
    rows: dict[str, tuple] = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in choices.items():
                table.update(_shape(sub, f"{prefix} {name}".strip()))
            choices = None
        key = " ".join(action.option_strings) or action.dest
        rows[key] = (
            type(action).__name__.strip("_").removesuffix("Action"),
            action.dest,
            action.default,
            getattr(action.type, "__name__", action.type),
            None if choices is None else tuple(choices),
            action.nargs,
            action.required,
        )
    table[prefix] = rows
    return table


def test_parser_shape_is_pinned(monkeypatch):
    assert _shape(_built_parser(monkeypatch)) == PINNED


# Generated by walking the parser with _shape() at commit 96b3a68,
# where each subcommand still declared its own flags.
PINNED = {
    '': {
        'command': ('SubParsers', 'command', None, None, None, 'A...', True),
    },
    'cache': {
        'cache_command': (
            'SubParsers', 'cache_command', None, None, None, 'A...', True,
        ),
    },
    'cache migrate': {
        '--dst-backend': (
            'Store', 'dst_backend', None, None, ('sqlite', 'files'), None,
            False,
        ),
        '--src-backend': (
            'Store', 'src_backend', None, None, ('sqlite', 'files'), None,
            False,
        ),
        'dst': ('Store', 'dst', None, 'Path', None, None, True),
        'src': ('Store', 'src', None, 'Path', None, None, True),
    },
    'fetch': {
        '--out': ('Store', 'out', None, 'Path', None, None, False),
        '--timeout': ('Store', 'timeout', 120.0, 'float', None, None, False),
        '--url': ('Store', 'url', None, None, None, None, True),
        '--wait': ('StoreTrue', 'wait', False, None, None, 0, False),
        'job': ('Store', 'job', None, None, None, None, True),
    },
    'fuzz': {
        '--budget': ('Store', 'budget', None, 'float', None, None, False),
        '--cache-backend': (
            'Store', 'cache_backend', None, None, ('sqlite', 'files'), None,
            False,
        ),
        '--cache-dir': ('Store', 'cache_dir', None, 'Path', None, None, False),
        '--corpus': ('Store', 'corpus', None, 'Path', None, None, False),
        '--no-shrink': ('StoreTrue', 'no_shrink', False, None, None, 0, False),
        '--opt-queries': ('Store', 'opt_queries', 0, 'int', None, None, False),
        '--points': ('Store', 'points', 2000, 'int', None, None, False),
        '--report': ('Store', 'report', None, 'Path', None, None, False),
        '--scenario': ('Append', 'scenario', None, None, None, None, False),
        '--seed': ('Store', 'seed', 0, 'int', None, None, False),
        '--sim-points': ('Store', 'sim_points', 12, 'int', None, None, False),
    },
    'list': {},
    'optimize': {
        '--backend': ('Store', 'backend', 'analytic', None, None, None, False),
        '--events': ('Store', 'events', None, 'Path', None, None, False),
        '--max-solves': ('Store', 'max_solves', 48, 'int', None, None, False),
        '--metrics': ('Store', 'metrics', None, 'Path', None, None, False),
        '--out': ('Store', 'out', None, 'Path', None, None, False),
        '--subject-to': (
            'Append', 'subject_to', None, None, None, None, False,
        ),
        '--warm-start': (
            'StoreTrue', 'warm_start', False, None, None, 0, False,
        ),
        'name': ('Store', 'name', None, None, None, None, True),
        'tokens': ('Store', 'tokens', None, None, None, '*', True),
    },
    'query': {
        '--backend': ('Store', 'backend', 'analytic', None, None, None, False),
        '--subject-to': (
            'Append', 'subject_to', None, None, None, None, False,
        ),
        '--timeout': ('Store', 'timeout', 120.0, 'float', None, None, False),
        '--url': ('Store', 'url', None, None, None, None, True),
        'name': ('Store', 'name', None, None, None, None, True),
        'tokens': ('Store', 'tokens', None, None, None, '*', True),
    },
    'run': {
        '--cache-backend': (
            'Store', 'cache_backend', None, None, ('sqlite', 'files'), None,
            False,
        ),
        '--cache-dir': ('Store', 'cache_dir', None, 'Path', None, None, False),
        '--chart': ('StoreTrue', 'chart', False, None, None, 0, False),
        '--fast': ('StoreTrue', 'fast', False, None, None, 0, False),
        '--jobs': ('Store', 'jobs', None, 'int', None, None, False),
        '--out': ('Store', 'out', None, 'Path', None, None, False),
        '--seed': ('Store', 'seed', None, 'int', None, None, False),
        'experiment': ('Store', 'experiment', None, None, None, None, True),
    },
    'run-all': {
        '--cache-backend': (
            'Store', 'cache_backend', None, None, ('sqlite', 'files'), None,
            False,
        ),
        '--cache-dir': ('Store', 'cache_dir', None, 'Path', None, None, False),
        '--chart': ('StoreTrue', 'chart', False, None, None, 0, False),
        '--fast': ('StoreTrue', 'fast', False, None, None, 0, False),
        '--jobs': ('Store', 'jobs', None, 'int', None, None, False),
        '--out': ('Store', 'out', None, 'Path', None, None, False),
        '--seed': ('Store', 'seed', None, 'int', None, None, False),
    },
    'scenario': {
        '--backend': (
            'Store', 'backend', 'analytic', None,
            ('analytic', 'bounds', 'sim'), None, False,
        ),
        '--cache-backend': (
            'Store', 'cache_backend', None, None, ('sqlite', 'files'), None,
            False,
        ),
        '--cache-dir': ('Store', 'cache_dir', None, 'Path', None, None, False),
        '--describe': ('StoreTrue', 'describe', False, None, None, 0, False),
        '--events': ('Store', 'events', None, 'Path', None, None, False),
        '--jobs': ('Store', 'jobs', None, 'int', None, None, False),
        '--list': ('StoreTrue', 'list', False, None, None, 0, False),
        '--metrics': ('Store', 'metrics', None, 'Path', None, None, False),
        '--out': ('Store', 'out', None, 'Path', None, None, False),
        '--progress': ('StoreTrue', 'progress', False, None, None, 0, False),
        '--seed': ('Store', 'seed', None, 'int', None, None, False),
        '--sweep': ('Append', 'sweep', None, None, None, None, False),
        '--warm-start': (
            'StoreTrue', 'warm_start', False, None, None, 0, False,
        ),
        'name': ('Store', 'name', None, None, None, '?', False),
        'params': ('Store', 'params', None, None, None, '*', True),
    },
    'serve': {
        '--batch-window': (
            'Store', 'batch_window', 0.002, 'float', None, None, False,
        ),
        '--cache-backend': (
            'Store', 'cache_backend', None, None, ('sqlite', 'files'), None,
            False,
        ),
        '--cache-dir': ('Store', 'cache_dir', None, 'Path', None, None, False),
        '--host': ('Store', 'host', '127.0.0.1', None, None, None, False),
        '--port': ('Store', 'port', 8421, 'int', None, None, False),
        '--verbose': ('StoreTrue', 'verbose', False, None, None, 0, False),
        '--workers': ('Store', 'workers', 2, 'int', None, None, False),
    },
    'stats': {
        'metrics_file': (
            'Store', 'metrics_file', None, 'Path', None, None, True,
        ),
    },
    'status': {
        '--since': ('Store', 'since', 0, 'int', None, None, False),
        '--timeout': ('Store', 'timeout', 120.0, 'float', None, None, False),
        '--url': ('Store', 'url', None, None, None, None, True),
        'job': ('Store', 'job', None, None, None, '?', False),
    },
    'submit': {
        '--out': ('Store', 'out', None, 'Path', None, None, False),
        '--seed': ('Store', 'seed', None, 'int', None, None, False),
        '--timeout': ('Store', 'timeout', 120.0, 'float', None, None, False),
        '--url': ('Store', 'url', None, None, None, None, True),
        '--wait': ('StoreTrue', 'wait', False, None, None, 0, False),
        '--warm-start': (
            'StoreTrue', 'warm_start', False, None, None, 0, False,
        ),
        'spec': ('Store', 'spec', None, 'Path', None, None, True),
    },
    'sweep': {
        '--cache-backend': (
            'Store', 'cache_backend', None, None, ('sqlite', 'files'), None,
            False,
        ),
        '--cache-dir': ('Store', 'cache_dir', None, 'Path', None, None, False),
        '--events': ('Store', 'events', None, 'Path', None, None, False),
        '--jobs': ('Store', 'jobs', None, 'int', None, None, False),
        '--metrics': ('Store', 'metrics', None, 'Path', None, None, False),
        '--out': ('Store', 'out', None, 'Path', None, None, False),
        '--progress': ('StoreTrue', 'progress', False, None, None, 0, False),
        '--seed': ('Store', 'seed', None, 'int', None, None, False),
        '--warm-start': (
            'StoreTrue', 'warm_start', False, None, None, 0, False,
        ),
        'spec': ('Store', 'spec', None, 'Path', None, None, True),
    },
}
