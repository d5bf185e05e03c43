"""Golden pin of the CLI surface: every subcommand's options and positionals.

For each subcommand of ``build_parser()`` this pins every option string and
positional, with its action class, ``default``, ``type``, ``choices``,
``nargs`` and ``metavar``.  Help text is not pinned.  A flag declared once
and shared by several subcommands must still look, to each subcommand, the
way the table below says.
"""

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent

ALGORITHMS = ("split", "replicate", "hybrid", "ooc")
SPLIT_POLICIES = ("bisect", "linear", "linear_mod")
PROFILES = ("poisson", "diurnal", "bursty")
HELP = ("_HelpAction", "==SUPPRESS==", None, None, 0, None)

SINGLE_JOIN = {
    '--chunk-tuples': ('_StoreAction', 10000, 'int', None, None, None),
    '--crash-node': ('_AppendAction', [], None, None, None, 'N[@T|@phase:NAME]'),
    '--drop-prob': ('_StoreAction', None, 'float', None, None, 'P'),
    '--fault-plan': ('_StoreAction', None, None, None, None, 'PATH'),
    '--heartbeat-interval': ('_StoreAction', None, 'float', None, None, 'S'),
    '--initial-nodes': ('_StoreAction', '4', 'str', None, None, None),
    '--kill-scheduler-at': ('_StoreAction', None, 'float', None, None, 'T'),
    '--lockdep': ('_StoreTrueAction', False, None, None, 0, None),
    '--materialize-output': ('_StoreTrueAction', False, None, None, 0, None),
    '--membership': ('_StoreTrueAction', False, None, None, 0, None),
    '--no-validate': ('_StoreTrueAction', False, None, None, 0, None),
    '--node-memory-mb': ('_StoreAction', 64.0, 'float', None, None, None),
    '--pool': ('_StoreAction', 24, 'int', None, None, None),
    '--probe-expansion': ('_StoreTrueAction', False, None, None, 0, None),
    '--r-tuples': ('_StoreAction', 10.0, 'float', None, None, 'M'),
    '--s-tuples': ('_StoreAction', 10.0, 'float', None, None, 'M'),
    '--scale': ('_StoreAction', 0.02, 'float', None, None, None),
    '--seed': ('_StoreAction', 20040607, 'int', None, None, None),
    '--sigma': ('_StoreAction', None, 'float', None, None, None),
    '--sources': ('_StoreAction', 4, 'int', None, None, None),
    '--sources-from-disk': ('_StoreTrueAction', False, None, None, 0, None),
    '--split-policy': ('_StoreAction', 'bisect', None, SPLIT_POLICIES, None, None),
    '--topology': ('_StoreAction', 'switched', None, ('switched', 'hub'), None, None),
    '--trace': ('_StoreTrueAction', False, None, None, 0, None),
    '--trace-buffer': ('_StoreAction', None, 'int', None, None, 'N'),
    '--tuple-bytes': ('_StoreAction', 100, 'int', None, None, None),
    '--zipf': ('_StoreAction', None, 'float', None, None, 'S'),
    '-h --help': HELP,
}

MULTI_QUERY = {
    '--arrival-rate': ('_StoreAction', 0.5, 'float', None, None, 'QPS'),
    '--arrival-times': ('_StoreAction', None, None, None, None, 'T0,T1,...'),
    '--baseline': ('_StoreAction', None, None, None, None, 'PATH'),
    '--crash-node': ('_AppendAction', [], None, None, None, 'N[@T|@phase:NAME]'),
    '--drop-prob': ('_StoreAction', None, 'float', None, None, 'P'),
    '--fair-share-cap': ('_StoreAction', 4, 'int', None, None, 'N'),
    '--fault-plan': ('_StoreAction', None, None, None, None, 'PATH'),
    '--force': ('_StoreTrueAction', False, None, None, 0, None),
    '--format': ('_StoreAction', 'text', None, ('text', 'json'), None, None),
    '--grant-timeout': ('_StoreAction', None, 'float', None, None, 'S'),
    '--heartbeat-interval': ('_StoreAction', None, 'float', None, None, 'S'),
    '--kill-scheduler-at': ('_StoreAction', None, 'float', None, None, 'T'),
    '--live': ('_StoreTrueAction', False, None, None, 0, None),
    '--live-interval': ('_StoreAction', None, 'float', None, None, 'S'),
    '--lockdep': ('_StoreTrueAction', False, None, None, 0, None),
    '--membership': ('_StoreTrueAction', False, None, None, 0, None),
    '--metrics-out': ('_StoreAction', None, None, None, None, 'PATH'),
    '--mix': ('_AppendAction', [], None, None, None, 'ALG[:W[:R_M[:S_M[:K[:SIGMA]]]]]'),
    '--no-validate': ('_StoreTrueAction', False, None, None, 0, None),
    '--node-memory-mb': ('_StoreAction', 64.0, 'float', None, None, None),
    '--obs-budget': ('_StoreAction', None, 'int', None, None, 'BYTES'),
    '--out': ('_StoreAction', None, None, None, None, None),
    '--policy': ('_StoreAction', 'fifo', None, ('fifo', 'fair', 'deficit'), None, None),
    '--pool': ('_StoreAction', 24, 'int', None, None, None),
    '--queries': ('_StoreAction', 4, 'int', None, None, None),
    '--scale': ('_StoreAction', 0.02, 'float', None, None, None),
    '--seed': ('_StoreAction', 20040607, 'int', None, None, None),
    '--snapshot-out': ('_StoreAction', None, None, None, None, 'PATH'),
    '--sources': ('_StoreAction', 2, 'int', None, None, None),
    '--topology': ('_StoreAction', 'switched', None, ('switched', 'hub'), None, None),
    '--trace': ('_StoreTrueAction', False, None, None, 0, None),
    '-h --help': HELP,
}

EXPECTED = {
    'run': {
        **SINGLE_JOIN,
        '--algorithm': ('_StoreAction', 'hybrid', None, ALGORITHMS, None, None),
    },
    'workload': {
        **MULTI_QUERY,
    },
    'fleet': {
        **MULTI_QUERY,
        '--arrival-profile': ('_StoreAction', 'poisson', None, PROFILES, None, None),
        '--cohorts': ('_StoreAction', 8, 'int', None, None, 'N'),
        '--shards': ('_StoreAction', 2, 'int', None, None, 'N'),
        '--worker-timeout': ('_StoreAction', 600.0, 'float', None, None, 'S'),
    },
    'tail': {
        '-h --help': HELP,
        'path': ('_StoreAction', None, None, None, None, 'SNAPSHOT.jsonl'),
    },
    'trace': {
        **SINGLE_JOIN,
        '--algorithm': ('_StoreAction', 'hybrid', None, ALGORITHMS, None, None),
        '--force': ('_StoreTrueAction', False, None, None, 0, None),
        '--format': ('_StoreAction', 'chrome', None, ('chrome', 'jsonl'), None, None),
        '--out': ('_StoreAction', None, None, None, None, None),
    },
    'metrics': {
        **SINGLE_JOIN,
        '--algorithm': ('_StoreAction', 'hybrid', None, ALGORITHMS, None, None),
        '--force': ('_StoreTrueAction', False, None, None, 0, None),
        '--format': ('_StoreAction', 'table', None, ('table', 'jsonl'), None, None),
        '--out': ('_StoreAction', None, None, None, None, None),
    },
    'explain': {
        **SINGLE_JOIN,
        '--algorithm': ('_StoreAction', 'hybrid', None, ALGORITHMS, None, None),
        '--force': ('_StoreTrueAction', False, None, None, 0, None),
        '--format': ('_StoreAction', 'text', None, ('text', 'json'), None, None),
        '--out': ('_StoreAction', None, None, None, None, None),
    },
    'bench-diff': {
        '--format': ('_StoreAction', 'text', None, ('text', 'json'), None, None),
        '--threshold': ('_StoreAction', 1.0, 'float', None, None, 'PCT'),
        '-h --help': HELP,
        'new': ('_StoreAction', None, None, None, None, None),
        'old': ('_StoreAction', None, None, None, None, None),
    },
    'sweep': {
        **SINGLE_JOIN,
        '--algorithms': ('_StoreAction', 'all', None, None, None, None),
    },
    'figures': {
        '--csv-dir': ('_StoreAction', None, None, None, None, None),
        '--force': ('_StoreTrueAction', False, None, None, 0, None),
        '--json': ('_StoreAction', None, None, None, None, 'PATH'),
        '--no-validate': ('_StoreTrueAction', False, None, None, 0, None),
        '--only': ('_StoreAction', None, None, None, '*', 'figNN'),
        '--out': ('_StoreAction', None, None, None, None, None),
        '--scale': ('_StoreAction', 0.02, 'float', None, None, None),
        '-h --help': HELP,
    },
    'lint': {
        '--baseline': ('_StoreAction', None, None, None, None, 'PATH'),
        '--explain': ('_StoreAction', None, None, None, None, 'RULE'),
        '--format': ('_StoreAction', 'text', None, ('text', 'json', 'sarif'), None, None),
        '--list': ('_StoreTrueAction', False, None, None, 0, None),
        '--root': ('_StoreAction', None, None, None, None, None),
        '--select': ('_StoreAction', None, None, None, '*', 'RULE'),
        '-h --help': HELP,
        'paths': ('_StoreAction', None, None, None, '*', 'PATH'),
    },
}


def _subparsers():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _surface(subparser):
    """``{option strings (or dest): (action, default, type, choices, nargs,
    metavar)}`` of one subcommand."""
    out = {}
    for a in subparser._actions:
        key = " ".join(a.option_strings) or a.dest
        out[key] = (
            type(a).__name__,
            a.default,
            getattr(a.type, "__name__", a.type),
            tuple(a.choices) if a.choices is not None else None,
            a.nargs,
            a.metavar,
        )
    return out


def test_subcommands_are_pinned():
    assert list(_subparsers()) == list(EXPECTED)


def test_every_subcommand_surface_is_pinned():
    for name, subparser in _subparsers().items():
        assert _surface(subparser) == EXPECTED[name], name


def test_api_doc_cli_block_names_every_subcommand():
    text = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```\n(.*?)```", text, re.S)
    assert block, "docs/API.md has no fenced block under '## CLI'"
    missing = [name for name in _subparsers()
               if f"repro {name} " not in block.group(1)]
    assert not missing, missing
