"""Doc drift: every ``python -m repro ...`` command line written in the docs,
the Makefile, CI and the verify skill must still parse.

The commands are gathered from the files' text (backslash continuations
joined, the shell around them cut off) and fed to
:func:`repro.cli.build_parser`, so a doc that still names a deleted verb
or flag fails here instead of in a reader's terminal.  Placeholders are
substituted (``N`` and shell variables such as ``$(VAR)`` / ``$$seed``
become ``1``, a synopsis ``[--flag VALUE]`` loses its brackets); a command
elided with ``...`` or ``{a,b}`` is skipped.
"""

import contextlib
import glob
import io
import os
import re
import shlex

import pytest

from repro.cli import build_parser

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCES = sorted(
    [os.path.join(REPO, name) for name in (
        "README.md", "EXPERIMENTS.md", "Makefile",
        os.path.join(".github", "workflows", "ci.yml"),
        os.path.join(".claude", "skills", "verify", "SKILL.md"))]
    + glob.glob(os.path.join(REPO, "docs", "*.md")))

_COMMAND = re.compile(r"python3? -m repro\b([^`\n]*)")
_SHELL_STOP = {";", "&", "&&", "|", "||", ")", "2>&1"}


def _argv(tail):
    """The repro arguments of one command tail, or ``None`` to skip it."""
    try:
        tokens = shlex.split(tail, comments=True)
    except ValueError:
        tokens = tail.split()
    argv = []
    for token in tokens:
        if token in _SHELL_STOP or token.startswith((">", "<")):
            break
        if "..." in token or token.startswith("{"):
            return None
        end = token.endswith(";")
        token = token.rstrip(";").strip("[]")  # synopsis: [--flag VALUE]
        argv.append("1" if token == "N" or token.startswith("$") else token)
        if end:
            break
    return argv or None


def doc_commands(path):
    """``[(line number, argv)]`` for every repro command line in *path*."""
    found, start, joined = [], 0, ""
    with open(path) as f:
        for number, line in enumerate(f, 1):
            start = start or number
            line = line.rstrip("\n")
            if line.endswith("\\"):
                joined += line[:-1] + " "
                continue
            for match in _COMMAND.finditer(joined + line):
                argv = _argv(match.group(1))
                if argv is not None:
                    found.append((start, argv))
            start, joined = 0, ""
    return found


@pytest.mark.parametrize("path", SOURCES,
                         ids=[os.path.relpath(p, REPO) for p in SOURCES])
def test_documented_commands_parse(path):
    commands = doc_commands(path)
    # Every source outside docs/ documents at least one command; a miss
    # means the gathering, not the doc, broke.
    assert commands or os.path.dirname(path).endswith("docs"), path
    parser = build_parser()
    rejected = []
    for line, argv in commands:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                parser.parse_args(argv)
        except SystemExit as exc:
            if exc.code:
                rejected.append(f"line {line}: {' '.join(argv)}: "
                                f"{err.getvalue().strip().splitlines()[-1]}")
    assert not rejected, "\n".join(rejected)
