"""README examples run as written and print what README shows.

Each `$ mdbs ...` line of the command-line block runs through
`mdbs.cli.main`, with `| head -N` applied in Python; the DOT line is
skipped because it pipes into Graphviz.  The Library block is executed
and its stdout compared with the text block that follows it.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from mdbs import cli

README = (pathlib.Path(__file__).resolve().parent.parent
          / 'README.md').read_text()


def _blocks(lang):
    return re.findall(rf'^```{lang}\n(.*?)^```', README, re.M | re.S)


def _shell_examples():
    """(command, expected stdout lines) for every `$ mdbs` line."""
    (block,) = (b for b in _blocks('sh') if '$ mdbs' in b)
    examples, current = [], None
    for line in block.splitlines():
        if line.startswith('$ '):
            current = (line[2:], [])
            if '| dot ' not in line:
                examples.append(current)
        elif not line or line.startswith('#'):
            current = None
        else:
            assert current is not None, f'output without a command: {line!r}'
            current[1].append(line)
    return examples


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_readme_has_shell_examples():
    commands = [cmd for cmd, _ in _shell_examples()]
    assert len(commands) == 6
    assert all(cmd.startswith('mdbs ') for cmd in commands)


@pytest.mark.parametrize('command, expected', [
    pytest.param(cmd, lines, id=cmd) for cmd, lines in _shell_examples()])
def test_readme_command_prints_what_readme_shows(command, expected):
    command, *pipes = (part.strip() for part in command.split('|'))
    head = None
    if pipes:
        (pipe,) = pipes
        match = re.fullmatch(r'head -(\d+)', pipe)
        assert match, f'README pipes into {pipe!r}'
        head = int(match[1])
    code, stdout = _run(shlex.split(command)[1:])
    assert code == cli.EXIT_OK
    lines = stdout.splitlines()
    assert lines[:head] == expected


def test_readme_library_example_prints_what_readme_shows():
    (code,) = _blocks('python')
    (expected,) = _blocks('text')
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, 'README.md', 'exec'), {})
    assert out.getvalue() == expected
