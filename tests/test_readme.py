"""The README's library example runs against the current API, every literal it
quotes in a comment is the value the current code gives, and each of its
command lines exits 0."""

import ast
import re
import shlex
from pathlib import Path

from svetbound.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# An expression line whose comment opens with a literal: `expr  # 1.5 ...` or `expr  # "text"`.
QUOTED = re.compile(
    r'^(?P<expr>[^#=\n]+?)\s+#\s+(?P<literal>"[^"]*"|-?\d+\.\d+(?:e[-+]?\d+)?)(?![\w.])', re.MULTILINE
)


def _python_blocks():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks, "README.md has no python example"
    return blocks


def test_library_example_runs():
    for block in _python_blocks():
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)


def test_quoted_values_match():
    checked = 0
    for block in _python_blocks():
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
        for match in QUOTED.finditer(block):
            value = eval(match["expr"], namespace)
            literal = match["literal"]
            if literal.startswith('"'):
                assert value == ast.literal_eval(literal), match[0]
            else:
                # Floats are quoted by repr, so the comparison is bit for bit.
                assert isinstance(value, float) and repr(value) == literal, (match[0], value)
            checked += 1
    assert checked, "the README's python example quotes no values"


def _command_lines():
    # The sh block of svetbound command lines, with backslash continuations joined.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    lines = [
        shlex.split(line)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("svetbound ")
    ]
    assert lines, "README.md quotes no svetbound command lines"
    return lines


def test_command_lines_run(tmp_path, capsys):
    lines = _command_lines()
    assert {line[1] for line in lines} == {"bound", "optimize", "threshold", "scan", "certify", "gme"}
    for line in lines:
        argv = line[1:]
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, (line, capsys.readouterr().err)
    assert (tmp_path / "scan.csv").exists()
