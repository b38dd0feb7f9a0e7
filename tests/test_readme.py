"""The README's library example runs against the current API, and every literal
it quotes in a comment is the value the current code gives."""

import ast
import re
from pathlib import Path

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
