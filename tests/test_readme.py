import ast
import io
import re
from fractions import Fraction
from pathlib import Path

from ordense.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "the README has one python block, the quick start"
    return blocks[0]


def test_readme_quick_start_runs():
    # run the block statement by statement and keep each expression's value
    source = _quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[lines[node.lineno - 1]] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)

    def value_of(call):
        (line,) = [text for text in values if call in text]
        return values[line]

    # the values the comments state exactly
    assert value_of("delta_g_zero_class") == Fraction(3, 8)
    assert value_of("kummer_degree") == 4


def _command_lines():
    (block,) = re.findall(r"## Command line\n.*?```\n(.*?)```", README.read_text(), re.S)
    return [line.split()[1:] for line in block.splitlines() if line.startswith("ordense ")]


def test_readme_command_lines_run():
    commands = _command_lines()
    assert len(commands) == 9
    outputs = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out, err) == 0, (argv, err.getvalue())
        outputs.append(out.getvalue())
    # the value the block states for its first line
    assert '"value":0.375' in outputs[0] and '"exact":"3/8"' in outputs[0]
