import ast
import re
from fractions import Fraction
from pathlib import Path

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
