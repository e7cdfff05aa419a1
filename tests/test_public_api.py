"""The package namespace is the documented surface, and the README's
quickstart runs and prints what its comments say."""

import ast
import re
from pathlib import Path

import fixpres

README = Path(__file__).parents[1] / "README.md"


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from fixpres import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fixpres.__all__)
    assert len(set(fixpres.__all__)) == len(fixpres.__all__)


def test_every_exported_name_is_documented():
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    quoted = set(re.findall(r"`([^`\n]+)`", prose))
    assert [name for name in fixpres.__all__ if name not in quoted] == []


def _leading_literal(comment: str):
    """The value of the longest prefix of comment that is a Python literal,
    as a one-element tuple, or None."""
    for end in range(len(comment), 0, -1):
        try:
            return (ast.literal_eval(comment[:end]),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_readme_quickstart_results():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        expected = _leading_literal(lines[stmt.end_lineno - 1].partition("#")[2].strip())
        if expected is not None:
            assert value == expected[0]
            checked.append(expected[0])
    assert checked == [1, "similarity", "pass", ("counterexample", (0, 3))]
