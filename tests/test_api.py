"""The public API holds no name that only the tests use."""

import ast
from pathlib import Path

import dapq

ROOT = Path(__file__).resolve().parent.parent


def _referenced_names(paths) -> set:
    """Names the code of ``paths`` uses: loaded, read as attributes, or looked up by string.

    Docstrings and comments name functions that no code calls, so the
    names are read off the syntax tree, not the text.  A string constant
    counts only when it is a whole identifier, as the benchmark's
    ``(module, function)`` pairs that it looks up with ``getattr`` are; no
    docstring is one.
    """
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_public_name_is_used_outside_the_tests():
    package = ROOT / "src" / "dapq"
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = _referenced_names(paths)
    unused = sorted(set(dapq.__all__) - used)
    assert not unused, f"public names no package, demo or benchmark code uses: {unused}"
