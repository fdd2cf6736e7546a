"""What ships: no module under ``src/repro`` imports the study code
under ``benchmarks/`` (the comparison baselines and protocols)."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def _imported(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_no_shipped_module_imports_benchmarks():
    offenders = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _imported(ast.parse(path.read_text(encoding="utf-8")))
        if name == "benchmarks" or name.startswith("benchmarks.")
    ]
    assert offenders == []
