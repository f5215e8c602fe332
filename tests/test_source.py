"""The README promises exact arithmetic and no dependency outside the
standard library; this walks the package source and holds it to that."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "monolc"


def test_stdlib_only_and_no_floating_point():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            for module in modules:
                top = module.split(".")[0]
                assert (
                    top == "__future__" or top in sys.stdlib_module_names
                ), f"{where}: imports {module}"
            assert not (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            ), f"{where}: floating-point literal"
            assert not (
                isinstance(node, ast.Name) and node.id == "float"
            ), f"{where}: uses float"
            assert not (
                isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            ), f"{where}: true division"
