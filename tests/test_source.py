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


def test_value_types_take_identity_from_dataclass():
    """Equality, hashing, immutability, pickling and slots come from
    @dataclass, so no class spells them out by hand."""
    by_hand = {"__eq__", "__hash__", "__setattr__", "__reduce__", "__slots__"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}: {cls.name}.{name}"
                          for name in names if name in by_hand]
    assert not found, found


def test_library_takes_no_name_from_the_cli():
    """cli.py is the command surface on top of the library.  Only
    __main__.py takes a name from it; __init__.py binds the module, which
    bench/ reads, and nothing else imports it.  Absolute imports are held
    to the standard library above, so only relative ones can reach cli."""
    found, bound = [], False
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__main__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [alias.name for alias in node.names]
                if node.module == "cli":
                    found.append(f"{where}: takes {names} from cli")
                elif node.module is None and "cli" in names:
                    if path.name != "__init__.py":
                        found.append(f"{where}: imports cli")
                    bound = True
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "cli":
                    found.append(f"{where}: reads cli.{node.attr}")
    assert bound, "__init__.py no longer binds monolc.cli"
    assert not found, found
