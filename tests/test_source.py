"""The README promises exact arithmetic and no dependency outside the
standard library; this walks the package source and holds it to that."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import monolc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "monolc"


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
    __main__.py takes a name from it; __init__.py binds the module on
    first use, which bench/ reads, and nothing else imports it.  Absolute
    imports are held to the standard library above, so only relative
    ones can reach cli."""
    found = []
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
                    found.append(f"{where}: imports cli")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "cli":
                    found.append(f"{where}: reads cli.{node.attr}")
    assert not found, found
    assert monolc.cli.__name__ == "monolc.cli", "monolc.cli does not resolve"
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, monolc; print('monolc.cli' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert (probe.returncode, probe.stdout) == (0, "False\n"), probe.stderr


def _trusted_uses() -> list[tuple[str, str]]:
    """Each reference to an attribute named _trusted in the package, as
    (file:enclosing function, the expression it is read from)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [(n.lineno, n.end_lineno, n.name) for n in ast.walk(tree)
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_trusted":
                inner = [name for lo, hi, name in scopes if lo <= node.lineno <= hi]
                where = f"{path.name}:{inner[-1] if inner else '<module>'}"
                found.append((where, ast.unparse(node.value)))
    return found


def test_only_the_coboundary_kernel_builds_unchecked_matrices():
    """SparseMatrix._trusted skips validation, so only the code that
    guarantees the rows' column order, linalg._coboundaries, reaches it.
    Every other _trusted is read off an ideals value type or
    SimplicialComplex by name, so no alias can hide a SparseMatrix among
    them."""
    uses = _trusted_uses()
    matrices = [where for where, owner in uses if owner == "SparseMatrix"]
    assert matrices == ["linalg.py:_coboundaries"], uses
    owners = {owner for _, owner in uses}
    assert owners <= {"SparseMatrix", "Monomial", "MultiDegree", "MonomialIdeal",
                      "SimplicialComplex"}, uses


def test_only_library_built_values_skip_validation():
    """Monomial, MultiDegree, MonomialIdeal and SimplicialComplex._trusted
    skip the public constructors' checks (an ideal's minimalize, a
    complex's downward closure), so each use is listed here: each builds
    from parts that were checked already, and a new one has to be added
    on purpose."""
    uses = sorted(f"{where}:{owner}" for where, owner in _trusted_uses()
                  if owner != "SparseMatrix")
    assert uses == [
        "ideals.py:__post_init__:MonomialIdeal",  # after the constructor's own checks
        "ideals.py:parse_ideal:Monomial",  # after the parser's own checks
        "ideals.py:parse_ideal:MonomialIdeal",
        "polarization.py:_degree_map:MultiDegree",
        "polarization.py:_restrict:Monomial",  # indices checked by restrict or verify._boxed
        "polarization.py:_restrict:MonomialIdeal",  # projections, minimalized
        "polarization.py:partial_polarize:Monomial",
        "polarization.py:partial_polarize:MonomialIdeal",
        "polarization.py:polarize_ideal:Monomial",  # 0/1 blocks of a checked ideal's gens
        "polarization.py:polarize_ideal:MonomialIdeal",  # minimalized, names x_i_j distinct
        "simplicial.py:from_facets:SimplicialComplex",  # closed by enumerating subsets
        "takayama.py:_complex:SimplicialComplex",
        "takayama.py:_dims:SimplicialComplex",  # the nerve, grown closed
        "takayama.py:canonical_box:MultiDegree",
        "takayama.py:lc_table:MultiDegree",
        "verify.py:_boxed:MonomialIdeal",
        "verify.py:_step2_data:MultiDegree",
        "verify.py:_step3_data:MultiDegree",
    ], uses


def test_readme_names_every_export():
    """README's API reference lists each name in monolc.__all__, so a
    name cannot join the public surface without being documented."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [name for name in monolc.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert not missing, missing


def test_exports_are_the_names_the_init_imports_bind():
    """__init__.py writes each export once, in its `from .x import`
    block, and builds __all__ from the names that block binds; so any
    other import that binds a public name, such as `from typing import
    Sequence`, would leak it into __all__ and fail here."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert monolc.__all__ == imported
    assert not [name for name in imported if name.startswith("_")
                or isinstance(getattr(monolc, name), types.ModuleType)], imported
