"""The package surface: every exported name resolves, and no module
imports a name it does not use."""

import ast
import pathlib

import rgc


def test_every_exported_name_resolves():
    missing = [name for name in rgc.__all__ if not hasattr(rgc, name)]
    assert not missing
    assert len(set(rgc.__all__)) == len(rgc.__all__)


def test_star_import():
    namespace = {}
    exec("from rgc import *", namespace)
    assert set(rgc.__all__) <= set(namespace)


def test_no_unused_module_imports():
    """Every module-level import under src/rgc/ is used in its module
    (__init__.py re-exports and __future__ imports aside)."""
    src = pathlib.Path(rgc.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0]
                             for a in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(bound - used)]
    assert not unused
