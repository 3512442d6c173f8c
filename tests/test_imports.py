"""Every name a library module imports is used in that module.

A name counts as used where the module's code reads it, as an ast.Name
(a dotted use such as scipy.linalg.solve reads its first part).  In the
package's __init__.py the imports are re-exports, so its __all__ uses them.
`from __future__ import ...` binds no name the code reads and is skipped.
"""

import ast
from pathlib import Path

import pytest

import refleq

MODULES = sorted(Path(refleq.__file__).parent.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_the_module_list_is_the_package():
    assert {p.name for p in MODULES} >= {"__init__.py", "cone.py", "linsolve.py", "reduce.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
