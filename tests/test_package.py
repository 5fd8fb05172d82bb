"""The package's public names and its module boundaries."""

import ast
from pathlib import Path

import fillreduce


def test_every_export_resolves_once():
    names = fillreduce.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fillreduce, name)]
    assert missing == []


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name to its own module; what another
    # module needs is public
    imported = []
    for path in sorted(Path(fillreduce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                             f"import {alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert imported == []
