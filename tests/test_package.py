import ast
import os
import subprocess
import sys
from pathlib import Path

import mazeswitch


def test_every_public_name_resolves_and_star_import_works():
    missing = [name for name in mazeswitch.__all__ if not hasattr(mazeswitch, name)]
    assert missing == []
    namespace = {}
    exec("from mazeswitch import *", namespace)
    assert set(mazeswitch.__all__) <= set(namespace)


def test_import_needs_only_the_standard_library():
    src = str(Path(mazeswitch.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, mazeswitch, mazeswitch.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_no_module_imports_a_name_it_never_uses():
    # ``__init__`` imports names only to re-export them.
    package = Path(mazeswitch.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "annotations":  # ``from __future__ import annotations``
                        imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
