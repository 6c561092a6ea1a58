import ast
import importlib
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


def test_every_traced_name_resolves():
    # perfbench/tracer.py wraps these names by lookup; a renamed one would
    # otherwise fail only in the benchmark's own job. Its TARGETS literal is
    # read from the source, so nothing under perfbench/ is imported.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    [targets] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    ]
    missing = []
    for modname, clsname, attr, layer, _ in targets:
        owner = importlib.import_module(modname)
        if clsname is not None:
            found = vars(getattr(owner, clsname, object)).get(attr)
        else:
            found = getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{layer}: " + ".".join(filter(None, (modname, clsname, attr))))
    assert missing == []
    # The benchmark's own checks also read the walker's binding of the
    # sensor and the planner's ``Plan.cost``.
    assert mazeswitch.spiral.probe is mazeswitch.grid.probe
    k = mazeswitch.KnowledgeMap(8)
    assert mazeswitch.astar_plan(k.index(0, 0), k.index(4, 4), k).cost == 8
