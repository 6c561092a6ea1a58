import ast
import importlib
import importlib.util
import os
import re
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


def test_the_root_exports_the_contract_only():
    # Configure and run an episode or a suite, read its log or report, and
    # carve, print or parse a maze; every per-step part stays in its module.
    assert mazeswitch.__all__ == [
        "EpisodeConfig",
        "EpisodeLog",
        "VARIANTS",
        "VariantSpec",
        "run_episode",
        "SuiteConfig",
        "SuiteReport",
        "run_suite",
        "ablation",
        "MazeGrid",
        "generate_maze",
        "to_text",
        "from_text",
    ]


def test_every_python_block_of_the_readme_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})


def run_in_a_fresh_process(code: str) -> None:
    src = str(Path(mazeswitch.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_needs_only_the_standard_library():
    run_in_a_fresh_process("import sys, mazeswitch, mazeswitch.cli; assert 'numpy' not in sys.modules")


def test_import_loads_no_numeric_tower():
    # ``statistics`` pulls in ``fractions`` and ``decimal``: 5-7 ms of every
    # start-up, worker processes included, for nothing the package needs.
    run_in_a_fresh_process(
        "import sys, mazeswitch\n"
        "loaded = {'statistics', 'fractions', 'decimal'} & set(sys.modules)\n"
        "assert not loaded, loaded"
    )


def test_import_loads_no_process_pool():
    # Only ``run_suite`` with more than one worker starts a pool, and it
    # imports one there; the CLI, ``replay`` and a serial suite never do.
    for module in ("mazeswitch", "mazeswitch.cli"):
        run_in_a_fresh_process(
            f"import sys, {module}\n"
            "loaded = {'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)\n"
            "assert not loaded, loaded"
        )


def test_random_blocks_build_their_constants_on_first_use():
    run_in_a_fresh_process(
        "from mazeswitch import generate_maze, rng\n"
        "assert rng._lane_constants.cache_info().currsize == 0\n"
        "generate_maze(16, 0)\n"
        "assert rng._lane_constants.cache_info().currsize == 1"
    )


def test_layout_cells_are_built_on_first_use():
    # Carving, walking and planning never read ``Layout.cells``, so a
    # process's first carve and first plan do not build it; decoding a
    # trajectory does.
    run_in_a_fresh_process(
        "from mazeswitch import generate_maze, run_episode, EpisodeConfig, VARIANTS\n"
        "from mazeswitch.grid import layout\n"
        "from mazeswitch.episode import Trajectory\n"
        "generate_maze(128, 0)\n"
        "assert 'cells' not in vars(layout(128))\n"
        "run_episode(EpisodeConfig(n=32, maze_seed=0, variant=VARIANTS['spiral']))\n"
        "assert 'cells' not in vars(layout(32))\n"
        "log = run_episode(EpisodeConfig(n=128, maze_seed=1, variant=VARIANTS['spiral_conv']))\n"
        "assert log.switch_step is not None and log.counters['convergence'] > 0\n"
        "assert 'cells' not in vars(layout(128))\n"
        "assert Trajectory(128, 'ES')[2] == (1, 1)\n"
        "assert 'cells' in vars(layout(128))"
    )


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
    k = mazeswitch.grid.KnowledgeMap(8)
    assert mazeswitch.pathfind.astar_plan(k.index(0, 0), k.index(4, 4), k).cost == 8


def test_the_line_counter_splits_docstrings_comments_and_code():
    # tools/src_lines.py, which CI runs on src/: a docstring spans its
    # lines, blank lines inside it included; a comment after code is code.
    spec = importlib.util.spec_from_file_location(
        "src_lines", Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
    )
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    source = (
        '"""Module.\n\nMore."""\n'
        "\n"
        "# a comment\n"
        "def f():\n"
        "    '''One line.'''\n"
        "    x = '''not a\n"
        "    docstring'''\n"
        "    return x  # trailing\n"
    )
    assert src_lines.line_counts(source) == (10, 4, 4)
