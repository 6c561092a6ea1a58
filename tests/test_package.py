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
