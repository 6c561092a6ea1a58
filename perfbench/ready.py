"""Set-up probe: start, import mazeswitch, start the suite's pool, say "ready".

``run.py`` times this process from its start to the ``ready`` line. With
``--jobs`` above 1 it also starts a process pool the way ``run_suite``
does and waits until every worker has answered once.

    python3 -m perfbench.ready --jobs 2
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import mazeswitch  # noqa: F401  (the import is the set-up being measured)


def _worker_pid(pause: float) -> int:
    time.sleep(pause)
    return os.getpid()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.ready")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            seen = set()
            for _ in range(20):
                seen.update(pool.map(_worker_pid, [0.01] * args.jobs))
                if len(seen) >= args.jobs:
                    break
            print("ready", flush=True)
    else:
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
