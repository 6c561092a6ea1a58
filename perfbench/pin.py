"""Write ``golden.json``: the pinned behaviour digests of every workload.

    PYTHONPATH=src:. python3 -m perfbench.pin

Pins the first ``MIN_ROUNDS`` rounds of each workload, run serially, for
the default seed and one held-out seed. The pins were made once, at the
commit that added the benchmark. Never regenerate them to make a change
pass: a change that alters behaviour on purpose says why in CHANGES.md
and re-pins in the same commit.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from mazeswitch.bench import SuiteConfig, run_suite

from .child import GOLDEN
from .digest import episode_digest
from .workloads import MIN_ROUNDS, WORKLOADS

PINNED_SEEDS = (0, 7919)  # the default seed, then the held-out one


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
    ).stdout.strip()
    pins = {}
    for name, w in WORKLOADS.items():
        pins[name] = {}
        for seed in PINNED_SEEDS:
            pins[name][str(seed)] = {
                # One space-separated string per round keeps one line per round.
                str(k): " ".join(
                    episode_digest(log)
                    for log in run_suite(SuiteConfig(**w.suite_kwargs(seed, k, jobs=1)))[1]
                )
                for k in range(MIN_ROUNDS)
            }
            print(f"pinned {name} seed {seed}", flush=True)
    golden = {"commit": commit, "seeds": list(PINNED_SEEDS), "workloads": pins}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
