"""A fixed reference loop that samples how fast the machine runs right now.

Shared hosts slow a process down in phases of seconds, by up to half,
and the slowdown shows in CPU time as well as in wall time, so neither
clock alone can be trusted from one run to the next. The benchmark times
this loop before and after every timed section; a section's *speed
factor* is the mean of the two loop times over ``NOMINAL_S``, and the
calibrated time is the measured time divided by it.

A suite that fans out over a process pool runs on every core, and a
host may slow one core and not the other, so ``Calibrator`` for more
than one job runs the loop on that many processes at once and averages.

The loop is a breadth-first search over a walled grid with tuple cells
in sets, a deque frontier and NumPy scalar reads: the same kind of work,
and a working set of the same order, as the program's sensor and escape
search. It touches no mazeswitch code, so a change to the program never
moves it.
"""

from __future__ import annotations

import statistics
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

# The loop's time on the reference machine (2 vCPU Xeon at 2.0 GHz,
# Python 3.11.7, NumPy 2.4.6) while its host was quiet.
NOMINAL_S = 0.0065
_N = 96


def _grid() -> np.ndarray:
    walls = np.zeros((_N, _N), dtype=bool)
    walls[::3, ::4] = True
    walls[1::5, 2::7] = True
    walls[0, 0] = False
    return walls


def reference_loop() -> float:
    """Run the fixed search once; returns its wall seconds."""
    walls = _grid()
    t0 = perf_counter()
    seen = {(0, 0)}
    frontier = deque([(0, 0)])
    while frontier:
        x, y = frontier.popleft()
        for dx, dy in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            cell = (x + dx, y + dy)
            if 0 <= cell[0] < _N and 0 <= cell[1] < _N and cell not in seen:
                seen.add(cell)
                if not walls[cell]:
                    frontier.append(cell)
    return perf_counter() - t0


def sample(repeats: int = 3) -> float:
    """Median of a few loop timings, to step over a single interruption."""
    return statistics.median(reference_loop() for _ in range(repeats))


def _pool_sample(_: int) -> float:
    return sample()


class Calibrator:
    """Speed samples for a section that runs on ``jobs`` processes."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = jobs
        self._pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None

    def sample(self) -> float:
        if self._pool is None:
            return sample()
        return statistics.fmean(self._pool.map(_pool_sample, range(self.jobs)))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
