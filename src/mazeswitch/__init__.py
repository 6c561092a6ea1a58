"""Deterministic maze-navigation benchmark with learned policy switching.

An agent explores a seeded maze with a clockwise spiral coverage walk,
then switches permanently to A* pathfinding toward the center target.
The switching threshold is either absent, fixed at 40% coverage, or
chosen by an intra-episode tabular Q-learner over coverage and distance
buckets. The benchmark harness runs the (size x maze x variant) matrix
deterministically and reports step-count statistics.

The names below are the whole public API: configure an episode or a
suite, run it, and read its log or report; carve, print and parse a
maze. The per-step parts (sensor, walker, planner, Q-learner) live in
their modules, and each module's docstring documents them.
"""

__version__ = "0.1.0"

from .grid import MazeGrid, from_text, generate_maze, to_text
from .episode import EpisodeConfig, EpisodeLog, VARIANTS, VariantSpec, run_episode
from .bench import SuiteConfig, SuiteReport, ablation, run_suite

__all__ = [
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
