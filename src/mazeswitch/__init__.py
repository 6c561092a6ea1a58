"""Deterministic maze-navigation benchmark with learned policy switching.

An agent explores a seeded maze with a clockwise spiral coverage walk,
then switches permanently to A* pathfinding toward the center target.
The switching threshold is either absent, fixed at 40% coverage, or
chosen by an intra-episode tabular Q-learner over coverage and distance
buckets. The benchmark harness runs the (size x maze x variant) matrix
deterministically and reports step-count statistics.
"""

__version__ = "0.1.0"

from .grid import (
    KnowledgeMap,
    MazeGrid,
    OPEN,
    OUTSIDE,
    WALL,
    coverage_percent,
    from_text,
    generate_maze,
    manhattan,
    probe,
    to_text,
)
from .spiral import SpiralState, spiral_next
from .pathfind import Plan, astar_plan, follow_plan
from .qlearn import (
    QTable,
    RewardBreakdown,
    decision_reward,
    discretize,
    q_update,
    select_action,
    terminal_reward,
)
from .episode import (
    EpisodeConfig,
    EpisodeLog,
    VARIANTS,
    VariantSpec,
    run_episode,
)
from .bench import SuiteConfig, SuiteReport, ablation, run_suite

__all__ = [
    "KnowledgeMap",
    "MazeGrid",
    "OPEN",
    "OUTSIDE",
    "WALL",
    "coverage_percent",
    "from_text",
    "generate_maze",
    "manhattan",
    "probe",
    "to_text",
    "SpiralState",
    "spiral_next",
    "Plan",
    "astar_plan",
    "follow_plan",
    "QTable",
    "RewardBreakdown",
    "decision_reward",
    "discretize",
    "q_update",
    "select_action",
    "terminal_reward",
    "EpisodeConfig",
    "EpisodeLog",
    "VARIANTS",
    "VariantSpec",
    "run_episode",
    "SuiteConfig",
    "SuiteReport",
    "ablation",
    "run_suite",
]
