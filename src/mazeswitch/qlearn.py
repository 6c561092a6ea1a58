"""Tabular Q-learning over coverage/distance buckets for switch timing.

State: coverage bucket ``floor(c / 10)`` clamped to 0..9 crossed with
distance bucket ``floor(d / (2n) * 5)`` clamped to 0..4, giving 50
states. A state is its Q-table row index, ``coverage bucket * 5 +
distance bucket``, and ``discretize`` returns that int. Actions are
the five candidate switching thresholds 20..60%.

The terminal objective scores an episode as

    total = 50 * (1 - steps / step_limit)      step efficiency
          + 30 * final_coverage / 100          exploration quality
          + switch timing bonus                +10 in [30, 50],
                                               -5 below 20 or above 60

Learning happens inside a single episode, so the terminal objective is
spread over the periodic decisions with a potential difference:
``potential(steps, c) = 50 * (1 - steps/limit) + 30 * c / 100 - 50``,
normalized so the start state has potential zero. Summing all interval
rewards (switch bonus included once) and adding back the
``POTENTIAL_OFFSET`` of 50 reconstructs the terminal total exactly.

Q-update: ``Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))``
with alpha 0.1, gamma 0.9, epsilon 0.1; the terminal update drops the
max term. Exploration draws come from the table's own seeded stream so
runs replay exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .rng import SplitMix64

THRESHOLDS = (20, 30, 40, 50, 60)
N_COVERAGE_BUCKETS = 10
N_DISTANCE_BUCKETS = 5
N_STATES = N_COVERAGE_BUCKETS * N_DISTANCE_BUCKETS
N_ACTIONS = len(THRESHOLDS)

POTENTIAL_OFFSET = 50.0

ALPHA = 0.1  # learning rate
GAMMA = 0.9  # discount


def discretize(coverage: float, distance: int, n: int) -> int:
    """Bucket a (coverage %, Manhattan distance) observation into a state index."""
    if not 0.0 <= coverage <= 100.0:
        raise ValueError(f"coverage out of range: {coverage}")
    d_max = 2 * n
    if not 0 <= distance <= d_max:
        raise ValueError(f"distance out of range: {distance} (max {d_max})")
    b_c = min(int(coverage // 10), N_COVERAGE_BUCKETS - 1)
    b_d = min(int(distance / d_max * N_DISTANCE_BUCKETS), N_DISTANCE_BUCKETS - 1)
    return b_c * N_DISTANCE_BUCKETS + b_d


class QTable:
    """50 x 5 action values (a list of rows), epsilon and a private rng stream."""

    def __init__(self, rng_seed: int, epsilon: float = 0.1) -> None:
        self.values = [[0.0] * N_ACTIONS for _ in range(N_STATES)]
        self.epsilon = epsilon
        self.rng = SplitMix64(rng_seed)


def select_action(q: QTable, s: int) -> int:
    """Epsilon-greedy threshold choice; greedy ties go to the lowest."""
    if q.rng.random() < q.epsilon:
        return THRESHOLDS[q.rng.randbelow(N_ACTIONS)]
    row = q.values[s]
    return THRESHOLDS[row.index(max(row))]


def q_update(q: QTable, s: int, a: int, r: float, s_next: Optional[int]) -> QTable:
    """Apply one update to Q(s, a); ``s_next=None`` marks the terminal update."""
    if not math.isfinite(r):
        raise ValueError(f"non-finite reward: {r}")
    ai = THRESHOLDS.index(a)
    future = 0.0 if s_next is None else GAMMA * max(q.values[s_next])
    row = q.values[s]
    row[ai] += ALPHA * (r + future - row[ai])
    return q


@dataclass(frozen=True)
class RewardBreakdown:
    r_steps: float
    r_coverage: float
    r_switching: float
    total: float


def switching_component(switch_coverage: float) -> float:
    """Timing bonus for the coverage level at which the switch happened."""
    if 30.0 <= switch_coverage <= 50.0:
        return 10.0
    if switch_coverage < 20.0 or switch_coverage > 60.0:
        return -5.0
    return 0.0


def terminal_reward(
    n_steps: int,
    n_limit: int,
    c_final: float,
    switch_coverage: Optional[float] = None,
) -> RewardBreakdown:
    """Score a finished episode; no switch means no timing component."""
    if n_limit <= 0:
        raise ValueError(f"step limit must be positive, got {n_limit}")
    r_steps = 50.0 * (1.0 - n_steps / n_limit)
    r_coverage = 30.0 * c_final / 100.0
    r_switching = 0.0 if switch_coverage is None else switching_component(switch_coverage)
    return RewardBreakdown(
        r_steps=r_steps,
        r_coverage=r_coverage,
        r_switching=r_switching,
        total=r_steps + r_coverage + r_switching,
    )


def potential(steps: int, coverage: float, n_limit: int) -> float:
    return 50.0 * (1.0 - steps / n_limit) + 30.0 * coverage / 100.0 - POTENTIAL_OFFSET


def decision_reward(
    prev: tuple, cur: tuple, n_limit: int, switch_bonus: float = 0.0
) -> float:
    """Shaped reward for one decision interval.

    ``prev`` and ``cur`` are (steps so far, coverage so far) snapshots
    from the same episode. The switch bonus is added in exactly one
    interval: the one in which the switch happened.
    """
    return (
        potential(cur[0], cur[1], n_limit)
        - potential(prev[0], prev[1], n_limit)
        + switch_bonus
    )


def dump_qtable_values(values) -> str:
    """Text dump: 50 rows of 5 decimal reals, row index = state index."""
    lines = []
    for row in values:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
