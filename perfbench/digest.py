"""Behaviour digest of an episode and the checks the benchmark gate applies.

The digest hashes what the paper fixes about an episode: its config,
outcome, total steps, switch step and coverage, final coverage, the
threshold decisions, the terminal reward, the final Q-values and every
trajectory position. It is taken from the ``EpisodeLog`` rather than from
the record bytes, so a change of the record schema alone leaves it as is.
"""

from __future__ import annotations

import hashlib
import json
from array import array

DIGEST_HEX = 16


def episode_key(log) -> str:
    cfg = log.config
    return f"{cfg.n}/{cfg.maze_seed}/{cfg.variant.name}"


def episode_digest(log) -> str:
    cfg = log.config
    terminal = None
    if log.terminal_reward is not None:
        t = log.terminal_reward
        terminal = [
            log.terminal_state_index,
            log.terminal_decision_reward,
            t.r_steps,
            t.r_coverage,
            t.r_switching,
            t.total,
        ]
    head = {
        "config": [cfg.n, cfg.maze_seed, cfg.variant.name, cfg.rl_seed, cfg.resolved_step_limit],
        "outcome": log.outcome,
        "total_steps": log.total_steps,
        "switch": [log.switch_step, log.switch_coverage],
        "final_coverage": log.final_coverage,
        "decisions": [[d.step, d.state_index, d.action, d.reward] for d in log.decisions],
        "terminal": terminal,
        "q_values": log.q_values,
    }
    h = hashlib.sha256(json.dumps(head, sort_keys=True).encode())
    flat = array("q")
    for x, y in log.trajectory:
        flat.append(x)
        flat.append(y)
    h.update(flat.tobytes())
    return h.hexdigest()[:DIGEST_HEX]


def log_problems(log) -> list:
    """Invariants every episode must satisfy, whatever its outcome.

    Reaching the step limit is a legitimate outcome, not a failure; the
    pinned digests fix which episodes do.
    """
    cfg = log.config
    traj = log.trajectory
    target = (cfg.n // 2, cfg.n // 2)
    problems = []
    if len(traj) != log.total_steps + 1:
        problems.append(f"{len(traj)} positions for {log.total_steps} steps")
    if not traj or traj[0] != (0, 0):
        problems.append("trajectory does not start at (0, 0)")
    elif log.outcome == "success":
        if traj[-1] != target:
            problems.append(f"success, but the trajectory ends at {traj[-1]}, not {target}")
    elif log.outcome == "step_limit_exceeded":
        if log.total_steps != cfg.resolved_step_limit:
            problems.append(f"step limit outcome after {log.total_steps} steps")
    else:
        problems.append(f"unknown outcome {log.outcome!r}")
    for (x0, y0), (x1, y1) in zip(traj, traj[1:]):
        if abs(x1 - x0) + abs(y1 - y0) != 1:
            problems.append(f"non-unit move {(x0, y0)} -> {(x1, y1)}")
            break
    if cfg.variant.convergence == "none" and log.switch_step is not None:
        problems.append("a variant without convergence switched")
    if not 0.0 < log.final_coverage <= 100.0:
        problems.append(f"final coverage {log.final_coverage}")
    return problems


def check_logs(logs, pinned=None) -> tuple:
    """Gate a round: (digests, {episode key: [problems]}).

    ``pinned`` is the list of expected digests of this round in suite
    order, or None when the seed has no pinned digests.
    """
    digests = [episode_digest(log) for log in logs]
    failures = {}
    for i, log in enumerate(logs):
        problems = log_problems(log)
        if pinned is not None and (i >= len(pinned) or pinned[i] != digests[i]):
            problems.append("digest differs from the pinned digest")
        if problems:
            failures[episode_key(log)] = problems
    if pinned is not None and len(pinned) != len(logs):
        failures["<round>"] = [f"{len(logs)} episodes, {len(pinned)} pinned"]
    return digests, failures
