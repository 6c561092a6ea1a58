"""End-to-end acceptance gate.

Each test exercises one published criterion of the benchmark and reports
a pass/fail line in the terminal summary. The two suite fixtures run the
full experiment matrix once per session at the small and medium sizes;
everything else reuses their episode logs.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mazeswitch.bench import SuiteConfig, run_suite
from mazeswitch.episode import SUCCESS, VARIANTS, EpisodeConfig, record_to_json, run_episode
from mazeswitch.grid import WALL, KnowledgeMap, generate_maze
from mazeswitch.pathfind import astar_plan
from mazeswitch.qlearn import (
    N_ACTIONS,
    N_STATES,
    POTENTIAL_OFFSET,
    QTable,
    THRESHOLDS,
    q_update,
    select_action,
    switching_component,
    terminal_reward,
)
from mazeswitch.rng import SplitMix64
from conftest import bfs_distance, record_acceptance

BASE_SEED = 0
SMALL_CONFIG = SuiteConfig(sizes=(16, 32), mazes_per_size=10, base_seed=BASE_SEED)
MEDIUM_CONFIG = SuiteConfig(sizes=(64,), mazes_per_size=10, base_seed=BASE_SEED)


@pytest.fixture(scope="module")
def small_suite():
    started = time.perf_counter()
    report, logs = run_suite(SMALL_CONFIG)
    return report, logs, time.perf_counter() - started


@pytest.fixture(scope="module")
def medium_suite():
    started = time.perf_counter()
    report, logs = run_suite(MEDIUM_CONFIG)
    return report, logs, time.perf_counter() - started


def test_criterion_1_mean_step_ordering(small_suite):
    report, _, elapsed = small_suite
    checks = []
    for base in ("spiral", "sentinel"):
        for n in (16, 32):
            none = report.row(n, base).mean_steps
            fixed = report.row(n, f"{base}_conv").mean_steps
            learned = report.row(n, f"{base}_rl").mean_steps
            checks.append(learned <= fixed <= none)
            bound = 0.90 if n == 16 else 0.85
            checks.append(learned <= bound * none)
    ratio16 = report.row(16, "spiral_rl").mean_steps / report.row(16, "spiral").mean_steps
    ratio32 = report.row(32, "spiral_rl").mean_steps / report.row(32, "spiral").mean_steps
    ok = all(checks) and elapsed < 60.0
    record_acceptance(
        1,
        ok,
        f"learned<=fixed<=none, rl/none {ratio16:.3f}<=0.90 @16, "
        f"{ratio32:.3f}<=0.85 @32, suite {elapsed:.1f}s < 60s",
    )
    assert ok


def test_criterion_2_ablation_shape(medium_suite):
    report, _, elapsed = medium_suite
    none = report.row(64, "spiral").mean_steps
    fixed = report.row(64, "spiral_conv").mean_steps
    learned = report.row(64, "spiral_rl").mean_steps
    improvement = 1.0 - learned / none
    ok = (fixed < none) and (learned < fixed) and improvement >= 0.30 and elapsed < 600.0
    record_acceptance(
        2,
        ok,
        f"64x64 means none={none:.0f} > fixed={fixed:.0f} > rl={learned:.0f}, "
        f"rl improvement {improvement:.1%} >= 30%, suite {elapsed:.1f}s < 600s",
    )
    assert ok


def test_criterion_3_variance_reduction(medium_suite):
    report, _, _ = medium_suite
    none = report.row(64, "spiral")
    learned = report.row(64, "spiral_rl")
    range_none = none.max_steps - none.min_steps
    range_learned = learned.max_steps - learned.min_steps
    ok = range_learned <= 0.5 * range_none
    record_acceptance(
        3,
        ok,
        f"64x64 step range rl={range_learned} <= 0.5 x none={range_none}",
    )
    assert ok


def test_criterion_4_all_variants_succeed(small_suite):
    _, logs, _ = small_suite
    failures = [
        (log.config.n, log.config.maze_seed, log.config.variant.name)
        for log in logs
        if log.outcome != SUCCESS
    ]
    limits_ok = all(
        log.config.step_limit == 4 * log.config.n * log.config.n for log in logs
    )
    ok = not failures and limits_ok and len(logs) == 2 * 10 * 6
    record_acceptance(
        4,
        ok,
        f"{len(logs)} episodes at 16/32, all succeed within 4n^2 (failures: {failures})",
    )
    assert ok


def test_criterion_5_spiral_sentinel_parity(small_suite, medium_suite):
    _, small_logs, _ = small_suite
    _, medium_logs, _ = medium_suite
    logs = small_logs + medium_logs
    by_key = {
        (log.config.n, log.config.maze_seed, log.config.variant.name): log for log in logs
    }
    mismatches = 0
    pairs = 0
    for (n, seed, vname), log in by_key.items():
        if not vname.startswith("spiral"):
            continue
        twin = by_key[(n, seed, vname.replace("spiral", "sentinel"))]
        pairs += 1
        if log.trajectory != twin.trajectory:
            mismatches += 1
    ok = pairs == 90 and mismatches == 0
    record_acceptance(
        5, ok, f"{pairs} spiral/sentinel pairs at 16/32/64, {mismatches} trajectory mismatches"
    )
    assert ok


def test_criterion_6_astar_matches_bfs_oracle():
    mismatches = []
    for n in (16, 32):
        for seed in range(BASE_SEED, BASE_SEED + 25):
            maze = generate_maze(n, seed)
            knowledge = KnowledgeMap(n)
            for x in range(n):
                for y in range(n):
                    if maze.walls[x][y]:
                        knowledge.note(knowledge.index(x, y), WALL)
            at = knowledge.index
            plan = astar_plan(at(0, 0), at(*maze.target), knowledge)
            oracle = bfs_distance(maze, (0, 0), maze.target)
            if plan is None or plan.cost != oracle:
                mismatches.append((n, seed))
    ok = not mismatches
    record_acceptance(
        6, ok, f"full-knowledge A* == BFS length on 50 mazes (mismatches: {mismatches})"
    )
    assert ok


def test_criterion_7_reward_arithmetic():
    cases_ok = (
        terminal_reward(512, 1024, 50.0, 40.0).total == 50.0
        and terminal_reward(1024, 1024, 20.0, 15.0).total == 1.0
        and terminal_reward(0, 1024, 0.0, None).total == 50.0
    )
    regions_ok = (
        switching_component(10.0) == -5.0
        and switching_component(19.999) == -5.0
        and switching_component(20.0) == 0.0
        and switching_component(25.0) == 0.0
        and switching_component(30.0) == 10.0
        and switching_component(40.0) == 10.0
        and switching_component(50.0) == 10.0
        and switching_component(55.0) == 0.0
        and switching_component(60.0) == 0.0
        and switching_component(75.0) == -5.0
    )
    ok = cases_ok and regions_ok
    record_acceptance(7, ok, "terminal reward tabulated cases and all five timing regions")
    assert ok


def test_criterion_8_telescoping(small_suite, medium_suite):
    _, small_logs, _ = small_suite
    _, medium_logs, _ = medium_suite
    logs = [l for l in small_logs + medium_logs if l.terminal_reward is not None]
    # Top up with independently seeded episodes to reach 100.
    picker = SplitMix64(2024)
    while len(logs) < 100:
        logs.append(
            run_episode(
                EpisodeConfig(
                    n=16,
                    maze_seed=picker.randbelow(10_000),
                    variant=VARIANTS["spiral_rl"],
                    rl_seed=picker.next_u64(),
                )
            )
        )
    worst = 0.0
    for log in logs[:100]:
        total = (
            sum(d.reward for d in log.decisions)
            + log.terminal_decision_reward
            + POTENTIAL_OFFSET
        )
        worst = max(worst, abs(total - log.terminal_reward.total))
    ok = worst <= 1e-9
    record_acceptance(
        8, ok, f"decision rewards reconstruct terminal total on 100 episodes, worst {worst:.2e}"
    )
    assert ok


def test_criterion_9_qtable_contract(small_suite, medium_suite):
    _, small_logs, _ = small_suite
    _, medium_logs, _ = medium_suite
    shapes_ok = True
    finite_ok = True
    for log in small_logs + medium_logs:
        if log.q_values is None:
            continue
        arr = np.array(log.q_values)
        shapes_ok &= arr.shape == (N_STATES, N_ACTIONS) == (50, 5)
        finite_ok &= bool(np.isfinite(arr).all())
    locality_ok = True
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = QTable(rng_seed=0)
        q.values = rng.normal(size=(N_STATES, N_ACTIONS)).tolist()
        before = np.array(q.values)
        s = int(rng.integers(10)) * 5 + int(rng.integers(5))
        a = THRESHOLDS[int(rng.integers(5))]
        q_update(q, s, a, float(rng.normal()), 0)
        locality_ok &= int((np.array(q.values) != before).sum()) <= 1
    ok = shapes_ok and finite_ok and locality_ok
    record_acceptance(
        9, ok, "50x5 tables, single-cell updates, all values finite after suite runs"
    )
    assert ok


def test_criterion_10_determinism(small_suite):
    _, first_logs, _ = small_suite
    subset = SuiteConfig(sizes=(16,), mazes_per_size=10, base_seed=BASE_SEED)
    serial = run_suite(replace(subset, jobs=1))[1]
    parallel = run_suite(replace(subset, jobs=3))[1]
    first16 = [l for l in first_logs if l.config.n == 16]
    as_bytes = lambda logs: [record_to_json(l) for l in logs]
    ok = as_bytes(serial) == as_bytes(parallel) == as_bytes(first16)
    record_acceptance(
        10, ok, "byte-identical records across reruns and worker counts (jobs 1 vs 3)"
    )
    assert ok


def test_criterion_11_epsilon_greedy_statistics():
    q = QTable(rng_seed=31337, epsilon=1.0)
    counts = {t: 0 for t in THRESHOLDS}
    for _ in range(10_000):
        counts[select_action(q, 0)] += 1
    uniform_ok = all(abs(counts[t] - 2000) <= 150 for t in THRESHOLDS)

    rng = np.random.default_rng(11)
    greedy = QTable(rng_seed=1, epsilon=0.0)
    argmax_ok = True
    for _ in range(1000):
        table = np.round(rng.normal(size=(N_STATES, N_ACTIONS)), 1)
        greedy.values = table.tolist()
        s = int(rng.integers(10)) * 5 + int(rng.integers(5))
        row = table[s]
        expected = THRESHOLDS[min(i for i in range(N_ACTIONS) if row[i] == row.max())]
        argmax_ok &= select_action(greedy, s) == expected
    ok = uniform_ok and argmax_ok
    record_acceptance(
        11,
        ok,
        f"eps=1 frequencies {sorted(counts.values())} within 2000+-150; "
        "eps=0 lowest-threshold argmax on 1000 random tables",
    )
    assert ok
