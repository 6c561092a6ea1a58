"""Episode, record and text-format properties over random mazes and seeds.

Each property draws an even size in [8, 32] (the record codec's in
[8, 64]) and any 64-bit maze seed, negative ones included, so it reaches
layouts the fixed-seed tests never see. Every record must equal the one
``conftest.reference_episode`` writes, over every variant, odd decision
periods and short step limits, and also with the target walled in, and
its phase step counters must add up to its steps. The text round trip
also runs over hand-built grids of any size in [2, 24] with random
walls.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import mazeswitch.episode as episode
from mazeswitch.episode import (
    VARIANT_ORDER,
    VARIANTS,
    EpisodeConfig,
    moves_from_record,
    record_to_json,
    run_episode,
    to_record,
)
from mazeswitch.grid import MazeGrid, from_text, generate_maze, manhattan, to_text
from mazeswitch.qlearn import POTENTIAL_OFFSET
from conftest import decode_moves, reference_episode

MAZE_SIZES = st.integers(4, 16).map(lambda half: 2 * half)
SEEDS = st.integers(-(2**63), 2**64 - 1)
SWITCHING_VARIANTS = st.sampled_from(["spiral_conv", "spiral_rl", "sentinel_rl"])


@settings(max_examples=80, deadline=None)
@given(n=MAZE_SIZES, seed=SEEDS, variant=SWITCHING_VARIANTS, rl_seed=SEEDS)
def test_episode_invariants(n, seed, variant, rl_seed):
    maze = generate_maze(n, seed)
    log = run_episode(EpisodeConfig(n=n, maze_seed=seed, variant=VARIANTS[variant], rl_seed=rl_seed))

    trajectory = log.trajectory
    assert trajectory[0] == (0, 0)
    assert len(trajectory) == log.total_steps + 1
    assert all(manhattan(a, b) == 1 for a, b in zip(trajectory, trajectory[1:]))
    assert not any(maze.walls[x][y] for x, y in trajectory)

    assert log.final_coverage == len(set(trajectory)) / (n * n) * 100.0

    if log.switch_step is not None:
        assert all(d.step <= log.switch_step for d in log.decisions)

    if VARIANTS[variant].convergence == "rl":
        total = sum(d.reward for d in log.decisions) + log.terminal_decision_reward
        assert total + POTENTIAL_OFFSET == pytest.approx(log.terminal_reward.total, abs=1e-9)
    else:
        assert log.decisions == [] and log.terminal_reward is None


@pytest.mark.parametrize("variant", VARIANT_ORDER)
@settings(max_examples=60, deadline=None)
@given(
    n=MAZE_SIZES,
    seed=SEEDS,
    rl_seed=SEEDS,
    period=st.integers(0, 40).map(lambda k: 2 * k + 1) | st.sampled_from((50, 1000)),
    limit=st.none() | st.integers(1, 600),
)
# A walk whose breakout search finds a path, and which mops up later.
@example(n=18, seed=11235574, rl_seed=0, period=1, limit=None)
def test_record_equals_the_reference_episodes(variant, n, seed, rl_seed, period, limit):
    cfg = EpisodeConfig(
        n=n,
        maze_seed=seed,
        variant=VARIANTS[variant],
        rl_seed=rl_seed,
        step_limit=limit,
        decision_period=period,
    )
    assert record_to_json(run_episode(cfg)) == record_to_json(reference_episode(cfg))


@settings(max_examples=40, deadline=None)
@given(
    n=MAZE_SIZES,
    seed=SEEDS,
    names=st.permutations(VARIANT_ORDER).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: order[:k])
    ),
    short=st.integers(1, 400),
    cut=st.lists(st.booleans(), min_size=len(VARIANT_ORDER), max_size=len(VARIANT_ORDER)),
)
def test_replayed_walks_give_the_records_of_cold_ones(n, seed, names, short, cut):
    # The first episode is a recorder with a short step limit, and each
    # episode after it takes that limit where ``cut`` says so. An episode
    # whose key, (n, maze_seed, base, step_limit), is that of the last
    # whole walk replays it; run cold, with the memo cleared before each
    # episode, every record must read the same.
    recorder = EpisodeConfig(n=n, maze_seed=seed, variant=VARIANTS[names[0]], step_limit=short)
    configs = [recorder] + [
        EpisodeConfig(
            n=n,
            maze_seed=seed,
            variant=VARIANTS[name],
            rl_seed=seed,
            step_limit=short if shortened else None,
        )
        for name, shortened in zip(names, cut)
    ]
    found = []
    walk_of = episode._walk_of

    def counting(key, maze):
        found.append(walk_of(key, maze))
        return found[-1]

    episode._WALKS.clear()
    with mock.patch.object(episode, "_walk_of", counting):
        warm_logs = [run_episode(cfg) for cfg in configs]
    warm = [record_to_json(log) for log in warm_logs]
    cold = []
    for cfg in configs:
        episode._WALKS.clear()
        cold.append(record_to_json(run_episode(cfg)))
    assert warm == cold
    # One slot, holding the last walk that ended without a switch, and
    # never filled by a replay: an episode finds it if it has its key.
    expected, whole = [], None
    for cfg, log in zip(configs, warm_logs):
        key = (cfg.variant.base, cfg.step_limit)
        expected.append(key == whole)
        if key != whole and log.switch_step is None:
            whole = key
    assert [walk is not None for walk in found] == expected


def _record_or_no_path(run, *args):
    try:
        return record_to_json(run(*args))
    except AssertionError:  # the planner found no path to the target
        return None


@settings(max_examples=40, deadline=None)
@given(
    half=st.integers(4, 8),
    seed=SEEDS,
    variant=st.sampled_from(VARIANT_ORDER),
    limit=st.none() | st.integers(1, 600),
)
def test_record_equals_the_reference_episodes_on_a_sealed_target(half, seed, variant, limit):
    # A target walled in on all four sides ends no episode: the walker
    # covers what it can reach and mops up, and a plan finds no path.
    n = 2 * half
    walls = [bytearray(row) for row in generate_maze(n, seed).walls]
    for x, y in ((half, half + 1), (half + 1, half), (half, half - 1), (half - 1, half)):
        walls[x][y] = 1
    maze = MazeGrid(n=n, walls=walls, seed=seed)
    cfg = EpisodeConfig(n=n, maze_seed=seed, variant=VARIANTS[variant], step_limit=limit)
    with mock.patch.object(episode, "generate_maze", lambda n, seed: maze):
        record = _record_or_no_path(run_episode, cfg)
    assert record == _record_or_no_path(reference_episode, cfg, maze)


@settings(max_examples=60, deadline=None)
@given(
    n=MAZE_SIZES,
    seed=SEEDS,
    variant=st.sampled_from(VARIANT_ORDER),
    limit=st.none() | st.integers(1, 600),
)
def test_phase_step_counters_add_up_to_the_steps(n, seed, variant, limit):
    cfg = EpisodeConfig(
        n=n, maze_seed=seed, variant=VARIANTS[variant], rl_seed=seed, step_limit=limit
    )
    record = to_record(run_episode(cfg))
    counters = record["counters"]
    assert min(counters.values()) >= 0  # a detour count is what the other phases leave
    phases = ("ring", "detour", "escape", "mopup", "convergence")
    moves = moves_from_record(record)
    assert sum(counters[k] for k in phases) == record["total_steps"] == len(moves)
    switch = record["switch"]
    after = 0 if switch is None else record["total_steps"] - switch["step"]
    assert counters["convergence"] == after


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 32).map(lambda half: 2 * half),
    seed=SEEDS,
    variant=st.sampled_from(sorted(VARIANTS)),
)
def test_record_move_string_decodes_to_the_trajectory(n, seed, variant):
    log = run_episode(EpisodeConfig(n=n, maze_seed=seed, variant=VARIANTS[variant], rl_seed=seed))
    moves = moves_from_record(to_record(log))
    assert len(moves) == log.total_steps
    assert decode_moves(moves) == log.trajectory


@settings(max_examples=40, deadline=None)
@given(n=MAZE_SIZES, seed=st.integers(-(2**63), -1))
def test_text_round_trip_keeps_walls_and_negative_seed(n, seed):
    maze = generate_maze(n, seed)
    loaded = from_text(to_text(maze))
    assert loaded.seed == seed
    assert loaded.walls == maze.walls


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 24), seed=SEEDS, data=st.data())
def test_text_round_trips_every_hand_built_grid(n, seed, data):
    walls = [data.draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(n)]
    walls[0][0] = walls[n // 2][n // 2] = False  # the constructor rejects a closed start or target
    maze = MazeGrid(n=n, walls=walls, seed=seed)
    text = to_text(maze)
    loaded = from_text(text)
    assert (loaded.walls, loaded.target, loaded.seed) == (maze.walls, maze.target, maze.seed)
    assert to_text(loaded) == text
