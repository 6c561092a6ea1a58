import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mazeswitch.grid import (
    OPEN,
    UNKNOWN,
    WALL,
    KnowledgeMap,
    Probe,
    coverage_percent,
    generate_maze,
    manhattan,
    trajectory_from_text,
)
from mazeswitch.spiral import (
    SpiralState,
    SpiralStuck,
    cell_layer,
    ring_cell,
    ring_index,
    ring_length,
    spiral_next,
)
from mazeswitch.spiral import _path_to_nearest_unvisited
from conftest import bfs_reachable, reference_escape_path, sealed_pocket_grid

DATA = Path(__file__).parent / "data"


def walk(maze, steps, sample_stride=1):
    """Drive the spiral and return (trajectory, state, knowledge)."""
    knowledge = KnowledgeMap(maze.n, sample_stride)
    state = SpiralState()
    knowledge.arrive(maze, (0, 0))
    trajectory = [(0, 0)]
    for _ in range(steps):
        pos, state = spiral_next(state, maze, knowledge)
        trajectory.append(pos)
    return trajectory, state, knowledge


class TestRingGeometry:
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_ring_cell_index_round_trip(self, n):
        for layer in range((n + 1) // 2):
            length = ring_length(n, layer)
            cells = [ring_cell(n, layer, i) for i in range(length)]
            assert len(set(cells)) == length
            for i, cell in enumerate(cells):
                assert cell_layer(n, cell) == layer
                assert ring_index(n, layer, cell) == i

    def test_rings_partition_grid(self):
        n = 10
        cells = {
            ring_cell(n, layer, i)
            for layer in range((n + 1) // 2)
            for i in range(ring_length(n, layer))
        }
        assert len(cells) == n * n

    def test_consecutive_ring_cells_adjacent(self):
        n = 8
        for layer in range(4):
            cells = [ring_cell(n, layer, i) for i in range(ring_length(n, layer))]
            for a, b in zip(cells, cells[1:]):
                assert manhattan(a, b) == 1


class TestOpenGridSpiral:
    def test_golden_4x4_trace(self, open_grid):
        golden = trajectory_from_text((DATA / "spiral_open4x4.txt").read_text())
        trajectory, _, _ = walk(open_grid(4), 15)
        assert trajectory == golden

    def test_first_step_goes_east(self, open_grid):
        trajectory, _, _ = walk(open_grid(8), 1)
        assert trajectory[1] == (0, 1)

    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_full_coverage_in_minimum_moves(self, n, open_grid):
        trajectory, _, knowledge = walk(open_grid(n), n * n - 1)
        assert knowledge.visited_count == n * n
        assert len(set(trajectory)) == n * n  # every cell exactly once


class TestRecordVisit:
    def test_full_memory_keeps_every_first_visit(self):
        k = KnowledgeMap(16)
        for i in range(10):
            k.record((0, i))
        assert len(k.sampled_history) == 10
        assert k.visited_count == 10

    def test_sentinel_stride_subsamples_history(self):
        k = KnowledgeMap(16, sample_stride=4)
        for i in range(10):
            k.record((0, i))
        assert k.visited_count == 10
        assert k.sampled_history == [(0, 0), (0, 4), (0, 8)]

    def test_revisit_changes_nothing(self):
        k = KnowledgeMap(16)
        assert k.record((0, 0))
        assert not k.record((0, 0))
        assert k.visited_count == 1
        assert k.sampled_history == [(0, 0)]


class TestMazeSpiral:
    def test_reaches_all_reachable_cells_16_seed1(self):
        maze = generate_maze(16, 1)
        reachable = bfs_reachable(maze)
        knowledge = KnowledgeMap(maze.n)
        state = SpiralState()
        knowledge.arrive(maze, (0, 0))
        for _ in range(4 * 16 * 16):
            if knowledge.visited == reachable:
                break
            spiral_next(state, maze, knowledge)
        assert knowledge.visited == reachable

    @pytest.mark.parametrize("seed", range(5))
    def test_no_teleporting(self, seed):
        maze = generate_maze(16, seed)
        trajectory, _, _ = walk(maze, 300)
        for a, b in zip(trajectory, trajectory[1:]):
            assert manhattan(a, b) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_never_stands_on_walls(self, seed):
        maze = generate_maze(16, seed)
        trajectory, _, _ = walk(maze, 300)
        for pos in trajectory:
            assert not maze.walls[pos[0]][pos[1]]

    def test_coverage_monotone(self):
        maze = generate_maze(16, 2)
        knowledge = KnowledgeMap(maze.n)
        state = SpiralState()
        knowledge.arrive(maze, (0, 0))
        last = coverage_percent(knowledge)
        for _ in range(400):
            spiral_next(state, maze, knowledge)
            cov = coverage_percent(knowledge)
            assert cov >= last
            last = cov

    def test_spiral_and_sentinel_trajectories_identical(self):
        maze = generate_maze(16, 3)
        full, _, k_full = walk(maze, 500)
        samp, _, k_samp = walk(maze, 500, sample_stride=4)
        assert full == samp
        assert k_full.visited_count == k_samp.visited_count
        assert len(k_samp.sampled_history) <= len(k_full.sampled_history)

    def test_stuck_in_sealed_pocket(self):
        maze = sealed_pocket_grid()
        knowledge = KnowledgeMap(maze.n)
        state = SpiralState()
        knowledge.record((0, 0))
        with pytest.raises(SpiralStuck):
            spiral_next(state, maze, knowledge)


MAZE_SIZES = st.integers(4, 32).map(lambda half: 2 * half)
SEEDS = st.integers(-(2**63), 2**64 - 1)


class TestFlatSearchesMatchReferences:
    @settings(max_examples=60, deadline=None)
    @given(
        n=MAZE_SIZES,
        seed=SEEDS,
        known_share=st.floats(0.2, 1.0),
        visited_share=st.floats(0.0, 1.0),
        pick=st.integers(0, 2**32 - 1),
    )
    def test_escape_path_matches_reference(self, n, seed, known_share, visited_share, pick):
        maze = generate_maze(n, seed)
        rng = random.Random(pick)
        knowledge = KnowledgeMap(n)
        free, visited = {(0, 0)}, {(0, 0)}
        knowledge.note((0, 0), Probe.PASSABLE)
        knowledge.record((0, 0))
        for x in range(n):
            for y in range(n):
                if (x, y) == (0, 0) or rng.random() >= known_share:
                    continue
                if maze.walls[x][y]:
                    knowledge.note((x, y), Probe.BLOCKED)
                    continue
                knowledge.note((x, y), Probe.PASSABLE)
                free.add((x, y))
                if rng.random() < visited_share:
                    knowledge.record((x, y))
                    visited.add((x, y))
        for pos in rng.sample(sorted(visited), min(len(visited), 40)):
            path = _path_to_nearest_unvisited(pos, knowledge)
            expected = reference_escape_path(pos, free, visited)
            assert (None if path is None else list(path)) == expected, pos

    @settings(max_examples=25, deadline=None)
    @given(n=MAZE_SIZES, seed=SEEDS, steps=st.integers(1, 3000))
    def test_walker_knows_its_neighbours_before_each_move(self, n, seed, steps):
        maze = generate_maze(n, seed)
        knowledge = KnowledgeMap(n)
        state = SpiralState()
        knowledge.arrive(maze, (0, 0))
        for _ in range(min(steps, 2 * n * n)):
            x, y = state.pos
            assert not maze.walls[x][y]
            for cell in ((x, y), (x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
                if 0 <= cell[0] < n and 0 <= cell[1] < n:
                    fact = knowledge.known[knowledge.index(*cell)]
                    assert fact != UNKNOWN, (state.pos, cell)
                    assert fact == (WALL if maze.walls[cell[0]][cell[1]] else OPEN), (state.pos, cell)
            spiral_next(state, maze, knowledge)
