from pathlib import Path

import pytest

from mazeswitch.grid import (
    KnowledgeMap,
    coverage_percent,
    generate_maze,
    manhattan,
    trajectory_from_text,
)
from mazeswitch.spiral import (
    SENTINEL,
    SpiralState,
    SpiralStuck,
    cell_layer,
    record_visit,
    ring_cell,
    ring_index,
    ring_length,
    spiral_next,
)
from conftest import bfs_reachable, sealed_pocket_grid

DATA = Path(__file__).parent / "data"


def walk(maze, steps, memory="full", stride=4):
    """Drive the spiral and return (trajectory, state, knowledge)."""
    knowledge = KnowledgeMap()
    state = SpiralState(memory=memory, sample_stride=stride)
    record_visit(state, knowledge, (0, 0))
    knowledge.observe_surroundings(maze, (0, 0))
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
        k = KnowledgeMap()
        state = SpiralState()
        for i in range(10):
            record_visit(state, k, (0, i))
        assert len(k.sampled_history) == 10
        assert k.visited_count == 10

    def test_sentinel_stride_subsamples_history(self):
        k = KnowledgeMap()
        state = SpiralState(memory=SENTINEL, sample_stride=4)
        for i in range(10):
            record_visit(state, k, (0, i))
        assert k.visited_count == 10
        assert k.sampled_history == [(0, 0), (0, 4), (0, 8)]

    def test_revisit_changes_nothing(self):
        k = KnowledgeMap()
        state = SpiralState()
        record_visit(state, k, (0, 0))
        record_visit(state, k, (0, 0))
        assert k.visited_count == 1
        assert k.sampled_history == [(0, 0)]


class TestMazeSpiral:
    def test_reaches_all_reachable_cells_16_seed1(self):
        maze = generate_maze(16, 1)
        reachable = bfs_reachable(maze)
        knowledge = KnowledgeMap()
        state = SpiralState()
        record_visit(state, knowledge, (0, 0))
        knowledge.observe_surroundings(maze, (0, 0))
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
            assert not maze.walls[pos]

    def test_coverage_monotone(self):
        maze = generate_maze(16, 2)
        knowledge = KnowledgeMap()
        state = SpiralState()
        record_visit(state, knowledge, (0, 0))
        knowledge.observe_surroundings(maze, (0, 0))
        last = coverage_percent(knowledge, 16)
        for _ in range(400):
            spiral_next(state, maze, knowledge)
            cov = coverage_percent(knowledge, 16)
            assert cov >= last
            last = cov

    def test_spiral_and_sentinel_trajectories_identical(self):
        maze = generate_maze(16, 3)
        full, _, k_full = walk(maze, 500)
        samp, _, k_samp = walk(maze, 500, memory=SENTINEL)
        assert full == samp
        assert k_full.visited_count == k_samp.visited_count
        assert len(k_samp.sampled_history) <= len(k_full.sampled_history)

    def test_stuck_in_sealed_pocket(self):
        maze = sealed_pocket_grid()
        knowledge = KnowledgeMap()
        state = SpiralState()
        record_visit(state, knowledge, (0, 0))
        with pytest.raises(SpiralStuck):
            spiral_next(state, maze, knowledge)
