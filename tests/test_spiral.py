import hashlib
import random
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mazeswitch.grid import (
    OPEN,
    UNKNOWN,
    WALL,
    KnowledgeMap,
    MazeGrid,
    coverage_percent,
    generate_maze,
    manhattan,
    nearest_path,
)
from mazeswitch import spiral
from mazeswitch.episode import encode_moves
from mazeswitch.spiral import SpiralStuck, spiral_next, spiral_route, spiral_walk, walker_counts
from conftest import (
    bfs_distance,
    bfs_reachable,
    reference_escape_path,
    decode_moves,
    ReferenceWalker,
    reference_spiral_next,
    sealed_pocket_grid,
    walker_locals,
)

DATA = Path(__file__).parent / "data"


def walk(maze, steps, sample_stride=1):
    """Drive the spiral and return (trajectory as (x, y) cells, the walk, knowledge)."""
    knowledge = KnowledgeMap(maze.n, sample_stride)
    start = knowledge.index(0, 0)
    knowledge.arrive(maze, start)
    walker = spiral_walk(maze, knowledge, bytearray())
    trajectory = [start]
    for _ in range(steps):
        trajectory.append(spiral_next(walker))
    return list(map(knowledge.cell, trajectory)), walker, knowledge


def cell_layer(n, cell):
    """Ring of ``cell``: its distance to the nearest border (reference)."""
    x, y = cell
    return min(x, y, n - 1 - x, n - 1 - y)


class TestRingGeometry:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40))
    def test_rings_partition_grid(self, n):
        route, rank, ring = spiral_route(n)
        cells = list(map(KnowledgeMap(n).cell, route))
        assert sorted(cells) == [(x, y) for x in range(n) for y in range(n)]
        assert [rank[i] for i in route] == list(range(n * n))
        layers = [cell_layer(n, cell) for cell in cells]
        assert [ring[i] for i in route] == layers
        assert layers == sorted(layers)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40))
    def test_consecutive_ring_cells_adjacent(self, n):
        cells = list(map(KnowledgeMap(n).cell, spiral_route(n)[0]))
        for a, b in zip(cells, cells[1:]):
            assert manhattan(a, b) == 1

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_ring_cell_index_round_trip(self, n):
        # Each ring starts at its top-left corner and turns clockwise at
        # the other three corners.
        route, rank, _ = spiral_route(n)
        k = KnowledgeMap(n)
        for layer in range(n // 2):
            first, far, seg = rank[k.index(layer, layer)], n - 1 - layer, n - 1 - 2 * layer
            corners = [(layer, layer), (layer, far), (far, far), (far, layer)]
            assert [k.cell(route[first + i * seg]) for i in range(4)] == corners
            ring = route[first : first + 4 * seg]
            assert all(cell_layer(n, k.cell(c)) == layer for c in ring)


class TestOpenGridSpiral:
    def test_golden_4x4_trace(self, open_grid):
        golden = decode_moves((DATA / "spiral_open4x4.txt").read_text().strip())
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

    @pytest.mark.parametrize("n", [4, 8])
    def test_one_search_past_the_end_of_the_route(self, n, open_grid, monkeypatch):
        # The cursor runs off the route with every cell visited: the
        # first mop-up search finds nothing, and the walker never searches
        # again while it wall-follows over visited cells.
        results = []

        def counting_search(*args):
            results.append(nearest_path(*args))
            return results[-1]

        monkeypatch.setattr(spiral, "nearest_path", counting_search)
        _, walker, knowledge = walk(open_grid(n), 3 * n * n)
        assert results == [None]
        assert walker_locals(walker)["exhausted"] and knowledge.visited_count == n * n


class TestRecordVisit:
    def test_full_memory_keeps_every_first_visit(self):
        k = KnowledgeMap(16)
        for i in range(10):
            k.record(k.index(0, i))
        assert len(k.sampled_history) == 10
        assert k.visited_count == 10

    def test_sentinel_stride_subsamples_history(self):
        k = KnowledgeMap(16, sample_stride=4)
        for i in range(10):
            k.record(k.index(0, i))
        assert k.visited_count == 10
        assert list(map(k.cell, k.sampled_history)) == [(0, 0), (0, 4), (0, 8)]

    def test_revisit_changes_nothing(self):
        k = KnowledgeMap(16)
        assert k.record(k.index(0, 0))
        assert not k.record(k.index(0, 0))
        assert k.visited_count == 1
        assert list(map(k.cell, k.sampled_history)) == [(0, 0)]


class TestMazeSpiral:
    def test_reaches_all_reachable_cells_16_seed1(self):
        maze = generate_maze(16, 1)
        reachable = bfs_reachable(maze)
        knowledge = KnowledgeMap(maze.n)
        knowledge.arrive(maze, knowledge.index(0, 0))
        walker = spiral_walk(maze, knowledge, bytearray())
        for _ in range(4 * 16 * 16):
            if knowledge.visited_count == len(reachable):
                break
            spiral_next(walker)
        assert knowledge.visited_count == len(reachable)
        assert all(knowledge.visited_mask[knowledge.index(*cell)] for cell in reachable)

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
        knowledge.arrive(maze, knowledge.index(0, 0))
        walker = spiral_walk(maze, knowledge, bytearray())
        last = coverage_percent(knowledge)
        for _ in range(400):
            spiral_next(walker)
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
        knowledge.record(knowledge.index(0, 0))
        with pytest.raises(SpiralStuck):
            spiral_next(spiral_walk(maze, knowledge, bytearray()))

    @pytest.mark.parametrize(
        "map_n, replay, error, message",
        [
            (8, None, SpiralStuck, r"no passable neighbour known at \(0, 0\)"),
            (8, bytes([2]), ValueError, "cannot visit off-grid index"),  # west of (0, 0)
            (16, None, ValueError, "sensing a size 8 maze into a size 16 map"),
        ],
        ids=["stuck", "off-grid", "size"],
    )
    def test_a_walk_that_raised_has_ended(self, map_n, replay, error, message):
        # Every raise ends the walk: the next call raises StopIteration,
        # and neither call writes a code or changes the map. Only a
        # hand-built record leads off the grid, so the off-grid case
        # replays one move west from (0, 0). The size case walks the
        # 8 x 8 pocket on a map of size 16.
        maze = sealed_pocket_grid()
        knowledge = KnowledgeMap(map_n)
        codes = bytearray()
        walker = spiral_walk(maze, knowledge, codes, replay)
        knowledge.record(knowledge.index(0, 0))
        known, visited = bytes(knowledge.known), bytes(knowledge.visited_mask)
        with pytest.raises(error, match=message):
            spiral_next(walker)
        with pytest.raises(StopIteration):
            spiral_next(walker)
        assert codes == b"" and knowledge.visited_count == 1
        assert knowledge.known == known and knowledge.visited_mask == visited


MAZE_SIZES = st.integers(4, 32).map(lambda half: 2 * half)
SEEDS = st.integers(-(2**63), 2**64 - 1)


class TestPastFullCoverage:
    """The walker keeps moving after the target, through its mop-up branches.

    Golden records stop at the target, so these pins are what hold the
    mop-up walk: a sha256 of the move string of ``2 * n * n`` steps.
    (8, 1), (16, 0) and (32, 5) each have one detour breakout that finds
    no unvisited cell left; (10, 1) and (16, 2) reach mop-up by running
    off the route; (16, 4) is still detouring and escaping at the end.
    """

    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (8, 1, "49905f17ec3714993df7f51784b374e9012284f16903d7c6c673cd178113059a"),
            (10, 1, "8ef30f4de79b26fe2be317119c1d5eb0d160ede03f89c69219c5cd98be36778c"),
            (16, 0, "5e626480d23864163920e7f62014124bcd095eebe72e7749ea8741ba50d29a4a"),
            (16, 2, "2907200de5615101ecaf54a8dfe2c18e425fed2c4777aa456e09981dc2f83b7a"),
            (16, 4, "ebe2916c81280f9143be760d04ab54576ed2b67651d49747d194448c97e60feb"),
            (32, 5, "7d2580f97cd5af105e46370d812af32d34ec1e033215668315a98651981815ca"),
        ],
    )
    def test_move_string_digest(self, n, seed, digest):
        trajectory, _, _ = walk(generate_maze(n, seed), 2 * n * n)
        assert hashlib.sha256(encode_moves(trajectory).encode()).hexdigest() == digest

    # Past full coverage every mop-up step is a search of the whole map,
    # so the sizes stay small.
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 12).map(lambda half: 2 * half), seed=SEEDS)
    def test_cursor_stays_on_the_route(self, n, seed):
        maze = generate_maze(n, seed)
        end = len(spiral_route(n)[0])
        knowledge = KnowledgeMap(n)
        knowledge.arrive(maze, knowledge.index(0, 0))
        new = spiral_walk(maze, knowledge, bytearray())
        for step in range(2 * n * n):
            spiral_next(new)
            walker = walker_locals(new)
            assert 1 <= walker["next_k"] <= end, step
            if walker["seen"] is not None:
                assert walker["next_k"] < end and not walker["escape"], step


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
        at = knowledge.index
        free, visited = {(0, 0)}, {(0, 0)}
        knowledge.note(at(0, 0), OPEN)
        knowledge.record(at(0, 0))
        for x in range(n):
            for y in range(n):
                if (x, y) == (0, 0) or rng.random() >= known_share:
                    continue
                if maze.walls[x][y]:
                    knowledge.note(at(x, y), WALL)
                    continue
                knowledge.note(at(x, y), OPEN)
                free.add((x, y))
                if rng.random() < visited_share:
                    knowledge.record(at(x, y))
                    visited.add((x, y))
        for pos in rng.sample(sorted(visited), min(len(visited), 40)):
            path = nearest_path(
                knowledge.known, knowledge.stride, at(*pos), knowledge.visited_mask
            )
            expected = reference_escape_path(pos, free, visited)
            assert (None if path is None else list(map(knowledge.cell, path))) == expected, pos

    @pytest.mark.parametrize("n, seed", [(8, 0), (16, 1), (32, 2), (64, 3)])
    def test_nearest_path_matches_references(self, n, seed):
        # One search serves both callers: the carver's connectivity check
        # (one unreached goal) and the walker's escape (unvisited cells).
        maze = generate_maze(n, seed)
        reachable = bfs_reachable(maze)
        at = maze.layout.index  # one geometry for the maze and the map
        start = at(0, 0)
        for cell in [(x, y) for x in range(n) for y in range(n)][::11]:
            goal = bytearray([1]) * len(maze.cells)
            goal[at(*cell)] = 0
            path = nearest_path(maze.cells, maze.layout.stride, start, goal)
            assert (path is not None) == (cell in reachable), cell
            if path is not None:
                assert len(path) == bfs_distance(maze, (0, 0), cell), cell
        visited = {cell for cell in reachable if (cell[0] + 3 * cell[1]) % 7}
        knowledge = KnowledgeMap(n)
        for cell in reachable:
            knowledge.note(at(*cell), OPEN)
        for cell in visited:
            knowledge.record(at(*cell))
        for pos in sorted(visited)[::5]:
            path = nearest_path(
                knowledge.known, knowledge.stride, knowledge.index(*pos), knowledge.visited_mask
            )
            cells = None if path is None else [knowledge.cell(i) for i in path]
            assert cells == reference_escape_path(pos, reachable, visited), pos

    @settings(max_examples=25, deadline=None)
    @given(n=MAZE_SIZES, seed=SEEDS, steps=st.integers(1, 3000))
    def test_walker_knows_its_neighbours_before_each_move(self, n, seed, steps):
        maze = generate_maze(n, seed)
        knowledge = KnowledgeMap(n)
        pos = knowledge.index(0, 0)
        knowledge.arrive(maze, pos)
        walker = spiral_walk(maze, knowledge, bytearray())
        for _ in range(min(steps, 2 * n * n)):
            x, y = knowledge.cell(pos)
            assert not maze.walls[x][y]
            for cell in ((x, y), (x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
                if 0 <= cell[0] < n and 0 <= cell[1] < n:
                    fact = knowledge.known[knowledge.index(*cell)]
                    assert fact != UNKNOWN, ((x, y), cell)
                    assert fact == (WALL if maze.walls[cell[0]][cell[1]] else OPEN), ((x, y), cell)
            pos = spiral_next(walker)


@st.composite
def walker_mazes(draw):
    """Generated mazes, random-wall grids (some targets unreachable), open grids, the pocket."""
    kind = draw(st.sampled_from(("generated", "random walls", "open", "sealed pocket")))
    if kind == "generated":
        return generate_maze(draw(st.integers(4, 16).map(lambda half: 2 * half)), draw(SEEDS))
    if kind == "sealed pocket":
        return sealed_pocket_grid()
    n = draw(st.integers(4, 24))
    density = draw(st.floats(0.0, 0.4)) if kind == "random walls" else 0.0
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    walls = [[rng.random() < density for _ in range(n)] for _ in range(n)]
    walls[0][0] = walls[n // 2][n // 2] = False
    return MazeGrid(n=n, walls=walls, seed=0)


def take_step(step, *args):
    """The walker's new position, ``step(*args)``, or the message of its SpiralStuck."""
    try:
        return step(*args)
    except SpiralStuck as exc:
        return str(exc)


class TestMatchesReferenceWalker:
    @settings(max_examples=60, deadline=None)
    @given(maze=walker_mazes(), budget=st.floats(0.0, 1.0), sample_stride=st.sampled_from((1, 4)))
    def test_lockstep_with_reference(self, maze, budget, sample_stride):
        # Each step is compared in full: the walker's state in its frame,
        # its detour (a set exactly while the reference is detouring), its
        # map, and its counts, which the reference keeps step by step. Its
        # heading is the move it just made, on every branch: ``run_episode``
        # records that heading as the step's letter.
        n = maze.n
        new_map, ref_map = KnowledgeMap(n, sample_stride), KnowledgeMap(n, sample_stride)
        start = new_map.index(0, 0)
        new_map.arrive(maze, start)
        ref_map.arrive(maze, start)
        codes = bytearray()
        new, ref = spiral_walk(maze, new_map, codes), ReferenceWalker(start)
        before = start
        for step in range(round(budget * 4 * n * n)):
            got = take_step(spiral_next, new)
            assert got == take_step(reference_spiral_next, ref, maze, ref_map), step
            if isinstance(got, str):
                break
            walker = walker_locals(new)
            assert new_map.offsets[walker["heading"]] == got - before, step
            assert (walker["pos"], walker["heading"]) == (ref.pos, ref.heading), step
            assert walker["next_k"] == ref.next_k, step
            assert walker["escape"] == ref.escape_path, step
            assert (walker["seen"] is not None) == ref.detouring, step
            if ref.detouring:
                assert walker["stale"] == ref.detour_stale, step
                assert walker["seen"] == ref.detour_seen, step
            assert new_map.known == ref_map.known, step
            assert new_map.visited_mask == ref_map.visited_mask, step
            assert new_map.visited_count == ref_map.visited_count, step
            assert new_map.sampled_history == ref_map.sampled_history, step
            assert walker_counts(codes) == ref.counts, step
            if walker["exhausted"]:  # no search of the reference could find fresh ground
                assert ref.next_k == len(spiral_route(n)[0]) and not ref.escape_path, step
                known, stride, visited = ref_map.known, ref_map.stride, ref_map.visited_mask
                assert nearest_path(known, stride, ref.pos, visited) is None, step
            before = got

    @pytest.mark.parametrize("sample_stride", (1, 4))
    def test_lockstep_with_reference_at_128(self, sample_stride):
        # The property above reaches size 32 at most; this walks the
        # first thousands of steps of a 128 maze and compares, after each
        # step, everything a first visit writes into the map, the heading
        # with the move just made, and the walker's state in its frame.
        maze = generate_maze(128, 0)
        new_map, ref_map = KnowledgeMap(128, sample_stride), KnowledgeMap(128, sample_stride)
        start = new_map.index(0, 0)
        new_map.arrive(maze, start)
        ref_map.arrive(maze, start)
        codes = bytearray()
        new, ref = spiral_walk(maze, new_map, codes), ReferenceWalker(start)
        before, escape_path = start, None
        for step in range(4000):
            assert spiral_next(new) == reference_spiral_next(ref, maze, ref_map), step
            walker = walker_locals(new)
            assert new_map.offsets[walker["heading"]] == walker["pos"] - before, step
            assert new_map.known == ref_map.known, step
            assert new_map.visited_mask == ref_map.visited_mask, step
            assert new_map.visited_count == ref_map.visited_count, step
            assert new_map.sampled_history == ref_map.sampled_history, step
            assert walker["next_k"] == ref.next_k, step
            if escape_path is None:  # the one deque of the walk, extended and emptied in place
                escape_path = walker["escape"]
            assert walker["escape"] is escape_path and escape_path == ref.escape_path, step
            assert (walker["seen"] is None) == (not ref.detouring), step
            if ref.detouring:
                assert walker["stale"] == ref.detour_stale, step
            assert walker_counts(codes) == ref.counts, step
            before = walker["pos"]
        counts = walker_counts(codes)
        assert counts == ref.counts
        assert counts["ring"] and counts["detour"] and counts["escape"], counts


class TestReplay:
    @staticmethod
    def record(maze, steps, sample_stride):
        """The codes of a walk of ``steps`` steps from (0, 0), or None if it raised."""
        recorder_map = KnowledgeMap(maze.n, sample_stride)
        recorder_map.arrive(maze, recorder_map.index(0, 0))
        codes = bytearray()
        recorder = spiral_walk(maze, recorder_map, codes)
        for _ in range(steps):
            if isinstance(take_step(spiral_next, recorder), str):
                return None  # a sealed pocket: a walk that raised has nothing to replay
        return bytes(codes)

    @settings(max_examples=60, deadline=None)
    @given(
        maze=walker_mazes(),
        budget=st.floats(0.0, 1.0),
        cut=st.floats(0.0, 1.0),
        sample_stride=st.sampled_from((1, 4)),
    )
    def test_a_replayed_walk_is_the_walk(self, maze, budget, cut, sample_stride):
        # A whole walk records ``steps`` steps; a fresh walk replays its
        # first ``cut`` of them. Step by step it moves as the reference
        # does and writes the same codes and map, and the locals that
        # only a live walk changes keep their start values.
        n = maze.n
        steps = round(budget * 4 * n * n)
        record = self.record(maze, steps, sample_stride)
        if record is None:
            return
        new_map, ref_map = KnowledgeMap(n, sample_stride), KnowledgeMap(n, sample_stride)
        start = new_map.index(0, 0)
        new_map.arrive(maze, start)
        ref_map.arrive(maze, start)
        codes = bytearray()
        new, ref = spiral_walk(maze, new_map, codes, record), ReferenceWalker(start)
        for step in range(round(cut * steps)):
            got = spiral_next(new)
            assert got == reference_spiral_next(ref, maze, ref_map), step
            walker = walker_locals(new)
            assert (walker["pos"], walker["heading"]) == (ref.pos, ref.heading), step
            assert new_map.known == ref_map.known, step
            assert new_map.visited_mask == ref_map.visited_mask, step
            assert new_map.sampled_history == ref_map.sampled_history, step
            assert walker_counts(codes) == ref.counts, step
            assert codes[step] == record[step], step
            assert (walker["next_k"], walker["seen"], walker["escape"]) == (1, None, deque()), step
            assert (walker["stale"], walker["exhausted"]) == (0, False), step

    def test_a_step_past_the_record_raises_instead_of_walking_on(self):
        maze = generate_maze(32, 0)
        record = self.record(maze, 200, 1)
        knowledge = KnowledgeMap(32)
        knowledge.arrive(maze, knowledge.index(0, 0))
        codes = bytearray()
        new = spiral_walk(maze, knowledge, codes, record)
        for _ in record:
            pos = spiral_next(new)
        visited, known = knowledge.visited_count, bytes(knowledge.known)
        with pytest.raises(IndexError) as raised:
            spiral_next(new)
        walker = raised.traceback[-1]  # the walk's frame, as the raise left it
        assert codes == record and walker.name == "spiral_walk" and walker.locals["pos"] == pos
        assert knowledge.visited_count == visited and knowledge.known == known
        with pytest.raises(StopIteration):  # the walk has ended and does not restart
            spiral_next(new)
        assert codes == record and knowledge.visited_count == visited


class TestMapSize:
    @pytest.mark.parametrize("maze_n, map_n", ((16, 32), (32, 16)))
    def test_a_map_of_another_size_fails_on_the_first_step(self, maze_n, map_n):
        maze = generate_maze(maze_n, 0)
        knowledge = KnowledgeMap(map_n)
        codes = bytearray()
        walker = spiral_walk(maze, knowledge, codes)
        known = bytes(knowledge.known)
        message = f"sensing a size {maze_n} maze into a size {map_n} map"
        with pytest.raises(ValueError, match=message):
            spiral_next(walker)
        with pytest.raises(StopIteration):  # the raise ended the walk
            spiral_next(walker)
        assert codes == b"" and knowledge.known == known
        assert knowledge.visited_count == 0
