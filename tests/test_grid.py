import bisect
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mazeswitch import grid
from mazeswitch.episode import VARIANTS, EpisodeConfig, record_to_json, run_episode
from mazeswitch.grid import (
    OPEN,
    OUTSIDE,
    UNKNOWN,
    WALL,
    KnowledgeMap,
    MazeConfigError,
    MazeFormatError,
    MazeGrid,
    cells_for_coverage,
    coverage_percent,
    from_text,
    generate_maze,
    layout,
    manhattan,
    nearest_path,
    probe,
    to_text,
)
from mazeswitch.pathfind import astar_plan, follow_plan
from mazeswitch.qlearn import THRESHOLDS
from mazeswitch.rng import MASK64, SplitMix64
from mazeswitch.spiral import spiral_next, spiral_walk
from conftest import (
    bfs_distance,
    edits,
    layout_digest,
    reference_dead_ends,
    reference_observe,
    reference_walls,
    sealed_pocket_grid,
    seed_with_output,
)

DATA = Path(__file__).parent / "data"


def padded_index(k, cell):
    """Flat index of any ``(x, y)`` in ``k``'s layout, on the grid or off it.

    An independent formula: ``Layout.index`` rejects off-grid cells.
    """
    return k.index(0, 0) + cell[0] * k.stride + cell[1]


def off_grid_indices(k):
    """Every padding index of ``k``'s layout, then indices outside it.

    Of these, ``-1`` and ``-stride`` read padding bytes, ``-(2 * stride + 2)``
    reads the last grid cell and ``len(known)`` reads nothing.
    """
    n = k.n
    padding = [i for i in range(len(k.known)) if not all(0 <= c < n for c in k.cell(i))]
    return padding + [-1, -k.stride, -(2 * k.stride + 2), len(k.known)]


class TestGenerateMaze:
    def test_start_and_target_passable_and_connected(self):
        maze = generate_maze(16, 1)
        assert not maze.walls[0][0]
        assert not maze.walls[8][8]
        assert maze.target == (8, 8)
        assert bfs_distance(maze, (0, 0), (8, 8)) is not None

    def test_same_seed_bit_identical(self):
        generate_maze.cache_clear()  # two real carves, not one memo hit
        a = generate_maze(16, 1)
        generate_maze.cache_clear()
        b = generate_maze(16, 1)
        assert layout_digest(a) == layout_digest(b)
        assert a.walls == b.walls

    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (16, 1, "ed1db7c1cd66537c932fd8a326680ccd6f6681ee50d219f497342e2cdcf9f6f1"),
            (32, 7, "fb16b2096cf9bcc9c0f7582c7504348608feda62c8fc92afd3ce82879e1b03bb"),
            (128, 0, "149508de2eb596db3ad05328500ed14232ff3db3eedcd8ecf15e1960f44bce53"),
        ],
    )
    def test_layout_hash_pinned(self, n, seed, digest):
        # sha256 of the n*n row-major wall bytes (1 = wall); must never change.
        assert layout_digest(generate_maze(n, seed)) == digest

    @pytest.mark.parametrize(
        "n, seeds, digest",
        [
            (8, 50, "18c8e13b44930a52d5dae89fece5d54d2f6c0ef824c68070fc35cea9717ff96e"),
            (10, 50, "d6f47ae8b94e3e46377c1db75ce19c0bdb0816254388c4de601d2709c90fcdf9"),
            (12, 50, "7a9b5c73723ef92fe4c64f2a12466f5a77f2586ce127a059fe52efa6ee328c64"),
            (14, 50, "873793f2e3f207a1cb6d8cb500f94b45f8329857ff11b5fe89c7c48dd5808675"),
            (18, 50, "90c1d1b347fb231f8eb040e29e21dbe3bf8c2511e28c18ecfbb5d8cd0348484a"),
            (32, 50, "6daf3b41e702bb805915edff1186425b77763f573e2e52ae520671e6c28e1314"),
            (64, 50, "e8f70042278507d037d54ef800068613c60f05b7485e1c57fc0d98d701648bc5"),
            (128, 5, "a176163474701b2095ad606f3a9dec40402bb406fde0c462524a1e2b65c24fde"),
            (256, 5, "3091b3726194a96c46ee2318f7dc9dcc4ec266ff806295f38316c83f1dbac773"),
            (512, 2, "1a5b6e6603bc0cea3a12d762e0a7609a8c79fa9611bd909b6355963bee47648c"),
        ],
    )
    def test_layout_hashes_of_seed_ranges_pinned(self, n, seeds, digest):
        # sha256 over the hex layout_digest() of seeds 0 .. seeds - 1, in order.
        # At n = 10, 14 and 18 (n % 4 == 2) the target sits off the room
        # lattice, so the open target area adds passages of its own.
        combined = hashlib.sha256()
        for seed in range(seeds):
            combined.update(layout_digest(generate_maze(n, seed)).encode())
        assert combined.hexdigest() == digest

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(4, 33), seed=st.integers(-(2**63), 2**64 - 1))
    def test_matches_the_reference_carver(self, half, seed):
        n = 2 * half
        assert generate_maze(n, seed).walls == reference_walls(n, seed)

    def test_matches_the_reference_carver_at_512(self):
        # The largest maze draws the largest blocks: 65,535 for its tree.
        assert generate_maze(512, 20261020).walls == reference_walls(512, 20261020)

    @settings(max_examples=80, deadline=None)
    @given(half=st.integers(4, 33), seed=st.integers(-(2**63), 2**64 - 1))
    def test_dead_ends_match_a_full_rescan(self, half, seed):
        # The carver takes its dead ends from the search tree's leaves;
        # the braid needs every room with one opening, in index order.
        shared = layout(2 * half)
        cells, dead_ends = grid._carve_tree(shared, SplitMix64(seed))
        assert dead_ends == reference_dead_ends(cells, shared)

    def test_a_rejected_draw_is_drawn_again(self, monkeypatch):
        # Choose a seed whose t-th output is 2**64 - 1, at a draw among
        # three rooms: randbelow(3) rejects it, so the inline draw must too.
        bounds = []
        draw = SplitMix64.randbelow
        monkeypatch.setattr(
            SplitMix64, "randbelow", lambda rng, bound: bounds.append(bound) or draw(rng, bound)
        )
        for t in range(1, 60):
            seed = seed_with_output(MASK64, t)
            bounds.clear()
            walls = reference_walls(16, seed)
            if bounds[t - 1] == 3:
                break
        else:
            pytest.fail("no draw among three rooms in the first 59")
        generate_maze.cache_clear()
        assert generate_maze(16, seed).walls == walls

    def test_lost_connectivity_raises(self, monkeypatch):
        generate_maze.cache_clear()
        monkeypatch.setattr(grid, "nearest_path", lambda *args: None)
        with pytest.raises(AssertionError, match="lost connectivity"):
            generate_maze(16, 1)

    def test_different_seeds_differ(self):
        assert layout_digest(generate_maze(16, 1)) != layout_digest(generate_maze(16, 2))

    def test_bfs_oracle_path_length_frozen(self):
        # Oracle value computed once with the BFS in conftest and frozen.
        maze = generate_maze(32, 7)
        length = bfs_distance(maze, (0, 0), (16, 16))
        assert length == 116

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_connectivity_across_seeds(self, n):
        for seed in range(15):
            maze = generate_maze(n, seed)
            assert bfs_distance(maze, (0, 0), maze.target) is not None, (n, seed)

    @pytest.mark.parametrize("n", [4, 6, 7, 15, 33])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(MazeConfigError):
            generate_maze(n, 1)

    def test_walls_immutable(self):
        maze = generate_maze(16, 1)
        with pytest.raises(TypeError):
            maze.walls[0][0] = 1


class TestMazeMemo:
    def test_repeated_call_returns_the_same_grid(self):
        generate_maze.cache_clear()
        first = generate_maze(16, 1)
        assert generate_maze(16, 1) is first
        info = generate_maze.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_one_slot_only(self):
        generate_maze.cache_clear()
        first = generate_maze(16, 1)
        generate_maze(16, 2)
        assert generate_maze.cache_info().currsize == 1
        again = generate_maze(16, 1)  # evicted, so carved again
        assert again is not first and again.walls == first.walls

    def test_shared_grid_cannot_be_changed(self):
        maze = generate_maze(16, 1)
        with pytest.raises(TypeError):
            maze.cells[maze.layout.index(0, 1)] = 1
        with pytest.raises(TypeError):
            maze.walls[0] = bytes(16)
        assert layout_digest(generate_maze(16, 1)) == layout_digest(generate_maze.__wrapped__(16, 1))

    @pytest.mark.parametrize("variant", ["spiral", "spiral_conv", "spiral_rl"])
    def test_episode_on_a_memo_hit_matches_a_fresh_carve(self, variant):
        cfg = EpisodeConfig(n=16, maze_seed=3, variant=VARIANTS[variant], rl_seed=9)
        generate_maze.cache_clear()
        fresh = record_to_json(run_episode(cfg))
        assert generate_maze.cache_info().misses == 1
        again = record_to_json(run_episode(cfg))
        assert generate_maze.cache_info().hits == 1
        assert again == fresh


class TestProbe:
    def test_out_of_bounds(self):
        maze = generate_maze(16, 1)
        k = KnowledgeMap(16)
        at = k.index
        assert probe(maze, at(0, 0), padded_index(k, (-1, 0))) == OUTSIDE
        assert probe(maze, at(0, 0), padded_index(k, (0, -1))) == OUTSIDE

    def test_passable_on_open_grid(self, open_grid):
        maze = open_grid(8)
        at = KnowledgeMap(8).index
        assert probe(maze, at(0, 0), at(0, 1)) == OPEN
        assert probe(maze, at(0, 0), at(0, 0)) == OPEN

    def test_blocked_and_stable_on_reprobe(self):
        maze = generate_maze(16, 1)
        wall = next(
            (x, y)
            for x in range(16)
            for y in range(16)
            if maze.walls[x][y] and (x > 0 and not maze.walls[x - 1][y])
        )
        at = KnowledgeMap(16).index
        frm = (wall[0] - 1, wall[1])
        assert probe(maze, at(*frm), at(*wall)) == WALL
        assert probe(maze, at(*frm), at(*wall)) == WALL

    @given(
        fx=st.integers(0, 15),
        fy=st.integers(0, 15),
        dx=st.integers(-15, 15),
        dy=st.integers(-15, 15),
    )
    def test_non_local_probe_raises(self, fx, fy, dx, dy):
        if (dx, dy) in {(0, 0), (0, 1), (1, 0), (0, -1), (-1, 0)}:
            return
        maze = generate_maze(16, 1)
        k = KnowledgeMap(16)
        with pytest.raises(ValueError):
            probe(maze, k.index(fx, fy), padded_index(k, (fx + dx, fy + dy)))


def _assert_sensor_matches_reference(maze, positions):
    k = KnowledgeMap(maze.n)
    ref = KnowledgeMap(maze.n)
    for pos in positions:
        k.observe_surroundings(maze, k.index(*pos))
        reference_observe(ref, maze, pos)
        assert k.known == ref.known


class TestSensorMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        half=st.integers(4, 32),
        seed=st.integers(-(2**63), 2**64 - 1),
        data=st.data(),
    )
    def test_generated_mazes(self, half, seed, data):
        maze = generate_maze(2 * half, seed)
        open_cells = [
            (x, y) for x in range(maze.n) for y in range(maze.n) if not maze.walls[x][y]
        ]
        positions = data.draw(st.lists(st.sampled_from(open_cells), min_size=1, max_size=40))
        _assert_sensor_matches_reference(maze, positions)

    def test_every_cell_of_hand_built_grids(self, open_grid):
        for maze in (open_grid(8), open_grid(9), sealed_pocket_grid()):
            cells = [(x, y) for x in range(maze.n) for y in range(maze.n)]
            _assert_sensor_matches_reference(maze, cells + cells[::-1])

    def test_probe_off_grid_neighbours_of_border_cells(self, open_grid):
        for maze in (open_grid(8), sealed_pocket_grid(), generate_maze(16, -5)):
            n = maze.n
            k = KnowledgeMap(n)
            border = [(x, y) for x in range(n) for y in range(n) if {x, y} & {0, n - 1}]
            for x, y in border:
                for cell in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
                    if not (0 <= cell[0] < n and 0 <= cell[1] < n):
                        found = probe(maze, k.index(x, y), padded_index(k, cell))
                        assert found == OUTSIDE

    # A position beyond the padding has no flat index, so these pairs
    # stay inside the padding: the two rows above and below the grid and
    # the column on each side.
    @pytest.mark.parametrize(
        "frm, cell",
        [
            ((-2, 2), (-2, 3)),
            ((-2, 5), (-2, 5)),
            ((2, -1), (3, -1)),
            ((9, 4), (8, 4)),
            ((9, 8), (9, 7)),
        ],
    )
    def test_probe_far_off_grid_is_out_of_bounds(self, open_grid, frm, cell):
        k = KnowledgeMap(8)
        found = probe(open_grid(8), padded_index(k, frm), padded_index(k, cell))
        assert found == OUTSIDE

    @pytest.mark.parametrize(
        "pos", [(-1, 0), (0, -1), (8, 0), (0, 8), (-1, -1), (8, 8), (-2, 5), (3, 9), (100, 3)]
    )
    def test_sensing_off_grid_raises(self, open_grid, pos):
        # Negative indices and padding indices would alias other bytes.
        maze = open_grid(8)
        k = KnowledgeMap(8)
        for i in [padded_index(k, pos)] + off_grid_indices(k):
            with pytest.raises(ValueError):
                k.observe_surroundings(maze, i)
            with pytest.raises(ValueError):
                k.arrive(maze, i)
            assert k.known == KnowledgeMap(8).known, i
            assert k.visited_mask == KnowledgeMap(8).visited_mask, i


class TestHandBuiltGrid:
    @pytest.mark.parametrize("shape", [(4, 4), (8, 9), (9, 8), (64,)])
    def test_rejects_walls_of_wrong_shape(self, shape):
        with pytest.raises(MazeConfigError):
            MazeGrid(n=8, walls=np.zeros(shape, dtype=bool), seed=0)

    @pytest.mark.parametrize("form", ["array", "lists", "bytes"])
    @pytest.mark.parametrize("value", [2, 255])
    def test_any_truthy_value_is_a_wall(self, form, value):
        walls = np.zeros((8, 8), dtype=np.uint8)
        walls[0, 1] = value
        if form == "lists":
            walls = walls.tolist()
        elif form == "bytes":
            walls = [bytes(row) for row in walls]
        maze = MazeGrid(n=8, walls=walls, seed=0)
        at = KnowledgeMap(8).index
        assert probe(maze, at(0, 0), at(0, 1)) == WALL
        assert maze.walls[0][1] == 1

    @pytest.mark.parametrize(
        "n, wall",
        [(8, (0, 0)), (8, (4, 4)), (9, (4, 4)), (1, None)],
        ids=["start", "target", "odd-size-target", "one-cell"],
    )
    def test_rejects_a_closed_start_or_target(self, n, wall):
        # The start (0, 0) and the target (n // 2, n // 2) are two open cells.
        walls = np.zeros((n, n), dtype=bool)
        if wall is not None:
            walls[wall] = True
        with pytest.raises(MazeConfigError, match="start .* target"):
            MazeGrid(n=n, walls=walls, seed=0)


class TestIntSizeAndSeed:
    """A size or a seed that is not an int (a bool is not one) is a config error."""

    @pytest.mark.parametrize(
        "n, seed",
        [(8.0, 0), (8.0, 1), (True, 0), (8, 1.0), (8, 5.5), (8, "5"), (8, True), (8, None)],
    )
    def test_rejected_by_every_constructor(self, n, seed):
        generate_maze(8, 0)  # the memo holds the int call, which must not answer this one
        with pytest.raises(MazeConfigError, match="an int"):
            generate_maze(n, seed)
        with pytest.raises(MazeConfigError, match="maze size and seed must be ints"):
            MazeGrid(n, [[0] * 8] * 8, seed)
        if type(n) is not int:
            with pytest.raises(MazeConfigError, match=r"maze size must be .* \(an int\)"):
                grid.check_maze_size(n)

    @pytest.mark.parametrize("seed", [0, 5, -1, MASK64 + 1])
    def test_a_hand_built_grid_round_trips(self, seed):
        maze = MazeGrid(8, [[0] * 8] * 8, seed)
        again = from_text(to_text(maze))
        assert (again.n, again.seed, again.walls) == (8, seed, maze.walls)


class TestMaxMazeSize:
    """Sizes above 512 are rejected before anything is carved."""

    @pytest.mark.parametrize("n", [8, 128, 256, 512])
    def test_admits_sizes_up_to_512(self, n):
        grid.check_maze_size(n)

    @pytest.mark.parametrize("n", [514, 1024, 10**9, 2**31, 2**70])
    def test_rejects_larger_sizes(self, n):
        with pytest.raises(MazeConfigError, match=r"^maze size must be even .* \(an int\), got "):
            grid.check_maze_size(n)


class TestManhattan:
    def test_identity(self):
        assert manhattan((0, 0), (0, 0)) == 0

    def test_direct(self):
        assert manhattan((0, 0), (8, 8)) == 16

    def test_hand_evaluated(self):
        assert manhattan((3, 10), (8, 8)) == 7

    @given(st.tuples(st.integers(0, 99), st.integers(0, 99)),
           st.tuples(st.integers(0, 99), st.integers(0, 99)))
    def test_symmetry_and_nonnegative(self, a, b):
        assert manhattan(a, b) == manhattan(b, a) >= 0


class TestCoveragePercent:
    def test_zero(self):
        assert coverage_percent(KnowledgeMap(16)) == 0.0

    def test_full(self):
        k = KnowledgeMap(16)
        for cell in [(x, y) for x in range(16) for y in range(16)]:
            k.record(k.index(*cell))
        assert coverage_percent(k) == 100.0

    def test_half(self):
        k = KnowledgeMap(16)
        for cell in [(i // 16, i % 16) for i in range(128)]:
            k.record(k.index(*cell))
        assert coverage_percent(k) == 50.0


class TestCellsForCoverage:
    @pytest.mark.parametrize("n", range(8, 129, 2))
    def test_least_count_reaching_each_threshold(self, n):
        # The episode's switch fires by this count, so it must be the
        # least one whose coverage, by ``coverage_percent``'s expression,
        # reaches the threshold: found here by scanning every count.
        cells = n * n
        for threshold in (*THRESHOLDS, 40.0):
            least = next(c for c in range(cells + 1) if c / cells * 100.0 >= threshold)
            assert cells_for_coverage(n, threshold) == least, threshold

    @pytest.mark.parametrize("n", [2, 3, 7, 10, 16, 45, 64])
    def test_thresholds_at_and_beside_each_coverage_value(self, n):
        # Where the ceiling of the quotient is one cell off the rounded
        # expression: at a coverage value itself and one float either side.
        cells = n * n
        covs = [c / cells * 100.0 for c in range(cells + 1)]
        assert covs == sorted(covs)
        for cov in covs:
            for threshold in (math.nextafter(cov, -math.inf), cov, math.nextafter(cov, math.inf)):
                least = bisect.bisect_left(covs, threshold)  # first count reaching it
                assert cells_for_coverage(n, threshold) == least, threshold

    @pytest.mark.parametrize("n", [2, 3, 10, 64, 100])
    def test_edges(self, n):
        assert cells_for_coverage(n, 0.0) == 0
        assert cells_for_coverage(n, 100.0) == n * n
        assert cells_for_coverage(n, 100.5) > n * n


class TestKnowledgeMap:
    def test_walls_and_free_disjoint(self):
        maze = generate_maze(16, 3)
        k = KnowledgeMap(16)
        for x in range(16):
            for y in range(16):
                if not maze.walls[x][y]:
                    k.observe_surroundings(maze, k.index(x, y))
        assert WALL in k.known
        assert all(b in (UNKNOWN, maze.cells[i]) for i, b in enumerate(k.known))

    def test_known_bytes_change_on_new_facts_only(self):
        maze = generate_maze(16, 1)
        k = KnowledgeMap(16)
        blank = bytes(k.known)
        k.observe_surroundings(maze, k.index(0, 0))
        sensed = bytes(k.known)
        assert sensed != blank
        k.observe_surroundings(maze, k.index(0, 0))
        assert k.known == sensed

    def test_first_fact_about_a_cell_stands(self):
        k = KnowledgeMap(8)
        k.note(k.index(2, 3), WALL)
        k.note(k.index(2, 3), OPEN)
        k.note(padded_index(k, (9, 3)), OUTSIDE)
        walls = [k.cell(i) for i, b in enumerate(k.known) if b == WALL]
        assert walls == [(2, 3)] and k.known.count(UNKNOWN) == 8 * 8 - 1

    @pytest.mark.parametrize("fact", [UNKNOWN, 4, -1, None, "blocked"])
    def test_note_rejects_what_is_no_fact(self, fact):
        k = KnowledgeMap(8)
        with pytest.raises(ValueError):
            k.note(k.index(2, 3), fact)
        assert k.known.count(UNKNOWN) == 8 * 8

    @pytest.mark.parametrize("cell", [(-1, 0), (0, 8), (8, 8), (3, -2)])
    def test_off_grid_cells_are_rejected(self, open_grid, cell):
        # Negative indices and padding indices would alias other bytes.
        maze = open_grid(8)
        k = KnowledgeMap(8)
        on_grid = k.index(1, 1)
        for i in [padded_index(k, cell)] + off_grid_indices(k):
            with pytest.raises(ValueError):
                k.note(i, OPEN)
            with pytest.raises(ValueError):
                k.record(i)
            with pytest.raises(ValueError):
                k.arrive(maze, i)
            with pytest.raises(ValueError):
                astar_plan(i, on_grid, k)
            with pytest.raises(ValueError):
                astar_plan(on_grid, i, k)
            if not 0 <= i < len(k.known):  # outside the layout: no byte to alias
                with pytest.raises(ValueError):
                    probe(maze, i, i)
            assert k.known == KnowledgeMap(8).known, i
            assert k.visited_mask == KnowledgeMap(8).visited_mask, i
        assert k.visited_count == 0 and not any(k.visited_mask)

    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (8, 0), (0, 8)])
    def test_index_rejects_an_off_grid_cell(self, cell):
        with pytest.raises(ValueError, match=re.escape(f"cell {cell} is off the 8x8 grid")):
            layout(8).index(*cell)

    @pytest.mark.parametrize("n", [1, 8, 16, 33])
    def test_cell_table_inverts_index(self, n):
        shared = layout(n)
        for x in range(n):
            for y in range(n):
                assert shared.cells[shared.index(x, y)] == (x, y)

    @pytest.mark.parametrize("n, seed", [(8, 0), (16, 1), (32, -3)])
    def test_maze_and_map_share_one_geometry(self, n, seed):
        maze, k = generate_maze(n, seed), KnowledgeMap(n)
        assert len(layout(n).cells) == len(maze.cells) == len(k.known)
        # By value: the layout cache holds four sizes, so identity can lapse.
        assert (maze.layout.stride, maze.layout.offsets) == (k.stride, k.offsets)
        assert k.index(1, 2) == maze.layout.index(1, 2)

    @pytest.mark.parametrize(
        "n, stride, field",
        [(8, 0, "sample_stride"), (0, 1, "n"), (-3, 1, "n"), (8, -1, "sample_stride"),
         (8, 1.5, "sample_stride"), (8.0, 1, "n"), (True, 1, "n"), (8, True, "sample_stride")],
    )
    def test_size_and_stride_must_be_positive_ints(self, n, stride, field):
        with pytest.raises(ValueError, match=f"KnowledgeMap {field} must be a positive int"):
            KnowledgeMap(n, stride)

    def test_sensing_a_maze_of_another_size_raises(self):
        k = KnowledgeMap(8)
        with pytest.raises(ValueError):
            k.observe_surroundings(generate_maze(16, 1), k.index(0, 0))


def _five_cells(k, i):
    """The occupied cell ``i`` and its E, S, W, N neighbours."""
    return [i + d for d in (0,) + k.offsets]


def _map_state(k):
    return bytes(k.known), bytes(k.visited_mask), k.visited_count, list(k.sampled_history)


class TestSensingOnce:
    """``arrive`` senses on a first visit only; a revisit learns nothing."""

    @pytest.mark.parametrize("stride", [1, 4])
    def test_revisit_returns_false_and_changes_nothing(self, stride):
        maze = generate_maze(16, 2)
        k = KnowledgeMap(16, sample_stride=stride)
        cells = [k.index(0, y) for y in range(3)] + [k.index(x, 2) for x in range(1, 4)]
        cells = [i for i in cells if maze.cells[i] == OPEN]
        for i in cells:
            assert k.arrive(maze, i) is True
        for i in cells + cells[::-1]:
            before = _map_state(k)
            assert k.arrive(maze, i) is False
            assert _map_state(k) == before, k.cell(i)

    def test_a_cell_marked_by_record_alone_counts_as_sensed(self):
        maze = generate_maze(16, 2)
        k = KnowledgeMap(16)
        i = k.index(0, 0)
        k.record(i)
        before = _map_state(k)
        assert k.arrive(maze, i) is False
        assert _map_state(k) == before
        assert all(k.known[j] in (UNKNOWN, OUTSIDE) for j in _five_cells(k, i))

    @pytest.mark.parametrize("cell", [(0, 0), (0, 5), (3, 3), (7, 7), (4, 0)])
    def test_first_visit_senses_exactly_the_five_bytes(self, open_grid, cell):
        for maze in (generate_maze(8, 11), open_grid(8), sealed_pocket_grid()):
            k = KnowledgeMap(8)
            blank = bytes(k.known)
            i = k.index(*cell)
            assert k.arrive(maze, i) is True
            changed = {j for j in range(len(blank)) if k.known[j] != blank[j]}
            on_grid = {j for j in _five_cells(k, i) if blank[j] == UNKNOWN}
            assert changed == on_grid
            assert all(k.known[j] == maze.cells[j] for j in _five_cells(k, i))

    @settings(max_examples=40, deadline=None)
    @given(
        half=st.integers(4, 16),
        seed=st.integers(-(2**63), 2**64 - 1),
        explore=st.integers(0, 1500),
    )
    def test_the_five_bytes_around_the_agent_are_always_known(self, half, seed, explore):
        # Both phases by hand, as an episode drives them: the walker for
        # ``explore`` steps, then A* with replanning to the target.
        maze = generate_maze(2 * half, seed)
        k = KnowledgeMap(maze.n)
        pos, target = k.index(0, 0), k.index(*maze.target)
        k.arrive(maze, pos)

        def check(i):
            for j in _five_cells(k, i):
                assert k.known[j] != UNKNOWN, (k.cell(i), j)
                assert k.known[j] == maze.cells[j]

        check(pos)
        walk = spiral_walk(maze, k, bytearray())
        for _ in range(explore):
            pos = spiral_next(walk)
            check(pos)
            if pos == target:
                return
        plan = None
        for _ in range(4 * maze.n * maze.n):
            if pos == target:
                return
            if plan is None:
                plan = astar_plan(pos, target, k)
            nxt = follow_plan(plan, k)
            if nxt is None:
                plan = None
                continue
            pos = nxt
            k.arrive(maze, pos)
            check(pos)
        raise AssertionError("the planner did not reach the target")


class TestNearestPath:
    """Buffer handling of the one breadth-first search."""

    def test_leaves_its_buffers_unchanged_and_accepts_bytes(self):
        maze = generate_maze(16, 4)
        at, w = maze.layout.index, maze.layout.stride
        goal = bytearray([1]) * len(maze.cells)
        goal[at(8, 8)] = 0
        reached = bytes(goal)
        from_bytes = nearest_path(maze.cells, w, at(0, 0), goal)
        assert isinstance(maze.cells, bytes) and from_bytes
        cells = bytearray(maze.cells)
        assert nearest_path(cells, w, at(0, 0), goal) == from_bytes
        assert cells == maze.cells and goal == reached
        k = KnowledgeMap(16)
        k.arrive(maze, at(0, 0))
        known, visited = bytes(k.known), bytes(k.visited_mask)
        path = nearest_path(k.known, k.stride, at(0, 0), k.visited_mask)
        assert path and k.known == known and k.visited_mask == visited

    def test_an_unreached_start_is_the_empty_path(self):
        maze = generate_maze(16, 4)
        start = maze.layout.index(0, 0)
        reached = bytearray([1]) * len(maze.cells)
        reached[start] = 0
        assert nearest_path(maze.cells, maze.layout.stride, start, reached) == []

    def test_a_sealed_start_has_no_path(self):
        maze = sealed_pocket_grid()
        at = maze.layout.index
        goal = bytearray([1]) * len(maze.cells)
        goal[at(4, 4)] = 0
        assert nearest_path(maze.cells, maze.layout.stride, at(0, 0), goal) is None
        k = KnowledgeMap(8)
        k.arrive(maze, at(0, 0))
        assert nearest_path(k.known, k.stride, at(0, 0), k.visited_mask) is None


# Characters a mutation writes: the maze glyphs, header characters, and
# every separator that ``str.splitlines`` treats as a line end.
MUTATION_CHARS = "#.ST 0123456789-+_x\t\n\r\x0b\f\x1c\x1d\x1e\x85\u2028\u2029\u0665"


@st.composite
def mutated_maze_texts(draw):
    """The text of a small maze after a few character edits."""
    n = draw(st.sampled_from((8, 10, 16)))
    return draw(edits(to_text(generate_maze(n, draw(st.integers(0, 3)))), MUTATION_CHARS))


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        for seed in range(5):
            maze = generate_maze(16, seed)
            text = to_text(maze)
            again = to_text(from_text(text))
            assert again == text

    def test_loaded_grid_matches_generated(self):
        maze = generate_maze(32, 4)
        loaded = from_text(to_text(maze))
        assert loaded.walls == maze.walls
        assert loaded.n == maze.n and loaded.seed == maze.seed
        assert loaded.target == maze.target

    def test_golden_file(self):
        # Generation must stay stable; this file pins (16, seed 1) exactly.
        assert to_text(generate_maze(16, 1)) == (DATA / "maze16_seed1.txt").read_text()

    def test_malformed_inputs_rejected(self):
        with pytest.raises(MazeFormatError):
            from_text("")
        with pytest.raises(MazeFormatError):
            from_text("16\n")
        good = to_text(generate_maze(16, 1))
        with pytest.raises(MazeFormatError):
            from_text(good.replace("S", "."))  # start marker missing
        with pytest.raises(MazeFormatError):
            from_text(good.replace(".", "?", 1))
        with pytest.raises(MazeFormatError):
            from_text("\n".join(good.splitlines()[:-2]) + "\n")
        # A second marker: a T before the real one (at (8, 8)) used to read
        # as open, and a second S was reported as the wrong start cell.
        lines = good.splitlines()
        assert lines[1 + 8][8] == "T" and lines[1 + 4][4] == "."
        for marker, first, second in (("T", (4, 4), (8, 8)), ("S", (0, 0), (4, 4))):
            extra = lines[:]
            extra[1 + 4] = extra[1 + 4][:4] + marker + extra[1 + 4][5:]
            with pytest.raises(MazeFormatError, match=re.escape(f"{marker} marker at both {first} and {second}")):
                from_text("\n".join(extra) + "\n")

    @pytest.mark.parametrize(
        "header",
        ["8\t5", "8 5_0", "8 +5", "08 5", "8 \u0665", "8 -0", "8 5 ", " 8 5", "8  5"],
        ids=[
            "tab", "underscore", "plus", "leading-zero", "arabic-indic-digit",
            "minus-zero", "trailing-space", "leading-space", "two-spaces",
        ],
    )
    def test_only_the_written_header_form_loads(self, header):
        # Each of these parses as two ints, but to_text would write it back
        # differently, so the text would not round-trip.
        lines = to_text(generate_maze(8, 5)).splitlines()
        assert from_text("\n".join(lines) + "\n").seed == 5
        lines[0] = header
        with pytest.raises(MazeFormatError, match=re.escape(f"bad header line: {header!r}")):
            from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "separator",
        ["\r\n", "\r", "\f", "\x1c", "\x85", "\u2028"],
        ids=["crlf", "cr", "form-feed", "file-separator", "next-line", "line-separator"],
    )
    def test_only_a_newline_ends_a_line(self, separator):
        # ``str.splitlines`` ends a line at each of these, and ``to_text``
        # would write it back as "\n", so the text would not round-trip.
        text = to_text(generate_maze(8, 5))
        assert to_text(from_text(text[:-1])) == text  # the final "\n" is optional
        with pytest.raises(MazeFormatError):
            from_text(text.replace("\n", separator, 1))
        with pytest.raises(MazeFormatError):
            from_text(text.replace("\n", separator))

    @settings(max_examples=300, deadline=1000)
    @given(text=mutated_maze_texts())
    def test_a_mutated_text_round_trips_or_is_rejected(self, text):
        # Total reader: any text either loads as the maze whose text it
        # is, or raises one of the two documented errors, within the
        # deadline. Any other exception fails the property.
        try:
            maze = from_text(text)
        except (MazeFormatError, MazeConfigError):
            return
        assert to_text(maze) == (text if text.endswith("\n") else text + "\n")

    @pytest.mark.parametrize(
        "k, text, message",
        [
            (0, "16 x", "bad header line: '16 x'"),
            (3, "." * 15, "row 2 has length 15, expected 16"),
            (1 + 8, "." * 16, "target marker must sit at (8, 8), found None"),
            (1 + 8, "....T" + "." * 11, "target marker must sit at (8, 8), found (8, 4)"),
        ],
        ids=["non-integer-header", "short-row", "no-target", "target-off-centre"],
    )
    def test_bad_header_row_or_target_rejected(self, k, text, message):
        lines = to_text(generate_maze(16, 1)).splitlines()
        assert lines[1 + 8][8] == "T"
        lines[k] = text
        with pytest.raises(MazeFormatError, match=re.escape(message)):
            from_text("\n".join(lines) + "\n")
