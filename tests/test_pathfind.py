import random

import pytest
from hypothesis import given, settings, strategies as st

import mazeswitch.episode as episode
from mazeswitch.episode import VARIANTS, EpisodeConfig, run_episode
from mazeswitch.grid import (
    OPEN,
    OUTSIDE,
    UNKNOWN,
    WALL,
    KnowledgeMap,
    generate_maze,
    manhattan,
    probe,
)
from mazeswitch.pathfind import astar_plan, follow_plan
from conftest import bfs_distance, reference_astar


def random_knowledge(n, seed):
    """A size-``n`` knowledge map of OPEN, WALL and UNKNOWN facts drawn from ``seed``."""
    facts = random.Random(seed).choices((OPEN, WALL, UNKNOWN), k=n * n)
    k = KnowledgeMap(n)
    for c, fact in enumerate(facts):
        k.known[k.index(*divmod(c, n))] = fact
    return k


def full_knowledge(maze):
    """Knowledge map that already knows every wall; planning oracle setup."""
    k = KnowledgeMap(maze.n)
    for x in range(maze.n):
        for y in range(maze.n):
            k.note(k.index(x, y), WALL if maze.walls[x][y] else OPEN)
    return k


class TestAstarPlan:
    def test_open_graph_meets_manhattan_bound(self):
        k = KnowledgeMap(4)
        plan = astar_plan(k.index(0, 0), k.index(3, 3), k)
        assert plan.cost == 6
        assert k.cell(plan.waypoints[0]) == (0, 0)
        assert k.cell(plan.waypoints[-1]) == (3, 3)

    def test_start_equals_target(self):
        k = KnowledgeMap(8)
        plan = astar_plan(k.index(2, 2), k.index(2, 2), k)
        assert plan.cost == 0
        assert list(map(k.cell, plan.waypoints)) == [(2, 2)]

    def test_full_knowledge_matches_bfs_oracle(self):
        maze = generate_maze(16, 1)
        k = full_knowledge(maze)
        plan = astar_plan(k.index(0, 0), k.index(*maze.target), k)
        assert plan.cost == bfs_distance(maze, (0, 0), maze.target)

    @pytest.mark.parametrize("n", [16, 32])
    def test_full_knowledge_oracle_many_seeds(self, n):
        for seed in range(8):
            maze = generate_maze(n, seed)
            k = full_knowledge(maze)
            plan = astar_plan(k.index(0, 0), k.index(*maze.target), k)
            assert plan.cost == bfs_distance(maze, (0, 0), maze.target), (n, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        half=st.integers(4, 32),
        seed=st.integers(-(2**63), 2**64 - 1),
        data=st.data(),
    )
    def test_full_knowledge_cost_equals_bfs_oracle(self, half, seed, data):
        maze = generate_maze(2 * half, seed)
        open_cells = [
            (x, y) for x in range(maze.n) for y in range(maze.n) if not maze.walls[x][y]
        ]
        start = data.draw(st.sampled_from(open_cells))
        k = full_knowledge(maze)
        plan = astar_plan(k.index(*start), k.index(*maze.target), k)
        oracle = bfs_distance(maze, start, maze.target)
        assert (plan is None) == (oracle is None)
        if plan is not None:
            assert plan.cost == oracle

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(4, 24), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_waypoints_match_the_reference_planner(self, n, seed, data):
        # Any knowledge map, any non-wall start, any target: the start
        # itself, a known wall, or a cell walled in on all open sides. The
        # map comes from a seed, so a failure shrinks in seconds.
        start = data.draw(st.integers(0, n * n - 1))
        target = data.draw(st.integers(0, n * n - 1) | st.just(start))
        k = random_knowledge(n, seed)
        s, t = k.index(*divmod(start, n)), k.index(*divmod(target, n))
        if data.draw(st.sampled_from((False, False, False, True))):  # seal the target in
            for d in k.offsets:
                if t + d != s and k.known[t + d] != OUTSIDE:
                    k.known[t + d] = WALL
        if k.known[s] == WALL:
            k.known[s] = OPEN
        before = bytes(k.known)
        plan = astar_plan(s, t, k)
        assert (None if plan is None else plan.waypoints) == reference_astar(s, t, k)
        assert k.known == before

    @pytest.mark.parametrize(
        "n, seed, start, target",
        [(14, 131383004, 6, 166), (18, 2487140954, 15, 321), (15, 278583920, 76, 208)],
    )
    def test_pop_order_on_fixed_maps(self, n, seed, start, target):
        # Maps of the property above on which a plan's waypoints depend on
        # the pop order within a level: downhill siblings pop in push order,
        # and the next level pops by h, then in push order within an h.
        k = random_knowledge(n, seed)
        s, t = k.index(*divmod(start, n)), k.index(*divmod(target, n))
        if k.known[s] == WALL:
            k.known[s] = OPEN
        assert astar_plan(s, t, k).waypoints == reference_astar(s, t, k)

    @pytest.mark.parametrize("variant", ["spiral_conv", "spiral_rl"])
    def test_every_plan_of_an_episode_matches_the_reference_planner(self, variant, monkeypatch):
        # Plans over real partial knowledge at 64 climb many f levels,
        # which the small random maps above rarely do.
        climbs = []

        def checked_plan(s, t, knowledge):
            plan = astar_plan(s, t, knowledge)
            assert plan.waypoints == reference_astar(s, t, knowledge)
            climbs.append(plan.cost - manhattan(knowledge.cell(s), knowledge.cell(t)))
            return plan

        monkeypatch.setattr(episode, "astar_plan", checked_plan)
        for maze_seed in range(3):
            run_episode(EpisodeConfig(n=64, maze_seed=maze_seed, variant=VARIANTS[variant]))
        assert len(climbs) >= 3 and max(climbs) >= 40, climbs

    def test_cost_never_below_manhattan(self):
        maze = generate_maze(16, 4)
        k = full_knowledge(maze)
        free = [(x, y) for x in range(16) for y in range(16) if not maze.walls[x][y]]
        for start in free[::7]:
            plan = astar_plan(k.index(*start), k.index(*maze.target), k)
            assert plan is not None
            assert plan.cost >= manhattan(start, maze.target)

    def test_waypoints_adjacent_and_avoid_known_walls(self):
        maze = generate_maze(16, 2)
        k = full_knowledge(maze)
        plan = astar_plan(k.index(0, 0), k.index(*maze.target), k)
        cells = list(map(k.cell, plan.waypoints))
        for a, b in zip(cells, cells[1:]):
            assert manhattan(a, b) == 1
        assert all(k.known[i] != WALL for i in plan.waypoints)

    def test_deterministic(self):
        maze = generate_maze(16, 5)
        k = full_knowledge(maze)
        start, target = k.index(0, 0), k.index(*maze.target)
        assert astar_plan(start, target, k).waypoints == astar_plan(start, target, k).waypoints

    def test_no_path_when_target_sealed(self):
        k = KnowledgeMap(4)
        for cell in ((1, 1), (2, 1)):
            k.note(k.index(*cell), WALL)
        assert astar_plan(k.index(0, 0), k.index(3, 3), k) is not None  # routes around
        for cell in ((2, 3), (3, 2)):  # box the target corner
            k.note(k.index(*cell), WALL)
        assert astar_plan(k.index(0, 0), k.index(3, 3), k) is None

    def test_planning_from_known_wall_rejected(self):
        k = KnowledgeMap(4)
        k.note(k.index(0, 0), WALL)
        with pytest.raises(ValueError):
            astar_plan(k.index(0, 0), k.index(3, 3), k)


class TestFollowPlan:
    def test_advances_on_passable(self, open_grid):
        maze = open_grid(8)
        k = KnowledgeMap(8)
        plan = astar_plan(k.index(0, 0), k.index(4, 4), k)
        k.observe_surroundings(maze, k.index(0, 0))
        pos = follow_plan(plan, k)
        assert pos is not None and pos != plan.waypoints[-1]
        assert manhattan(k.cell(pos), (0, 0)) == 1

    def test_blocked_waypoint_triggers_replan(self):
        maze = generate_maze(16, 1)
        k = KnowledgeMap(maze.n)  # knows nothing: optimistic plan will hit walls
        plan = astar_plan(k.index(0, 0), k.index(*maze.target), k)
        blocked_at = None
        pos = k.index(0, 0)
        for _ in range(plan.cost):
            k.observe_surroundings(maze, pos)
            nxt = follow_plan(plan, k)
            if nxt is None:
                blocked_at = k.cell(plan.waypoints[plan.cursor + 1])
                break
            pos = nxt
        assert blocked_at is not None, "seed 1 maze should block the straight route"
        assert k.known[k.index(*blocked_at)] == WALL
        assert pos == plan.waypoints[plan.cursor]  # did not move

    def test_arrives_at_target(self, open_grid):
        maze = open_grid(8)
        k = KnowledgeMap(8)
        plan = astar_plan(k.index(0, 0), k.index(0, 2), k)
        k.observe_surroundings(maze, k.index(0, 0))
        pos = follow_plan(plan, k)
        k.observe_surroundings(maze, pos)
        pos = follow_plan(plan, k)
        assert pos == plan.waypoints[-1]
        assert k.cell(pos) == (0, 2)

    def test_plan_at_its_last_waypoint_raises(self, open_grid):
        maze = open_grid(8)
        k = KnowledgeMap(8)
        plan = astar_plan(k.index(0, 0), k.index(0, 1), k)
        k.observe_surroundings(maze, k.index(0, 0))
        assert k.cell(follow_plan(plan, k)) == (0, 1)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            follow_plan(plan, k)
        with pytest.raises(ValueError, match=r"\(2, 2\)"):
            follow_plan(astar_plan(k.index(2, 2), k.index(2, 2), k), k)

    def test_replan_loop_terminates_and_arrives(self):
        # Walk the full replanning loop with zero prior knowledge.
        maze = generate_maze(16, 1)
        k = KnowledgeMap(maze.n)
        pos, target = k.index(0, 0), k.index(*maze.target)
        k.observe_surroundings(maze, pos)
        moves = 0
        replans = 0
        while pos != target:
            plan = astar_plan(pos, target, k)
            assert plan is not None
            while pos != target:
                nxt = follow_plan(plan, k)
                if nxt is None:
                    replans += 1
                    break
                pos = nxt
                moves += 1
                k.observe_surroundings(maze, pos)
            assert replans <= maze.n * maze.n
            assert moves <= 4 * maze.n * maze.n
        assert k.cell(pos) == maze.target

    def test_never_moves_onto_wall(self):
        maze = generate_maze(16, 6)
        k = KnowledgeMap(maze.n)
        pos, target = k.index(0, 0), k.index(*maze.target)
        k.observe_surroundings(maze, pos)
        for _ in range(500):
            plan = astar_plan(pos, target, k)
            nxt = follow_plan(plan, k)
            if nxt is not None:
                pos = nxt
            x, y = k.cell(pos)
            assert not maze.walls[x][y]
            k.observe_surroundings(maze, pos)
            if pos == target:
                break

    @pytest.mark.parametrize("n", [16, 32])
    def test_replans_exactly_where_the_probe_is_blocked(self, n):
        # ``follow_plan`` reads only what the sensor recorded; the direct
        # probe of the maze is the reference for every decision it makes.
        for seed in range(6):
            maze = generate_maze(n, seed)
            k = KnowledgeMap(n)
            pos, target = k.index(0, 0), k.index(*maze.target)
            k.arrive(maze, pos)
            plan = astar_plan(pos, target, k)
            while pos != target:
                here, nxt = plan.waypoints[plan.cursor], plan.waypoints[plan.cursor + 1]
                blocked = probe(maze, here, nxt) == WALL
                step = follow_plan(plan, k)
                assert (step is None) == blocked, (n, seed, k.cell(nxt))
                if blocked:
                    plan = astar_plan(pos, target, k)
                else:
                    pos = step
                    k.arrive(maze, pos)
            assert pos == target, (n, seed)

    def test_unsensed_waypoint_raises(self):
        maze = generate_maze(16, 1)
        k = KnowledgeMap(maze.n)  # the start was never sensed
        plan = astar_plan(k.index(0, 0), k.index(*maze.target), k)
        with pytest.raises(AssertionError):
            follow_plan(plan, k)
        assert plan.cursor == 0
