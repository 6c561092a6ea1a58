import hashlib

import numpy as np
import pytest
from hypothesis import strategies as st

from mazeswitch.grid import OPEN, WALL, MazeGrid

ACCEPTANCE_RESULTS = []


def record_acceptance(num: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((num, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {status} - {detail}")


@st.composite
def edits(draw, text, chars):
    """``text`` after one to three character edits, each writing one of ``chars``."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("insert", "delete", "replace", "line end")))
        if kind == "line end":  # a line end in particular: few draws would hit one
            ends = [i for i, ch in enumerate(text) if ch == "\n"] or [len(text)]  # none left
            i = draw(st.sampled_from(ends))
        else:
            i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(chars))
        if kind == "insert":
            text = text[:i] + ch + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + ch + text[i + 1 :]
    return text


def layout_digest(maze):
    """sha256 of the n*n row-major wall bytes (1 = wall), as hex."""
    return hashlib.sha256(b"".join(maze.walls)).hexdigest()


@pytest.fixture
def open_grid():
    """Wall-free grid factory for policy tests."""

    def make(n):
        walls = np.zeros((n, n), dtype=bool)
        walls.flags.writeable = False
        return MazeGrid(n=n, walls=walls, seed=0)

    return make


def reference_observe(knowledge, maze, pos):
    """Independent sensor: the occupied cell, then E, S, W, N.

    Reads ``maze.walls`` with explicit bounds checks and makes one
    ``note`` call per on-grid cell, the contract ``observe_surroundings``
    keeps; an off-grid cell reads OUTSIDE, which carries no fact.
    """
    x, y = pos
    for cell in (pos, (x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
        if not (0 <= cell[0] < maze.n and 0 <= cell[1] < maze.n):
            continue
        result = WALL if maze.walls[cell[0]][cell[1]] else OPEN
        knowledge.note(knowledge.index(*cell), result)


def sealed_pocket_grid():
    """8x8 grid of walls with only the start and the target open."""
    walls = np.ones((8, 8), dtype=bool)
    walls[0, 0] = False
    walls[4, 4] = False
    walls.flags.writeable = False
    return MazeGrid(n=8, walls=walls, seed=0)


def bfs_distance(maze, a, b):
    """Independent shortest-path oracle over passable cells."""
    from collections import deque

    if maze.walls[a[0]][a[1]] or maze.walls[b[0]][b[1]]:
        return None
    dist = {a: 0}
    queue = deque([a])
    while queue:
        x, y = queue.popleft()
        if (x, y) == b:
            return dist[(x, y)]
        for nbr in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
            if (
                0 <= nbr[0] < maze.n
                and 0 <= nbr[1] < maze.n
                and not maze.walls[nbr[0]][nbr[1]]
                and nbr not in dist
            ):
                dist[nbr] = dist[(x, y)] + 1
                queue.append(nbr)
    return None


def bfs_reachable(maze, start=(0, 0)):
    """Independent reachable-set oracle."""
    from collections import deque

    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for nbr in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
            if (
                0 <= nbr[0] < maze.n
                and 0 <= nbr[1] < maze.n
                and not maze.walls[nbr[0]][nbr[1]]
                and nbr not in seen
            ):
                seen.add(nbr)
                queue.append(nbr)
    return seen


def decode_moves(moves):
    """Independent move-string decoder: every ``(x, y)`` a trajectory visits from (0, 0).

    E, S, W and N step (dx, dy) by (0, +1), (+1, 0), (0, -1) and (-1, 0).
    """
    steps = {"E": (0, 1), "S": (1, 0), "W": (0, -1), "N": (-1, 0)}
    x, y = 0, 0
    positions = [(x, y)]
    for letter in moves:
        dx, dy = steps[letter]
        x, y = x + dx, y + dy
        positions.append((x, y))
    return positions


def reference_escape_path(pos, free, visited):
    """Independent escape search over ``(x, y)`` tuple sets.

    Breadth-first from ``pos`` through the cells in ``free``, expanding
    E, S, W, N; returns the cells after ``pos`` up to the first cell not
    in ``visited``, or None when there is none.
    """
    from collections import deque

    parents = {pos: None}
    queue = deque([pos])
    while queue:
        cell = queue.popleft()
        if cell not in visited:
            path = []
            while parents[cell] is not None:
                path.append(cell)
                cell = parents[cell]
            return path[::-1]
        x, y = cell
        for nbr in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
            if nbr in free and nbr not in parents:
                parents[nbr] = cell
                queue.append(nbr)
    return None


def reference_dead_ends(cells, shared):
    """Independent dead-end scan: every room with exactly one OPEN neighbour.

    Rooms are the cells with both coordinates even, taken in index order;
    each dead end comes with the offset of its one opening.
    """
    dead_ends = []
    for x in range(0, shared.n, 2):
        for y in range(0, shared.n, 2):
            i = shared.index(x, y)
            open_steps = [d for d in shared.offsets if cells[i + d] == OPEN]
            if len(open_steps) == 1:
                dead_ends.append((i, open_steps[0]))
    return dead_ends


def reference_walls(n, seed):
    """Independent carver: the wall rows ``generate_maze(n, seed)`` must have.

    The straightforward form of the documented algorithm, kept as an
    oracle: a depth-first backtracker that lists the unvisited rooms
    around the top of the stack and draws one with ``randbelow``, a full
    rescan for dead ends, then the braid and the open target area.
    """
    from mazeswitch.grid import BRAID_PROBABILITY, layout
    from mazeswitch.rng import SplitMix64

    rng = SplitMix64(seed)
    shared = layout(n)
    steps = shared.offsets
    cells = shared.pad([bytes([WALL]) * n] * n)
    origin = shared.index(0, 0)
    cells[origin] = OPEN
    stack = [origin]
    while stack:
        i = stack[-1]
        candidates = [d for d in steps if cells[i + 2 * d] == WALL]
        if not candidates:
            stack.pop()
            continue
        d = candidates[rng.randbelow(len(candidates))]
        cells[i + d] = OPEN
        cells[i + 2 * d] = OPEN
        stack.append(i + 2 * d)

    for i, open_step in reference_dead_ends(cells, shared):
        if rng.random() >= BRAID_PROBABILITY:
            continue
        candidates = [d for d in steps if cells[i + d] == WALL and cells[i + 2 * d] == OPEN]
        if candidates:
            cells[i + (-open_step if -open_step in candidates else candidates[0])] = OPEN

    t = shared.index(n // 2, n // 2)
    for j in (t, *(t + d for d in steps)):
        if cells[j] == WALL:
            cells[j] = OPEN
    return shared.rows(cells)


def reference_astar(s, t, knowledge):
    """Independent A*: the waypoints ``astar_plan(s, t, knowledge)`` must have, or None.

    The textbook form, kept as an oracle: parents in a ``came_from``
    dict, a closed set, and an early return when ``s == t``. Heap
    entries are ``(f, h, counter, index)`` and neighbours are expanded
    E, S, W, N, so ties break the way the planner documents.
    """
    import heapq

    from mazeswitch.grid import OUTSIDE

    known = knowledge.known
    if s == t:
        return [s]
    w = knowledge.stride
    tx, ty = divmod(t, w)
    sx, sy = divmod(s, w)
    h0 = abs(sx - tx) + abs(sy - ty)
    frontier = [(h0, h0, 0, s)]
    came_from = {}
    g_score = {s: 0}
    closed = set()
    counter = 1
    while frontier:
        i = heapq.heappop(frontier)[3]
        if i == t:
            waypoints = [t]
            while i in came_from:
                i = came_from[i]
                waypoints.append(i)
            waypoints.reverse()
            return waypoints
        if i in closed:
            continue
        closed.add(i)
        g_next = g_score[i] + 1
        for j in (i + 1, i + w, i - 1, i - w):
            b = known[j]
            if b == WALL or b == OUTSIDE:
                continue
            if j in g_score and g_score[j] <= g_next:
                continue
            g_score[j] = g_next
            came_from[j] = i
            x, y = divmod(j, w)
            h = abs(x - tx) + abs(y - ty)
            heapq.heappush(frontier, (g_next + h, h, counter, j))
            counter += 1
    return None


def seed_with_output(value, t=1):
    """A SplitMix64 seed whose ``t``-th ``next_u64`` returns ``value``.

    The output mix (xor-shifts and multiplications by odd constants) is a
    bijection on 64-bit words, so it can be run backwards to the state
    that yields ``value``; the seed is that state less ``t`` increments.
    """
    from mazeswitch.rng import INCREMENT, MASK64, MIX1, MIX2

    def unshift(y, k):  # inverse of x ^ (x >> k)
        x = y
        for _ in range(64 // k + 1):
            x = y ^ (x >> k)
        return x

    z = unshift(value, 31)
    z = z * pow(MIX2, -1, 1 << 64) & MASK64
    z = unshift(z, 27)
    z = z * pow(MIX1, -1, 1 << 64) & MASK64
    return (unshift(z, 30) - t * INCREMENT) & MASK64


class ReferenceSpiralState:
    """Walker bookkeeping of ``reference_spiral_next``, with its own detour flag.

    ``counts`` maps each name of ``spiral.COUNT_NAMES`` to the steps or
    breakouts that the reference walker counted under it.
    """

    def __init__(self, pos):
        from collections import deque

        self.pos = pos
        self.heading = 0
        self.next_k = 1
        self.detouring = False
        self.detour_stale = 0
        self.detour_seen = set()
        self.escape_path = deque()
        self.counts = dict.fromkeys(("ring", "detour", "escape", "mopup", "loop", "stale"), 0)


def reference_spiral_next(state, maze, knowledge):
    """Independent walker: the step ``spiral_next`` must take, or SpiralStuck.

    The earlier form of the documented walker, kept as an oracle: four
    branches that each arrive on their own cell, a helper that moves the
    walker itself, and a ``detouring`` flag kept apart from the detour's
    memory, which outlives the detour. It counts each step under its
    phase as its branch names it: with the cursor past the route's end
    every step mops up; otherwise it is an escape, ring or detour step.
    """
    from collections import deque

    from mazeswitch.grid import nearest_path, probe
    from mazeswitch.spiral import STALE_DETOUR_LIMIT, SpiralStuck, spiral_route

    def wall_follow_move():
        i = state.pos
        for turn in (1, 0, 3, 2):  # right, straight, left, back
            heading = (state.heading + turn) % 4
            j = i + knowledge.offsets[heading]
            if knowledge.known[j] == OPEN:
                state.pos = j
                state.heading = heading
                return
        raise SpiralStuck(f"no passable neighbour known at {knowledge.cell(i)}")

    route, rank, ring = spiral_route(maze.n)
    end = len(route)

    if state.next_k == end:
        state.counts["mopup"] += 1
    if not state.escape_path and state.next_k == end:
        path = nearest_path(knowledge.known, knowledge.stride, state.pos, knowledge.visited_mask)
        if path is None:
            wall_follow_move()
            knowledge.arrive(maze, state.pos)
            return state.pos
        state.escape_path = deque(path)

    if state.escape_path:
        if state.next_k < end:
            state.counts["escape"] += 1
        nxt = state.escape_path.popleft()
        state.heading = knowledge.offsets.index(nxt - state.pos)
        state.pos = nxt
        knowledge.arrive(maze, nxt)
        if not state.escape_path and state.next_k < end:
            state.next_k = rank[nxt] + 1
        return nxt

    if not state.detouring:
        pending = route[state.next_k]
        approach = knowledge.offsets.index(pending - state.pos)
        if probe(maze, state.pos, pending) == OPEN:
            state.counts["ring"] += 1
            state.pos = pending
            state.heading = approach
            state.next_k += 1
            knowledge.arrive(maze, pending)
            return pending
        state.detouring = True
        state.detour_stale = 0
        state.detour_seen = set()
        state.heading = (approach + 3) % 4

    state.counts["detour"] += 1
    wall_follow_move()
    pos = state.pos
    state.detour_stale = 0 if knowledge.arrive(maze, pos) else state.detour_stale + 1

    k = rank[pos]
    if k >= state.next_k and ring[pos] == ring[route[state.next_k]]:
        state.detouring = False
        state.next_k = k + 1
    else:
        key = (pos, state.heading)
        if key in state.detour_seen or state.detour_stale >= STALE_DETOUR_LIMIT:
            state.counts["loop" if key in state.detour_seen else "stale"] += 1
            state.detouring = False
            path = nearest_path(knowledge.known, knowledge.stride, pos, knowledge.visited_mask)
            if path is None:
                state.next_k = end
            else:
                state.escape_path = deque(path)
        else:
            state.detour_seen.add(key)
    return pos


def reference_episode(cfg, maze=None):
    """Independent episode: the log ``run_episode(cfg)`` must produce.

    A textbook loop over the oracles above, kept apart from the code it
    checks: the walker is ``reference_spiral_next`` and the planner
    ``reference_astar``, and no ``spiral_next``, ``astar_plan``,
    ``follow_plan`` or ``cells_for_coverage`` is used. It computes
    coverage on every step and compares it with the threshold as a
    float, calls ``arrive`` on every convergence step, revisits
    included, and reads ``known`` for a wall on the next waypoint. It
    runs on ``maze`` when one is given, and on the carved maze otherwise.
    It lists the ``(x, y)`` cells it walks and logs them as a
    ``Trajectory`` of their ``encode_moves`` string.
    """
    from mazeswitch.episode import (
        FIXED_THRESHOLD,
        STEP_LIMIT_EXCEEDED,
        SUCCESS,
        DecisionRecord,
        EpisodeLog,
        Trajectory,
        encode_moves,
    )
    from mazeswitch.grid import KnowledgeMap, coverage_percent, generate_maze, manhattan
    from mazeswitch.qlearn import (
        QTable,
        decision_reward,
        discretize,
        q_update,
        select_action,
        terminal_reward,
    )

    if maze is None:
        maze = generate_maze(cfg.n, cfg.maze_seed)
    n, limit = cfg.n, cfg.step_limit
    learning = cfg.variant.convergence == "rl"
    knowledge = KnowledgeMap(n, sample_stride=1 if cfg.variant.base == "spiral" else 4)
    pos, target = knowledge.index(0, 0), knowledge.index(*maze.target)
    knowledge.arrive(maze, pos)
    walker = ReferenceSpiralState(pos)
    trajectory = [(0, 0)]
    threshold = None if cfg.variant.convergence == "none" else FIXED_THRESHOLD
    q = QTable(cfg.rl_seed) if learning else None
    decisions = []
    previous = (0, 0.0)
    switch_step = switch_coverage = None
    path = None  # the waypoints still to walk, next one first
    plans = convergence = 0

    steps = 0
    while steps < limit:
        if switch_step is None:
            pos = reference_spiral_next(walker, maze, knowledge)
        else:
            if path is None:
                path = reference_astar(pos, target, knowledge)
                if path is None:
                    raise AssertionError("no optimistic path")
                path = path[1:]
                plans += 1
            if knowledge.known[path[0]] == WALL:
                path = None
                continue
            pos = path.pop(0)
            knowledge.arrive(maze, pos)
            convergence += 1
        steps += 1
        trajectory.append(knowledge.cell(pos))
        if pos == target:
            break
        if switch_step is not None or threshold is None:
            continue
        coverage = coverage_percent(knowledge)
        if learning and steps % cfg.decision_period == 0 and coverage < threshold:
            state = discretize(coverage, manhattan(knowledge.cell(pos), maze.target), n)
            action = select_action(q, state)
            threshold = float(action)
            reward = decision_reward(previous, (steps, coverage), limit)
            if decisions:
                q_update(q, decisions[-1].state_index, decisions[-1].action, reward, state)
            decisions.append(DecisionRecord(steps, state, action, reward))
            previous = (steps, coverage)
        if coverage >= threshold:
            switch_step, switch_coverage = steps, coverage

    final_coverage = coverage_percent(knowledge)
    log = EpisodeLog(
        config=cfg,
        outcome=SUCCESS if pos == target else STEP_LIMIT_EXCEEDED,
        total_steps=steps,
        final_coverage=final_coverage,
        switch_step=switch_step,
        switch_coverage=switch_coverage,
        trajectory=Trajectory(n, encode_moves(trajectory)),
        decisions=decisions,
        counters={
            **walker.counts,
            "convergence": convergence,
            "replans": max(plans - 1, 0),
            "history_len": len(knowledge.sampled_history),
        },
    )
    if learning:
        final = log.terminal_reward = terminal_reward(steps, limit, final_coverage, switch_coverage)
        log.terminal_state_index = discretize(
            final_coverage, manhattan(knowledge.cell(pos), maze.target), n
        )
        log.terminal_decision_reward = decision_reward(
            previous, (steps, final_coverage), limit, switch_bonus=final.r_switching
        )
        if decisions:
            q_update(q, decisions[-1].state_index, decisions[-1].action, final.total, None)
        log.q_values = q.values
    return log
