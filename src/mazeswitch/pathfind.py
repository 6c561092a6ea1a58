"""A* pathfinding over partial knowledge, with replanning on discovery.

Plans are computed over an optimistic view of the grid: cells the agent
has confirmed as walls are blocked, every other in-bounds cell (confirmed
free or never probed) is assumed traversable. The Manhattan heuristic is
admissible on that view, so plans are shortest paths over it. The
planner senses nothing: ``follow_plan(plan, knowledge)`` reads the next
waypoint's fact, which ``KnowledgeMap.arrive`` recorded on the current
cell, and returns that waypoint's index, or None when it is a wall. On
None the caller replans from scratch; every replan follows a newly
sensed wall, so replanning terminates. The caller knows it has arrived
when its position equals the target.

Tie-breaking is pinned for determinism: equal f prefers lower h, equal h
prefers the earliest-discovered node, and neighbours are expanded in
east, south, west, north order.

Parents are heading marks in a scratch copy of the knowledge bytes, read
back by ``grid.marked_path`` as in ``nearest_path``. There is no closed
set, because Manhattan distance is consistent on unit moves.

Plans start, end and step on flat indices of the grid's ``Layout``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .grid import OPEN, OUTSIDE, WALL, KnowledgeMap, marked_path


@dataclass
class Plan:
    """Waypoints (flat indices) from the current cell to the target, inclusive.

    ``cursor`` marks the waypoint the agent currently stands on.
    """

    waypoints: list
    cursor: int = 0

    @property
    def cost(self) -> int:
        """Moves from the first waypoint to the last."""
        return len(self.waypoints) - 1


def astar_plan(s: int, t: int, knowledge: KnowledgeMap) -> Plan | None:
    """Shortest path from cell ``s`` to cell ``t`` over the optimistic graph, or None.

    Searches flat indices of ``knowledge.known``: a cell is blocked when
    it is a known wall or outside the grid (the padding). Heap entries
    are ``(f, h, counter, index)``. None means that known walls cut
    ``t`` off from ``s``: the target itself is a known wall, or known
    walls seal it in, say all four around it. Generated mazes allow
    neither, because their target is open and joined to the start.
    """
    knowledge.check_cell(s, "plan from")
    knowledge.check_cell(t, "plan to")
    if knowledge.known[s] == WALL:
        raise ValueError(f"cannot plan from a known wall at {knowledge.cell(s)}")

    w = knowledge.stride
    # Padded row and column; Manhattan distance is shift-invariant.
    tx, ty = divmod(t, w)
    sx, sy = divmod(s, w)
    h0 = abs(sx - tx) + abs(sy - ty)
    frontier = [(h0, h0, 0, s)]
    g_score = {s: 0}
    counter = 1
    # Each push marks its index ``4 + heading``; a better push overwrites it.
    seen = bytearray(knowledge.known)
    seen[s] = WALL
    steps = tuple(zip(knowledge.offsets, (4, 5, 6, 7)))

    while frontier:
        i = heapq.heappop(frontier)[3]
        if i == t:
            return Plan([s, *marked_path(seen, w, s, t)])
        # No closed set: with a consistent heuristic the first pop of ``i``
        # carries its final g, so a stale pop finds every neighbour at a g
        # of at most ``g_next`` and pushes nothing.
        g_next = g_score[i] + 1
        for d, mark in steps:
            j = i + d
            b = seen[j]
            if b == WALL or b == OUTSIDE:
                continue
            if j in g_score and g_score[j] <= g_next:
                continue
            g_score[j] = g_next
            seen[j] = mark
            x, y = divmod(j, w)
            h = abs(x - tx) + abs(y - ty)
            heapq.heappush(frontier, (g_next + h, h, counter, j))
            counter += 1
    return None


def follow_plan(plan: Plan, knowledge: KnowledgeMap) -> int | None:
    """Advance onto the next waypoint and return it, or None if it is a wall.

    The current waypoint must have been sensed (``KnowledgeMap.arrive``).
    OPEN advances; WALL stays put, and the caller replans; any other byte
    breaks that precondition and raises AssertionError. A plan already
    at its last waypoint has no next one and raises ValueError.
    """
    waypoints, k = plan.waypoints, plan.cursor + 1
    if k == len(waypoints):
        raise ValueError(f"plan already ended at {knowledge.cell(waypoints[-1])}")
    nxt = waypoints[k]
    fact = knowledge.known[nxt]
    if fact == WALL:
        return None
    if fact != OPEN:
        raise AssertionError(f"waypoint {knowledge.cell(nxt)} was never sensed")
    plan.cursor = k
    return nxt
