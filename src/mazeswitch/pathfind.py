"""A* pathfinding over partial knowledge, with replanning on discovery.

Plans are computed over an optimistic view of the grid: cells the agent
has confirmed as walls are blocked, every other in-bounds cell (confirmed
free or never probed) is assumed traversable. The Manhattan heuristic is
admissible on that view, so plans are shortest paths over it. The
planner senses nothing: ``follow_plan(plan, knowledge)`` reads the next
waypoint's fact, which ``KnowledgeMap.arrive`` recorded on the current
cell. When it is a wall the caller replans from scratch; every replan
follows a newly sensed wall, so replanning terminates.

Tie-breaking is pinned for determinism: equal f prefers lower h, equal h
prefers the earliest-discovered node, and neighbours are expanded in
east, south, west, north order.

Plans start, end and step on flat indices of the grid's ``Layout``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from .grid import OPEN, OUTSIDE, WALL, KnowledgeMap


class StepOutcome(Enum):
    ADVANCED = "advanced"
    REPLAN_NEEDED = "replan_needed"
    ARRIVED = "arrived"


@dataclass
class Plan:
    """Waypoints (flat indices) from the current cell to the target, inclusive.

    ``cursor`` marks the waypoint the agent currently stands on.
    """

    waypoints: list
    cost: int
    cursor: int = 0


def astar_plan(s: int, t: int, knowledge: KnowledgeMap) -> Plan | None:
    """Shortest path from cell ``s`` to cell ``t`` over the optimistic graph, or None.

    Searches flat indices of ``knowledge.known``: a cell is blocked when
    it is a known wall or outside the grid (the padding). Heap entries
    are ``(f, h, counter, index)``. None is only possible when the
    target itself is a known wall, which generated mazes never allow.
    """
    knowledge.check_cell(s, "plan from")
    knowledge.check_cell(t, "plan to")
    known = knowledge.known
    if known[s] == WALL:
        raise ValueError(f"cannot plan from a known wall at {knowledge.cell(s)}")
    if s == t:
        return Plan([s], 0)

    w = knowledge.stride
    # Padded row and column; Manhattan distance is shift-invariant.
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
            return Plan(waypoints, len(waypoints) - 1)
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


def follow_plan(plan: Plan, knowledge: KnowledgeMap) -> tuple[int, StepOutcome]:
    """Advance onto the next waypoint if the sensor found it open.

    The current waypoint must have been sensed (``KnowledgeMap.arrive``).
    OPEN advances; WALL stays put and signals the caller to replan; any
    other byte breaks that precondition and raises AssertionError.
    """
    here = plan.waypoints[plan.cursor]
    if plan.cursor == len(plan.waypoints) - 1:
        return here, StepOutcome.ARRIVED
    nxt = plan.waypoints[plan.cursor + 1]
    fact = knowledge.known[nxt]
    if fact == WALL:
        return here, StepOutcome.REPLAN_NEEDED
    if fact != OPEN:
        raise AssertionError(f"waypoint {knowledge.cell(nxt)} was never sensed")
    plan.cursor += 1
    if plan.cursor == len(plan.waypoints) - 1:
        return nxt, StepOutcome.ARRIVED
    return nxt, StepOutcome.ADVANCED
