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
east, south, west, north order. That is the pop order of a heap keyed
``(f, h, counter)``, with ``counter`` the push order. The planner pops
cells in exactly that order from two plain lists. The order is exact
because Manhattan ``h`` changes by exactly one on every unit move, so a
push from a cell at level f lands at level f, with ``h`` one below the
popped cell's, or at level f + 2:

- ``level`` is a stack of level f, next pop on top. A push at level f
  goes on it: the popped cell had the lowest ``h`` left in level f, so
  the push's ``h`` is below every other entry there and it pops first.
  A pop inserts each of its pushes at the index where its first went,
  so siblings pop in push order and before the rest of the level,
  whose ``h`` is higher;
- ``later`` collects the pushes to level f + 2 in push order. When
  level f runs out, one stable sort by ``h`` and a reversal make it
  the next ``level``, with the lowest ``h`` on top and push order kept
  within an ``h``.

Distances to the target come from a table per ``(n, t)``, as the
spiral's route does. Parents are heading marks in a scratch copy of the
knowledge bytes, read back by ``grid.marked_path`` as in
``nearest_path``: ``4 + heading`` on ``level``, and ``12 + heading`` on
``later`` until it becomes the level. The marks stand in for g = f - h,
which a push improves only on a cell in ``later``, and only downhill, to
level f. There is no closed set, because Manhattan distance is
consistent on unit moves.

Plans start, end and step on flat indices of the grid's ``Layout``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .grid import OPEN, OUTSIDE, UNKNOWN, WALL, KnowledgeMap, layout, marked_path

# A plan's scratch bytes: 0 where a cell may be entered, 1 where it is blocked.
_ENTERABLE = bytes.maketrans(bytes([OPEN, WALL, OUTSIDE, UNKNOWN]), bytes([0, 1, 1, 0]))


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


@lru_cache(maxsize=4)  # an episode plans to one target; a suite runs size by size
def _distances(n: int, t: int) -> tuple:
    """The Manhattan distance from every index of the size-``n`` layout to index ``t``."""
    w = layout(n).stride
    tx, ty = divmod(t, w)  # index i is at divmod(i, w); no ``Layout.cells`` is built
    across = [abs(y - ty) for y in range(w)]
    return tuple(abs(x - tx) + dy for x in range(n + 4) for dy in across)


def astar_plan(s: int, t: int, knowledge: KnowledgeMap) -> Plan | None:
    """Shortest path from cell ``s`` to cell ``t`` over the optimistic graph, or None.

    Searches flat indices of ``knowledge.known``: a cell is blocked when
    it is a known wall or outside the grid (the padding). Cells pop in
    ``(f, h, counter)`` order. None means that known walls cut ``t`` off
    from ``s``: the target itself is a known wall, or known walls seal
    it in, say all four around it. Generated mazes allow neither,
    because their target is open and joined to the start.
    """
    knowledge.check_cell(s, "plan from")
    knowledge.check_cell(t, "plan to")
    known = knowledge.known
    if known[s] == WALL:
        raise ValueError(f"cannot plan from a known wall at {knowledge.cell(s)}")

    w = knowledge.stride
    h = _distances(knowledge.n, t)
    seen = known.translate(_ENTERABLE)
    seen[s] = WALL
    level, later = [s], []  # level f as a stack, next pop on top; level f + 2

    while True:
        if level:
            i = level.pop()
        elif later:  # level f is empty, and level f + 2 takes over
            for j in later:
                seen[j] &= 7  # ``12 + heading`` becomes ``4 + heading``
            later.sort(key=h.__getitem__)
            later.reverse()
            level, later = later, []
            i = level.pop()
        else:
            return None
        if i == t:
            return Plan([s, *marked_path(seen, w, s, t)])
        # No closed set: the first pop of ``i`` is at its final f, so a
        # stale pop finds no neighbour waiting in ``later`` and pushes nothing.
        hi = h[i]
        base = len(level)  # this pop's downhill pushes go here, in push order
        # The four headings unrolled, E, S, W, N; ``not b`` is an enterable cell not yet pushed.
        j = i + 1
        b = seen[j]
        if not b or b > 11 and h[j] < hi:
            if h[j] < hi:
                seen[j] = 4
                level.insert(base, j)
            else:
                seen[j] = 12
                later.append(j)
        j = i + w
        b = seen[j]
        if not b or b > 11 and h[j] < hi:
            if h[j] < hi:
                seen[j] = 5
                level.insert(base, j)
            else:
                seen[j] = 13
                later.append(j)
        j = i - 1
        b = seen[j]
        if not b or b > 11 and h[j] < hi:
            if h[j] < hi:
                seen[j] = 6
                level.insert(base, j)
            else:
                seen[j] = 14
                later.append(j)
        j = i - w
        b = seen[j]
        if not b or b > 11 and h[j] < hi:
            if h[j] < hi:
                seen[j] = 7
                level.insert(base, j)
            else:
                seen[j] = 15
                later.append(j)


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
