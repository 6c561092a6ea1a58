"""Clockwise spiral coverage from the corner, with wall detours.

The ideal route walks the concentric rectangular rings of the grid from
the perimeter inward: ring ``r`` holds the cells whose distance to the
nearest border is ``r``, traversed east along the top, south down the
right, west along the bottom, north up the left, then one step east into
ring ``r + 1``. On an open grid this visits every cell exactly once.
``spiral_route(n)`` stores that route once per size as three tables: the
tuple of all n*n cells in walking order, and each cell's rank in it and
ring, both indexed by the cell.

Positions are flat indices into the grid's ``Layout`` and headings are
indices into ``Layout.offsets``. Only the route builder and an error
message name ``(x, y)`` cells, through the layout's ``index`` and
``cell``, which every ``KnowledgeMap`` carries; callers do the same.

The walker keeps one cursor into the table, ``next_k``, the rank of the
next cell to walk onto; stepping onto it advances the cursor, moving on
to the next ring included. Walls interrupt the route. When the next
cell probes blocked, the cursor stays where it is and the walker
detours using the right-hand rule, keeping the obstruction on its right,
until it stands on the cursor's ring at or past the cursor; the cursor
then resumes just past its cell. Wall-following alone can orbit a loop
forever in a maze with cycles, so a detour breaks out when it revisits
one of its own (position, heading) states or has retraced visited cells
for ``STALE_DETOUR_LIMIT`` steps in a row: it then walks along cells
already known to be free to the nearest cell it has never visited and
resumes the route just past that cell. Mop-up is the cursor past the end
of the table, ``next_k == len(route)``: the walker then keeps walking to
the remaining unvisited known-free cells the same way, which makes
coverage of the whole reachable component systematic rather than
best-effort. A breakout that finds no unvisited cell moves the cursor
past the end, so it mops up too.

Each step chooses the next cell (along an escape path, wall-following
past a fully visited component, the route's next cell when it probes
open, or a detour step), arrives on it once, and on a detour then
settles it: the detour ends at the cursor, breaks out, or goes on.

Every move rests on local probes alone; the walker learns the maze only
through the wall sensor and its own accumulated knowledge, never by
reading the layout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .grid import OPEN, KnowledgeMap, MazeGrid, layout, nearest_path, probe

# A detour hug that only retraces visited cells for this many consecutive
# steps is abandoned in favour of a direct walk to unvisited ground.
STALE_DETOUR_LIMIT = 24

# Wall-following preference from each heading: right, straight, left, back.
_FOLLOW_ORDER = tuple(tuple((h + turn) % 4 for turn in (1, 0, 3, 2)) for h in range(4))


class SpiralStuck(RuntimeError):
    """All four neighbours blocked: the walker sits in a sealed pocket."""


@lru_cache(maxsize=4)  # a suite runs size by size, so more sizes only cost rebuilds
def spiral_route(n: int) -> tuple[tuple, tuple, tuple]:
    """The ideal route on an ``n x n`` grid as ``(route, rank, ring)``.

    ``route`` holds the flat indices of all n*n cells in walking order:
    ring 0 clockwise from (0, 0), then ring 1 from (1, 1), and so on,
    with the centre cell last when ``n`` is odd. ``rank[i]`` is the place
    of cell ``i`` in ``route`` and ``ring[i]`` its ring; both are -1 on
    the padding. All three are tuples, because every caller shares them.
    """
    shared = layout(n)
    route = []
    ring = [-1] * len(shared.cells)
    for r in range((n + 1) // 2):
        i = shared.index(r, r)
        side = n - 1 - 2 * r
        if side == 0:
            route.append(i)
            ring[i] = r
            break
        for step in shared.offsets:
            for _ in range(side):
                route.append(i)
                ring[i] = r
                i += step
    rank = [-1] * len(ring)
    for k, i in enumerate(route):
        rank[i] = k
    return tuple(route), tuple(rank), tuple(ring)


@dataclass
class SpiralState:
    """Walker bookkeeping; single owner, mutated in place by spiral_next.

    Only ``pos``, the flat index of the occupied cell, is set on
    construction. ``next_k`` is the place in the route of the next cell
    to walk onto, and ``len(route)`` once the walker mops up.
    ``detour_seen`` is ``None`` outside a detour and a fresh set of its
    (position, heading) states inside one; a detour ends at the cursor
    and counts its steps on visited cells in ``detour_stale``.
    ``escape_path`` holds the cells of a committed walk to unvisited
    ground, next cell first.
    """

    pos: int
    heading: int = field(init=False, default=0)  # index into Layout.offsets: east
    next_k: int = field(init=False, default=1)
    detour_stale: int = field(init=False, default=0)
    detour_seen: set | None = field(init=False, default=None)
    escape_path: deque = field(init=False, default_factory=deque)


def spiral_next(state: SpiralState, maze: MazeGrid, knowledge: KnowledgeMap) -> int:
    """Advance the walker one cell and return its new position.

    A step chooses the next cell, arrives on it once, then settles the
    detour when it is part of one. Arriving calls ``knowledge.arrive``;
    the caller must have called it for the starting cell before the
    first call. Raises SpiralStuck when no neighbour is known to be
    passable, which cannot happen on a connected maze.
    """
    route, rank, ring = spiral_route(maze.n)
    end = len(route)
    pos, next_k, seen = state.pos, state.next_k, state.detour_seen

    if not state.escape_path and next_k == end:
        # Mopping up: walk to the nearest unvisited cell.
        path = nearest_path(knowledge.known, knowledge.stride, pos, knowledge.visited_mask)
        if path is not None:
            state.escape_path = deque(path)

    if state.escape_path:
        # Walk one cell along a committed path through known-free cells.
        nxt = state.escape_path.popleft()
        state.heading = knowledge.offsets.index(nxt - pos)
        if not state.escape_path and next_k < end:
            # Landing on fresh ground: resume the route just past this cell.
            state.next_k = rank[nxt] + 1
    elif next_k == end:
        # Reachable component fully visited; keep moving regardless.
        nxt = _wall_follow(state, knowledge)
    elif seen is None and probe(maze, pos, route[next_k]) == OPEN:
        nxt = route[next_k]
        state.heading = knowledge.offsets.index(nxt - pos)
        state.next_k = next_k + 1
    else:
        if seen is None:
            # Blocked: hug the obstruction, keeping it on the right.
            seen = state.detour_seen = set()
            state.detour_stale = 0
            approach = knowledge.offsets.index(route[next_k] - pos)
            state.heading = (approach + 3) % 4  # turn left
        nxt = _wall_follow(state, knowledge)

    state.pos = nxt
    fresh = knowledge.arrive(maze, nxt)
    if seen is None:
        return nxt

    # A detour step; the cursor ``next_k`` has not moved.
    state.detour_stale = 0 if fresh else state.detour_stale + 1
    k = rank[nxt]
    if k >= next_k and ring[nxt] == ring[route[next_k]]:
        state.detour_seen = None
        state.next_k = k + 1
    else:
        key = (nxt, state.heading)
        if key in seen or state.detour_stale >= STALE_DETOUR_LIMIT:
            # Orbiting a loop, or retracing old ground without finding
            # anything new: the pending segment is not worth chasing
            # this way. Break out toward fresh ground: the nearest
            # unvisited cell over known-free cells, whose intermediate
            # cells are all visited already. With none left, mop up.
            state.detour_seen = None
            path = nearest_path(knowledge.known, knowledge.stride, nxt, knowledge.visited_mask)
            if path is None:
                state.next_k = end
            else:
                state.escape_path = deque(path)
        else:
            seen.add(key)
    return nxt


def _wall_follow(state: SpiralState, knowledge: KnowledgeMap) -> int:
    """Right-hand rule: prefer right turn, then straight, left, back.

    Returns the cell to step onto and turns ``state.heading`` toward it.
    Chooses from the four neighbour facts the sensor recorded on arrival
    at ``state.pos``, so it probes nothing itself.
    """
    i = state.pos
    known = knowledge.known
    offsets = knowledge.offsets
    for heading in _FOLLOW_ORDER[state.heading]:
        j = i + offsets[heading]
        if known[j] == OPEN:
            state.heading = heading
            return j
    raise SpiralStuck(f"no passable neighbour known at {knowledge.cell(i)}")
