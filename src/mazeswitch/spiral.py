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
    to walk onto, and ``len(route)`` once the walker mops up. A detour
    (``detouring``) ends at the cursor and counts its steps on visited
    cells in ``detour_stale`` and its (position, heading) states in
    ``detour_seen``. ``escape_path`` holds the cells of a committed walk
    to unvisited ground, next cell first.
    """

    pos: int
    heading: int = field(init=False, default=0)  # index into Layout.offsets: east
    next_k: int = field(init=False, default=1)
    detouring: bool = field(init=False, default=False)
    detour_stale: int = field(init=False, default=0)
    detour_seen: set = field(init=False, default_factory=set)
    escape_path: deque = field(init=False, default_factory=deque)


def spiral_next(state: SpiralState, maze: MazeGrid, knowledge: KnowledgeMap) -> int:
    """Advance the walker one cell and return its new position.

    On each new cell the walker calls ``knowledge.arrive``; the caller
    must have called it for the starting cell before the first call.
    Raises SpiralStuck when no neighbour is known to be passable, which
    cannot happen on a connected maze.
    """
    route, rank, ring = spiral_route(maze.n)
    end = len(route)

    if not state.escape_path and state.next_k == end:
        # Mopping up: walk to the nearest unvisited cell.
        path = nearest_path(knowledge.known, knowledge.stride, state.pos, knowledge.visited_mask)
        if path is None:
            # Reachable component fully visited; keep moving regardless.
            _wall_follow_move(state, knowledge)
            knowledge.arrive(maze, state.pos)
            return state.pos
        state.escape_path = deque(path)

    if state.escape_path:
        # Walk one cell along a committed path through known-free cells.
        nxt = state.escape_path.popleft()
        state.heading = knowledge.offsets.index(nxt - state.pos)
        state.pos = nxt
        knowledge.arrive(maze, nxt)
        if not state.escape_path and state.next_k < end:
            # Landed on fresh ground: resume the route just past this cell.
            state.next_k = rank[nxt] + 1
        return nxt

    if not state.detouring:
        pending = route[state.next_k]
        approach = knowledge.offsets.index(pending - state.pos)
        if probe(maze, state.pos, pending) == OPEN:
            state.pos = pending
            state.heading = approach
            state.next_k += 1
            knowledge.arrive(maze, pending)
            return pending
        # Blocked: hug the obstruction, keeping it on the right.
        state.detouring = True
        state.detour_stale = 0
        state.detour_seen = set()
        state.heading = (approach + 3) % 4  # turn left

    _wall_follow_move(state, knowledge)
    pos = state.pos
    state.detour_stale = 0 if knowledge.arrive(maze, pos) else state.detour_stale + 1

    k = rank[pos]
    if k >= state.next_k and ring[pos] == ring[route[state.next_k]]:
        state.detouring = False
        state.next_k = k + 1
    else:
        key = (pos, state.heading)
        if key in state.detour_seen or state.detour_stale >= STALE_DETOUR_LIMIT:
            # Orbiting a loop, or retracing old ground without finding
            # anything new: the pending segment is not worth chasing
            # this way. Break out toward fresh ground: the nearest
            # unvisited cell over known-free cells, whose intermediate
            # cells are all visited already. With none left, mop up.
            state.detouring = False
            path = nearest_path(knowledge.known, knowledge.stride, pos, knowledge.visited_mask)
            if path is None:
                state.next_k = end
            else:
                state.escape_path = deque(path)
        else:
            state.detour_seen.add(key)
    return pos


def _wall_follow_move(state: SpiralState, knowledge: KnowledgeMap) -> None:
    """Right-hand rule: prefer right turn, then straight, left, back.

    Chooses from the four neighbour facts the sensor recorded on arrival
    at ``state.pos``, so it probes nothing itself.
    """
    i = state.pos
    known = knowledge.known
    offsets = knowledge.offsets
    for heading in _FOLLOW_ORDER[state.heading]:
        j = i + offsets[heading]
        if known[j] == OPEN:
            state.pos = j
            state.heading = heading
            return
    raise SpiralStuck(f"no passable neighbour known at {knowledge.cell(i)}")
