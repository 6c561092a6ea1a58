"""Clockwise spiral coverage from the corner, with wall detours.

The ideal route walks the concentric rectangular rings of the grid from
the perimeter inward: ring ``r`` holds the cells whose distance to the
nearest border is ``r``, traversed east along the top, south down the
right, west along the bottom, north up the left, then one step east into
ring ``r + 1``. On an open grid this visits every cell exactly once.
``spiral_route(n)`` stores that route once per size as three tables: the
tuple of all n*n cells in walking order, and each cell's rank in it and
ring, both indexed by the cell. A walker looks them up on its first
step and holds them in ``SpiralState.tables`` from then on.

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
past the end, so it mops up too. The first search that finds no
unvisited cell is the last: the walker then only wall-follows over
visited cells, learns nothing, and so could find none later.

Each step chooses the next cell in one ``if/elif`` chain (along an
escape path, the route's next cell when it probes open, or
wall-following, on a detour or past a fully visited component),
arrives on it, and on a detour then settles it: the detour ends at the
cursor, breaks out, or goes on. Only a first visit learns, as
``KnowledgeMap.arrive`` would but in the step's own frame.

``walker_counts`` gives the walker's steps by phase and its detour
breakouts, named by ``COUNT_NAMES``. The branch that takes a step names
its phase, and mop-up is the cursor past the end when the step begins:
an escape step is ``mopup`` then and ``escape`` otherwise, a ring step
is ``ring``, and a wall-following step is ``mopup`` then and ``detour``
otherwise. A detour breakout counts as ``loop`` when the detour
revisits one of its states and as ``stale`` otherwise. Ring, escape
and mop-up steps are counted as they are taken, and a detour step is
any step that no other phase took.

Every move rests on local probes alone; the walker learns the maze only
through the wall sensor and its own accumulated knowledge, never by
reading the layout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .grid import OPEN, OUTSIDE, UNKNOWN, KnowledgeMap, MazeGrid, layout, nearest_path, probe

# A detour hug that only retraces visited cells for this many consecutive
# steps is abandoned in favour of a direct walk to unvisited ground.
STALE_DETOUR_LIMIT = 24

# The keys of ``walker_counts``: steps by phase, then detour breakouts.
COUNT_NAMES = ("ring", "detour", "escape", "mopup", "loop", "stale")

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
    ground, next cell first. ``exhausted`` turns True when a search for
    unvisited ground finds none. It stays True and the walker searches
    no more: it then only wall-follows over visited cells, so no later
    search could find any. ``tables`` holds ``spiral_route(n)`` and its
    length from the first step on. ``counts`` holds the tallies behind
    ``walker_counts``: ring, escape and mop-up steps, loop breakouts and
    stale breakouts.
    """

    pos: int
    heading: int = field(init=False, default=0)  # index into Layout.offsets: east
    next_k: int = field(init=False, default=1)
    detour_stale: int = field(init=False, default=0)
    detour_seen: set | None = field(init=False, default=None)
    escape_path: deque = field(init=False, default_factory=deque)
    exhausted: bool = field(init=False, default=False)
    tables: tuple | None = field(init=False, default=None, repr=False, compare=False)
    counts: list = field(init=False, default_factory=lambda: [0] * 5)


def spiral_next(state: SpiralState, maze: MazeGrid, knowledge: KnowledgeMap) -> int:
    """Advance the walker one cell and return its new position.

    A step chooses the next cell, arrives on it, then settles the detour
    when it is part of one. Arriving does the work of ``knowledge.arrive``
    on a first visit only; the caller must have called ``arrive`` for the
    starting cell. The first call raises ValueError when the maze and the
    map differ in size. Raises SpiralStuck when no neighbour is known to
    be passable, which cannot happen on a connected maze.
    """
    tables = state.tables
    if tables is None:
        if maze.n != knowledge.n:
            raise ValueError(f"sensing a size {maze.n} maze into a size {knowledge.n} map")
        route, rank, ring = spiral_route(maze.n)
        tables = state.tables = (route, rank, ring, len(route))
    route, rank, ring, end = tables
    offsets = knowledge.offsets
    pos, next_k, seen, escape = state.pos, state.next_k, state.detour_seen, state.escape_path

    if not escape and next_k == end and not state.exhausted:
        # Mopping up: walk to the nearest unvisited cell.
        path = nearest_path(knowledge.known, knowledge.stride, pos, knowledge.visited_mask)
        if path is None:
            state.exhausted = True
        else:
            escape = state.escape_path = deque(path)

    if escape:
        # Walk one cell along a committed path through known-free cells.
        nxt = escape.popleft()
        state.heading = offsets.index(nxt - pos)
        state.counts[1 if next_k < end else 2] += 1  # escape, else mop-up steps
        if not escape and next_k < end:
            # Landing on fresh ground: resume the route just past this cell.
            state.next_k = rank[nxt] + 1
    elif seen is None and next_k < end and probe(maze, pos, route[next_k]) == OPEN:
        nxt = route[next_k]
        state.heading = offsets.index(nxt - pos)
        state.next_k = next_k + 1
        state.counts[0] += 1  # ring steps
    else:
        # Wall-following: a detour step, or the reachable component is
        # fully visited and the walker keeps moving regardless.
        if seen is None:
            if next_k == end:
                state.counts[2] += 1  # mop-up steps
            else:
                # Blocked: hug the obstruction, keeping it on the right.
                seen = state.detour_seen = set()
                state.detour_stale = 0
                approach = offsets.index(route[next_k] - pos)
                state.heading = (approach + 3) % 4  # turn left
        # Right-hand rule from the four neighbour facts sensed on arrival
        # at ``pos``: prefer a right turn, then straight, left, back.
        known = knowledge.known
        for heading in _FOLLOW_ORDER[state.heading]:
            nxt = pos + offsets[heading]
            if known[nxt] == OPEN:
                break
        else:
            raise SpiralStuck(f"no passable neighbour known at {knowledge.cell(pos)}")
        state.heading = heading

    state.pos = nxt
    fresh = not knowledge.visited_mask[nxt]
    if fresh:  # ``knowledge.arrive(maze, nxt)``; the first step checked the sizes
        known = knowledge.known
        if not 0 <= nxt < len(known) or known[nxt] == OUTSIDE:
            raise ValueError(f"cannot visit off-grid index {nxt}")
        knowledge.visited_mask[nxt] = 1
        if knowledge.visited_count % knowledge.sample_stride == 0:
            knowledge.sampled_history.append(nxt)
        knowledge.visited_count += 1
        cells, w = maze.cells, knowledge.stride
        if known[nxt] == UNKNOWN:
            known[nxt] = cells[nxt]
        j = nxt + 1
        if known[j] == UNKNOWN:
            known[j] = cells[j]
        j = nxt + w
        if known[j] == UNKNOWN:
            known[j] = cells[j]
        j = nxt - 1
        if known[j] == UNKNOWN:
            known[j] = cells[j]
        j = nxt - w
        if known[j] == UNKNOWN:
            known[j] = cells[j]
    if seen is None:
        return nxt

    # A detour step; the cursor ``next_k`` has not moved.
    stale = state.detour_stale = 0 if fresh else state.detour_stale + 1
    k = rank[nxt]
    if k >= next_k and ring[nxt] == ring[route[next_k]]:
        state.detour_seen = None
        state.next_k = k + 1
    else:
        key = (nxt, state.heading)
        if key in seen or stale >= STALE_DETOUR_LIMIT:
            # Orbiting a loop, or retracing old ground without finding
            # anything new: the pending segment is not worth chasing
            # this way. Break out toward fresh ground: the nearest
            # unvisited cell over known-free cells, whose intermediate
            # cells are all visited already. With none left, mop up.
            state.counts[3 if key in seen else 4] += 1  # loop, else stale breakouts
            state.detour_seen = None
            path = nearest_path(knowledge.known, knowledge.stride, nxt, knowledge.visited_mask)
            if path is None:
                state.next_k = end
                state.exhausted = True
            else:
                state.escape_path = deque(path)
        else:
            seen.add(key)
    return nxt


def walker_counts(state: SpiralState, steps: int) -> dict:
    """The walker's exact counts after ``steps`` calls of ``spiral_next``.

    Keyed by ``COUNT_NAMES``: ring, escape and mop-up steps as counted,
    and every other step a detour step.
    """
    ring, escape, mopup, loop, stale = state.counts
    detour = steps - ring - escape - mopup
    return dict(zip(COUNT_NAMES, (ring, detour, escape, mopup, loop, stale)))
