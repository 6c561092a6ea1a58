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
past the end, so it mops up too. The first search that finds no
unvisited cell is the last: the walker then only wall-follows over
visited cells, learns nothing, and so could find none later.

The walk runs in one frame. The first ``spiral_next`` call starts it,
bound to that call's maze and map; it reads ``SpiralState`` only then
and keeps the walker in locals. Each call resumes it for one step,
after which the fields are a view that the walk writes. A step chooses
the next cell in one ``if/elif`` chain (escape path, the route's next
cell when it probes open, or wall-following), arrives on it, and on a
detour then settles it: the detour ends at the cursor, breaks out, or
goes on. Only a first visit learns, as ``KnowledgeMap.arrive`` would.

``walker_counts`` gives the walker's steps by phase and its detour
breakouts, named by ``COUNT_NAMES``. The branch that takes a step names
its phase, and mop-up is the cursor past the end when the step begins:
then an escape or wall-following step is ``mopup``, else ``escape`` or
``detour``; a ring step is ``ring``. A breakout is ``loop`` when the
detour revisits one of its states, else ``stale``. A detour step is
any step that no other phase counted as it took it.

Every move rests on local probes alone; the walker learns the maze only
through the wall sensor and its own accumulated knowledge, never by
reading the layout.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
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
    """Walker bookkeeping: the walk's start, then a view that the walk writes.

    Only ``pos``, the flat index of the occupied cell, is set on
    construction. The first ``spiral_next`` call stores in ``walk`` the
    walk bound to its maze and map, which reads the fields only then and
    writes them after each step. ``next_k`` is the cursor, ``detour_seen``
    is ``None`` outside a detour and the set of its (position, heading)
    states inside one, and ``detour_stale`` counts its latest steps on
    visited cells. ``escape_path`` holds the cells of a committed walk to
    unvisited ground, next cell first. ``exhausted`` turns True, for good,
    when a search for unvisited ground finds none. ``counts`` holds the
    tallies behind ``walker_counts``: ring, escape and mop-up steps, loop
    breakouts and stale breakouts.
    """

    pos: int
    heading: int = field(init=False, default=0)  # index into Layout.offsets: east
    next_k: int = field(init=False, default=1)
    detour_stale: int = field(init=False, default=0)
    detour_seen: set | None = field(init=False, default=None)
    escape_path: deque = field(init=False, default_factory=deque)
    exhausted: bool = field(init=False, default=False)
    walk: Iterator[int] | None = field(init=False, default=None, repr=False, compare=False)
    counts: list = field(init=False, default_factory=lambda: [0] * 5)


def spiral_next(state: SpiralState, maze: MazeGrid, knowledge: KnowledgeMap) -> int:
    """Advance the walker one cell and return its new position.

    The first call raises ValueError when the maze and the map differ in
    size, and otherwise starts the walk; each call resumes it for one
    step. The caller must have called ``knowledge.arrive`` for the
    starting cell. Raises SpiralStuck when no neighbour is known to be
    passable, which cannot happen on a connected maze. A walk that raised
    has ended: the next call starts another from the fields.
    """
    if state.walk is None:
        if maze.n != knowledge.n:
            raise ValueError(f"sensing a size {maze.n} maze into a size {knowledge.n} map")
        state.walk = _walk(state, maze, knowledge)
    return next(state.walk)


def _walk(state: SpiralState, maze: MazeGrid, knowledge: KnowledgeMap) -> Iterator[int]:
    """Yield each new position; write back ``pos``, ``heading`` and what else changed."""
    route, rank, ring = spiral_route(maze.n)
    end, offsets, cells = len(route), knowledge.offsets, maze.cells
    heading_of = {d: h for h, d in enumerate(offsets)}
    known, visited, w = knowledge.known, knowledge.visited_mask, knowledge.stride
    history, sample_stride = knowledge.sampled_history, knowledge.sample_stride
    pos, heading, next_k, counts = state.pos, state.heading, state.next_k, state.counts
    seen, stale, escape = state.detour_seen, state.detour_stale, state.escape_path
    exhausted = state.exhausted

    while True:
        if not escape and next_k == end and not exhausted:
            # Mopping up: walk to the nearest unvisited cell.
            path = nearest_path(known, w, pos, visited)
            if path is None:
                exhausted = state.exhausted = True
            else:
                escape.extend(path)

        if escape:
            # Walk one cell along a committed path through known-free cells.
            nxt = escape.popleft()
            heading = heading_of[nxt - pos]
            counts[1 if next_k < end else 2] += 1  # escape, else mop-up steps
            if not escape and next_k < end:
                # Landing on fresh ground: resume the route just past this cell.
                next_k = state.next_k = rank[nxt] + 1
        elif seen is None and next_k < end and probe(maze, pos, route[next_k]) == OPEN:
            nxt = route[next_k]
            heading = heading_of[nxt - pos]
            next_k = state.next_k = next_k + 1
            counts[0] += 1  # ring steps
        else:
            # Wall-following: a detour step, or past a fully visited component.
            if seen is None:
                if next_k == end:
                    counts[2] += 1  # mop-up steps
                else:
                    # Blocked: hug the obstruction, keeping it on the right.
                    seen = state.detour_seen = set()
                    stale = state.detour_stale = 0
                    heading = (heading_of[route[next_k] - pos] + 3) % 4  # turn left
            # The right-hand rule over the facts sensed on arrival at ``pos``.
            for h in _FOLLOW_ORDER[heading]:
                nxt = pos + offsets[h]
                if known[nxt] == OPEN:
                    break
            else:
                state.heading, state.walk = heading, None
                raise SpiralStuck(f"no passable neighbour known at {knowledge.cell(pos)}")
            heading = h

        state.pos = pos = nxt
        state.heading = heading
        fresh = not visited[nxt]
        if fresh:  # ``knowledge.arrive(maze, nxt)``; the first call checked the sizes
            if not 0 <= nxt < len(known) or known[nxt] == OUTSIDE:
                state.walk = None
                raise ValueError(f"cannot visit off-grid index {nxt}")
            visited[nxt] = 1
            if knowledge.visited_count % sample_stride == 0:
                history.append(nxt)
            knowledge.visited_count += 1
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

        if seen is not None:
            # A detour step; the cursor ``next_k`` has not moved.
            stale = state.detour_stale = 0 if fresh else stale + 1
            k = rank[nxt]
            if k >= next_k and ring[nxt] == ring[route[next_k]]:
                seen = state.detour_seen = None
                next_k = state.next_k = k + 1
            else:
                key = (nxt, heading)
                if key in seen or stale >= STALE_DETOUR_LIMIT:
                    # Orbiting a loop, or retracing old ground: break out to the
                    # nearest unvisited cell over known-free cells, whose
                    # intermediate cells are all visited. With none left, mop up.
                    counts[3 if key in seen else 4] += 1  # loop, else stale breakouts
                    seen = state.detour_seen = None
                    path = nearest_path(known, w, nxt, visited)
                    if path is None:
                        next_k = state.next_k = end
                        exhausted = state.exhausted = True
                    else:
                        escape.extend(path)
                else:
                    seen.add(key)
        yield nxt


def walker_counts(state: SpiralState, steps: int) -> dict:
    """The walker's exact counts, by ``COUNT_NAMES``, after ``steps`` calls of ``spiral_next``."""
    ring, escape, mopup, loop, stale = state.counts
    detour = steps - ring - escape - mopup
    return dict(zip(COUNT_NAMES, (ring, detour, escape, mopup, loop, stale)))
