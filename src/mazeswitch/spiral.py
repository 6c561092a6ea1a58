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

The walk is a generator, ``spiral_walk(maze, knowledge, codes)``, whose
frame is the only place the walker's state lives. It starts on the
route's first cell, (0, 0), heading east. Each ``spiral_next(walk)``,
which is ``next(walk)``, resumes it for one step, and a walk that raises
has ended: the next call raises StopIteration. A live step chooses the
next cell in one ``if/elif`` chain (escape path, the route's next cell
when it probes open, or wall-following), arrives on it, and on a detour
then settles it: the detour ends at the cursor, breaks out, or goes on.
Only a first visit learns, as in ``KnowledgeMap.arrive``, which the
first step calls on (0, 0).

Each step appends one code byte to the caller's ``codes``: its heading,
an index into ``Layout.offsets``, in the low two bits and its phase in
the bits above, ``heading | phase``. The phases are ``RING``,
``DETOUR``, ``LOOP`` and ``STALE`` (a detour step that breaks out,
because the detour revisits one of its states or else because it went
stale), ``ESCAPE`` and ``MOPUP``; ``ASTAR`` is left for the steps that
an episode's planner appends after the walk. The branch that takes a
step names its phase, and mop-up is the cursor past the end when the
step begins: then an escape or wall-following step is ``MOPUP``, else
``ESCAPE`` or ``DETOUR``. ``walker_counts`` counts the walker's steps
by phase, named by ``COUNT_NAMES``: a ``detour`` step is any of the
three detour phases, and ``loop`` and ``stale`` are the breakouts.

A walk replays another when its ``replay`` argument holds the codes of
an earlier walk over the same maze and a map of the same sample stride.
It then runs its own loop, ``for code in replay``, not the live one:
each step takes the next recorded move, learns a first visit with a
copy of the live arrival, which leaves the map that the walk left, and
appends its code; it neither probes nor searches. When the record runs
out the loop raises IndexError, which ends the walk on its last cell.

Every move rests on local probes alone; the walker learns the maze only
through the wall sensor and its own accumulated knowledge, never by
reading the layout.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from functools import lru_cache

from .grid import OPEN, OUTSIDE, UNKNOWN, KnowledgeMap, MazeGrid, layout, nearest_path, probe

# A detour hug that only retraces visited cells for this many consecutive
# steps is abandoned in favour of a direct walk to unvisited ground.
STALE_DETOUR_LIMIT = 24

# The phase bits of a step's code, ``heading | phase``.
RING, DETOUR, LOOP, STALE, ESCAPE, MOPUP, ASTAR = (phase << 2 for phase in range(7))
_PHASE_OF_CODE = bytes(code >> 2 for code in range(256))  # a translate table

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
    ring = [-1] * ((n + 4) * shared.stride)
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


def spiral_next(walk: Iterator[int]) -> int:
    """Advance a ``spiral_walk`` one cell and return its new position: one call per step."""
    return next(walk)


def spiral_walk(
    maze: MazeGrid, knowledge: KnowledgeMap, codes: bytearray, replay: bytes | None = None
) -> Iterator[int]:
    """The walk from (0, 0): yield each new position and append its code to ``codes``.

    The first step raises ValueError when the maze and the map differ in
    size, and else arrives on (0, 0) before it moves, a revisit on a map
    that has been there. ``replay`` holds the codes of a walk that this one
    replays, in a loop of its own before the live one. A step raises
    SpiralStuck when no neighbour is known to be passable, which cannot
    happen on a connected maze, and IndexError past a replay's record,
    raised here after its last move, with ``pos`` on its last cell. A walk
    that raised has ended.

    These locals are the walker. ``pos`` is its cell, ``heading`` its
    last move and ``next_k`` the cursor. ``seen`` is None outside a
    detour and the set of its (position, heading) states inside one;
    ``stale`` counts the detour's latest steps on visited cells.
    ``escape`` holds a committed path to unvisited ground, next cell
    first; ``exhausted`` turns True, for good, when a search finds none.
    A replay changes only ``pos`` and ``heading``.
    """
    if maze.n != knowledge.n:
        raise ValueError(f"sensing a size {maze.n} maze into a size {knowledge.n} map")
    route, rank, ring = spiral_route(maze.n)
    knowledge.arrive(maze, route[0])
    end, offsets, cells = len(route), knowledge.offsets, maze.cells
    heading_of = {d: h for h, d in enumerate(offsets)}
    known, visited, w = knowledge.known, knowledge.visited_mask, knowledge.stride
    history, sample_stride = knowledge.sampled_history, knowledge.sample_stride
    push = codes.append
    pos, heading, next_k = route[0], 0, 1  # heading east, onto the route's second cell
    seen, stale, escape, exhausted = None, 0, deque(), False

    if replay is not None:
        # Each step takes the next recorded move and learns a first visit
        # as the live arrival below does, check for check.
        for code in replay:
            heading = code & 3
            pos = nxt = pos + offsets[heading]
            if not visited[nxt]:
                if not 0 <= nxt < len(known) or known[nxt] == OUTSIDE:
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
            push(code)
            yield nxt
        raise IndexError(f"the replayed record ends after {len(replay)} steps")

    while True:
        if next_k == end and not escape and not exhausted:
            # Mopping up: walk to the nearest unvisited cell.
            path = nearest_path(known, w, pos, visited)
            if path is None:
                exhausted = True
            else:
                escape.extend(path)

        if escape:
            # Walk one cell along a committed path through known-free cells.
            nxt = escape.popleft()
            heading = heading_of[nxt - pos]
            code = heading | (ESCAPE if next_k < end else MOPUP)
            if not escape and next_k < end:
                # Landing on fresh ground: resume the route just past this cell.
                next_k = rank[nxt] + 1
        elif seen is None and next_k < end and probe(maze, pos, route[next_k]) == OPEN:
            nxt = route[next_k]
            heading = heading_of[nxt - pos]
            next_k += 1
            code = heading  # RING is 0
        else:
            # Wall-following: a detour step, or past a fully visited component.
            if seen is None and next_k < end:
                # Blocked: hug the obstruction, keeping it on the right.
                seen, stale = set(), 0
                heading = (heading_of[route[next_k] - pos] + 3) % 4  # turn left
            # The right-hand rule over the facts sensed on arrival at ``pos``.
            for h in _FOLLOW_ORDER[heading]:
                nxt = pos + offsets[h]
                if known[nxt] == OPEN:
                    break
            else:
                raise SpiralStuck(f"no passable neighbour known at {knowledge.cell(pos)}")
            heading = h
            code = h | (MOPUP if seen is None else DETOUR)

        pos = nxt
        fresh = not visited[nxt]
        if fresh:  # ``knowledge.arrive(maze, nxt)``; the first step checked the sizes
            if not 0 <= nxt < len(known) or known[nxt] == OUTSIDE:
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
            stale = 0 if fresh else stale + 1
            k = rank[nxt]
            if k >= next_k and ring[nxt] == ring[route[next_k]]:
                seen = None
                next_k = k + 1
            else:
                key = (nxt, heading)
                if key in seen or stale >= STALE_DETOUR_LIMIT:
                    # Orbiting a loop, or retracing old ground: break out to the
                    # nearest unvisited cell over known-free cells, whose
                    # intermediate cells are all visited. With none left, mop up.
                    code = heading | (LOOP if key in seen else STALE)
                    seen = None
                    path = nearest_path(known, w, nxt, visited)
                    if path is None:
                        next_k, exhausted = end, True
                    else:
                        escape.extend(path)
                else:
                    seen.add(key)
        push(code)
        yield nxt


def walker_counts(codes: bytes) -> dict:
    """The walker's exact counts in ``codes``, by ``COUNT_NAMES``; ``ASTAR`` codes count in none."""
    phases = codes.translate(_PHASE_OF_CODE)
    ring, detour, loop, stale, escape, mopup = map(phases.count, range(6))
    return dict(zip(COUNT_NAMES, (ring, detour + loop + stale, escape, mopup, loop, stale)))
