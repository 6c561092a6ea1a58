"""Clockwise spiral coverage from the corner, with wall detours.

The ideal route walks the concentric rectangular rings of the grid from
the perimeter inward: ring ``r`` holds the cells whose distance to the
nearest border is ``r``, traversed east along the top, south down the
right, west along the bottom, north up the left, then one step east into
ring ``r + 1``. On an open grid this visits every cell exactly once.

Walls interrupt the route. When the next ring cell probes blocked, the
walker detours using the right-hand rule, keeping the obstruction on its
right, until it stands on the current ring at or past the blocked
segment, where normal traversal resumes. Wall-following alone can orbit
a loop forever in a maze with cycles, so a detour breaks out when it
revisits one of its own (position, heading) states or exhausts a step
budget of one ring perimeter: it then walks along cells already known to
be free to the nearest cell it has never visited and resumes the spiral
from that cell's ring. After the innermost ring the walker keeps mopping
up the remaining unvisited known-free cells the same way, which makes
coverage of the whole reachable component systematic rather than
best-effort.

Every move rests on local probes alone; the walker learns the maze only
through the wall sensor and its own accumulated knowledge, never by
reading the layout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .grid import (
    DIRECTION_VECTORS,
    EAST,
    HEADINGS,
    OPEN,
    KnowledgeMap,
    MazeGrid,
    Position,
    Probe,
    probe,
)

# A detour hug that only retraces visited cells for this many consecutive
# steps is abandoned in favour of a direct walk to unvisited ground.
STALE_DETOUR_LIMIT = 24

_TURN_RIGHT = {"E": "S", "S": "W", "W": "N", "N": "E"}
_TURN_LEFT = {v: k for k, v in _TURN_RIGHT.items()}
_OPPOSITE = {"E": "W", "W": "E", "N": "S", "S": "N"}

_STEP_TO_HEADING = {v: k for k, v in DIRECTION_VECTORS.items()}

# Wall-following preference from each heading: right, straight, left, back.
_FOLLOW_ORDER = {h: (_TURN_RIGHT[h], h, _TURN_LEFT[h], _OPPOSITE[h]) for h in HEADINGS}


class SpiralStuck(RuntimeError):
    """All four neighbours blocked: the walker sits in a sealed pocket."""


def cell_layer(n: int, pos: Position) -> int:
    x, y = pos
    return min(x, y, n - 1 - x, n - 1 - y)


def max_layer(n: int) -> int:
    return (n - 1) // 2


def ring_length(n: int, layer: int) -> int:
    side = n - 2 * layer
    return 1 if side == 1 else 4 * (side - 1)


def ring_cell(n: int, layer: int, idx: int) -> Position:
    """The ``idx``-th cell of ring ``layer``, clockwise from its top-left."""
    side = n - 2 * layer
    if side == 1:
        return (layer, layer)
    seg = side - 1
    far = n - 1 - layer
    if idx <= seg:
        return (layer, layer + idx)
    if idx <= 2 * seg:
        return (layer + (idx - seg), far)
    if idx <= 3 * seg:
        return (far, far - (idx - 2 * seg))
    return (far - (idx - 3 * seg), layer)


def ring_index(n: int, layer: int, pos: Position) -> int:
    """Inverse of ring_cell for a position lying on ring ``layer``."""
    x, y = pos
    side = n - 2 * layer
    if side == 1:
        return 0
    seg = side - 1
    far = n - 1 - layer
    if x == layer:
        return y - layer
    if y == far:
        return seg + (x - layer)
    if x == far:
        return 2 * seg + (far - y)
    return 3 * seg + (far - x)


@dataclass
class SpiralState:
    """Walker bookkeeping; single owner, mutated in place by spiral_next."""

    pos: Position = (0, 0)
    heading: str = EAST
    layer: int = 0
    next_idx: int = 1
    detouring: bool = False
    detour_layer: int = 0
    detour_idx: int = 0
    detour_stale: int = 0
    detour_seen: set = field(default_factory=set)
    mopping: bool = False
    escape_path: deque = field(default_factory=deque)


def spiral_next(
    state: SpiralState, maze: MazeGrid, knowledge: KnowledgeMap
) -> tuple[Position, SpiralState]:
    """Advance the walker one cell and return (new position, state).

    On each new cell the walker calls ``knowledge.arrive``; the caller
    must have called it for the starting cell before the first call.
    Raises SpiralStuck when no neighbour is known to be passable, which
    cannot happen on a connected maze.
    """
    n = maze.n

    if state.escape_path:
        _escape_step(state, maze, knowledge)
        return state.pos, state

    if not state.mopping and not state.detouring:
        if state.next_idx >= ring_length(n, state.layer):
            if state.layer + 1 > max_layer(n):
                state.mopping = True
            else:
                state.layer += 1
                state.next_idx = 0

    if state.mopping:
        path = _path_to_nearest_unvisited(state.pos, knowledge)
        if path is None:
            # Reachable component fully visited; keep moving regardless.
            _wall_follow_move(state, knowledge)
            knowledge.arrive(maze, state.pos)
            return state.pos, state
        state.escape_path = path
        _escape_step(state, maze, knowledge)
        return state.pos, state

    if not state.detouring:
        pending = ring_cell(n, state.layer, state.next_idx)
        approach = _STEP_TO_HEADING[
            (pending[0] - state.pos[0], pending[1] - state.pos[1])
        ]
        if probe(maze, state.pos, pending) is Probe.PASSABLE:
            state.pos = pending
            state.heading = approach
            state.next_idx += 1
            knowledge.arrive(maze, state.pos)
            return state.pos, state
        # Blocked: hug the obstruction, keeping it on the right.
        state.detouring = True
        state.detour_layer = state.layer
        state.detour_idx = state.next_idx
        state.detour_stale = 0
        state.detour_seen = set()
        state.heading = _TURN_LEFT[approach]

    fresh = _wall_follow_move(state, knowledge)
    knowledge.arrive(maze, state.pos)
    state.detour_stale = 0 if fresh else state.detour_stale + 1

    lay = cell_layer(n, state.pos)
    if lay == state.detour_layer and ring_index(n, lay, state.pos) >= state.detour_idx:
        state.detouring = False
        state.layer = lay
        state.next_idx = ring_index(n, lay, state.pos) + 1
        state.detour_seen = set()
    else:
        key = (state.pos, state.heading)
        if key in state.detour_seen or state.detour_stale >= STALE_DETOUR_LIMIT:
            # Orbiting a loop, or retracing old ground without finding
            # anything new: the pending segment is not worth chasing
            # this way. Break out toward fresh ground.
            state.detouring = False
            state.detour_seen = set()
            path = _path_to_nearest_unvisited(state.pos, knowledge)
            if path is None:
                state.mopping = True
            else:
                state.escape_path = path
        else:
            state.detour_seen.add(key)
    return state.pos, state


def _escape_step(state: SpiralState, maze: MazeGrid, knowledge: KnowledgeMap) -> None:
    """Walk one cell along a committed path through known-free cells."""
    nxt = state.escape_path.popleft()
    state.heading = _STEP_TO_HEADING[(nxt[0] - state.pos[0], nxt[1] - state.pos[1])]
    state.pos = nxt
    knowledge.arrive(maze, state.pos)
    if not state.escape_path and not state.mopping:
        # Landed on fresh ground: resume the spiral from this cell's ring.
        state.layer = cell_layer(maze.n, state.pos)
        state.next_idx = ring_index(maze.n, state.layer, state.pos) + 1


def _path_to_nearest_unvisited(pos: Position, knowledge: KnowledgeMap) -> deque | None:
    """Shortest path over known-free cells to the nearest unvisited one.

    Breadth-first over flat indices, expanding E, S, W, N. Returns the
    cells to step onto in order (excluding ``pos``), or None when every
    known-free cell has been visited already. Intermediate cells of the
    returned path are always previously visited, so exactly one new cell
    is covered per escape.
    """
    known = knowledge.known
    visited = knowledge.visited_mask
    w = knowledge.stride
    start = knowledge.index(*pos)
    parents = {start: start}
    frontier = deque([start])
    while frontier:
        i = frontier.popleft()
        if not visited[i]:
            path = deque()
            while i != start:
                path.appendleft(knowledge.cell(i))
                i = parents[i]
            return path
        for j in (i + 1, i + w, i - 1, i - w):
            if known[j] == OPEN and j not in parents:
                parents[j] = i
                frontier.append(j)
    return None


def _wall_follow_move(state: SpiralState, knowledge: KnowledgeMap) -> bool:
    """Right-hand rule: prefer right turn, then straight, left, back.

    Chooses from the four neighbour facts the sensor recorded on arrival
    at ``state.pos``, so it probes nothing itself. Returns True when the
    cell stepped onto had never been visited.
    """
    x, y = state.pos
    i = (x + 2) * knowledge.stride + y + 1  # knowledge.index, inlined: once per step
    known = knowledge.known
    offsets = knowledge.offsets
    for heading in _FOLLOW_ORDER[state.heading]:
        j = i + offsets[heading]
        if known[j] == OPEN:
            dx, dy = DIRECTION_VECTORS[heading]
            state.pos = (x + dx, y + dy)
            state.heading = heading
            return not knowledge.visited_mask[j]
    raise SpiralStuck(f"no passable neighbour known at {state.pos}")
