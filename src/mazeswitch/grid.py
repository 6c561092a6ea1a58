"""Maze grids, the local wall sensor, and the agent's accumulated knowledge.

Coordinates are ``(x, y)`` tuples: ``x`` indexes rows printed top to
bottom, ``y`` indexes columns left to right. "East" increases ``y``,
"south" increases ``x``. Coordinates are the edge form only: the maze's
``target``, an episode's logged trajectory, the text format, and error
messages. Inside an episode a position is a flat index into the padded
layout described in ``Layout``, and ``Layout.index`` and ``Layout.cell``
are the only conversions between the two forms.

Layouts are carved with a randomized depth-first backtracker over the
room lattice (cells with both coordinates even), which yields a perfect
maze, and are then braided: behind each dead end the far wall is removed
with probability 0.10 so that multiple routes to the target exist. The
passages form a spanning tree over the rooms, so the dead ends are the
leaves of the search (plus the origin when it has one child), collected
as the search runs and taken in index order; no rescan is needed. The
target cell and its four in-bounds neighbours are always carved open.
All randomness comes from one SplitMix64 stream, so ``(n, seed)`` pins
the layout bit for bit.

Every grid stores its walls once, as the padded flat bytes
``MazeGrid.cells`` (``walls`` is a read-only row view). The agent's
knowledge, ``KnowledgeMap.known``, is a second buffer of the same
``Layout``, shared per size through ``layout(n)``, so one index names a
cell in both. The sensor, the carver, the walker and A* read neighbours
at the layout's four offsets without a bounds check: a padding byte is
never open and never unknown. A sensed fact is that byte itself:
``probe`` returns OPEN, WALL or OUTSIDE, and ``KnowledgeMap.note``
records OPEN or WALL as read. ``KnowledgeMap.arrive`` senses on a first
visit only: in a fixed maze the first fact about a cell stands, so a
revisit would learn nothing. The coverage walker does the same work in
its own frame on a first visit, and on a revisit reads just
``visited_mask``. ``coverage_percent`` is the visited share of the
grid, and ``cells_for_coverage`` the least visited count that reaches a
given share, so an episode checks its switch by count.
``nearest_path`` is the one breadth-first search over either buffer,
for the carver's connectivity check and the walker's escapes. It and
A* both mark each discovered index with its
entering heading in a scratch copy of the bytes, and ``marked_path``
reads a path back along the marks.

``generate_maze`` remembers its last maze, one slot keyed by
``(n, seed)`` and their types. A suite runs every variant of a maze
back to back, so a serial suite carves each maze once instead of once
per variant, and a pool worker once per chunk of episodes that holds
the maze. Sharing the grid is safe because it cannot be changed:
``cells`` is ``bytes`` and ``walls`` a tuple of ``bytes`` rows. The
memo keeps exactly one slot on purpose: benchmark rounds never repeat
a maze, so a second slot would never hit, and a larger cache would
turn into a cache across rounds and suites.

Text form (``to_text``/``from_text`` round-trip every ``MazeGrid`` exactly)::

    n seed
    S.#...
    ......

with ``#`` wall, ``.`` open, ``S`` start at (0, 0), ``T`` target at
(n/2, n/2). Body row i holds x == i, column j holds y == j. The header
is exactly ``f"{n} {seed}"``, and only ``\n`` ends a line (the last
may be missing); ``from_text`` rejects any other spelling, which would
not round-trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .rng import INCREMENT, MASK64, MIX1, MIX2, SplitMix64, rejection_limit

BRAID_PROBABILITY = 0.10

# The largest maze size. Memory grows with n * n: one seed-0 episode
# peaked at 91 MB at 512 and at 351 MB at 1024 (Python 3.11, Linux). The
# cap stops a typo or an edited record from carving a maze that exhausts
# memory.
MAX_MAZE_SIZE = 512

OPEN, WALL, OUTSIDE = 0, 1, 2  # bytes of the padded layout
UNKNOWN = 3  # knowledge byte of a grid cell not yet sensed


class MazeConfigError(ValueError):
    """Unusable generation parameters."""


class MazeFormatError(ValueError):
    """Malformed maze text."""


class Layout:
    """The padded flat geometry of an ``n x n`` grid.

    A layout is ``n + 2`` bytes wide (``stride``) and ``n + 4`` rows
    tall: one column of padding on each side, two rows above and below.
    Cell ``(x, y)`` sits at index ``i = (x + 2) * stride + y + 1``, and
    its E/S/W/N neighbours at ``i + 1``, ``i + stride``, ``i - 1`` and
    ``i - stride``: the four ``offsets``, indexed by heading (0 east,
    1 south, 2 west, 3 north; clockwise, so heading + 1 turns right).
    A step from any grid cell lands in the buffer, and so does the
    carver's two-cell room stride. Maze bytes are 0 (open), 1 (wall) or
    2 (outside the grid); knowledge bytes add 3 (unknown). ``cells`` is
    the ``(x, y)`` of every index, and ``pad``/``rows`` convert between
    n rows of cell bytes and a layout.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.stride = w = n + 2
        self.offsets = (1, w, -1, -w)
        self.cells = tuple(map(self.cell, range((n + 4) * w)))

    @cached_property
    def room_choices(self) -> tuple:
        """Per 4-bit mask (bit h: heading h), the room strides ``2 * offsets[h]`` it sets."""
        strides = [2 * d for d in self.offsets]
        return tuple(tuple(d for h, d in enumerate(strides) if m >> h & 1) for m in range(16))

    def index(self, x: int, y: int) -> int:
        """Flat index of grid cell ``(x, y)``; raises if it is off the grid."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"cell {(x, y)} is off the {self.n}x{self.n} grid")
        return (x + 2) * self.stride + y + 1

    def cell(self, i: int) -> tuple:
        """Grid cell ``(x, y)`` at flat index ``i``; inverse of ``index``."""
        x, y = divmod(i, self.stride)
        return (x - 2, y - 1)

    def pad(self, rows) -> bytearray:
        """The layout of n rows of n cell bytes, padding OUTSIDE."""
        edge = bytes([OUTSIDE])
        head = edge * (2 * self.stride + 1)  # two padding rows and one border column
        return bytearray(head) + (edge * 2).join(rows) + head

    def rows(self, cells) -> tuple:
        """The n grid rows of a layout, as ``bytes``; inverse of ``pad``."""
        n, w = self.n, self.stride
        first = 2 * w + 1
        return tuple(bytes(cells[i : i + n]) for i in range(first, first + n * w, w))


@lru_cache(maxsize=4)  # one shared Layout per size; a suite runs size by size
def layout(n: int) -> Layout:
    return Layout(n)


_BIT = bytes([0]) + bytes([1]) * 255  # translate table: any non-zero byte is a wall


class MazeGrid:
    """Immutable wall layout with the start (0, 0) and the target (n // 2, n // 2).

    ``walls`` is any ``n`` rows of ``n`` values, truthy meaning wall:
    nested lists, ``bytes`` rows, or an array read row by row. The start
    and the target must be two open cells, so ``n >= 2``. ``n`` and
    ``seed`` are ints.
    """

    def __init__(self, n: int, walls, seed: int) -> None:
        if type(n) is not int or type(seed) is not int:  # a bool is not an int here
            raise MazeConfigError(f"maze size and seed must be ints, got {n!r} and {seed!r}")
        try:
            rows = [
                bytes(row).translate(_BIT)
                if isinstance(row, (bytes, bytearray))
                else bytes(map(bool, row))
                for row in walls
            ]
        except TypeError:  # walls or one of its rows is not a sequence
            rows = None
        if rows is None or len(rows) != n or any(len(row) != n for row in rows):
            raise MazeConfigError(f"walls must be {n} rows of {n} values")
        self.n, self.target, self.seed = n, (n // 2, n // 2), seed
        if n < 2 or rows[0][0] or rows[n // 2][n // 2]:
            raise MazeConfigError(f"start (0, 0) and target {self.target} must be two open cells")
        self.layout = layout(n)
        self.cells = bytes(self.layout.pad(rows))  # the one stored layout

    @cached_property
    def walls(self) -> tuple:
        """The layout as n ``bytes`` rows: ``walls[x][y]`` is 1 at a wall."""
        return self.layout.rows(self.cells)


def probe(maze: MazeGrid, frm: int, neighbor: int) -> int:
    """Constant-time local wall sensor over flat layout indices: the maze byte.

    Only the occupied cell itself or one of its four neighbours may be
    probed, both inside the layout; anything else is a programming error
    and raises ValueError. The result is OPEN or WALL, or OUTSIDE for a
    neighbour off the grid (a padding byte).
    """
    cells, step = maze.cells, neighbor - frm
    if not (0 <= frm < len(cells) and 0 <= neighbor < len(cells)) or (
        step and step not in maze.layout.offsets
    ):
        raise ValueError(f"non-local probe from index {frm} to {neighbor}")
    return cells[neighbor]


def manhattan(a: tuple, b: tuple) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass
class KnowledgeMap:
    """What the agent has learned so far from local probes, on an ``n x n`` grid.

    ``n`` and ``sample_stride`` are positive ints, or ValueError.
    ``known``, in the grid's ``Layout``, holds the agent's view: OPEN,
    WALL or UNKNOWN for grid cells, OUTSIDE for the padding. A fixed maze never
    contradicts itself, so the first fact learned about a cell stands.
    ``visited_mask`` is 1 at every cell the agent has occupied, and
    ``visited_count`` is its population: coverage counts distinct cells,
    so revisits never inflate it. ``sampled_history`` is the stored
    visit history: the index of every ``sample_stride``-th first visit,
    so a stride of 1 (full memory) keeps them all and the sentinel agents
    keep every fourth. The history is record keeping only and never feeds
    back into control decisions. Every method that takes a cell takes its
    flat index, and raises ValueError for a padding index or one outside
    the layout, where a negative index would alias another byte. The
    map carries its layout's ``stride``, ``offsets``, ``index`` and ``cell``.
    """

    n: int
    sample_stride: int = 1
    layout: Layout = field(init=False, repr=False, compare=False)
    known: bytearray = field(init=False, repr=False)
    visited_mask: bytearray = field(init=False, repr=False)
    visited_count: int = field(init=False, default=0)
    sampled_history: list = field(init=False, default_factory=list)

    def __post_init__(self):
        for name, value in (("n", self.n), ("sample_stride", self.sample_stride)):
            if type(value) is not int or value < 1:  # a bool is not an int here
                raise ValueError(f"KnowledgeMap {name} must be a positive int, got {value!r}")
        n = self.n
        self.layout = shared = layout(n)
        self.stride, self.offsets = shared.stride, shared.offsets
        self.index, self.cell = shared.index, shared.cell
        self.known = shared.pad([bytes([UNKNOWN]) * n] * n)
        self.visited_mask = bytearray(len(self.known))

    def check_cell(self, i: int, action: str) -> None:
        """Raise ValueError unless ``i`` is the flat index of a grid cell."""
        known = self.known
        if not 0 <= i < len(known) or known[i] == OUTSIDE:
            raise ValueError(f"cannot {action} off-grid index {i}")

    def note(self, i: int, fact: int) -> None:
        """Record one ``probe`` result, OPEN or WALL; OUTSIDE carries no cell fact."""
        if fact == OUTSIDE:
            return
        if fact != OPEN and fact != WALL:
            raise ValueError(f"cannot note {fact!r}: a fact is OPEN, WALL or OUTSIDE")
        self.check_cell(i, "note")
        if self.known[i] == UNKNOWN:
            self.known[i] = fact

    def observe_surroundings(self, maze: MazeGrid, i: int) -> None:
        """Probe the occupied cell ``i`` and its four neighbours.

        Learns the same facts (self, E, S, W, N) as noting ``probe`` of
        each cell, by copying the maze's bytes into the cells still
        unknown. The padding is OUTSIDE in both layouts, so off-grid
        neighbours are never copied.
        """
        if maze.n != self.n:
            raise ValueError(f"sensing a size {maze.n} maze into a size {self.n} map")
        self.check_cell(i, "sense from")
        known, cells = self.known, maze.cells
        w = self.stride
        for j in (i, i + 1, i + w, i - 1, i - w):
            if known[j] == UNKNOWN:
                known[j] = cells[j]

    def arrive(self, maze: MazeGrid, i: int) -> bool:
        """The agent stands on cell ``i``: count the visit, and sense on a first.

        Returns True on a first visit, as ``record`` does. Only a first
        visit senses: the first fact about a cell stands, so a cell marked
        by ``record`` alone counts as sensed and a later ``arrive`` there
        senses nothing.
        """
        fresh = self.record(i)
        if fresh:
            self.observe_surroundings(maze, i)
        return fresh

    def record(self, i: int) -> bool:
        """Mark cell ``i`` visited, and so sensed; True on a first visit."""
        visited = self.visited_mask
        if not 0 <= i < len(visited) or self.known[i] == OUTSIDE:  # ``check_cell``, inlined
            raise ValueError(f"cannot visit off-grid index {i}")
        if visited[i]:
            return False
        ordinal = self.visited_count
        visited[i] = 1
        self.visited_count = ordinal + 1
        if ordinal % self.sample_stride == 0:
            self.sampled_history.append(i)
        return True


def coverage_percent(knowledge: KnowledgeMap) -> float:
    """Distinct visited cells over all n*n cells of the map, as a percentage."""
    n = knowledge.n
    return knowledge.visited_count / (n * n) * 100.0


def cells_for_coverage(n: int, percent: float) -> int:
    """The least visited count whose ``coverage_percent`` reaches ``percent``.

    ``c / (n * n) * 100.0`` never falls as ``c`` grows, so a map of size
    ``n`` reaches ``percent`` exactly when its ``visited_count`` reaches
    this count, which lies above ``n * n`` for a percent above 100. The
    ceiling of the quotient is at most one cell off the rounded
    expression, and one step either way corrects it.
    """
    cells = n * n
    c = math.ceil(percent * cells / 100.0)
    if (c - 1) / cells * 100.0 >= percent:
        c -= 1
    elif c / cells * 100.0 < percent:
        c += 1
    return c


@lru_cache(maxsize=1, typed=True)  # one slot: see the module docstring
def generate_maze(n: int, seed: int) -> MazeGrid:
    """Carve a braided maze; pure function of ``(n, seed)``.

    Requires an even int ``n >= 8`` and an int seed. The start (0, 0),
    the target (n/2, n/2), and a path between them are guaranteed. A
    repeated call with the previous ``(n, seed)`` returns the same
    (immutable) grid.
    """
    check_maze_size(n)
    if type(seed) is not int:  # a bool is not an int here
        raise MazeConfigError(f"maze seed must be an int, got {seed!r}")

    rng = SplitMix64(seed)
    shared = layout(n)
    steps = shared.offsets
    cells, dead_ends = _carve_tree(shared, rng)
    _braid_dead_ends(cells, dead_ends, steps, rng)

    # The target area is always open, whatever the carving did.
    t = shared.index(n // 2, n // 2)
    cells[t] = OPEN
    for d in steps:
        if cells[t + d] == WALL:
            cells[t + d] = OPEN

    goal_unreached = bytearray([1]) * len(cells)
    goal_unreached[t] = 0
    if nearest_path(cells, shared.stride, shared.index(0, 0), goal_unreached) is None:
        raise AssertionError(f"generated maze ({n}, {seed}) lost connectivity")
    return MazeGrid(n=n, walls=shared.rows(cells), seed=seed)


def check_maze_size(n: int) -> None:
    """Raise MazeConfigError unless ``n`` is an even int from 8 to ``MAX_MAZE_SIZE``."""
    if type(n) is not int or not 8 <= n <= MAX_MAZE_SIZE or n % 2:  # a bool is not an int here
        raise MazeConfigError(
            f"maze size must be even and from 8 to {MAX_MAZE_SIZE} (an int), got {n!r}"
        )


# Rejection limit of ``randbelow(k)`` for the carver's k unvisited rooms, k = 1..4.
_LIMITS = (None,) + tuple(map(rejection_limit, range(1, 5)))


def _carve_tree(shared: Layout, rng: SplitMix64) -> tuple:
    """Carve a perfect maze: ``(cells, dead_ends)`` on the padded layout.

    A depth-first backtracker over rooms at even coordinates. A room is
    still a wall exactly until it is visited, and a room stride off the
    grid lands on padding, so bit 0 of a byte (WALL is 1, OUTSIDE 2)
    says "unvisited room". At each room it draws one of the unvisited
    neighbours, in E, S, W, N order, with ``rng.randbelow`` inlined on a
    local copy of the state. The passages form a spanning tree over the
    rooms, so the dead ends, rooms with exactly one OPEN neighbour, are
    the leaves of the search plus the origin when it has one child.
    ``dead_ends`` holds ``(room, offset of its opening)`` in index order.
    """
    n, w2 = shared.n, 2 * shared.stride
    choices = shared.room_choices
    cells = shared.pad([bytes([WALL]) * n] * n)
    i = origin = shared.index(0, 0)
    cells[i] = OPEN
    stack = []  # the rooms below ``i`` on the search path
    dead_ends = []
    entered = 0  # the room stride that entered ``i``, until ``i`` has a child
    s = rng.state
    while True:
        options = choices[
            (cells[i + 2] & 1)
            | (cells[i + w2] & 1) << 1
            | (cells[i - 2] & 1) << 2
            | (cells[i - w2] & 1) << 3
        ]
        if options:
            k = len(options)
            while True:  # ``rng.randbelow(k)``: one step per draw, k = 1 too
                s = (s + INCREMENT) & MASK64
                if k == 1:
                    pick = 0
                    break
                z = ((s ^ (s >> 30)) * MIX1) & MASK64
                z = ((z ^ (z >> 27)) * MIX2) & MASK64
                z ^= z >> 31
                if z < _LIMITS[k]:
                    pick = z % k
                    break
            d2 = options[pick]
            cells[i + d2 // 2] = OPEN
            stack.append(i)
            i += d2
            cells[i] = OPEN
            entered = d2
            continue
        if entered:  # ``i`` had no unvisited neighbour on arrival: a leaf
            dead_ends.append((i, -entered // 2))
            entered = 0
        if not stack:
            break
        i = stack.pop()
    rng.state = s

    first = [d for d in shared.offsets if cells[origin + d] == OPEN]
    if len(first) == 1:
        dead_ends.append((origin, first[0]))
    dead_ends.sort()
    return cells, dead_ends


def _braid_dead_ends(cells: bytearray, dead_ends: list, steps: tuple, rng: SplitMix64) -> None:
    """Open the far wall behind some dead-end rooms, creating loops.

    Works in place on the padded layout, taking the dead ends of the
    carved tree in index order. Each one independently braids with
    probability BRAID_PROBABILITY. The opened wall prefers the direction
    opposite the room's single opening.
    """
    for i, open_step in dead_ends:
        if rng.random() >= BRAID_PROBABILITY:
            continue
        # Never empty: only the origin's braid can reach a dead end, which keeps a wall.
        candidates = [d for d in steps if cells[i + d] == WALL and cells[i + 2 * d] == OPEN]
        pick = -open_step if -open_step in candidates else candidates[0]
        cells[i + pick] = OPEN


def nearest_path(cells, stride: int, start: int, reached) -> list | None:
    """Shortest path over OPEN bytes to the nearest index not yet reached.

    Breadth-first over the flat indices of the layout bytes ``cells``
    (``stride`` bytes wide) from ``start``, expanding E, S, W, N. Returns
    the indices to step onto in order (excluding ``start``) up to the
    first one whose ``reached`` byte is 0, or None when none is reachable.
    Its only scratch is one copy of ``cells``, which it leaves unchanged:
    OPEN is 0, and a discovered index is marked ``4 + heading`` with the
    heading it was entered by, so ``marked_path`` reads the path back.
    """
    if not reached[start]:
        return []
    seen = bytearray(cells)
    seen[start] = WALL  # discovered, and never a mark to step back from
    frontier = [start]
    push = frontier.append
    for i in frontier:  # a FIFO queue, so the first unreached push ends the search
        # The four headings unrolled; ``not seen[j]`` is ``seen[j] == OPEN``.
        j = i + 1
        if not seen[j]:
            seen[j] = 4
            if not reached[j]:
                return marked_path(seen, stride, start, j)
            push(j)
        j = i + stride
        if not seen[j]:
            seen[j] = 5
            if not reached[j]:
                return marked_path(seen, stride, start, j)
            push(j)
        j = i - 1
        if not seen[j]:
            seen[j] = 6
            if not reached[j]:
                return marked_path(seen, stride, start, j)
            push(j)
        j = i - stride
        if not seen[j]:
            seen[j] = 7
            if not reached[j]:
                return marked_path(seen, stride, start, j)
            push(j)
    return None


def marked_path(marks, stride: int, start: int, end: int) -> list:
    """The indices after ``start`` up to ``end``, each marked ``4 + heading``.

    A mark is the heading of the step that entered its index, so the
    path is read back from ``end`` one step against each mark.
    """
    back = (0, 0, 0, 0, 1, stride, -1, -stride)  # offset of each mark
    path = []
    i = end
    while i != start:
        path.append(i)
        i -= back[marks[i]]
    path.reverse()
    return path


_GLYPHS = bytes.maketrans(bytes([OPEN, WALL]), b".#")


def to_text(maze: MazeGrid) -> str:
    rows = [bytearray(row.translate(_GLYPHS)) for row in maze.walls]
    tx, ty = maze.target
    rows[tx][ty] = ord("T")
    rows[0][0] = ord("S")
    return "\n".join([f"{maze.n} {maze.seed}"] + [row.decode() for row in rows]) + "\n"


def from_text(text: str) -> MazeGrid:
    lines = text.removesuffix("\n").split("\n")  # only "\n" ends a line; the last is optional
    if not text:
        raise MazeFormatError("empty maze text")
    try:
        n, seed = map(int, lines[0].split())
    except ValueError as exc:  # not two ints
        raise MazeFormatError(f"bad header line: {lines[0]!r}") from exc
    if lines[0] != f"{n} {seed}":  # only the form ``to_text`` writes
        raise MazeFormatError(f"bad header line: {lines[0]!r}")
    body = lines[1:]
    if len(body) != n:
        raise MazeFormatError(f"expected {n} rows, got {len(body)}")

    markers = {}  # "S" or "T" -> its cell
    for x, row in enumerate(body):
        if len(row) != n:
            raise MazeFormatError(f"row {x} has length {len(row)}, expected {n}")
        for y, ch in enumerate(row):
            if ch in markers:
                raise MazeFormatError(f"{ch} marker at both {markers[ch]} and {(x, y)}")
            if ch in "ST":
                markers[ch] = (x, y)
            elif ch not in "#.":
                raise MazeFormatError(f"unknown cell character {ch!r} at ({x}, {y})")
    start_seen, target_seen = markers.get("S"), markers.get("T")
    if start_seen != (0, 0):
        raise MazeFormatError(f"start marker must sit at (0, 0), found {start_seen}")
    if target_seen != (n // 2, n // 2):
        raise MazeFormatError(
            f"target marker must sit at ({n // 2}, {n // 2}), found {target_seen}"
        )
    walls = [[ch == "#" for ch in row] for row in body]
    return MazeGrid(n=n, walls=walls, seed=seed)
