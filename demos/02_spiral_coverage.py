"""Spiral coverage: concentric rings, local sensing, wall detours.

The walker starts at the corner heading east and sweeps the grid ring by
ring toward the center. It arrives on the corner itself, so a fresh
``KnowledgeMap`` is all a walk needs. It only ever senses its four
neighbours; walls push it into right-hand detours, and coverage is the
share of distinct cells it has stood on. The walker moves on flat
indices of the grid's ``Layout``; ``knowledge.index`` and
``knowledge.cell`` convert to and from ``(x, y)``.
"""

from mazeswitch import generate_maze
from mazeswitch.grid import WALL, KnowledgeMap, MazeGrid, coverage_percent
from mazeswitch.spiral import spiral_next, spiral_walk

# On an open grid the spiral is exact: n*n cells in n*n - 1 moves.
open_grid = MazeGrid(n=6, walls=[[0] * 6] * 6, seed=0)

knowledge = KnowledgeMap(6)
walk = spiral_walk(open_grid, knowledge, bytearray())  # appends each step's code
trace = [knowledge.index(0, 0)]  # the walk arrives on (0, 0) itself, at its first step
for _ in range(35):
    trace.append(spiral_next(walk))
cells = map(knowledge.cell, trace[:12])
print("open 6x6 spiral:", " ".join(f"({x},{y})" for x, y in cells), "...")
print(f"covered {knowledge.visited_count}/36 cells in {len(trace) - 1} moves\n")

# On a real maze the ring route is constantly interrupted; detours keep
# coverage growing anyway.
maze = generate_maze(16, seed=1)
knowledge = KnowledgeMap(maze.n)
walk = spiral_walk(maze, knowledge, bytearray())
for step in range(1, 4 * 16 * 16 + 1):
    spiral_next(walk)
    if step % 64 == 0:
        print(f"step {step:4d}: coverage {coverage_percent(knowledge):5.1f}%, "
              f"known walls {knowledge.known.count(WALL):3d}")
    if knowledge.visited_count == 131:  # every reachable cell of this maze
        print(f"\nall 131 reachable cells covered after {step} moves")
        break
