"""Spiral coverage: concentric rings, local sensing, wall detours.

The walker starts at the corner heading east and sweeps the grid ring by
ring toward the center. It only ever senses its four neighbours; walls
push it into right-hand detours, and coverage is the share of distinct
cells it has stood on.
"""

from mazeswitch import KnowledgeMap, coverage_percent, generate_maze
from mazeswitch.grid import MazeGrid
from mazeswitch.spiral import SpiralState, spiral_next

# On an open grid the spiral is exact: n*n cells in n*n - 1 moves.
open_grid = MazeGrid(n=6, walls=[[0] * 6] * 6, target=(3, 3), seed=0)

knowledge = KnowledgeMap(6)
state = SpiralState()
knowledge.arrive(open_grid, (0, 0))
trace = [(0, 0)]
for _ in range(35):
    pos, state = spiral_next(state, open_grid, knowledge)
    trace.append(pos)
print("open 6x6 spiral:", " ".join(f"({x},{y})" for x, y in trace[:12]), "...")
print(f"covered {knowledge.visited_count}/36 cells in {len(trace) - 1} moves\n")

# On a real maze the ring route is constantly interrupted; detours keep
# coverage growing anyway.
maze = generate_maze(16, seed=1)
knowledge = KnowledgeMap(maze.n)
state = SpiralState()
knowledge.arrive(maze, (0, 0))
for step in range(1, 4 * 16 * 16 + 1):
    spiral_next(state, maze, knowledge)
    if step % 64 == 0:
        print(f"step {step:4d}: coverage {coverage_percent(knowledge):5.1f}%, "
              f"known walls {len(knowledge.known_walls):3d}")
    if knowledge.visited_count == 131:  # every reachable cell of this maze
        print(f"\nall 131 reachable cells covered after {step} moves")
        break
