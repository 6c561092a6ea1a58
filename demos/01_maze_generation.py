"""Seeded maze generation and the text format.

Every maze is a pure function of (size, seed): a depth-first perfect
maze on the room lattice, braided with a few extra openings, with the
start at the top-left corner and the target at the center always open
and connected.
"""

from mazeswitch import generate_maze, to_text, from_text

maze = generate_maze(16, seed=1)
print(to_text(maze))

open_cells = sum(row.count(0) for row in maze.walls)
print(f"size:        {maze.n}x{maze.n}")
print(f"target:      {maze.target}")
print(f"open cells:  {open_cells} of {maze.n * maze.n} "
      f"({100 * open_cells / maze.n ** 2:.1f}%)")

# The same (size, seed) pair always carves the same walls. generate_maze
# remembers its last maze, so forget it first to carve a second time.
generate_maze.cache_clear()
again = generate_maze(16, seed=1)
print(f"regenerated layout identical: {maze.layout_hash() == again.layout_hash()}")

# The text form round-trips exactly, so mazes can be stored as goldens.
restored = from_text(to_text(maze))
print(f"text round-trip identical:    {restored.walls == maze.walls}")
