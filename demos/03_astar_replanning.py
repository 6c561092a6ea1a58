"""Goal-directed navigation under partial knowledge.

Plans assume unprobed cells are open, so the first route is nearly a
straight line. The agent senses the walls around every cell it stands
on, and ``follow_plan(plan, knowledge)`` reads that: it returns the
next waypoint, or None when that waypoint turns out to be a wall, and
then the agent replans from where it stands and tries again. Every
replan follows at least one newly sensed wall, so the loop always
terminates. The planner works on flat indices of the grid's
``Layout``; ``knowledge.index`` and ``knowledge.cell`` convert to and
from ``(x, y)``.
"""

from mazeswitch import WALL, KnowledgeMap, generate_maze
from mazeswitch.pathfind import astar_plan, follow_plan

maze = generate_maze(16, seed=1)
knowledge = KnowledgeMap(maze.n)
pos, target = knowledge.index(0, 0), knowledge.index(*maze.target)
knowledge.observe_surroundings(maze, pos)

moves = replans = 0
print(f"walking from (0, 0) to {maze.target} with no prior wall knowledge\n")
while pos != target:
    plan = astar_plan(pos, target, knowledge)
    print(f"plan of cost {plan.cost:2d} from {knowledge.cell(pos)} "
          f"(knows {knowledge.known.count(WALL):2d} walls)")
    while pos != target:
        nxt = follow_plan(plan, knowledge)
        if nxt is None:  # the next waypoint is a wall
            replans += 1
            break
        pos = nxt
        moves += 1
        knowledge.observe_surroundings(maze, pos)

print(f"\narrived in {moves} moves with {replans} replans")

# With full knowledge the plan is a true shortest path.
full = KnowledgeMap(maze.n)
for x in range(maze.n):
    for y in range(maze.n):
        if maze.walls[x][y]:
            full.note(full.index(x, y), WALL)
best = astar_plan(full.index(0, 0), target, full)
print(f"shortest path with full knowledge: {best.cost} moves")
