"""Learning when to stop exploring.

A learning episode re-decides its switching threshold every 50 steps:
progress is bucketed into one of 50 states (coverage decile x distance
quintile), an epsilon-greedy policy picks one of the thresholds
{20, 30, 40, 50, 60}%, and the previous decision is credited with a
shaped interval reward. Crossing the active threshold switches the agent
to pathfinding for good; the terminal score then credits the final
decision.
"""

from mazeswitch import EpisodeConfig, VARIANTS, run_episode
from mazeswitch.qlearn import POTENTIAL_OFFSET

cfg = EpisodeConfig(n=32, maze_seed=7, variant=VARIANTS["spiral_rl"], rl_seed=2)
log = run_episode(cfg)

print(f"outcome: {log.outcome} in {log.total_steps} steps "
      f"(limit {cfg.step_limit})")
print(f"final coverage: {log.final_coverage:.1f}%")
if log.switch_step is not None:
    print(f"switched to pathfinding at step {log.switch_step} "
          f"({log.switch_coverage:.1f}% coverage)\n")

print("step  state  threshold  interval reward")
for d in log.decisions:
    print(f"{d.step:4d}  s{d.state_index:02d}    {d.action}%       {d.reward:+.3f}")

br = log.terminal_reward
print(f"\nterminal reward: steps {br.r_steps:+.2f}, coverage {br.r_coverage:+.2f}, "
      f"switch timing {br.r_switching:+.1f}  ->  total {br.total:.2f}")

reconstructed = (
    sum(d.reward for d in log.decisions)
    + log.terminal_decision_reward
    + POTENTIAL_OFFSET
)
print(f"interval rewards + offset reconstruct the total: "
      f"{reconstructed:.10f} == {br.total:.10f}")

touched = sum(1 for row in log.q_values for v in row if v != 0.0)
print(f"Q-table cells written during the episode: {touched}/250")
