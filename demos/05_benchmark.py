"""The benchmark matrix: six agent variants on seeded mazes.

Pure exploration is the baseline; a fixed 40% threshold helps; learning
the threshold inside each episode helps more, and the gap widens with
maze size. The sentinel variants subsample their stored visit history
and walk step-for-step identically to their full-memory twins.
"""

from mazeswitch import SuiteConfig, ablation, run_suite
from mazeswitch.bench import format_ablation, format_report

suite = SuiteConfig(sizes=(16, 32), mazes_per_size=10, base_seed=0)
report, logs = run_suite(suite)
print(format_report(report))

by_key = {
    (log.config.n, log.config.maze_seed, log.config.variant.name): log for log in logs
}
pairs = sum(
    1
    for (n, seed, vname), log in by_key.items()
    if vname.startswith("spiral")
    and log.trajectory == by_key[(n, seed, vname.replace("spiral", "sentinel"))].trajectory
)
print(f"\nspiral/sentinel trajectory parity: {pairs}/30 pairs identical")

print("\nconvergence ablation at 32x32:")
rows = [row for row in ablation(report) if row["size"] == 32]
print(format_ablation(rows))
