"""The benchmark's workloads and the seed schedule of their rounds.

A run executes its workload in rounds. Round ``k`` of seed ``s`` is one
``SuiteConfig`` whose mazes are ``base_seed .. base_seed + mazes - 1``
with ``base_seed = s * ROUND_STRIDE + k * mazes``, so a seed pins the
whole sequence of inputs and two seeds never share a maze while a run
stays under ``ROUND_STRIDE // mazes`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

ROUND_STRIDE = 100_000
MIN_ROUNDS = 3  # rounds every run executes; the pinned digests cover these

ALL_VARIANTS = ("spiral", "spiral_conv", "spiral_rl", "sentinel", "sentinel_conv", "sentinel_rl")


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple
    variants: tuple
    jobs: int
    mazes: int  # mazes per size in one round

    def base_seed(self, seed: int, round_index: int) -> int:
        return seed * ROUND_STRIDE + round_index * self.mazes

    def suite_kwargs(self, seed: int, round_index: int, jobs: int | None = None) -> dict:
        """Keyword arguments for ``mazeswitch.bench.SuiteConfig``."""
        return {
            "sizes": self.sizes,
            "mazes_per_size": self.mazes,
            "variants": self.variants,
            "base_seed": self.base_seed(seed, round_index),
            "jobs": self.jobs if jobs is None else jobs,
        }

    @property
    def episodes_per_round(self) -> int:
        return len(self.sizes) * self.mazes * len(self.variants)

    @property
    def mazes_per_round(self) -> int:
        return len(self.sizes) * self.mazes


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-all",
            sizes=(16, 32),
            variants=ALL_VARIANTS,
            jobs=1,
            mazes=5,
        ),
        Workload(
            name="large-explore",
            sizes=(128,),
            variants=("spiral", "sentinel"),
            jobs=1,
            mazes=1,
        ),
        Workload(
            name="large-switch",
            sizes=(128,),
            variants=("spiral_conv",),
            jobs=1,
            mazes=2,
        ),
        Workload(
            name="medium-pool",
            sizes=(64,),
            variants=ALL_VARIANTS,
            jobs=2,
            mazes=8,
        ),
    )
}
