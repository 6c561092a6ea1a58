"""Experiment matrix runner, aggregation, ablation, and report files.

A suite executes every (size, maze index, variant) cell exactly once, so
``SuiteConfig`` rejects a size or variant listed twice.
Maze ``i`` of a size uses seed ``base_seed + i``; learning variants draw
their exploration stream from ``base_seed XOR RL_SEED_SALT``. The salt
depends only on the convergence mode, never on the base policy, so the
spiral and sentinel flavours of the learning agent share one stream and
stay step-for-step comparable.

Reports aggregate steps per (size, variant): mean, median, min, max,
population standard deviation, success rate, plus a histogram of the
coverage level at which switches happened and, for learning variants, a
histogram of selected thresholds. Every statistic is recomputable from
the episode record stream; aggregation happens in a fixed order, so the
report's rows are identical whether episodes ran on one worker or many.
The provenance is not: it echoes ``jobs`` and the suite's wall clock.

The primary metric is the step count: it is exact and hardware
independent, where wall-clock time is not. The only wall time recorded
is the whole suite's, ``provenance["wall_clock_seconds"]`` in
``report.json``; it is informational and never asserted.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .episode import (
    EpisodeConfig,
    SUCCESS,
    VARIANT_ORDER,
    VARIANTS,
    record_to_json,
    run_episode,
)
from .grid import check_maze_size
from .qlearn import THRESHOLDS

RL_SEED_SALT = 0x51

DEFAULT_SIZES = (16, 32, 64)
LONG_SIZES = (16, 32, 64, 128)

ABLATION_VARIANTS = ("spiral", "spiral_conv", "spiral_rl")


@dataclass(frozen=True)
class SuiteConfig:
    sizes: tuple = DEFAULT_SIZES
    mazes_per_size: int = 10
    variants: tuple = VARIANT_ORDER
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("sizes must not be empty")
        if not self.variants:
            raise ValueError("variants must not be empty")
        for name, values, kind in (
            ("sizes", self.sizes, int),
            ("mazes_per_size", (self.mazes_per_size,), int),
            ("variants", self.variants, str),
            ("base_seed", (self.base_seed,), int),
            ("jobs", (self.jobs,), int),
        ):
            wrong = [v for v in values if type(v) is not kind]  # a bool is not an int here
            if wrong:
                raise ValueError(f"{name} must be {kind.__name__}, not {', '.join(map(repr, wrong))}")
        for n in self.sizes:
            check_maze_size(n)
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.mazes_per_size < 1:
            raise ValueError("mazes_per_size must be at least 1")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ValueError(f"unknown variants: {unknown}; choose from {', '.join(VARIANT_ORDER)}")
        for name, values in (("sizes", self.sizes), ("variants", self.variants)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} must not repeat a value: {', '.join(map(str, repeated))}")


@dataclass
class VariantRow:
    size: int
    variant: str
    mean_steps: float
    median_steps: float
    min_steps: int
    max_steps: int
    stddev: float
    success_rate: float
    switch_coverage_hist: list  # 10 decile bins of coverage at switch
    threshold_hist: dict  # threshold -> selection count, learning variants only


CSV_COLUMNS = {  # report.csv column -> the type ``read_report_csv`` gives it
    name: kind for name, kind in get_type_hints(VariantRow).items() if kind in (int, float, str)
}  # VariantRow's scalar fields, in field order
CSV_HEADER = tuple(CSV_COLUMNS)


@dataclass
class SuiteReport:
    rows: list
    provenance: dict = field(default_factory=dict)

    def row(self, size: int, variant: str) -> VariantRow:
        for r in self.rows:
            if r.size == size and r.variant == variant:
                return r
        raise KeyError(f"no row for size {size}, variant {variant}")


def rl_seed_for(suite: SuiteConfig, variant_name: str) -> int:
    variant = VARIANTS[variant_name]
    return suite.base_seed ^ RL_SEED_SALT if variant.convergence == "rl" else 0


def episode_configs(suite: SuiteConfig) -> list:
    """The full matrix, in the canonical (size, maze, variant) order."""
    configs = []
    for n in suite.sizes:
        for i in range(suite.mazes_per_size):
            for vname in suite.variants:
                configs.append(
                    EpisodeConfig(
                        n=n,
                        maze_seed=suite.base_seed + i,
                        variant=VARIANTS[vname],
                        rl_seed=rl_seed_for(suite, vname),
                    )
                )
    return configs


def run_suite(suite: SuiteConfig) -> tuple[SuiteReport, list]:
    """Execute the matrix and aggregate; returns (report, episode logs).

    Worker count changes wall-clock only: logs are collected in config
    order and reduced sequentially, so results match ``jobs=1`` exactly.
    The pool never has more workers than episodes (it starts them all at
    once), and a single worker runs the episodes in this process.
    """
    configs = episode_configs(suite)
    workers = min(suite.jobs, len(configs))
    started = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            logs = list(pool.map(run_episode, configs, chunksize=4))
    else:
        logs = [run_episode(cfg) for cfg in configs]
    elapsed = time.perf_counter() - started

    report = SuiteReport(
        rows=aggregate(suite, logs),
        provenance={
            "config": asdict(suite),
            "version": __version__,
            "wall_clock_seconds": elapsed,  # informational, hardware-bound
        },
    )
    return report, logs


def aggregate(suite: SuiteConfig, logs: list) -> list:
    """Deterministic reduce of episode logs into per-(size, variant) rows.

    Every (size, variant) cell of ``suite`` needs a log, as ``run_suite`` gives it.
    """
    by_cell = {}
    for log in logs:
        by_cell.setdefault((log.config.n, log.config.variant.name), []).append(log)

    rows = []
    for n in suite.sizes:
        for vname in suite.variants:
            cell = by_cell[(n, vname)]
            steps = [log.total_steps for log in cell]
            hist = [0] * 10
            for log in cell:
                if log.switch_coverage is not None:
                    hist[min(int(log.switch_coverage // 10), 9)] += 1
            thresholds = {}
            if VARIANTS[vname].convergence == "rl":
                thresholds = {t: 0 for t in THRESHOLDS}
                for log in cell:
                    for d in log.decisions:
                        thresholds[d.action] += 1
            rows.append(
                VariantRow(
                    size=n,
                    variant=vname,
                    mean_steps=statistics.fmean(steps),
                    median_steps=float(statistics.median(steps)),
                    min_steps=min(steps),
                    max_steps=max(steps),
                    stddev=statistics.pstdev(steps),
                    success_rate=100.0
                    * sum(log.outcome == SUCCESS for log in cell)
                    / len(cell),
                    switch_coverage_hist=hist,
                    threshold_hist=thresholds,
                )
            )
    return rows


def ablation(report: SuiteReport) -> list:
    """Convergence ablation rows of a suite report: none vs fixed vs learned threshold.

    Runs nothing. Each row carries the mean steps and the percentage delta
    against the no-convergence baseline of its size.
    """
    present = {r.variant for r in report.rows}
    missing = [v for v in ABLATION_VARIANTS if v not in present]
    if missing:
        raise ValueError(f"ablation needs variants {ABLATION_VARIANTS}, missing {missing}")
    rows = []
    for n in dict.fromkeys(r.size for r in report.rows):
        baseline = report.row(n, "spiral").mean_steps
        for vname in ABLATION_VARIANTS:
            mean = report.row(n, vname).mean_steps
            rows.append(
                {
                    "size": n,
                    "variant": vname,
                    "mean_steps": mean,
                    "delta_pct": 0.0 if vname == "spiral" else 100.0 * (mean - baseline) / baseline,
                }
            )
    return rows


def write_records(logs: list, path) -> None:
    """One JSON object per line, in suite order."""
    with Path(path).open("w") as fh:
        for log in logs:
            fh.write(record_to_json(log))
            fh.write("\n")


def read_records(path) -> list:
    with Path(path).open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_report_csv(report: SuiteReport, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in report.rows:
            writer.writerow([getattr(r, column) for column in CSV_HEADER])


def read_report_csv(path) -> list:
    """Rows as dicts with the same value types the report carries."""
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_HEADER:
            raise RuntimeError(f"unexpected CSV header in {path}")
        return [{k: cast(rec[k]) for k, cast in CSV_COLUMNS.items()} for rec in reader]


def write_report_json(report: SuiteReport, path) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")


def read_report_json(path) -> dict:
    return json.loads(Path(path).read_text())


def format_report(report: SuiteReport) -> str:
    lines = [
        f"{'size':>5} {'variant':14} {'mean':>9} {'median':>9} {'min':>6} {'max':>6} "
        f"{'stddev':>9} {'success':>8}"
    ]
    for r in report.rows:
        lines.append(
            f"{r.size:>5} {r.variant:14} {r.mean_steps:>9.1f} {r.median_steps:>9.1f} "
            f"{r.min_steps:>6} {r.max_steps:>6} {r.stddev:>9.1f} {r.success_rate:>7.1f}%"
        )
    return "\n".join(lines)


def format_ablation(rows: list) -> str:
    lines = [f"{'size':>5} {'variant':14} {'mean steps':>11} {'vs baseline':>12}"]
    for row in rows:
        delta = "baseline" if row["variant"] == "spiral" else f"{row['delta_pct']:+.1f}%"
        lines.append(
            f"{row['size']:>5} {row['variant']:14} {row['mean_steps']:>11.1f} {delta:>12}"
        )
    return "\n".join(lines)
