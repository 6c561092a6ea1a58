"""Experiment matrix runner, aggregation, ablation, and report files.

A suite executes every (size, maze index, variant) cell exactly once, so
``SuiteConfig`` takes its sizes and variants as tuples and rejects a
size or variant listed twice.
Maze ``i`` of a size uses seed ``base_seed + i``; learning variants draw
their exploration stream from ``base_seed XOR RL_SEED_SALT``. The salt
depends only on the convergence mode, never on the base policy, so the
spiral and sentinel flavours of the learning agent share one stream and
stay step-for-step comparable.

The variants of one base on one maze walk the same coverage route, so
a suite runs its episodes in tasks of one ``(n, maze_seed, base)``
group each, in one process: each episode replays the last whole walk
that one before it stored, one that ended without a switch (see
``episode``). A pool gets one task at a time and returns the logs,
which go back into config order.

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
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial
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

_SQRT_BITS = 2 * sys.float_info.mant_dig + 3  # 109 for a 53-bit float


@dataclass(frozen=True)
class SuiteConfig:
    sizes: tuple = DEFAULT_SIZES
    mazes_per_size: int = 10
    variants: tuple = VARIANT_ORDER
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        for name, values in (("sizes", self.sizes), ("variants", self.variants)):
            if not isinstance(values, tuple):  # a str would pass as its letters
                raise ValueError(f"{name} must be a tuple, not {values!r}")
            if not values:
                raise ValueError(f"{name} must not be empty")
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

    A task is one ``(n, maze_seed, base)`` group: the episodes that share
    a coverage walk, in config order, run one after another in one
    process, so each replays the whole walk that one before it stored.
    Worker count changes wall-clock only: logs are put back in config
    order and reduced sequentially, so results match ``jobs=1`` exactly.
    The pool never has more workers than tasks (it starts them all at
    once), and a single worker runs the tasks in this process.
    """
    configs = episode_configs(suite)
    groups = {}  # (n, maze_seed, base) -> the places of its configs
    for k, cfg in enumerate(configs):
        groups.setdefault((cfg.n, cfg.maze_seed, cfg.variant.base), []).append(k)
    tasks = [[configs[k] for k in places] for places in groups.values()]
    run = partial(_run_group, run_episode)  # this module's binding, read at call time
    workers = min(suite.jobs, len(tasks))
    started = time.perf_counter()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled suite pays for it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run, tasks))
    else:
        done = [run(task) for task in tasks]
    elapsed = time.perf_counter() - started
    logs = [None] * len(configs)
    for places, group_logs in zip(groups.values(), done):
        for k, log in zip(places, group_logs):
            logs[k] = log

    report = SuiteReport(
        rows=aggregate(suite, logs),
        provenance={
            "config": asdict(suite),
            "version": __version__,
            "wall_clock_seconds": elapsed,  # informational, hardware-bound
        },
    )
    return report, logs


def _run_group(run_episode, configs: list) -> list:
    """The logs of one task's episodes, run in order."""
    return [run_episode(cfg) for cfg in configs]


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
                    mean_steps=sum(steps) / len(steps),
                    median_steps=_median(steps),
                    min_steps=min(steps),
                    max_steps=max(steps),
                    stddev=_pstdev(steps),
                    success_rate=100.0
                    * sum(log.outcome == SUCCESS for log in cell)
                    / len(cell),
                    switch_coverage_hist=hist,
                    threshold_hist=thresholds,
                )
            )
    return rows


def _median(steps: list) -> float:
    """The median of ints as a float, the mean of the middle two for an even count."""
    ordered = sorted(steps)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return (ordered[half - 1] + ordered[half]) / 2


def _pstdev(steps: list) -> float:
    """Population standard deviation of ints, correctly rounded.

    The variance is the exact fraction ``(k * sum(x * x) - sum(x) ** 2) / k ** 2``,
    and its square root is rounded once, as ``statistics`` does from
    Python 3.11: scaled so that the integer root has 109 bits, rounded to
    odd, then to a float (https://bugs.python.org/msg407078). So the
    report reads the same on every supported Python; ``statistics.pstdev``
    in 3.10 rounds twice and can differ in the last digit.
    """
    k, total = len(steps), sum(steps)
    num, den = k * sum(x * x for x in steps) - total * total, k * k
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num  # round to odd
    return float(root << q) if q >= 0 else root / (1 << -q)


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
        fh.writelines(record_to_json(log) + "\n" for log in logs)


def read_records(path) -> list:
    """The JSON object on each non-blank line; ValueError names the file and line of any other."""
    records = []
    with Path(path).open("rb") as fh:  # so an undecodable line fails as its own line
        for k, line in enumerate(fh, 1):
            try:
                if line.strip():
                    records.append(record := json.loads(line))
                    if type(record) is not dict:
                        raise ValueError(f"a record is a JSON object, not {record!r:.40}")
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise ValueError(f"{path}, line {k}: {exc}") from None
    return records


def _csv_line(values) -> str:
    """One report.csv line: ``values`` as the csv module writes them, ending in ``\\r\\n``."""
    out = io.StringIO()
    csv.writer(out).writerow(values)
    return out.getvalue()


def write_report_csv(report: SuiteReport, path) -> None:
    with Path(path).open("w", newline="") as fh:
        fh.write(_csv_line(CSV_HEADER))
        fh.writelines(_csv_line(getattr(r, column) for column in CSV_HEADER) for r in report.rows)


def read_report_csv(path) -> list:
    """Rows as dicts with the report's value types; ValueError names the file and line at fault.

    Only text that ``write_report_csv`` writes is read: every line, the
    last one too, is its own values written again, and every float is
    finite.
    """
    *lines, rest = Path(path).read_bytes().split(b"\r\n")
    rows = []
    for k, line in enumerate(lines, 1):
        try:
            text = line.decode()
            fields = text.split(",")
            if k == 1:
                if fields != list(CSV_HEADER):
                    raise ValueError("unexpected CSV header")
                continue
            if len(fields) != len(CSV_HEADER):
                raise ValueError(f"a row must have {len(CSV_HEADER)} fields")
            row = {key: cast(v) for (key, cast), v in zip(CSV_COLUMNS.items(), fields)}
            if _csv_line(row.values()) != text + "\r\n":
                raise ValueError(f"the report writes this row otherwise: {text!r:.60}")
            if not all(math.isfinite(v) for v in row.values() if type(v) is float):
                raise ValueError("a report value must be finite")
        except ValueError as exc:  # UnicodeDecodeError too
            raise ValueError(f"{path}, line {k}: {exc}") from None
        rows.append(row)
    if rest or not lines:  # the writer ends every line, the header too, in \r\n
        message = "the last line does not end in \\r\\n" if lines else "unexpected CSV header"
        raise ValueError(f"{path}, line {len(lines) + 1}: {message}")
    return rows


def write_report_json(report: SuiteReport, path) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")


def read_report_json(path) -> dict:
    """The report as a dict; ValueError naming the file unless it is JSON with a ``rows`` list."""
    try:
        report = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path}: {exc}") from None
    if type(report) is not dict or type(report.get("rows")) is not list:
        raise ValueError(f"{path}: a report is a JSON object with a rows list, not {report!r:.40}")
    return report


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
