"""One suite process of a benchmark run.

``run.py`` starts this module once per measured pass, so that peak
memory belongs to one pass and traced and untraced passes never share a
process. It drives the public entry points the way ``mazeswitch run
--out`` does (``run_suite``, then ``write_records``, ``write_report_csv``
and ``write_report_json``), gates every episode, and prints one JSON
object as its last line of output.

    python3 -m perfbench.child --workload small-all --seed 0 --out DIR \\
        [--seconds 30 | --rounds 3] [--traced --spans FILE] [--serial-check]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from mazeswitch import bench
from mazeswitch.bench import SuiteConfig

from .calibrate import NOMINAL_S, Calibrator
from .digest import check_logs, episode_key
from .tracer import Tracer, pop_episode_seconds, timed_episode
from .workloads import MIN_ROUNDS, WORKLOADS

GOLDEN = Path(__file__).with_name("golden.json")
MAX_ROUNDS = 1000


def load_pins(workload: str, seed: int) -> dict:
    """Pinned digests of this workload and seed: {round index: [digest, ...]}."""
    pins = json.loads(GOLDEN.read_text())["workloads"].get(workload, {})
    return {int(k): v.split() for k, v in pins.get(str(seed), {}).items()}


def check_outputs(logs, report, out: Path) -> list:
    """Cross-check the written files against the logs they came from."""
    problems = []
    records = bench.read_records(out / "episodes.jsonl")
    steps = sum(log.total_steps for log in logs)
    if len(records) != len(logs):
        problems.append(f"episodes.jsonl holds {len(records)} records for {len(logs)} episodes")
    elif sum(r.get("total_steps", 0) for r in records) != steps:
        problems.append("total_steps in episodes.jsonl do not sum to the suite's steps")
    rows = bench.read_report_csv(out / "report.csv")
    cells = {}
    for log in logs:
        key = (log.config.n, log.config.variant.name)
        cells[key] = cells.get(key, 0) + 1
    csv_steps = sum(round(r["mean_steps"] * cells.get((r["size"], r["variant"]), 0)) for r in rows)
    if len(rows) != len(cells) or csv_steps != steps:
        problems.append("report.csv rows do not add up to the suite's episodes and steps")
    if len(bench.read_report_json(out / "report.json")["rows"]) != len(rows):
        problems.append("report.json and report.csv disagree on the row count")
    return problems


def run_round(workload, seed, k, out, pins, calibrator, *, jobs=None, time_episodes=False, tracer=None):
    """Run, write and gate round ``k``; returns (result dict, episode keys).

    The timed section is bracketed by reference-loop samples; ``speed``
    is their mean over the loop's nominal time, so dividing a time by it
    scales the time to the reference machine speed.
    """
    suite = SuiteConfig(**workload.suite_kwargs(seed, k, jobs))
    result = {"round": k, "episodes": workload.episodes_per_round}
    before = calibrator.sample()
    previous = bench.run_episode
    if time_episodes:
        bench.run_episode = timed_episode
    try:
        t0 = perf_counter()
        report, logs = bench.run_suite(suite)
        samples = [pop_episode_seconds(log) for log in logs] if time_episodes else None
        if tracer is not None:
            tracer.absorb(logs)
        bench.write_records(logs, out / "episodes.jsonl")
        bench.write_report_csv(report, out / "report.csv")
        bench.write_report_json(report, out / "report.json")
        result["suite_s"] = perf_counter() - t0
    except Exception:  # a failing suite fails its whole round, not the run
        result["failures"] = {"<round>": [traceback.format_exc(limit=3)]}
        result["failed"] = workload.episodes_per_round
        return result, []
    finally:
        bench.run_episode = previous
    result["speed"] = (before + calibrator.sample()) / 2 / NOMINAL_S
    if samples is not None:
        result["episode_samples"] = [(dt, log.total_steps) for dt, log in zip(samples, logs)]

    digests, failures = check_logs(logs, pins.get(k))
    output_problems = check_outputs(logs, report, out)
    if output_problems:
        failures["<files>"] = output_problems
    # A problem with the round as a whole (files, pin count) fails every episode in it.
    whole_round = any(key.startswith("<") for key in failures)
    result.update(
        steps=sum(log.total_steps for log in logs),
        switched=sum(log.switch_step is not None for log in logs),
        step_limited=sum(log.outcome != "success" for log in logs),
        convergence_steps=sum(
            log.total_steps - log.switch_step for log in logs if log.switch_step is not None
        ),
        records_bytes=(out / "episodes.jsonl").stat().st_size,
        result_bytes=sum(len(pickle.dumps(log)) for log in logs),
        digests=digests,
        round_digest=hashlib.sha256("".join(digests).encode()).hexdigest()[:16],
        failures=failures,
        failed=len(logs) if whole_round else len(failures),
    )
    return result, [episode_key(log) for log in logs]


def peak_rss_kb() -> dict:
    """Peak resident memory of this process and of its largest finished child."""
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def trace_summary(tracer: Tracer) -> dict:
    return {
        "stats": {name: list(st) for name, st in tracer.stats.items()},
        "remote_episode_s": tracer.remote_episode_s,
    }


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        for name, key, t0, t1, pid in tracer.spans:
            fh.write(json.dumps({"name": name, "episode": key, "start": t0, "end": t1, "pid": pid}))
            fh.write("\n")


def serial_check(workload, seed: int, out: Path, pins: dict, pooled: dict, keys: list) -> dict:
    """Round 0 run serially must behave exactly as it did in the pool."""
    serial, _ = run_round(workload, seed, 0, out, pins, Calibrator(1), jobs=1)
    a, b = pooled.get("digests"), serial.get("digests")
    if a is None or b is None:
        mismatched = ["<round>"]
    else:
        mismatched = [key for key, x, y in zip(keys, a, b) if x != y]
    return {"episodes": serial["episodes"], "mismatched": mismatched, "failed": serial["failed"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--serial-check", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pins = load_pins(workload.name, args.seed)
    min_rounds = args.rounds or MIN_ROUNDS

    tracer = Tracer() if args.traced else None
    rounds = []
    first_keys = []
    # The calibration pool starts before any tracer, so its workers stay untraced.
    with Calibrator(workload.jobs) as calibrator:
        if tracer is not None:
            tracer.install()
        try:
            started = perf_counter()
            for k in range(MAX_ROUNDS):
                if k >= min_rounds and (
                    args.seconds is None or perf_counter() - started >= args.seconds
                ):
                    break
                result, keys = run_round(
                    workload, args.seed, k, out, pins, calibrator,
                    time_episodes=tracer is None, tracer=tracer,
                )
                rounds.append(result)
                if k == 0:
                    first_keys = keys
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss = peak_rss_kb()

    output = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": rounds,
        "peak_rss_kb": rss,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
    if args.serial_check:
        output["serial_check"] = serial_check(workload, args.seed, out, pins, rounds[0], first_keys)
    if tracer is not None:
        output["trace"] = trace_summary(tracer)
        output["leftover_wrappers"] = Tracer.leftovers()
        if args.spans:
            write_spans(tracer, args.spans)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
