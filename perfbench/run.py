"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small-all --seed 0 --seconds 30 --trace 0

Run it from the repository root. With ``--trace 0`` it times the
set-up five times, then runs the workload's suite in rounds for
``--seconds`` seconds in one fresh process and prints the end-to-end
metrics. With ``--trace 1`` it runs the workload's fixed rounds three
times, each in its own process: once untraced and twice with timing
wrappers around every layer. It checks that the two traced passes count
exactly the same work and the same steps as the untraced one, and prints
the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Outputs go under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import self_time, tail_percentile  # noqa: E402
from perfbench.tracer import CALLS, CHILD, EXTRA, TOTAL  # noqa: E402
from perfbench.workloads import MIN_ROUNDS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0
WORK_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cal_steps_per_s": "1/s",
    "cal_episode_us_per_step_p50": "us",
    "peak_rss_mb": "MB",
    "records_bytes_per_step": "B",
    "passed_frac": "fraction",
}

PER_LAYER_UNITS = {
    "grid.carve.calls": "count",
    "grid.carve.ms": "ms",
    "grid.carve.calls_per_maze": "count",
    "grid.sense.calls": "count",
    "grid.sense.ms": "ms",
    "grid.probe.calls": "count",
    "grid.note.calls": "count",
    "spiral.step.calls": "count",
    "spiral.step.self_ms": "ms",
    "pathfind.plan.calls": "count",
    "pathfind.replans": "count",
    "pathfind.plan.ms": "ms",
    "pathfind.follow.calls": "count",
    "pathfind.walked_per_planned": "ratio",
    "qlearn.decisions": "count",
    "qlearn.ms": "ms",
    "episode.steps": "count",
    "episode.self_ms": "ms",
    "records.serialize_ms": "ms",
    "records.bytes": "B",
    "records.bytes_per_step": "B",
    "bench.pool.result_bytes": "B",
    "bench.pool.busy_frac": "fraction",
    "bench.suite.self_ms": "ms",
    "bench.suite_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}

QLEARN_LAYERS = ("qlearn.discretize", "qlearn.select_action", "qlearn.q_update", "qlearn.decision_reward")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, workload, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def child(self, *extra: str, label: str) -> dict:
        out = self.work_dir / label
        cmd = [
            sys.executable, "-m", "perfbench.child",
            "--workload", self.workload.name, "--seed", str(self.seed), "--out", str(out), *extra,
        ]
        with subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True) as proc:
            try:
                stdout, _ = proc.communicate(timeout=self._remaining())
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{label} pass did not finish in time")
        if proc.returncode != 0:
            raise BenchError(f"{label} pass exited with status {proc.returncode}")
        lines = stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{label} pass printed no result")
        return json.loads(lines[-1])

    def setup_once(self) -> float:
        """One set-up probe: seconds from process start to "ready"."""
        cmd = [sys.executable, "-m", "perfbench.ready", "--jobs", str(self.workload.jobs)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=self._remaining())
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("set-up probe did not finish in time")
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError("set-up probe failed")
        return elapsed


def provenance(versions: dict) -> dict:
    git_sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        if done.returncode == 0:
            git_sha = done.stdout.strip()
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_lines": src_lines,
    }


def failed_of(rounds) -> tuple:
    attempted = sum(r["episodes"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return attempted, failed


def report_failures(rounds, label: str) -> None:
    for r in rounds:
        for key, problems in sorted(r.get("failures", {}).items()):
            print(f"  FAILED {label} round {r['round']} {key}: {'; '.join(problems)}")


def measured_run(runner: Runner, seconds: int) -> tuple:
    w = runner.workload
    runner.setup_once()  # fills the byte-code and file caches; not counted
    setups = [runner.setup_once() for _ in range(SETUP_REPEATS)]
    extra = ["--seconds", str(seconds)]
    if w.jobs > 1:
        extra.append("--serial-check")
    res = runner.child(*extra, label="measured")

    rounds = res["rounds"]
    attempted, failed = failed_of(rounds)
    report_failures(rounds, "measured")
    ok = [r for r in rounds if "suite_s" in r]
    if not ok:
        raise BenchError("no round of the suite completed")
    serial = res.get("serial_check")
    if serial is not None:
        attempted += serial["episodes"]
        bad = len(serial["mismatched"]) + serial["failed"]
        failed += min(bad, serial["episodes"])
        for key in serial["mismatched"]:
            print(f"  FAILED serial check {key}: pool and serial digests differ")

    steps = sum(r["steps"] for r in ok)
    suite_s = [r["suite_s"] for r in ok]
    throughput = [r["steps"] / r["suite_s"] for r in ok]
    cal_throughput = [r["steps"] / r["suite_s"] * r["speed"] for r in ok]
    timed = [(r["speed"], r["episode_samples"]) for r in ok]
    episode_ms = [dt * 1e3 for _, samples in timed for dt, _ in samples]
    cal_us_per_step = [dt / speed / n * 1e6 for speed, samples in timed for dt, n in samples]
    rss = res["peak_rss_kb"]
    metrics = {
        "setup_s": statistics.median(setups),
        "cal_steps_per_s": statistics.median(cal_throughput),
        "cal_episode_us_per_step_p50": statistics.median(cal_us_per_step),
        "peak_rss_mb": (rss["self"] + rss["children"]) / 1024.0,
        "records_bytes_per_step": sum(r["records_bytes"] for r in ok) / steps,
        "passed_frac": 1.0 - failed / attempted,
    }

    print(
        f"perfbench {w.name} seed {runner.seed}: {len(rounds)} rounds of "
        f"{w.episodes_per_round} episodes, {steps} steps, "
        f"{sum(r['step_limited'] for r in ok)} episodes ended at the step limit"
    )
    print(
        f"  uncalibrated: suite_s per round median {statistics.median(suite_s):.4f} s, "
        f"steps_per_s median {statistics.median(throughput):.1f}; machine speed factor "
        f"median {statistics.median(r['speed'] for r in ok):.3f} "
        f"(min {min(r['speed'] for r in ok):.3f}, max {max(r['speed'] for r in ok):.3f})"
    )
    tail = tail_percentile(episode_ms)
    tail_text = "no tail (fewer than 20 samples)" if tail is None else f"p{tail[0]:g} {tail[1]:.3f} ms"
    print(
        f"  uncalibrated episode_ms: p50 {statistics.median(episode_ms):.3f} ms, {tail_text}, "
        f"n={len(episode_ms)}"
    )
    print(f"  setup_s samples: {', '.join(f'{t:.4f}' for t in setups)}")
    print(f"  provenance: {json.dumps(provenance(res['versions']), sort_keys=True)}")
    correct = failed == 0
    return correct, attempted, failed, metrics, END_TO_END_UNITS


def traced_run(runner: Runner) -> tuple:
    w = runner.workload
    rounds = str(MIN_ROUNDS)
    spans = WORK_DIR / "spans" / f"{w.name}-seed{runner.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    plain = runner.child("--rounds", rounds, label="untraced")
    traced = [
        runner.child("--rounds", rounds, "--traced", "--spans", str(spans), label="traced-a"),
        runner.child("--rounds", rounds, "--traced", label="traced-b"),
    ]

    attempted = failed = 0
    for label, res in zip(("untraced", "traced-a", "traced-b"), [plain, *traced]):
        a, f = failed_of(res["rounds"])
        attempted += a
        failed += f
        report_failures(res["rounds"], label)

    if not all(all("suite_s" in r for r in res["rounds"]) for res in (plain, *traced)):
        raise BenchError("a round of a traced or untraced pass failed; no layer figures")
    problems = cross_check(plain, traced)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    metrics = layer_metrics(w, plain, traced)
    print(
        f"perfbench {w.name} seed {runner.seed} traced: {MIN_ROUNDS} rounds x 3 passes, "
        f"{metrics['episode.steps']:.0f} steps per pass, spans in {spans.relative_to(ROOT)}"
    )
    print(f"  provenance: {json.dumps(provenance(plain['versions']), sort_keys=True)}")
    correct = failed == 0 and not problems
    return correct, attempted, failed, metrics, PER_LAYER_UNITS


def cross_check(plain: dict, traced: list) -> list:
    """Counts must repeat exactly and agree with the untraced pass's steps."""
    problems = []
    for res in traced:
        if res["leftover_wrappers"]:
            problems.append(f"wrappers left installed: {res['leftover_wrappers']}")
    a, b = traced
    for name in a["trace"]["stats"]:
        ca = a["trace"]["stats"][name]
        cb = b["trace"]["stats"][name]
        if ca[CALLS] != cb[CALLS] or ca[EXTRA] != cb[EXTRA]:
            problems.append(f"{name} counts differ between traced passes: {ca[CALLS]} vs {cb[CALLS]}")
    for key in ("steps", "switched", "records_bytes", "result_bytes", "round_digest"):
        values = [[r.get(key) for r in res["rounds"]] for res in (plain, a, b)]
        if not values[0] == values[1] == values[2]:
            problems.append(f"per-round {key} differ between passes: {values}")
    stats = a["trace"]["stats"]
    steps = sum(r["steps"] for r in plain["rounds"])
    switched = sum(r["switched"] for r in a["rounds"])
    replans = stats["pathfind.plan"][CALLS] - switched
    walked = stats["spiral.step"][CALLS] + stats["pathfind.follow"][CALLS] - replans
    if walked != steps:
        problems.append(
            f"layer counts give {walked} steps (spiral + follow - replans), episodes {steps}"
        )
    if stats["episode"][CALLS] != sum(r["episodes"] for r in a["rounds"]):
        problems.append("episode count differs from the rounds' episodes")
    return problems


def layer_metrics(w, plain: dict, traced: list) -> dict:
    a = traced[0]
    counts = a["trace"]["stats"]

    def ms(name: str) -> float:
        return statistics.fmean(t["trace"]["stats"][name][TOTAL] for t in traced) * 1e3

    def self_ms(name: str) -> float:
        return statistics.fmean(
            self_time(t["trace"]["stats"][name][TOTAL], t["trace"]["stats"][name][CHILD])
            for t in traced
        ) * 1e3

    def calls(name: str) -> int:
        return counts[name][CALLS]

    rounds = a["rounds"]
    steps = sum(r["steps"] for r in rounds)
    switched = sum(r["switched"] for r in rounds)
    waypoints = counts["pathfind.plan"][EXTRA]
    convergence = sum(r["convergence_steps"] for r in rounds)
    records_bytes = sum(r["records_bytes"] for r in rounds)
    plain_s = sum(r["suite_s"] for r in plain["rounds"])
    traced_s = statistics.fmean(sum(r["suite_s"] for r in t["rounds"]) for t in traced)
    suite_wall = statistics.fmean(t["trace"]["stats"]["bench.suite"][TOTAL] for t in traced)
    remote = statistics.fmean(t["trace"]["remote_episode_s"] for t in traced)
    episode_s = statistics.fmean(t["trace"]["stats"]["episode"][TOTAL] for t in traced)
    return {
        "grid.carve.calls": calls("grid.carve"),
        "grid.carve.ms": ms("grid.carve"),
        "grid.carve.calls_per_maze": calls("grid.carve") / (w.mazes_per_round * len(rounds)),
        "grid.sense.calls": calls("grid.sense"),
        "grid.sense.ms": ms("grid.sense"),
        "grid.probe.calls": calls("grid.probe"),
        "grid.note.calls": calls("grid.note"),
        "spiral.step.calls": calls("spiral.step"),
        "spiral.step.self_ms": self_ms("spiral.step"),
        "pathfind.plan.calls": calls("pathfind.plan"),
        "pathfind.replans": calls("pathfind.plan") - switched,
        "pathfind.plan.ms": ms("pathfind.plan"),
        "pathfind.follow.calls": calls("pathfind.follow"),
        "pathfind.walked_per_planned": convergence / waypoints if waypoints else 0.0,
        "qlearn.decisions": calls("qlearn.select_action"),
        "qlearn.ms": sum(ms(name) for name in QLEARN_LAYERS),
        "episode.steps": steps,
        "episode.self_ms": self_ms("episode"),
        "records.serialize_ms": ms("records.write"),
        "records.bytes": records_bytes,
        "records.bytes_per_step": records_bytes / steps,
        "bench.pool.result_bytes": sum(r["result_bytes"] for r in rounds),
        "bench.pool.busy_frac": episode_s / (w.jobs * suite_wall),
        "bench.suite.self_ms": max(0.0, self_ms("bench.suite") - remote / w.jobs * 1e3),
        "bench.suite_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mazeswitch" / "__init__.py").is_file():
        print(f"perfbench: no mazeswitch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_dir = WORK_DIR / f"run-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload], args.seed, work_dir)
    try:
        if args.trace:
            correct, attempted, failed, metrics, units = traced_run(runner)
        else:
            correct, attempted, failed, metrics, units = measured_run(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"  {name:28} {value:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
