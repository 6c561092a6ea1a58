"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import mazeswitch.bench as bench  # noqa: E402
import mazeswitch.episode as episode  # noqa: E402
import mazeswitch.grid as grid  # noqa: E402
import mazeswitch.spiral as spiral  # noqa: E402
from mazeswitch.bench import SuiteConfig  # noqa: E402
from mazeswitch.episode import VARIANTS, EpisodeConfig, run_episode  # noqa: E402

from perfbench import run, tracer  # noqa: E402
from perfbench.digest import check_logs, episode_digest, log_problems  # noqa: E402
from perfbench.stats import nearest_rank, self_time, tail_percentile  # noqa: E402
from perfbench.tracer import CALLS, CHILD, TOTAL, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


# -- percentile helper --------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    values = list(range(n))
    got = tail_percentile(values)
    if pct is None:
        assert got is None
        return
    assert got[0] == pct
    assert got[1] == nearest_rank(values, pct)
    assert sum(v > got[1] for v in values) >= 10


def test_nearest_rank_matches_definition():
    assert nearest_rank([5, 1, 3, 2, 4], 50) == 3
    assert nearest_rank([5, 1, 3, 2, 4], 100) == 5
    assert nearest_rank(list(range(1, 101)), 90) == 90


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_children():
    assert self_time(1.0, 0.25) == 0.75
    assert self_time(1.0, 1.0 + 1e-12) == 0.0
    with pytest.raises(ValueError):
        self_time(1.0, 1.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_wrappers_account_self_time_through_nesting(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter", clock)
    t = Tracer()

    def inner():
        clock.now += 3.0

    wrapped_inner = t._wrap(inner, "grid.probe", keep_spans=False)

    def outer():
        clock.now += 2.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 1.0

    wrapped_outer = t._wrap(outer, "spiral.step", keep_spans=False)
    wrapped_outer()

    outer_stats = t.stats["spiral.step"]
    inner_stats = t.stats["grid.probe"]
    assert inner_stats[CALLS] == 2 and inner_stats[TOTAL] == 6.0 and inner_stats[CHILD] == 0.0
    assert outer_stats[CALLS] == 1 and outer_stats[TOTAL] == 9.0 and outer_stats[CHILD] == 6.0
    assert self_time(outer_stats[TOTAL], outer_stats[CHILD]) == 3.0
    assert t.stack == []


# -- behaviour-digest gate ----------------------------------------------------


@pytest.fixture(scope="module")
def logs():
    return [
        run_episode(EpisodeConfig(n=16, maze_seed=3, variant=VARIANTS[name], rl_seed=3 ^ 0x51))
        for name in ("spiral", "spiral_rl")
    ]


def test_gate_passes_unchanged_logs(logs):
    pinned = [episode_digest(log) for log in logs]
    digests, failures = check_logs(logs, pinned)
    assert digests == pinned
    assert failures == {}


@pytest.mark.parametrize(
    "perturb",
    [
        lambda log: replace(log, trajectory=log.trajectory[:-2] + [log.trajectory[-1], log.trajectory[-2]]),
        lambda log: replace(log, total_steps=log.total_steps + 1),
        lambda log: replace(log, final_coverage=log.final_coverage + 1e-9),
        lambda log: replace(log, q_values=[[v + 1e-12 for v in row] for row in log.q_values]),
        lambda log: replace(log, decisions=log.decisions[:-1]),
        lambda log: replace(log, switch_step=(log.switch_step or 0) + 1),
    ],
)
def test_gate_catches_a_perturbed_log(logs, perturb):
    pinned = [episode_digest(log) for log in logs]
    perturbed = [logs[0], perturb(logs[1])]
    _, failures = check_logs(perturbed, pinned)
    assert list(failures) == ["16/3/spiral_rl"]
    assert "digest differs from the pinned digest" in failures["16/3/spiral_rl"]


def test_invariants_catch_broken_trajectories_without_pins(logs):
    log = logs[0]
    assert log_problems(log) == []
    teleport = replace(log, trajectory=[(0, 0), (5, 5)] + log.trajectory[2:])
    assert any("non-unit move" in p for p in log_problems(teleport))
    short = replace(log, trajectory=log.trajectory[:-1])
    assert log_problems(short)


# -- tracing wrappers ---------------------------------------------------------


def _bindings():
    return {
        "grid.probe": grid.probe,
        "spiral.probe": spiral.probe,
        "spiral.spiral_next": spiral.spiral_next,
        "episode.generate_maze": episode.generate_maze,
        "bench.run_episode": bench.run_episode,
        "bench.run_suite": bench.run_suite,
        "KnowledgeMap.note": grid.KnowledgeMap.__dict__["note"],
    }


def test_tracer_wraps_every_binding_and_removes_every_wrapper():
    before = _bindings()
    t = Tracer()
    t.install()
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        with pytest.raises(RuntimeError):
            Tracer().install()
        suite = SuiteConfig(sizes=(16,), mazes_per_size=1, variants=("spiral", "spiral_conv"), base_seed=2)
        _, logs = bench.run_suite(suite)
    finally:
        t.uninstall()
    assert _bindings() == before
    assert Tracer.leftovers() == []
    assert tracer._active is None
    assert t.stats["episode"][CALLS] == 2
    assert t.stats["grid.carve"][CALLS] == 2
    steps = sum(log.total_steps for log in logs)
    replans = t.stats["pathfind.plan"][CALLS] - sum(log.switch_step is not None for log in logs)
    assert t.stats["spiral.step"][CALLS] + t.stats["pathfind.follow"][CALLS] - replans == steps


def test_tracer_collects_counts_from_pool_workers():
    suite = SuiteConfig(sizes=(16,), mazes_per_size=2, variants=("spiral", "spiral_conv"), base_seed=5)
    _, serial_logs = bench.run_suite(suite)
    t = Tracer()
    t.install()
    try:
        _, logs = bench.run_suite(replace(suite, jobs=2))
        t.absorb(logs)
    finally:
        t.uninstall()
    assert Tracer.leftovers() == []
    assert [episode_digest(log) for log in logs] == [episode_digest(log) for log in serial_logs]
    assert all(tracer._TRACE_ATTR not in vars(log) for log in logs)
    assert t.stats["episode"][CALLS] == 4
    assert t.stats["spiral.step"][CALLS] > 0
    assert t.remote_episode_s > 0.0


def _child(*args):
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.child", *args],
        cwd=ROOT,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}", "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_traced_and_untraced_passes_run_in_separate_processes(tmp_path):
    common = ["--workload", "small-all", "--seed", "0", "--rounds", "1"]
    plain = _child(*common, "--out", str(tmp_path / "plain"))
    traced = _child(*common, "--out", str(tmp_path / "traced"), "--traced")
    assert "trace" not in plain
    assert traced["leftover_wrappers"] == []
    assert plain["rounds"][0]["failed"] == 0 and traced["rounds"][0]["failed"] == 0
    assert plain["rounds"][0]["round_digest"] == traced["rounds"][0]["round_digest"]
    assert traced["trace"]["stats"]["episode"][CALLS] == WORKLOADS["small-all"].episodes_per_round


def test_cross_check_reports_counts_that_do_not_repeat():
    stats = {name: [1, 0.1, 0.0, 0] for name in Tracer().stats}
    stats["spiral.step"] = [10, 0.1, 0.0, 0]
    stats["pathfind.plan"] = [0, 0.0, 0.0, 0]
    stats["pathfind.follow"] = [0, 0.0, 0.0, 0]
    rounds = [{"steps": 10, "switched": 0, "episodes": 1, "round_digest": "x"}]
    res = {"rounds": rounds, "trace": {"stats": stats}, "leftover_wrappers": []}
    assert run.cross_check(res, [res, res]) == []
    other = json.loads(json.dumps(res))
    other["trace"]["stats"]["grid.probe"][CALLS] = 2
    problems = run.cross_check(res, [res, other])
    assert any("grid.probe counts differ" in p for p in problems)


# -- workloads and the command ------------------------------------------------


def test_round_seeds_never_share_a_maze():
    for w in WORKLOADS.values():
        mazes = [w.base_seed(seed, k) + i for seed in (0, 1) for k in range(50) for i in range(w.mazes)]
        assert len(mazes) == len(set(mazes))


def test_command_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-all", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_gate_flags_pins_of_another_round_size(logs):
    pinned = [episode_digest(log) for log in logs]
    _, failures = check_logs(logs, pinned[:1])
    assert "16/3/spiral_rl" in failures
    _, failures = check_logs(logs[:1], pinned)
    assert "<round>" in failures
