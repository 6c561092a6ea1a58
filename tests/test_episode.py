import base64
import gc
import itertools
import json
import pickle
import random
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mazeswitch.episode as episode
from mazeswitch.episode import (
    EpisodeConfig,
    STEP_LIMIT_EXCEEDED,
    SUCCESS,
    VARIANTS,
    VariantSpec,
    config_from_record,
    encode_moves,
    moves_from_record,
    pack_moves,
    record_to_json,
    replay_record,
    run_episode,
    to_record,
)
from mazeswitch import spiral
from mazeswitch.grid import KnowledgeMap, MazeGrid, layout, manhattan, nearest_path
from mazeswitch.qlearn import POTENTIAL_OFFSET, potential, switching_component
from conftest import decode_moves, edits

DATA = Path(__file__).parent / "data"


def coverage_prefix(trajectory, n):
    """Independent per-step coverage recomputation from a trajectory."""
    seen = set()
    series = []
    for pos in trajectory:
        seen.add(tuple(pos))
        series.append(len(seen) / (n * n) * 100.0)
    return series


class TestVariants:
    def test_exactly_six(self):
        assert set(VARIANTS) == {
            "spiral",
            "spiral_conv",
            "spiral_rl",
            "sentinel",
            "sentinel_conv",
            "sentinel_rl",
        }

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            VariantSpec("diagonal", "none")
        with pytest.raises(ValueError):
            VariantSpec("spiral", "sometimes")


class TestRunEpisode:
    def test_spiral_none_golden_16_seed1(self):
        # Frozen from the reference run of this configuration.
        log = run_episode(EpisodeConfig(n=16, maze_seed=1, variant=VARIANTS["spiral"]))
        assert log.outcome == SUCCESS
        assert log.total_steps == 36
        assert log.final_coverage == 9.765625
        assert log.role_switches == 0
        assert log.switch_step is None
        assert log.terminal_reward is None

    def test_fixed_switches_at_first_crossing(self):
        # Seed chosen so that 40% coverage is reached before the target.
        cfg = EpisodeConfig(n=32, maze_seed=7, variant=VARIANTS["spiral_conv"])
        log = run_episode(cfg)
        assert log.role_switches == 1
        series = coverage_prefix(log.trajectory, cfg.n)
        crossing = next(i for i, c in enumerate(series) if c >= 40.0)
        assert log.switch_step == crossing
        assert log.switch_coverage == series[crossing]
        assert all(c < 40.0 for c in series[:crossing])

    def test_byte_identical_reruns(self):
        for vname in ("spiral", "sentinel_conv", "spiral_rl"):
            cfg = EpisodeConfig(n=16, maze_seed=2, variant=VARIANTS[vname], rl_seed=5)
            assert record_to_json(run_episode(cfg)) == record_to_json(run_episode(cfg))

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("mode", ["none", "fixed", "rl"])
    def test_spiral_sentinel_parity(self, n, mode):
        seeds = dict(rl_seed=3)
        spiral = run_episode(
            EpisodeConfig(n=n, maze_seed=4, variant=VariantSpec("spiral", mode), **seeds)
        )
        sentinel = run_episode(
            EpisodeConfig(n=n, maze_seed=4, variant=VariantSpec("sentinel", mode), **seeds)
        )
        assert spiral.trajectory == sentinel.trajectory
        assert spiral.total_steps == sentinel.total_steps
        assert spiral.final_coverage == sentinel.final_coverage

    def test_trajectory_length_matches_steps(self):
        for vname in VARIANTS:
            log = run_episode(
                EpisodeConfig(n=16, maze_seed=3, variant=VARIANTS[vname], rl_seed=1)
            )
            assert len(log.trajectory) == log.total_steps + 1
            assert log.trajectory[0] == (0, 0)
            assert log.role_switches in (0, 1)
            assert (log.switch_step is None) == (log.role_switches == 0)

    def test_no_teleporting(self):
        log = run_episode(EpisodeConfig(n=32, maze_seed=7, variant=VARIANTS["spiral_rl"]))
        for a, b in zip(log.trajectory, log.trajectory[1:]):
            assert manhattan(a, b) == 1

    def test_step_limit_failure_recorded(self):
        cfg = EpisodeConfig(n=16, maze_seed=1, variant=VARIANTS["spiral"], step_limit=10)
        log = run_episode(cfg)
        assert log.outcome == STEP_LIMIT_EXCEEDED
        assert log.total_steps == 10
        assert len(log.trajectory) == 11

    def test_metrics_projection(self):
        cfg = EpisodeConfig(n=16, maze_seed=1, variant=VARIANTS["spiral"], step_limit=10)
        log = run_episode(cfg)
        assert (log.total_steps, log.role_switches, log.outcome) == (10, 0, STEP_LIMIT_EXCEEDED)
        assert log.final_coverage == coverage_prefix(log.trajectory, 16)[-1]
        success = run_episode(
            EpisodeConfig(n=32, maze_seed=7, variant=VARIANTS["spiral_conv"])
        )
        assert (success.role_switches, success.outcome) == (1, SUCCESS)
        assert success.total_steps == len(success.trajectory) - 1
        assert success.final_coverage == coverage_prefix(success.trajectory, 32)[-1]


@pytest.fixture
def sealed_target(monkeypatch):
    """Every maze is an open 16x16 grid whose target is walled in on all four sides."""
    walls = [[False] * 16 for _ in range(16)]
    for x, y in ((8, 9), (9, 8), (8, 7), (7, 8)):
        walls[x][y] = True
    maze = MazeGrid(n=16, walls=walls, seed=0)
    monkeypatch.setattr(episode, "generate_maze", lambda n, seed: maze)


class TestSealedTarget:
    """A target walled in on all four sides, pinned as it behaves today.

    The coverage walker runs out its step limit having visited every
    reachable cell; a convergence variant's first plan finds no route.
    """

    @pytest.mark.parametrize("vname", ["spiral", "sentinel"])
    def test_walker_runs_out_its_step_limit(self, sealed_target, vname):
        log = run_episode(EpisodeConfig(n=16, maze_seed=0, variant=VARIANTS[vname]))
        assert (log.outcome, log.total_steps) == (STEP_LIMIT_EXCEEDED, 1024)
        assert log.final_coverage == 98.046875  # 251 of 256 cells: all reachable ones

    @pytest.mark.parametrize("vname", ["spiral", "sentinel"])
    def test_one_empty_search_stands_for_the_rest(self, sealed_target, monkeypatch, vname):
        # All 251 reachable cells are visited by step 256. The one search
        # that then finds no unvisited cell is the walker's last: the
        # remaining 768 steps wall-follow over visited cells.
        results = []

        def counting_search(*args):
            results.append(nearest_path(*args))
            return results[-1]

        monkeypatch.setattr(spiral, "nearest_path", counting_search)
        log = run_episode(EpisodeConfig(n=16, maze_seed=0, variant=VARIANTS[vname]))
        assert (log.total_steps, log.final_coverage) == (1024, 98.046875)
        assert results == [None]

    @pytest.mark.parametrize("vname", ["spiral_conv", "spiral_rl", "sentinel_conv", "sentinel_rl"])
    def test_convergence_finds_no_path(self, sealed_target, vname):
        cfg = EpisodeConfig(n=16, maze_seed=0, variant=VARIANTS[vname])
        message = r"^no optimistic path from \(\d+, \d+\) to \(8, 8\)$"
        with pytest.raises(AssertionError, match=message):
            run_episode(cfg)


class TestCounters:
    @pytest.mark.parametrize(
        "maze, cfg",
        [
            ("carved", EpisodeConfig(n=32, maze_seed=7, variant=VARIANTS["spiral_conv"])),
            (
                "sealed_target",
                EpisodeConfig(n=16, maze_seed=0, variant=VARIANTS["spiral_conv"], step_limit=102),
            ),
        ],
        ids=["switch-mid-episode", "switch-on-the-last-step"],
    )
    def test_each_phase_makes_its_own_calls(self, request, monkeypatch, maze, cfg):
        # The walk steps only up to its switch; A* plans and follows only
        # after it, and a switch on the last allowed step plans nothing.
        # ``replans`` counts the plans after the first.
        if maze == "sealed_target":
            request.getfixturevalue(maze)
        calls = {"spiral_next": 0, "astar_plan": 0, "follow_plan": 0}
        for name in calls:

            def counting(*args, _name=name, _real=getattr(episode, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(episode, name, counting)
        log = run_episode(cfg)
        assert log.switch_step is not None
        replans = log.counters["replans"]
        assert calls["spiral_next"] == log.switch_step
        assert calls["follow_plan"] == log.total_steps - log.switch_step + replans
        if maze == "carved":
            assert log.outcome == SUCCESS
            assert calls["astar_plan"] == replans + 1 > 1
        else:
            assert log.switch_step == log.total_steps == cfg.step_limit
            assert log.outcome == STEP_LIMIT_EXCEEDED
            assert calls["astar_plan"] == replans == 0

    @pytest.mark.parametrize("variant", ["spiral", "spiral_conv"])
    def test_the_walk_ends_with_the_episode(self, monkeypatch, variant):
        # A walk's frame holds the codes and both maps but not the walk
        # itself, so no reference cycle exists: with the collector off,
        # the walk, still suspended, must be freed when run_episode returns.
        walks = []

        def tracked(*args):
            walk = spiral.spiral_walk(*args)
            walks.append(weakref.ref(walk))
            return walk

        monkeypatch.setattr(episode, "spiral_walk", tracked)
        gc.disable()
        try:
            run_episode(EpisodeConfig(n=32, maze_seed=3, variant=VARIANTS[variant]))
            assert len(walks) == 1 and walks[0]() is None
        finally:
            gc.enable()

    def test_no_plans_without_a_switch(self):
        log = run_episode(EpisodeConfig(n=32, maze_seed=4, variant=VARIANTS["spiral_conv"]))
        assert log.switch_step is None
        assert log.counters["replans"] == 0

    def test_sentinel_history_is_shorter_than_its_spiral_twin(self):
        spiral = run_episode(EpisodeConfig(n=32, maze_seed=4, variant=VARIANTS["spiral"]))
        sentinel = run_episode(EpisodeConfig(n=32, maze_seed=4, variant=VARIANTS["sentinel"]))
        assert sentinel.trajectory == spiral.trajectory
        distinct = len(set(spiral.trajectory))
        assert spiral.counters["history_len"] == distinct
        assert sentinel.counters["history_len"] == (distinct + 3) // 4
        assert sentinel.counters["history_len"] < spiral.counters["history_len"]

    def test_only_a_first_visit_arrives(self, monkeypatch):
        # A revisit learns nothing. The walker learns a first visit in its
        # own frame, so ``arrive`` runs for the start cell alone, and the
        # map counts one visit per distinct cell, the start included.
        maps = []
        arrive = KnowledgeMap.arrive

        def counting_arrive(knowledge, maze, i):
            maps.append(knowledge)
            return arrive(knowledge, maze, i)

        monkeypatch.setattr(KnowledgeMap, "arrive", counting_arrive)
        log = run_episode(EpisodeConfig(n=128, maze_seed=0, variant=VARIANTS["spiral"]))
        assert len(maps) == 1
        knowledge = maps[0]
        assert knowledge.visited_count == len(set(log.trajectory))
        assert knowledge.sampled_history == [
            knowledge.index(*cell) for cell in dict.fromkeys(log.trajectory)
        ]
        assert knowledge.visited_count < log.total_steps / 4, (
            knowledge.visited_count,
            log.total_steps,
        )

    def test_the_a_star_phase_arrives_the_walkers_way(self, monkeypatch):
        # After the switch, too, a revisit skips ``arrive``: the calls are
        # the start and the distinct cells first entered after the switch.
        maps = []
        arrive = KnowledgeMap.arrive

        def counting_arrive(knowledge, maze, i):
            maps.append(knowledge)
            return arrive(knowledge, maze, i)

        monkeypatch.setattr(KnowledgeMap, "arrive", counting_arrive)
        log = run_episode(EpisodeConfig(n=128, maze_seed=1, variant=VARIANTS["spiral_conv"]))
        assert log.switch_step is not None
        before = set(log.trajectory[: log.switch_step + 1])
        after = log.trajectory[log.switch_step + 1 :]
        assert any(cell in before for cell in after)  # the A* phase does revisit
        assert len(maps) == 1 + len(set(after) - before)
        assert maps[-1].visited_count == len(set(log.trajectory))

    def test_record_carries_the_counters(self):
        log = run_episode(EpisodeConfig(n=16, maze_seed=1, variant=VARIANTS["spiral"]))
        assert to_record(log)["counters"] == log.counters == {
            "ring": 0,
            "detour": 36,
            "escape": 0,
            "mopup": 0,
            "convergence": 0,
            "loop": 0,
            "stale": 0,
            "replans": 0,
            "history_len": 25,
        }


class TestWalkMemo:
    def test_a_sentinel_episode_after_its_spiral_twin_is_a_miss(self, monkeypatch):
        # Criterion 5 compares a spiral walk with its sentinel twin's, so
        # the memo never hands one base's walk to the other. A hit still
        # takes one ``spiral_next`` call per step of the walk.
        found, calls = [], [0]
        walk_of, step = episode._walk_of, episode.spiral_next

        def finding(key, maze):
            found.append(walk_of(key, maze))
            return found[-1]

        def counting(*args):
            calls[0] += 1
            return step(*args)

        monkeypatch.setattr(episode, "_walk_of", finding)
        monkeypatch.setattr(episode, "spiral_next", counting)
        episode._WALKS.clear()
        logs = {}
        for name in ("spiral", "spiral_conv", "sentinel", "sentinel_conv"):
            calls[0] = 0
            log = logs[name] = run_episode(EpisodeConfig(n=32, maze_seed=7, variant=VARIANTS[name]))
            assert calls[0] == log.total_steps - log.counters["convergence"], name
        assert [walk is not None for walk in found] == [False, True, False, True]
        assert found[1] == found[3]  # the same walk, recorded once per base
        assert list(episode._WALKS) == [(32, 7, "sentinel", 4096)]
        assert logs["sentinel"].trajectory == logs["spiral"].trajectory

    def test_the_memo_holds_no_maze_map_or_state(self):
        # It holds a whole walk's codes as bytes, keyed with the step limit.
        episode._WALKS.clear()
        log = run_episode(EpisodeConfig(n=32, maze_seed=3, variant=VARIANTS["spiral"]))
        [(key, (maze_ref, walk))] = episode._WALKS.items()
        assert key == (32, 3, "spiral", 4096)
        assert isinstance(maze_ref, weakref.ref) and type(walk) is bytes
        assert walk.translate(episode._LETTER_OF_CODE).decode() == log.trajectory.moves

    @pytest.mark.parametrize("name", ["spiral_conv", "spiral_rl"])
    def test_a_switching_episode_leaves_the_memo_as_it_was(self, name):
        # Only a whole walk is stored: a switching episode stores nothing,
        # whether its walk was a miss or replayed the memo's.
        cfg = EpisodeConfig(n=32, maze_seed=7, variant=VARIANTS[name])
        episode._WALKS.clear()
        assert run_episode(cfg).switch_step is not None and episode._WALKS == {}
        for seed in (0, 7):  # the memo holds another maze's walk, then this maze's
            run_episode(EpisodeConfig(n=32, maze_seed=seed, variant=VARIANTS["spiral"]))
            memo = dict(episode._WALKS)
            hit = episode._walk_of((32, 7, "spiral", 4096), episode.generate_maze(32, 7))
            assert (hit is not None) == (seed == 7)
            assert run_episode(cfg).switch_step is not None
            assert episode._WALKS == memo
            assert all(a is b for a, b in zip(episode._WALKS.values(), memo.values()))

    def test_a_walk_ended_by_its_step_limit_is_kept_under_that_limit(self, monkeypatch):
        # A walk cut short by its limit is whole for that limit alone: an
        # episode with a longer limit walks its own, and all read as cold.
        configs = [
            EpisodeConfig(n=32, maze_seed=3, variant=VARIANTS[name], step_limit=limit)
            for name, limit in (("spiral", 300), ("spiral_rl", 300), ("spiral_rl", None))
        ]
        cold = []
        for cfg in configs:
            episode._WALKS.clear()
            cold.append(record_to_json(run_episode(cfg)))
        found, walk_of = [], episode._walk_of

        def finding(key, maze):
            found.append(walk_of(key, maze))
            return found[-1]

        monkeypatch.setattr(episode, "_walk_of", finding)
        episode._WALKS.clear()
        assert [record_to_json(run_episode(cfg)) for cfg in configs] == cold
        assert [walk is not None for walk in found] == [False, True, False]
        assert len(found[1]) == 300

    def test_an_episode_on_another_maze_of_the_same_seed_is_a_miss(self, monkeypatch):
        # The memo's key is (n, maze_seed, base, step_limit), and its walk
        # is of the very maze that was carved; a hand-built maze is another.
        def spiral_record():
            return record_to_json(run_episode(EpisodeConfig(16, 0, VARIANTS["spiral"])))

        episode._WALKS.clear()
        carved = spiral_record()
        walls = [bytearray(row) for row in episode.generate_maze(16, 0).walls]
        walls[0][1] ^= 1
        maze = MazeGrid(n=16, walls=walls, seed=0)
        monkeypatch.setattr(episode, "generate_maze", lambda n, seed: maze)
        edited = spiral_record()
        assert edited != carved
        episode._WALKS.clear()
        assert spiral_record() == edited
        monkeypatch.undo()
        assert spiral_record() == carved


class TestConfigRecord:
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_config_round_trips_through_the_record(self, variant):
        # A config has one form: the default step limit is resolved on construction.
        cfg = EpisodeConfig(n=16, maze_seed=2, variant=VARIANTS[variant], rl_seed=0x51)
        assert cfg.step_limit == 1024
        log = run_episode(cfg)
        back = config_from_record(to_record(log))
        assert back == log.config
        assert hash(back) == hash(log.config)

    @pytest.mark.parametrize("key", ["step_limit", "decision_period"])
    def test_rejects_a_zero_count(self, key):
        with pytest.raises(ValueError, match=f"{key} must be positive"):
            EpisodeConfig(n=16, maze_seed=2, variant=VARIANTS["spiral"], **{key: 0})

    @pytest.mark.parametrize(
        "values, named",
        [
            ({"n": 16.0, "step_limit": 1024}, ["n"]),
            ({"n": 16.0}, ["n", "step_limit"]),  # the default limit is 4 * n * n
            ({"n": "16"}, ["n", "step_limit"]),  # ... and only an int size resolves it
            ({"maze_seed": 1.5}, ["maze_seed"]),
            ({"rl_seed": True}, ["rl_seed"]),
            ({"step_limit": 10.5}, ["step_limit"]),
            ({"step_limit": 100.0}, ["step_limit"]),
            ({"decision_period": "50"}, ["decision_period"]),
        ],
        ids=[
            "float-size", "float-size-default-limit", "str-size", "float-maze-seed",
            "bool-rl-seed", "float-limit", "whole-float-limit", "str-period",
        ],
    )
    def test_rejects_a_value_that_is_not_an_int(self, values, named):
        # Unchecked, a float limit runs an episode whose record replay
        # refuses, and a float size or seed fails deep in the grid code.
        with pytest.raises(ValueError) as raised:
            EpisodeConfig(**{"n": 16, "maze_seed": 1, "variant": VARIANTS["spiral"], **values})
        assert str(raised.value) == f"config values must be integers: {named}"

    @pytest.mark.parametrize("n", [514, 2**31])
    def test_rejects_a_size_above_the_cap(self, n):
        # Uncapped, n = 2**31 built a config with a step limit of 2**64.
        with pytest.raises(ValueError, match=r"^maze size must be even .*, got "):
            EpisodeConfig(n=n, maze_seed=0, variant=VARIANTS["spiral"])

    def test_rejects_a_variant_that_is_not_a_variant_spec(self):
        # Unchecked, a variant name builds and run_episode fails on ``.convergence``.
        with pytest.raises(ValueError, match=r"^variant must be a VariantSpec, got 'spiral'$"):
            EpisodeConfig(n=16, maze_seed=0, variant="spiral")

    def test_record_with_a_null_step_limit_is_rejected(self):
        # A record holds the resolved limit; only a config built in code may omit it.
        cfg = EpisodeConfig(n=16, maze_seed=2, variant=VARIANTS["spiral"])
        record = to_record(run_episode(cfg))
        record["config"]["step_limit"] = None
        with pytest.raises(ValueError, match=r"^config values must be integers: \['step_limit'\]$"):
            config_from_record(record)

    def test_unknown_config_key_is_ignored(self):
        cfg = EpisodeConfig(n=16, maze_seed=2, variant=VARIANTS["spiral"])
        record = to_record(run_episode(cfg))
        record["config"]["jobs"] = 3
        assert config_from_record(record) == cfg


class TestRecordTrajectory:
    def test_version_2_move_string(self):
        log = run_episode(EpisodeConfig(n=16, maze_seed=1, variant=VARIANTS["spiral"]))
        record = to_record(log)
        assert record["schema_version"] == 4
        moves = moves_from_record(record)
        assert len(moves) == log.total_steps
        assert set(moves) <= set("ESWN")

    def test_letters(self):
        assert encode_moves([(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]) == "ESWN"
        assert encode_moves([(0, 0)]) == ""

    @pytest.mark.parametrize(
        "trajectory",
        [
            [(0, 0), (0, 1), (0, 3)],
            [(0, 0), (1, 1)],
            [(0, 0), (0, 0)],
            [[0, 0], [0]],
            [[0, 0], "E"],
        ],
        ids=["jump", "diagonal", "stand-still", "short-position", "not-a-position"],
    )
    def test_non_unit_move_raises(self, trajectory):
        with pytest.raises(ValueError, match="not a unit step"):
            encode_moves(trajectory)

    def test_null_schema_version_is_no_version(self):
        # Version 1 means the key is absent; a null is an unknown version.
        v1 = {"trajectory": [[0, 0], [0, 1]]}
        assert moves_from_record(v1) == "E"
        with pytest.raises(ValueError, match="unknown schema_version None"):
            moves_from_record({**v1, "schema_version": None})
        with pytest.raises(ValueError, match="unknown schema_version None"):
            moves_from_record({"trajectory": "E", "schema_version": None})


def reference_pack(moves):
    """Independent version 4 packer: the moves as 2-bit numbers, high bits first, padded with 0."""
    pad = -len(moves) % 4
    bits = "".join(f"{'ESWN'.index(move):02b}" for move in moves) + "00" * pad
    data = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    return str(pad) + base64.b64encode(data).decode()


def packed_record(trajectory):
    return {"schema_version": 4, "trajectory": trajectory}


class TestPackedMoves:
    def test_worked_example(self):
        # E S W N = 00 01 10 11 = 0x1b; E and three padding moves = 0x00.
        assert pack_moves("ESWNE") == "3GwA="
        assert moves_from_record(packed_record("3GwA=")) == "ESWNE"
        assert pack_moves("") == "0" and moves_from_record(packed_record("0")) == ""

    def test_every_short_string_round_trips(self):
        # Every move string of length 0-6, and random ones of 7-13 and 17,515.
        rng = random.Random(4)
        strings = ["".join(p) for k in range(7) for p in itertools.product("ESWN", repeat=k)]
        lengths = [k for k in (*range(7, 14), 17_515) for _ in range(50)]
        strings += ["".join(rng.choices("ESWN", k=k)) for k in lengths]
        for moves in strings:
            text = pack_moves(moves)
            assert text == reference_pack(moves)
            assert moves_from_record(packed_record(text)) == moves
        assert len(pack_moves(strings[-1])) == 1 + 4 * ((17_515 + 11) // 12)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "starts with its padding digit 0-3, not ''"),
            ("4AA==", "starts with its padding digit 0-3, not '4'"),
            ("\u0663AA==", "starts with its padding digit 0-3, not '\u0663'"),
            ("0Gw=", "is not base64: Incorrect padding"),
            ("0G", "is not base64"),
            ("0Gé==", "is not base64"),
            ("3Aw==", "is not in the packed form its moves write"),
            ("2Gw==", "is not in the packed form its moves write"),
            ("3", "is not in the packed form its moves write"),
            ("0G w==", "is not in the packed form its moves write"),
            ("0G!w==", "is not in the packed form its moves write"),
            ("0G-w==", "is not in the packed form its moves write"),
            ("0Gw==\n", "is not in the packed form its moves write"),
            ("0Gw===", "is not in the packed form its moves write"),
        ],
        ids=[
            "no-digit", "digit-4", "arabic-indic-digit", "short-padding", "one-char-over",
            "not-ascii", "padding-bits-set", "pad-count-too-low", "pad-without-bytes",
            "space-skipped", "bang-skipped", "urlsafe-skipped", "newline-skipped", "extra-padding",
        ],
    )
    def test_anything_but_the_packed_form_raises(self, text, message):
        with pytest.raises(ValueError, match=f"^a version 4 trajectory {message}"):
            moves_from_record(packed_record(text))


class TestTrajectoryView:
    # ``run_episode`` logs its trajectory as the move string it records;
    # the view reads as the list of (x, y) positions the string encodes.
    @pytest.fixture(scope="class")
    def log(self):
        return run_episode(EpisodeConfig(n=16, maze_seed=1, variant=VARIANTS["spiral"]))

    def test_reads_as_the_positions_of_its_moves(self, log):
        view = log.trajectory
        assert type(view) is episode.Trajectory
        cells = decode_moves(view.moves)
        assert len(view) == len(cells) == log.total_steps + 1
        assert view[0] == (0, 0) and view[-1] == cells[-1] == (8, 8)
        assert view[-len(view)] == view[0] and view[-2] == cells[-2]
        with pytest.raises(IndexError):
            view[len(view)]
        assert type(view[1:4]) is list and view[1:4] == cells[1:4]
        assert view[::-1] == cells[::-1]
        assert all(type(cell) is tuple for cell in view)
        assert list(view) == cells

    def test_cells_are_the_layouts_shared_tuples(self, log):
        shared = layout(16)
        assert all(cell is shared.cells[shared.index(*cell)] for cell in log.trajectory)

    def test_equality(self, log):
        view = log.trajectory
        assert view == list(view) and list(view) == view
        assert not view != list(view)
        assert view == run_episode(log.config).trajectory
        assert view != list(view)[:-1] and list(view)[:-1] != view
        other = run_episode(replace(log.config, maze_seed=2)).trajectory
        assert view != other and other != list(view) and list(view) != other
        assert view != tuple(view)
        with pytest.raises(TypeError):
            hash(view)

    def test_pickles_as_its_moves(self, log):
        view = log.trajectory
        list(view)  # decoded and kept; the pickle leaves the cells out
        data = pickle.dumps(view)
        assert len(data) < len(view.moves) + 100
        again = pickle.loads(data)
        assert again == view and again.moves == view.moves and again.n == 16
        assert list(again) == list(view)

    def test_a_logged_episode_pickles_in_about_a_byte_per_step(self):
        # A suite's workers return their logs pickled; at the parent a
        # 128 log was 5.2 B per step, mostly its list of tuples.
        log = run_episode(EpisodeConfig(n=128, maze_seed=0, variant=VARIANTS["spiral"]))
        assert log.total_steps > 10_000
        assert len(pickle.dumps(log)) <= 1.1 * log.total_steps + 1000

    def test_the_record_writes_the_moves_as_they_are(self, log, monkeypatch):
        calls = []
        monkeypatch.setattr(episode, "encode_moves", lambda t: calls.append(t) or encode_moves(t))
        moves = moves_from_record(to_record(log))
        assert moves == log.trajectory.moves and calls == []


# Characters a trajectory mutation writes: base64, move letters, digits and a few others,
# and in the JSON text of a version 1 list of positions, its punctuation.
TRAJECTORY_CHARS = "AZaz09+/=ESWN123 \n-_!é"
POSITIONS_CHARS = "[],.-0123456789 "


class TestReplayRecord:
    @pytest.fixture(scope="class")
    def line(self):
        cfg = EpisodeConfig(n=16, maze_seed=1, variant=VARIANTS["spiral"])
        return record_to_json(run_episode(cfg))

    @pytest.fixture(scope="class")
    def lines(self):
        """Version 1-3 lines of the fixtures, and the v3 episodes as version 4 lines."""
        v1, v2, v3 = ((DATA / f"episodes_v{k}.jsonl").read_text().split("\n")[:3] for k in (1, 2, 3))
        v4 = [record_to_json(run_episode(config_from_record(json.loads(line)))) for line in v3]
        return v1 + v2 + v3 + v4

    def test_own_record_has_no_differing_field(self, line):
        assert replay_record(line) == []

    def test_names_the_fields_that_differ(self, line):
        record = json.loads(line)
        record["total_steps"] += 1
        record["outcome"] = "lost"
        record["extra"] = None  # a field the fresh record lacks differs even when null
        assert replay_record(json.dumps(record)) == ["extra", "outcome", "total_steps"]

    def test_version_1_record_compares_without_the_version_2_fields(self):
        first = (DATA / "episodes_v1.jsonl").read_text().splitlines()[0]
        assert replay_record(first) == []

    def test_version_2_records_compare_in_their_own_form(self):
        # The fresh record is rendered as version 2: dense Q-values and
        # only ``replans`` and ``history_len``. Labelled version 3, the
        # same lines differ in exactly those fields.
        lines = (DATA / "episodes_v2.jsonl").read_text().splitlines()
        assert [replay_record(line) for line in lines] == [[]] * len(lines)
        relabelled = [{**json.loads(line), "schema_version": 3} for line in lines]
        assert [replay_record(json.dumps(r)) for r in relabelled] == [
            ["counters", "q_values"] if "q_values" in r else ["counters"] for r in relabelled
        ]

    def test_version_3_record_with_dense_q_values_differs(self):
        log = run_episode(EpisodeConfig(n=16, maze_seed=34, variant=VARIANTS["spiral_rl"]))
        record = to_record(log)
        assert record["q_values"] and len(record["q_values"]) < len(log.q_values)
        assert replay_record(json.dumps(record)) == []
        assert replay_record(json.dumps({**record, "q_values": log.q_values})) == ["q_values"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "record has no config object"),
            ('{"config": {"n": 16', "Expecting"),
            ('{"trajectory": "E", "schema_version": 2}', "record has no config object"),
        ],
        ids=["not-an-object", "bad-json", "config-checked-first"],
    )
    def test_malformed_line_raises(self, text, message):
        with pytest.raises(ValueError, match=message):
            replay_record(text)

    def test_oversize_record_is_rejected_before_it_runs(self, line, monkeypatch):
        # Uncapped, a line edited to n = 10**9 did not return within 5 s.
        def no_episode(cfg):
            raise AssertionError("an episode started")

        monkeypatch.setattr(episode, "run_episode", no_episode)
        record = json.loads(line)
        record["config"]["n"] = 10**9
        with pytest.raises(ValueError, match=r"^maze size must be even .*, got 1000000000$"):
            replay_record(json.dumps(record))

    @settings(max_examples=150, deadline=1000)
    @given(data=st.data())
    def test_a_mutated_line_replays_or_is_rejected(self, lines, data):
        # Total reader: a version 1-4 line with its trajectory text, its
        # first character (a version 4 padding digit) or its version
        # changed either replays to the names of the fields that differ,
        # none only for the line as written, or raises ValueError, within
        # the deadline. A version 1 list of positions is edited as JSON
        # text and read back, or stays text when that is not JSON.
        written = json.loads(data.draw(st.sampled_from(lines)))
        record = dict(written)
        text = record["trajectory"]
        positions = isinstance(text, list)
        if positions:
            text = json.dumps(text, separators=(",", ":"))
        kind = data.draw(st.sampled_from(("trajectory", "digit", "version")))
        if kind == "trajectory":
            text = data.draw(edits(text, POSITIONS_CHARS if positions else TRAJECTORY_CHARS))
        elif kind == "digit":
            text = data.draw(st.sampled_from("0123456789x")) + text[1:]
        try:
            record["trajectory"] = json.loads(text) if positions else text
        except ValueError:  # edited positions that are no longer JSON stay text
            record["trajectory"] = text
        if kind == "version":
            record["schema_version"] = data.draw(st.sampled_from((1, 2, 3, 4, 5, None, 4.0, "4")))
        try:
            fields = replay_record(json.dumps(record))
        except ValueError:
            return
        assert fields == sorted(set(fields)) and set(fields) <= set(record)
        if kind != "version":
            assert fields in ([], ["trajectory"])
        if not fields:  # only the line as it was written replays identical
            assert record == written

    @pytest.mark.parametrize("version", [None, 1, 5, 2.0, 3.0, 4.0, True])
    def test_unknown_version_raises(self, line, version):
        record = {**json.loads(line), "schema_version": version}
        with pytest.raises(ValueError, match=f"unknown schema_version {version!r}"):
            replay_record(json.dumps(record))


class TestLearningLoop:
    def test_decision_cadence_exactly_fifty(self):
        log = run_episode(
            EpisodeConfig(n=32, maze_seed=7, variant=VARIANTS["spiral_rl"], rl_seed=2)
        )
        steps = [d.step for d in log.decisions]
        assert len(steps) >= 2
        assert all(b - a == 50 for a, b in zip(steps, steps[1:]))
        assert steps[0] == 50

    def test_switch_coverage_at_least_selected_threshold(self):
        for seed in range(10):
            log = run_episode(
                EpisodeConfig(n=32, maze_seed=seed, variant=VARIANTS["spiral_rl"], rl_seed=11)
            )
            if log.switch_step is None:
                continue
            active = 40.0  # default before any decision
            for d in log.decisions:
                if d.step <= log.switch_step:
                    active = float(d.action)
            assert log.switch_coverage >= active

    def test_decisions_stop_after_switch(self):
        log = run_episode(
            EpisodeConfig(n=32, maze_seed=7, variant=VARIANTS["spiral_rl"], rl_seed=2)
        )
        if log.switch_step is not None:
            assert all(d.step <= log.switch_step for d in log.decisions)

    def test_logged_rewards_match_trajectory_recomputation(self):
        # Replay oracle: recompute every interval reward from the raw
        # trajectory alone and compare with the logged values.
        cfg = EpisodeConfig(n=32, maze_seed=7, variant=VARIANTS["spiral_rl"], rl_seed=2)
        log = run_episode(cfg)
        limit = cfg.step_limit
        series = coverage_prefix(log.trajectory, cfg.n)
        prev = (0, 0.0)
        for d in log.decisions:
            snap = (d.step, series[d.step])
            expected = potential(*snap, limit) - potential(*prev, limit)
            assert d.reward == pytest.approx(expected, abs=1e-9)
            prev = snap
        bonus = (
            switching_component(log.switch_coverage)
            if log.switch_coverage is not None
            else 0.0
        )
        expected_terminal = (
            potential(log.total_steps, log.final_coverage, limit)
            - potential(*prev, limit)
            + bonus
        )
        assert log.terminal_decision_reward == pytest.approx(expected_terminal, abs=1e-9)

    @pytest.mark.parametrize("n,seed", [(16, 1), (32, 7), (32, 0), (8, 0)])
    def test_telescoping_reconstruction(self, n, seed):
        log = run_episode(
            EpisodeConfig(n=n, maze_seed=seed, variant=VARIANTS["spiral_rl"], rl_seed=9)
        )
        total = (
            sum(d.reward for d in log.decisions)
            + log.terminal_decision_reward
            + POTENTIAL_OFFSET
        )
        assert total == pytest.approx(log.terminal_reward.total, abs=1e-9)

    def test_rl_log_carries_terminal_breakdown_and_table(self):
        log = run_episode(
            EpisodeConfig(n=16, maze_seed=2, variant=VARIANTS["sentinel_rl"], rl_seed=4)
        )
        assert log.terminal_reward is not None
        br = log.terminal_reward
        assert br.total == br.r_steps + br.r_coverage + br.r_switching
        assert len(log.q_values) == 50
        assert all(len(row) == 5 for row in log.q_values)

    def test_switch_before_first_decision_is_consistent(self):
        # Tiny mazes can end or switch before step 50; the log must stay
        # coherent with zero decisions.
        log = run_episode(
            EpisodeConfig(n=8, maze_seed=0, variant=VARIANTS["spiral_rl"], rl_seed=9)
        )
        assert log.decisions == []
        total = log.terminal_decision_reward + POTENTIAL_OFFSET
        assert total == pytest.approx(log.terminal_reward.total, abs=1e-9)

    def test_fixed_variant_consumes_no_rl_stream(self):
        # Same trajectory whatever rl_seed is passed to a fixed variant.
        a = run_episode(
            EpisodeConfig(n=16, maze_seed=5, variant=VARIANTS["spiral_conv"], rl_seed=1)
        )
        b = run_episode(
            EpisodeConfig(n=16, maze_seed=5, variant=VARIANTS["spiral_conv"], rl_seed=999)
        )
        assert a.trajectory == b.trajectory
